"""Cotangent-bundle route to the cross-ratio density.

A pair (x, y) is read as the covector at x given by pairing with the
stereographic image of y in the hyperplane through the origin orthogonal
to x.  Pulling the tautological 1-form back to the parameter torus gives
a 1-form a(s, t) ds, with no dt part because the bundle projection kills
the fiber direction.  Its exterior derivative -da/dt ds^dt is twice the
cross-ratio real part g/2 ds^dt: the metric coefficient of the torus is
g = SIGN * da/dt with SIGN = -1.  This module computes the pullback,
differentiates it spectrally and measures how far that identity is from
holding.  The sign is fixed, not fitted, so an error in either route
shows as a residual of the size of the field.  The area (functionals)
integrates |g| along each s-row through the same pullback, as the
variation of a between the row's zeros of g.
"""

import numpy as np

from .errors import CoincidentPoints
from .links import TWO_PI
from .spheres import metric_kernel

#: the sign in g = SIGN * da/dt, i.e. g = -da/dt
SIGN = -1

#: exterior_derivative_check runs on the N_GRID x N_GRID grid ...
N_GRID = 128
#: ... and this bounds its residual there (verify, oracle)
TOL_SYMPLECTIC = 1e-6


def stereo_project(x, y):
    """Projection of y from the pole x onto the hyperplane through 0 orthogonal to x.

    p_x(y) = (y - (y.x) x) / (1 - y.x); fixes the equator y.x = 0 and sends
    the antipode of x to the origin.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = 1.0 - np.sum(x * y, axis=-1)
    if not np.min(d) > 1e-12:
        raise CoincidentPoints("projection pole coincides with the point")
    return (y - np.sum(x * y, axis=-1)[..., None] * x) / d[..., None]


def tautological_pullback(x, xp, y):
    """Coefficient a[..., i, j] of the pulled-back 1-form a ds at the pairs of
    the first curve's points x and velocities xp, (..., n, 4) stacks, and
    the second curve's points y, (..., m, 4).

    a = xp . p_x(y) = (x'.y - (x.y)(x'.x)) / (1 - x.y), formed from matrix
    products, so that no (n, m, 4) temporary exists; the products x . y
    are checked for coincident points at once.  Product grids give a on
    the torus (exterior_derivative_check), paired (k, 1, 4) stacks a at
    the zeros of g (functionals).
    """
    yt = np.swapaxes(y, -1, -2)
    dots = x @ yt
    if not np.max(dots) < 1.0 - 1e-12:
        raise CoincidentPoints("grid contains coincident component points")
    a = xp @ yt
    a -= dots * np.sum(xp * x, axis=-1)[..., None]
    a /= 1.0 - dots
    return a


def spectral_t_derivative(values):
    """Derivative along the (periodic) second axis by Fourier differentiation."""
    n_t = values.shape[1]
    freq = np.fft.rfftfreq(n_t, d=1.0 / n_t)
    spectrum = np.fft.rfft(values, axis=1)
    deriv = 1j * freq * spectrum
    if n_t % 2 == 0:
        deriv[:, -1] = 0.0  # the unpaired Nyquist mode has no usable derivative
    return np.fft.irfft(deriv, n=n_t, axis=1)


def exterior_derivative_check(c1, c2) -> float:
    """Residual of the 1-form route against the metric route: the largest
    |Re omega - SIGN * da/dt / 2| on the uniform N_GRID x N_GRID torus grid,
    where Re omega = g / 2."""
    nodes = np.linspace(0.0, TWO_PI, N_GRID, endpoint=False)
    x, xp = c1.evaluate(nodes)
    y, yp = c2.evaluate(nodes)
    da_dt = spectral_t_derivative(tautological_pullback(x, xp, y))
    return 0.5 * float(np.max(np.abs(metric_kernel(x, xp, y, yp) - SIGN * da_dt)))
