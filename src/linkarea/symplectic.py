"""Cotangent-bundle route to the cross-ratio density.

A pair (x, y) is read as the covector at x given by pairing with the
stereographic image of y in the hyperplane through the origin orthogonal
to x.  Pulling the tautological 1-form back to the parameter torus gives
a 1-form a(s, t) ds whose exterior derivative must reproduce the
cross-ratio real part up to one global sign; this module computes the
pullback, differentiates it spectrally, and calibrates and checks that
sign.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPoints, SignInconsistency
from .links import TWO_PI
from .spheres import metric_grid


def stereo_project(x, y):
    """Projection of y from the pole x onto the hyperplane through 0 orthogonal to x.

    p_x(y) = (y - (y.x) x) / (1 - y.x); fixes the equator y.x = 0 and sends
    the antipode of x to the origin.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = 1.0 - np.sum(x * y, axis=-1)
    if np.min(d) <= 1e-12:
        raise CoincidentPoints("projection pole coincides with the point")
    return (y - np.sum(x * y, axis=-1)[..., None] * x) / d[..., None]


@dataclass(frozen=True)
class PulledBackOneForm:
    """Coefficient a of the torus 1-form a ds; it has no dt part because the
    bundle projection kills the fiber direction."""
    s: np.ndarray
    t: np.ndarray
    a: np.ndarray


def tautological_pullback(c1, c2, n_s: int, n_t: int) -> PulledBackOneForm:
    """Pull the tautological 1-form back to a uniform n_s x n_t torus grid."""
    if n_s < 32 or n_t < 32:
        raise ValueError("grid must be at least 32 x 32")
    s = np.linspace(0.0, TWO_PI, n_s, endpoint=False)
    t = np.linspace(0.0, TWO_PI, n_t, endpoint=False)
    x, xp = c1.evaluate(s)
    y, _ = c2.evaluate(t)
    dots = x @ y.T
    if np.max(dots) >= 1.0 - 1e-12:
        raise CoincidentPoints("grid contains coincident component points")
    proj = (y[None, :, :] - dots[:, :, None] * x[:, None, :]) / (1.0 - dots)[:, :, None]
    a = np.sum(proj * xp[:, None, :], axis=-1)
    return PulledBackOneForm(s=s, t=t, a=a)


def spectral_t_derivative(values):
    """Derivative along the (periodic) second axis by Fourier differentiation."""
    n_t = values.shape[1]
    freq = np.fft.rfftfreq(n_t, d=1.0 / n_t)
    spectrum = np.fft.rfft(values, axis=1)
    deriv = 1j * freq * spectrum
    if n_t % 2 == 0:
        deriv[:, -1] = 0.0  # the unpaired Nyquist mode has no usable derivative
    return np.fft.irfft(deriv, n=n_t, axis=1)


def exterior_derivative_check(c1, c2, n_s: int = 128, n_t: int = 128, sign=None):
    """Residual of the 1-form route against the metric route.

    Computes d(a ds) = -da/dt ds^dt spectrally and finds the global sign
    eps in {+1, -1} minimizing max |re_omega - eps * (-1/2) * dbeta|; when a
    sign is supplied it is used as-is.  Returns (max residual, sign).

    Raises SignInconsistency when neither sign fits a non-trivial field,
    i.e. no single orientation convention reconciles the two routes.
    """
    beta = tautological_pullback(c1, c2, n_s, n_t)
    dbeta = -spectral_t_derivative(beta.a)
    s, t = beta.s, beta.t
    re_omega = 0.5 * metric_grid(c1, c2, s, t)
    scale = float(np.max(np.abs(re_omega)))
    if sign is not None:
        residual = float(np.max(np.abs(re_omega - sign * (-0.5) * dbeta)))
        return residual, int(sign)
    res_plus = float(np.max(np.abs(re_omega - (-0.5) * dbeta)))
    res_minus = float(np.max(np.abs(re_omega + (-0.5) * dbeta)))
    best_sign = 1 if res_plus <= res_minus else -1
    best = min(res_plus, res_minus)
    if scale > 1e-8 and best > 0.5 * scale:
        raise SignInconsistency(
            f"residuals {res_plus:.3e}/{res_minus:.3e} against field scale {scale:.3e}")
    return best, best_sign


def determine_global_sign(link, n_s: int = 128, n_t: int = 128) -> int:
    """Calibrate the single global sign on one link with a non-trivial field."""
    _, sign = exterior_derivative_check(link.c1, link.c2, n_s, n_t)
    return sign

