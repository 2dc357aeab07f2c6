"""The manifold of oriented point-pairs on S^3 as unit decomposable 2-vectors.

A pair of distinct points lifts to two light-cone vectors whose normalized
wedge is a unit 2-vector; this module provides that embedding, its first
derivatives along a product torus, the induced metric coefficient by two
independent routes, and tangent-space signature counting.
"""

import numpy as np

from . import minkowski as mk
from .errors import CoincidentPoints, NotOnSphere
from .links import DELTA_SEP

#: zero threshold for Gram eigenvalues; theta_tangent_signature applies it
#: relative to the largest |lambda| of each pair's Gram matrix
TAU_EIG = 1e-7

#: roundoff of g relative to |Omega|, in the area quadrature's sign test and
#: error floor (see functionals) and in the descent's stop (optimize.minimize)
ROUNDOFF = 64 * np.finfo(float).eps


def lift(x):
    """Light-cone lift of a point of S^3: x -> (1, x) (broadcasts).

    The image satisfies <lift(x), lift(x)> = 0 and, for two points,
    <lift(x), lift(y)> = -|x - y|^2 / 2.
    """
    x = np.asarray(x, dtype=float)
    norms = np.linalg.norm(x, axis=-1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise NotOnSphere(f"|x| deviates from 1 by {np.max(np.abs(norms - 1.0)):.3e}")
    return np.concatenate([np.ones(x.shape[:-1] + (1,)), x], axis=-1)


def _lift_velocity(v):
    v = np.asarray(v, dtype=float)
    return np.concatenate([np.zeros(v.shape[:-1] + (1,)), v], axis=-1)


def require_separated(chord2, what):
    """Raise CoincidentPoints unless chord2, the least squared chord |x - y|^2
    = 2 - 2 x.y of a set of pairs of points, exceeds DELTA_SEP^2; a NaN raises too."""
    if not chord2 > DELTA_SEP * DELTA_SEP:
        # abs: max(-0.0, 0.0) keeps the -0.0
        raise CoincidentPoints(f"{what} at chordal distance {abs(np.sqrt(max(chord2, 0.0))):.3e}")


def _check_separated(x, y):
    require_separated(np.min(np.sum((np.asarray(x) - np.asarray(y)) ** 2, axis=-1)), "points")


def psi_embed(x, y):
    """Unit 2-vector of the pair (x, y): wedge of lifts, normalized.

    Well defined for distinct points because the wedge has squared norm
    <xbar, ybar>^2 = (|x - y|^2 / 2)^2 > 0.
    """
    _check_separated(x, y)
    p = mk.wedge(lift(x), lift(y))
    n2 = mk.inner10(p, p)
    return p / np.sqrt(n2)[..., None]


def _psi_jet(p, dp):
    """psi = p/|p| and its derivatives dp/|p| - p<p, dp>/|p|^3 along a stack of
    wedge derivatives dp (k, ..., 10) of p (..., 10)."""
    n2 = np.asarray(mk.inner10(p, p))[..., None]
    rn = np.sqrt(n2)
    return p / rn, dp / rn - p * (mk.inner10(p, dp)[..., None] / (n2 * rn))


def sigma_derivatives(c1, c2, s, t):
    """The embedded torus point and its two parameter derivatives.

    Returns (sigma, sigma_s, sigma_t) as 2-vector triples at (s, t); both
    derivatives are null and their inner product is the metric coefficient.
    Accepts paired parameter arrays and broadcasts.
    """
    x, xp = c1.evaluate(s)
    y, yp = c2.evaluate(t)
    _check_separated(x, y)
    xb, yb = lift(x), lift(y)
    dp = np.stack([mk.wedge(_lift_velocity(xp), yb), mk.wedge(xb, _lift_velocity(yp))])
    sigma, (sigma_s, sigma_t) = _psi_jet(mk.wedge(xb, yb), dp)
    return sigma, sigma_s, sigma_t


def metric_kernel(x, xp, y, yp):
    """g[..., i, j] = ((x'.y') b - (x'.y)(x.y')) / b^2, b = x.y - 1, for all pairs.

    Points and velocities are (..., n, 4) and (..., m, 4) stacks; the four
    products are matmuls and the temporaries are updated in place.
    """
    yt, ypt = np.swapaxes(y, -1, -2), np.swapaxes(yp, -1, -2)
    b = x @ yt
    b -= 1.0
    require_separated(-2.0 * np.max(b), "component points")
    g = xp @ ypt
    g *= b
    cross = xp @ yt
    cross *= x @ ypt
    g -= cross
    b *= b
    g /= b
    return g


def _pair_tangent_vectors(x, y):
    """Six tangents (..., 6, 10) at pairs (..., 4): psi's exact derivatives along the
    last three columns of each point's complete QR, an orthonormal tangent basis."""
    dx, dy = (np.moveaxis(np.linalg.qr(b[..., None], mode="complete")[0], -1, 0)[1:]
              for b in (x, y))
    xb, yb = lift(x), lift(y)
    dp = np.concatenate([mk.wedge(_lift_velocity(dx), yb), mk.wedge(xb, _lift_velocity(dy))])
    return np.moveaxis(_psi_jet(mk.wedge(xb, yb), dp)[1], 0, -2)


def theta_tangent_signature(x, y):
    """Signature counts (n_plus, n_minus, n_zero) of the tangent spaces at pairs.

    Three directions through each point span the tangent space; the 6x6
    Gram matrix under the wedge metric has signature (3, 3, 0) everywhere.
    Broadcasts over the leading axes of (..., 4) pairs and returns their
    (..., 3) counts, relative to each Gram's largest |lambda|; a pair whose
    tangents are non-finite or all zero has no signature and counts (0, 0, 0).
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    _check_separated(x, y)
    # below chord about 1e-5, <p, p> can round to <= 0: such a pair counts (0, 0, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        V = _pair_tangent_vectors(x, y)
        V = np.where(np.all(np.isfinite(V), axis=(-2, -1))[..., None, None], V, 0.0)
        ev = np.linalg.eigvalsh((V * mk.EPS10) @ np.swapaxes(V, -1, -2))
        scale = np.max(np.abs(ev), axis=-1, keepdims=True)
        return np.where(scale > 0.0, signature_counts(ev / scale), 0)


def signature_counts(eigenvalues):
    """(n_plus, n_minus, n_zero) of the spectra along the last axis, as a
    (..., 3) array; |lambda| <= TAU_EIG counts as zero."""
    ev = np.asarray(eigenvalues, dtype=float)
    n_plus = np.sum(ev > TAU_EIG, axis=-1)
    n_minus = np.sum(ev < -TAU_EIG, axis=-1)
    return np.stack([n_plus, n_minus, ev.shape[-1] - n_plus - n_minus], axis=-1)
