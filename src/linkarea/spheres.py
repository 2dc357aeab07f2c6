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

#: central-difference step for tangent construction on unit-scale geometry
H_FD = 1e-5

#: zero threshold for Gram eigenvalues (h^2 truncation sits well below)
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


def _check_separated(x, y):
    d2 = np.sum((np.asarray(x) - np.asarray(y)) ** 2, axis=-1)
    if not np.min(d2) > DELTA_SEP * DELTA_SEP:
        raise CoincidentPoints(f"points at chordal distance {np.sqrt(np.min(d2)):.3e}")


def psi_embed(x, y):
    """Unit 2-vector of the pair (x, y): wedge of lifts, normalized.

    Well defined for distinct points because the wedge has squared norm
    <xbar, ybar>^2 = (|x - y|^2 / 2)^2 > 0.
    """
    _check_separated(x, y)
    p = mk.wedge(lift(x), lift(y))
    n2 = mk.inner10(p, p)
    return p / np.sqrt(n2)[..., None]


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
    xbp, ybp = _lift_velocity(xp), _lift_velocity(yp)
    p = mk.wedge(xb, yb)
    ps = mk.wedge(xbp, yb)
    pt = mk.wedge(xb, ybp)
    n2 = np.asarray(mk.inner10(p, p))
    rn = np.sqrt(n2)[..., None]
    sigma = p / rn
    sigma_s = ps / rn - p * np.asarray(mk.inner10(p, ps) / (n2 * np.sqrt(n2)))[..., None]
    sigma_t = pt / rn - p * np.asarray(mk.inner10(p, pt) / (n2 * np.sqrt(n2)))[..., None]
    return sigma, sigma_s, sigma_t


def metric_kernel(x, xp, y, yp):
    """g[..., i, j] = ((x'.y') b - (x'.y)(x.y')) / b^2, b = x.y - 1, for all pairs.

    Points and velocities are (..., n, 4) and (..., m, 4) stacks; the four
    products are matmuls and the temporaries are updated in place.
    """
    yt, ypt = np.swapaxes(y, -1, -2), np.swapaxes(yp, -1, -2)
    b = x @ yt
    b -= 1.0
    if not np.max(b) < -0.5 * DELTA_SEP * DELTA_SEP:
        raise CoincidentPoints("coincident component points")
    g = xp @ ypt
    g *= b
    cross = xp @ yt
    cross *= x @ ypt
    g -= cross
    b *= b
    g /= b
    return g


def _pair_tangent_vectors(x, y):
    """Six central-difference tangents (..., 6, 10) of the embedding at pairs (..., 4)."""
    vecs = []
    for base, other, first in ((x, y, True), (y, x, False)):
        q = np.linalg.qr(base[..., :, None], mode="complete")[0]
        for k in range(1, 4):  # the columns of q after the first span the tangents at base
            d = q[..., :, k]
            plus = np.cos(H_FD) * base + np.sin(H_FD) * d
            minus = np.cos(H_FD) * base - np.sin(H_FD) * d
            if first:
                dv = psi_embed(plus, other) - psi_embed(minus, other)
            else:
                dv = psi_embed(other, plus) - psi_embed(other, minus)
            vecs.append(dv / (2.0 * H_FD))
    return np.stack(vecs, axis=-2)


def theta_tangent_signature(x, y):
    """Signature counts (n_plus, n_minus, n_zero) of the tangent spaces at pairs.

    Three directions through each point span the tangent space; the 6x6
    Gram matrix under the wedge metric has signature (3, 3, 0) everywhere.
    Broadcasts over the leading axes of (..., 4) pairs and returns their
    (..., 3) counts; a pair whose tangents are non-finite or of rank below
    6 has no signature and counts (0, 0, 0).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_separated(x, y)
    V = _pair_tangent_vectors(x, y)
    finite = np.all(np.isfinite(V), axis=(-2, -1))
    V = np.where(finite[..., None, None], V, 0.0)
    rank_ev = np.linalg.eigvalsh(V @ np.swapaxes(V, -1, -2))
    full = finite & (rank_ev[..., 0] >= 1e-8 * np.maximum(1.0, rank_ev[..., -1]))
    gram = (V * mk.EPS10) @ np.swapaxes(V, -1, -2)
    return np.where(full[..., None], signature_counts(np.linalg.eigvalsh(gram)), 0)


def signature_counts(eigenvalues):
    """(n_plus, n_minus, n_zero) of the spectra along the last axis, as a
    (..., 3) array; |lambda| <= TAU_EIG counts as zero."""
    ev = np.asarray(eigenvalues, dtype=float)
    n_plus = np.sum(ev > TAU_EIG, axis=-1)
    n_minus = np.sum(ev < -TAU_EIG, axis=-1)
    return np.stack([n_plus, n_minus, ev.shape[-1] - n_plus - n_minus], axis=-1)
