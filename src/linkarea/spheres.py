"""The manifold of oriented point-pairs on S^3 as unit decomposable 2-vectors.

A pair of distinct points lifts to two light-cone vectors whose normalized
wedge is a unit 2-vector; this module provides that embedding, its first
derivatives along a product torus, the induced metric coefficient by two
independent routes, and tangent-space signature counting.
"""

import numpy as np

from . import minkowski as mk
from .errors import CoincidentPoints, DegenerateBasis, NotOnSphere
from .frames import complete_orthonormal
from .jacobi import jacobi_eigenvalues, signature_counts
from .links import DELTA_SEP

#: central-difference step for tangent construction on unit-scale geometry
H_FD = 1e-5

#: zero threshold for Gram eigenvalues (h^2 truncation sits well below)
TAU_EIG = 1e-7


class TangentType:
    MIXED = "mixed"
    DEGENERATE = "degenerate"


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
    if np.min(d2) <= DELTA_SEP * DELTA_SEP:
        raise CoincidentPoints(f"points at chordal distance {np.sqrt(np.min(d2)):.3e}")


def psi_embed(x, y):
    """Unit 2-vector of the pair (x, y): wedge of lifts, normalized.

    Well defined for distinct points because the wedge has squared norm
    <xbar, ybar>^2 = (|x - y|^2 / 2)^2 > 0.
    """
    _check_separated(x, y)
    p = mk.wedge(lift(x), lift(y))
    n2 = mk.inner10(p, p)
    return p / np.sqrt(n2)[..., None] if p.ndim > 1 else p / np.sqrt(n2)


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


def metric_coefficient(c1, c2, s, t) -> float:
    """Closed-form inner product of the two torus tangents at (s, t).

    Uses the determinant identity together with nullity of the lifted
    points; must agree with the explicit route through sigma_derivatives.
    """
    x, xp = c1.evaluate(float(s))
    y, yp = c2.evaluate(float(t))
    _check_separated(x, y)
    b = x @ y - 1.0
    return float((xp @ yp) * b - (xp @ y) * (x @ yp)) / float(b * b)


def metric_kernel(x, xp, y, yp):
    """g[..., i, j] = ((x'.y') b - (x'.y)(x.y')) / b^2, b = x.y - 1, for all pairs.

    Points and velocities are (..., n, 4) and (..., m, 4) stacks; the four
    products are matmuls and the temporaries are updated in place.
    """
    yt, ypt = np.swapaxes(y, -1, -2), np.swapaxes(yp, -1, -2)
    b = x @ yt
    b -= 1.0
    if np.max(b) >= -0.5 * DELTA_SEP * DELTA_SEP:
        raise CoincidentPoints("coincident component points")
    g = xp @ ypt
    g *= b
    cross = xp @ yt
    cross *= x @ ypt
    g -= cross
    b *= b
    g /= b
    return g


def metric_pairs(c1, c2, s, t):
    """Metric coefficient at paired parameter samples (same-shape s and t)."""
    x, xp = c1.evaluate(np.asarray(s, dtype=float))
    y, yp = c2.evaluate(np.asarray(t, dtype=float))
    pair = (a[..., None, :] for a in (x, xp, y, yp))
    return metric_kernel(*pair)[..., 0, 0]


def metric_grid(c1, c2, s, t):
    """Vectorized metric coefficient on the product grid s x t."""
    x, xp = c1.evaluate(np.asarray(s, dtype=float))
    y, yp = c2.evaluate(np.asarray(t, dtype=float))
    return metric_kernel(x, xp, y, yp)


def _pair_tangent_vectors(x, y):
    """Six central-difference tangents of the embedding at the pair (x, y)."""
    vecs = []
    for base, other, first in ((x, y, True), (y, x, False)):
        dirs = complete_orthonormal([base], 4)
        for d in dirs:
            plus = np.cos(H_FD) * base + np.sin(H_FD) * d
            minus = np.cos(H_FD) * base - np.sin(H_FD) * d
            if first:
                dv = psi_embed(plus, other) - psi_embed(minus, other)
            else:
                dv = psi_embed(other, plus) - psi_embed(other, minus)
            vecs.append(dv / (2.0 * H_FD))
    return np.array(vecs)


def theta_tangent_signature(x, y):
    """Signature (n_plus, n_minus, n_zero) of the tangent space at a pair.

    Three directions through each point span the tangent space; the 6x6
    Gram matrix under the wedge metric has signature (3, 3, 0) everywhere.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_separated(x, y)
    V = _pair_tangent_vectors(x, y)
    rank_gram = V @ V.T
    rank_ev = jacobi_eigenvalues(rank_gram)
    if rank_ev[0] < 1e-8 * max(1.0, rank_ev[-1]):
        raise DegenerateBasis("tangent vectors have rank below 6")
    gram = (V * mk.EPS10) @ V.T
    return signature_counts(jacobi_eigenvalues(gram), TAU_EIG)


def torus_tangent_type(c1, c2, s, t) -> str:
    """Mixed when the 2x2 torus Gram [[0, g], [g, 0]] is non-degenerate."""
    g = metric_coefficient(c1, c2, s, t)
    return TangentType.MIXED if abs(g) > TAU_EIG else TangentType.DEGENERATE
