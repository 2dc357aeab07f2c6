"""Algebra of 5-dimensional Minkowski space and its wedge square.

Vectors live in R^5 with the indefinite inner product

    <u, v> = -u0*v0 + u1*v1 + u2*v2 + u3*v3 + u4*v4,

coordinate 0 being the timelike one; lift puts points x of S^3 on its light
cone as (1, x), their velocities as (0, x').  Decomposable 2-vectors are
stored in the 10 wedge coordinates p_(i1 i2), i1 < i2, in lexicographic order

    (01, 02, 03, 04, 12, 13, 14, 23, 24, 34),

which fixes the array and file layouts everywhere in the package.  All
functions broadcast over leading axes: a stack (n, 5) wedges into a stack (n, 10).
"""

import numpy as np

#: lexicographic multi-index order for wedge coordinates
PAIRS = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

_I1 = np.array([ij[0] for ij in PAIRS])
_I2 = np.array([ij[1] for ij in PAIRS])

#: metric signs of R^5: diag(-1, +1, +1, +1, +1)
ETA5 = np.array([-1.0, 1.0, 1.0, 1.0, 1.0])

#: metric signs of the wedge square: +1 when i1 = 0, -1 when i1 >= 1
EPS10 = np.where(_I1 == 0, 1.0, -1.0)


def lift(v, lead=1.0):
    """(lead, v) in R^5 (broadcasts): the light-cone lift of points v of S^3
    at lead 1, of their velocities at lead 0."""
    v = np.asarray(v, dtype=float)
    return np.concatenate([np.full(v.shape[:-1] + (1,), lead), v], axis=-1)


def wedge(x, y):
    """Wedge product in the 10 lexicographic coordinates (broadcasts).

    p_(i1 i2) = x_i1 * y_i2 - x_i2 * y_i1 for i1 < i2; antisymmetric in
    (x, y), zero when x = y.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return x[..., _I1] * y[..., _I2] - x[..., _I2] * y[..., _I1]


def inner10(p, q):
    """Induced inner product of 2-vectors, signature (4, 6) (broadcasts).

    On decomposables this equals

        - det [[<x, x'>, <x, y'>], [<y, x'>, <y, y'>]]

    for p = x ^ y, q = x' ^ y'; the coordinate form used here extends it
    to arbitrary 2-vectors.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return np.sum(p * EPS10 * q, axis=-1)


def minor_lift(A):
    """Lift 5x5 matrices to the 10x10 matrices of their 2x2 minors (broadcasts).

    Satisfies minor_lift(A) @ wedge(x, y) = wedge(A @ x, A @ y); restricted
    to the pseudo-orthogonal group of R^5 it lands in the pseudo-orthogonal
    group of the wedge square and is a homomorphism.  A stack (..., 5, 5)
    lifts to a C-contiguous stack (..., 10, 10), so that a product with
    one of its matrices rounds as with a single lift.
    """
    A = np.asarray(A, dtype=float)
    if A.shape[-2:] != (5, 5):
        raise ValueError("minor_lift expects 5x5 matrices")
    i1, i2 = _I1[:, None], _I2[:, None]
    return np.ascontiguousarray(A[..., i1, _I1] * A[..., i2, _I2]
                                - A[..., i1, _I2] * A[..., i2, _I1])


def orthogonality_residual(M, signs) -> float:
    """max |M^T diag(signs) M - diag(signs)| over the entries of M or of a
    stack of them: how far M is from preserving the metric of the signs,
    ETA5 on R^5 or EPS10 on the wedge square.  A NaN entry gives NaN."""
    M = np.asarray(M, dtype=float)
    metric = np.diag(signs)
    return float(np.max(np.abs(np.swapaxes(M, -1, -2) @ metric @ M - metric)))
