"""Conformal angle and infinitesimal cross-ratio density, by independent routes.

Three mutually independent computations of the same pointwise density are
provided: a closed form through the wedge metric, a chart-geometric
construction with tangent circles in a stereographic chart, and a
finite-difference cross ratio of four nearby chart points, read off their
six pairwise distances.  Their agreement is the main cross-validation
instrument of the package.

The wedge and chart routes are each one broadcasting kernel on point
stacks.  Each route has one entry point at parameter samples, which
evaluates the curves and broadcasts s against t like a ufunc: paired
arrays give the values at (s[k], t[k]), s[:, None] and t the product
grid s x t, scalars 0-d arrays.  The wedge kernel has two parts:
magnitude_kernel gives g, |Omega| and the cosine of the angle, and checks
that cosine; density_kernel adds theta and Re Omega for density_pairs and
for the row blocks of the exported grid (functionals.grid_blocks).  The
quadrature's levels call only the first part, since Re Omega = g/2, and
its zero refinement only metric_kernel.  The finite-difference route
broadcasts the same way.  The three share no code beyond the chart
stacks, one chart_jet per curve, that the chart and finite-difference
routes both lay out."""

import numpy as np

from .errors import CoincidentPoints, CosineOutOfRange, PoleOnCurve
from .links import PROBE
from .spheres import metric_kernel

#: minimum clearance between a chart pole and either curve
POLE_CLEARANCE = 0.3

#: bound on |cos(wedge) - cos(chart)| between the two angle routes (verify,
#: oracle).  They are compared as cosines: near theta = 0 and pi, arccos
#: magnifies a cosine's roundoff eps to an angle error of about sqrt(2 eps)
TOL_WEDGE_CHART = 1e-12

#: spread of the finite-difference stencil along each tangent; cross_ratio_fd
#: extrapolates from it and from half of it
FD_SPREAD = 1e-3

#: bound on |closed form - cross_ratio_fd| of Re omega (verify, oracle): the
#: extrapolation leaves O(FD_SPREAD^4), at most 2.3e-13 on the catalogue
TOL_FD = 1e-10

#: a cosine beyond [-1, 1] by more than this is a defect, not roundoff
_COSINE_SLACK = 1e-9

# deterministic pole scan order: the two poles of the last axis first, then
# the remaining single-axis poles, then two-axis diagonals
_POLE_CANDIDATES = np.array(
    [[0, 0, 0, 1], [0, 0, 0, -1],
     [1, 0, 0, 0], [-1, 0, 0, 0], [0, 1, 0, 0], [0, -1, 0, 0],
     [0, 0, 1, 0], [0, 0, -1, 0]]
    + [[a, b, 0, 0] for a in (1, -1) for b in (1, -1)]
    + [[a, 0, b, 0] for a in (1, -1) for b in (1, -1)]
    + [[0, a, b, 0] for a in (1, -1) for b in (1, -1)]
    + [[1, 0, 0, 1], [-1, 0, 0, 1], [0, 1, 0, 1], [0, -1, 0, 1],
       [0, 0, 1, 1], [0, 0, -1, 1]],
    dtype=float)
_POLE_CANDIDATES = _POLE_CANDIDATES / np.linalg.norm(_POLE_CANDIDATES, axis=1, keepdims=True)


def chart_pole(c1, c2):
    """First of 26 fixed candidate poles with clearance >= 0.3 from both
    curves, each sampled at the PROBE parameters."""
    pts = np.vstack([c1.point(PROBE), c2.point(PROBE)])
    for cand in _POLE_CANDIDATES:
        clearance = np.min(np.linalg.norm(pts - cand, axis=1))
        if clearance >= POLE_CLEARANCE:
            return cand
    raise PoleOnCurve("no candidate pole clears both curves")


def chart_basis(pole):
    """Orthonormal basis (rows) of the hyperplane orthogonal to the unit pole."""
    return np.linalg.qr(pole[:, None], mode="complete")[0][:, 1:].T


def chart_jet(x, xp, pole, basis):
    """Stereographic chart coordinates of the points x, projecting from the
    pole, and the chart images of their tangent vectors xp: with d = 1 - x.pole
    and q = x - (x.pole) pole, the point is q/d and the vector
    (xp - (xp.pole) pole)/d + q (xp.pole)/d^2."""
    xn = (x @ pole)[..., None]
    d = 1.0 - xn
    if not np.min(d) > 1e-12:
        raise CoincidentPoints("point at the chart pole")
    q = x - xn * pole
    vn = (xp @ pole)[..., None]
    return (q / d) @ basis.T, ((xp - vn * pole) / d + q * vn / d ** 2) @ basis.T


def _check_cosine(cos) -> None:
    """Reject a cosine that leaves [-1, 1] by more than _COSINE_SLACK."""
    excess = np.max(np.abs(cos)) - 1.0
    if excess > _COSINE_SLACK:
        raise CosineOutOfRange(f"cosine argument exceeds 1 by {excess:.3e}")


def magnitude_kernel(x, xp, y, yp):
    """(g, abs, cos)[..., i, j] for all pairs of (..., n, 4) and (..., m, 4) stacks.

    abs = |x'||y'|/|x-y|^2 and cos = g |x-y|^2 / (2|x'||y'|), the cosine of
    the wedge-route angle, checked to lie in [-1, 1] up to roundoff.  The
    quadrature needs only g and abs: Re Omega = abs cos = g/2.  Like
    metric_kernel, it updates its temporaries in place.
    """
    g = metric_kernel(x, xp, y, yp)
    cos = x @ np.swapaxes(y, -1, -2)
    cos *= -2.0
    cos += 2.0  # |x - y|^2
    speeds = np.linalg.norm(xp, axis=-1)[..., :, None] * np.linalg.norm(yp, axis=-1)[..., None, :]
    absval = speeds / cos
    cos *= g
    speeds *= 2.0
    cos /= speeds
    _check_cosine(cos)
    return g, absval, cos


def density_kernel(x, xp, y, yp):
    """(g, theta, abs, re)[..., i, j]: magnitude_kernel plus the angle fields.

    theta = arccos(cos) is the wedge-route angle in [0, pi]; re =
    abs cos(theta) is half the metric.
    """
    g, absval, cos = magnitude_kernel(x, xp, y, yp)
    theta = np.arccos(np.clip(cos, -1.0, 1.0))
    return g, theta, absval, absval * np.cos(theta)


def density_pairs(c1, c2, s, t):
    """(g, theta, abs, re) at the samples (s, t), broadcast against each other.

    Paired arrays give the fields at (s[k], t[k]), s[:, None] and t the
    product grid, scalars 0-d arrays.
    """
    x, xp = c1.evaluate(np.asarray(s, dtype=float))
    y, yp = c2.evaluate(np.asarray(t, dtype=float))
    fields = density_kernel(*(a[..., None, :] for a in (x, xp, y, yp)))
    return tuple(f[..., 0, 0] for f in fields)


def _chart_angle(xc, tx, yc, ty):
    """Chart-route angle[..., i, j] for (..., n, 3) and (..., m, 3) chart stacks.

    In a stereographic chart the circle tangent to the first curve at x
    through y reaches y with direction 2(t_x . u)u - t_x, u the unit chord;
    the angle is between that direction and the chart tangent of the
    second curve at y.
    """
    tx = tx / np.linalg.norm(tx, axis=-1, keepdims=True)
    ty = ty / np.linalg.norm(ty, axis=-1, keepdims=True)
    u = yc[..., None, :, :] - xc[..., :, None, :]
    u = u / np.linalg.norm(u, axis=-1, keepdims=True)
    proj = np.sum(tx[..., :, None, :] * u, axis=-1, keepdims=True)
    w = 2.0 * proj * u - tx[..., :, None, :]
    cos = np.sum(w * ty[..., None, :, :], axis=-1)
    _check_cosine(cos)
    return np.arccos(np.clip(cos, -1.0, 1.0))


def _chart_stacks(c1, c2, s, t):
    """Chart points and tangents (xc, tx, yc, ty) of both curves at s and t, by chart_pole."""
    pole = chart_pole(c1, c2)
    basis = chart_basis(pole)
    x, xp = c1.evaluate(s)
    y, yp = c2.evaluate(t)
    return (*chart_jet(x, xp, pole, basis), *chart_jet(y, yp, pole, basis))


def conformal_angle_chart_pairs(c1, c2, s, t):
    """Chart-route angle at the samples (s, t), broadcast as in density_pairs."""
    stacks = _chart_stacks(c1, c2, np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    return _chart_angle(*(a[..., None, :] for a in stacks))[..., 0, 0]


# ---------------------------------------------------------------------------
# finite-difference cross-ratio oracle

def cross_ratio_fd(c1, c2, s, t):
    """Real cross-ratio density at the samples (s, t) from four stencil points.

    The stencil p1,2 = xc -+ h tx, p3,4 = yc -+ h ty of spread eps = 2h lies
    in an R^3 chart.  For omega = (z2-z1)(z4-z3)/((z2-z4)(z1-z3)), |omega|
    and |1-omega| are ratios of the six pairwise distances, so Re omega =
    (d13^2 d24^2 + d12^2 d34^2 - d14^2 d23^2)/(2 d13^2 d24^2) needs no
    sphere through the points.  With D = xc - yc and w = tx - ty the
    numerator is 16h^2 [(D.tx)(D.ty) - (tx.ty)(|D|^2 + h^2|tx|^2 +
    h^2|ty|^2)/2 + h^2|tx|^2|ty|^2] and d13^2 d24^2 = (|D|^2 + h^2|w|^2)^2 -
    4h^2(D.w)^2, both from dot products taken once for every spread, so no
    distance product cancels another.  R(eps) = Re omega / eps^2 is even in
    eps and tends to the closed form at second order; the Richardson value
    (4 R(eps/2) - R(eps))/3 at eps = FD_SPREAD is returned.  s and t
    broadcast as in density_pairs.
    """
    xc, tx, yc, ty = _chart_stacks(c1, c2, np.asarray(s, dtype=float), np.asarray(t, dtype=float))

    def dot(u, v):
        return np.sum(u * v, axis=-1)

    d = xc - yc
    dx, dy, dd, xy = dot(d, tx), dot(d, ty), dot(d, d), dot(tx, ty)
    xx, yy = dot(tx, tx), dot(ty, ty)

    def r(eps):
        hh = 0.25 * eps * eps
        num = 4.0 * dx * dy - 2.0 * xy * (dd + hh * (xx + yy)) + 4.0 * hh * xx * yy
        return num / (2.0 * ((dd + hh * (xx - 2.0 * xy + yy)) ** 2 - 4.0 * hh * (dx - dy) ** 2))

    return (4.0 * r(0.5 * FD_SPREAD) - r(FD_SPREAD)) / 3.0
