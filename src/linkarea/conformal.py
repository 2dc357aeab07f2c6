"""Conformal angle and infinitesimal cross-ratio density, by independent routes.

Three mutually independent computations of the same pointwise density are
provided: a closed form through the wedge metric, a chart-geometric
construction with tangent circles in a stereographic chart, and a
finite-difference cross ratio of four nearby points fitted to a sphere.
Their agreement is the main cross-validation instrument of the package.

The wedge and chart routes are each one broadcasting kernel on point
stacks; their grid (s x t), paired (s[k], t[k]) and scalar entry points
only evaluate the curves and insert axes.  The two kernels share no code."""

from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, CoincidentPoints, DegenerateSphere, PoleOnCurve
from .frames import complete_orthonormal
from .links import TWO_PI
from .spheres import metric_kernel

#: minimum clearance between a chart pole and either curve
POLE_CLEARANCE = 0.3

#: golden ratio used for the one automatic retry of the fd oracle
_GOLDEN = 1.6180339887498949

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


@dataclass(frozen=True)
class CrossRatioDensity:
    """Pointwise density per unit ds dt: absolute value, angle, real part.

    The imaginary magnitude abs*sin(theta) is available but unsigned; only
    the real part and the absolute value enter the functionals.
    """
    re: float
    abs: float
    theta: float

    @property
    def im_magnitude(self) -> float:
        return self.abs * np.sin(self.theta)


def chart_pole(c1, c2, n_scan: int = 512):
    """First of 26 fixed candidate poles with clearance >= 0.3 from both curves."""
    s = np.linspace(0.0, TWO_PI, n_scan, endpoint=False)
    pts = np.vstack([c1.point(s), c2.point(s)])
    for cand in _POLE_CANDIDATES:
        clearance = np.min(np.linalg.norm(pts - cand, axis=1))
        if clearance >= POLE_CLEARANCE:
            return cand
    raise PoleOnCurve("no candidate pole clears both curves")


def chart_basis(pole):
    """Deterministic orthonormal basis of the hyperplane orthogonal to the pole."""
    return complete_orthonormal([pole], 4)


def chart_point(x, pole, basis):
    """Stereographic chart coordinates of x, projecting from the pole."""
    x = np.asarray(x, dtype=float)
    d = 1.0 - x @ pole
    if np.min(d) <= 1e-12:
        raise CoincidentPoints("point at the chart pole")
    q = (x - (x @ pole)[..., None] * pole) / d[..., None]
    return q @ basis.T


def chart_velocity(x, xp, pole, basis):
    """Chart image of a tangent vector xp at x."""
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    d = (1.0 - x @ pole)[..., None]
    xn = (x @ pole)[..., None]
    vn = (xp @ pole)[..., None]
    q = (xp - vn * pole) / d + (x - xn * pole) * vn / d ** 2
    return q @ basis.T


def _clamped_arccos(arg, slack: float = 1e-9):
    a = np.asarray(arg, dtype=float)
    excess = np.max(np.abs(a)) - 1.0
    if excess > slack:
        raise ValueError(f"cosine argument exceeds 1 by {excess:.3e}")
    return np.arccos(np.clip(a, -1.0, 1.0))


def _density_kernel(x, xp, y, yp):
    """(g, theta, abs, re)[..., i, j] for all pairs of (..., n, 4) and (..., m, 4) stacks.

    abs = |x'||y'|/|x-y|^2 and theta = arccos(g |x-y|^2 / (2|x'||y'|)), the
    wedge-route angle in [0, pi]; re = abs cos(theta) is half the metric.
    """
    g = metric_kernel(x, xp, y, yp)
    chord2 = 2.0 - 2.0 * (x @ np.swapaxes(y, -1, -2))
    speeds = (np.linalg.norm(xp, axis=-1)[..., :, None]
              * np.linalg.norm(yp, axis=-1)[..., None, :])
    absval = speeds / chord2
    theta = _clamped_arccos(g * chord2 / (2.0 * speeds))
    return g, theta, absval, absval * np.cos(theta)


def density_grids(c1, c2, s, t):
    """(g, theta, abs, re) arrays on the product grid s x t."""
    x, xp = c1.evaluate(np.asarray(s, dtype=float))
    y, yp = c2.evaluate(np.asarray(t, dtype=float))
    return _density_kernel(x, xp, y, yp)


def density_pairs(c1, c2, s, t):
    """(g, theta, abs, re) at paired samples (s[k], t[k]); 0-d arrays for scalars."""
    x, xp = c1.evaluate(np.asarray(s, dtype=float))
    y, yp = c2.evaluate(np.asarray(t, dtype=float))
    fields = _density_kernel(*(a[..., None, :] for a in (x, xp, y, yp)))
    return tuple(f[..., 0, 0] for f in fields)


def conformal_angle_wedge(c1, c2, s, t) -> float:
    """Angle in [0, pi] from the wedge metric: arccos(g |x-y|^2 / (2|x'||y'|))."""
    return float(density_pairs(c1, c2, float(s), float(t))[1])


def conformal_angle_wedge_grid(c1, c2, s, t):
    """Vectorized wedge-route angle on the product grid s x t."""
    return density_grids(c1, c2, s, t)[1]


def inf_cross_ratio(c1, c2, s, t) -> CrossRatioDensity:
    """Cross-ratio density at (s, t): abs = |x'||y'|/|x-y|^2, re = abs cos(theta).

    The real part equals half the metric coefficient; the angle comes from
    the wedge route.
    """
    _, theta, absval, re = density_pairs(c1, c2, float(s), float(t))
    return CrossRatioDensity(re=float(re), abs=float(absval), theta=float(theta))


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
    return _clamped_arccos(np.sum(w * ty[..., None, :, :], axis=-1))


def _chart_stacks(c1, c2, s, t, pole):
    """Chart points and tangents (xc, tx, yc, ty) of both curves at s and t."""
    if pole is None:
        pole = chart_pole(c1, c2)
    basis = chart_basis(pole)
    x, xp = c1.evaluate(s)
    y, yp = c2.evaluate(t)
    return (chart_point(x, pole, basis), chart_velocity(x, xp, pole, basis),
            chart_point(y, pole, basis), chart_velocity(y, yp, pole, basis))


def conformal_angle_chart_grid(c1, c2, s, t, pole=None):
    """Chart-route angle on the product grid s x t."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return _chart_angle(*_chart_stacks(c1, c2, s, t, pole))


def conformal_angle_chart_pairs(c1, c2, s, t, pole=None):
    """Chart-route angle at paired samples (s[k], t[k]); 0-d arrays for scalars."""
    stacks = _chart_stacks(c1, c2, np.asarray(s, dtype=float), np.asarray(t, dtype=float), pole)
    return _chart_angle(*(a[..., None, :] for a in stacks))[..., 0, 0]


def conformal_angle_chart(c1, c2, s, t, pole=None) -> float:
    """Scalar chart-route angle at (s, t)."""
    return float(conformal_angle_chart_pairs(c1, c2, float(s), float(t), pole=pole))


# ---------------------------------------------------------------------------
# finite-difference cross-ratio oracle

_SPHERE_POLE_DIRS = np.concatenate([
    np.eye(3), -np.eye(3),
    np.array([[a, b, c] for a in (1, -1) for b in (1, -1) for c in (1, -1)]) / np.sqrt(3.0),
])


def _fit_sphere(P):
    """Center and radius through 4 points, or None when they are coplanar."""
    M = 2.0 * (P[1:] - P[0])
    rhs = np.sum(P[1:] ** 2, axis=1) - np.sum(P[0] ** 2)
    norms = np.linalg.norm(M, axis=1)
    Mn = M / norms[:, None]
    if abs(np.linalg.det(Mn)) < 1e-6:
        return None
    center = np.linalg.solve(Mn, rhs / norms)
    radius = float(np.mean(np.linalg.norm(P - center, axis=1)))
    return center, radius


def _plane_complex_coords(P, scale):
    """Complex coordinates of 4 nearly coplanar points; raises on concircular."""
    c0 = P.mean(axis=0)
    _, _, Vt = np.linalg.svd(P - c0)
    a, b = Vt[0], Vt[1]
    z = (P - c0) @ a + 1j * ((P - c0) @ b)
    # concircularity: circumcircle through the first three, residual of the fourth
    z1, z2, z3, z4 = z
    den = 2.0 * np.imag(np.conj(z2 - z1) * (z3 - z1))
    if abs(den) < 1e-10 * scale * scale:
        raise DegenerateSphere("stencil points nearly collinear")
    # circumcenter in complex form
    w = (z3 - z1) * (abs(z2 - z1) ** 2) - (z2 - z1) * (abs(z3 - z1) ** 2)
    cc = z1 - 1j * w / den
    r = abs(z1 - cc)
    if abs(abs(z4 - cc) - r) <= 1e-10 * scale:
        raise DegenerateSphere("stencil points are concircular")
    return z


def _sphere_complex_coords(P, center, radius):
    """Stereographic coordinates on the fitted sphere, pole away from all points."""
    best_dir, best_d = None, -1.0
    for n in _SPHERE_POLE_DIRS:
        d = np.min(np.linalg.norm(P - (center + radius * n), axis=1))
        if d > best_d:
            best_d, best_dir = d, n
    n = best_dir
    pole = center + radius * n
    anti = center - radius * n
    ab = complete_orthonormal([n], 3)
    a, b = ab[0], ab[1]
    w = P - pole
    tt = -2.0 * radius / (w @ n)
    img = pole + tt[:, None] * w
    return (img - anti) @ a + 1j * ((img - anti) @ b)


def cross_ratio_fd(c1, c2, s, t, eps: float, pole=None) -> float:
    """Real cross-ratio density from four explicit stencil points.

    A centered stencil of total spread eps along each tangent is laid out
    in an R^3 chart, the unique sphere (or plane) through the four points
    is fitted, the points are read as complex numbers on that sphere, and
    the real part of their cross ratio is divided by eps^2.  Converges to
    the closed-form density at second order in eps.
    """
    if not 1e-5 <= eps <= 1e-2:
        raise BadParameter("eps must lie in [1e-5, 1e-2]")
    xc, tx, yc, ty = _chart_stacks(c1, c2, float(s), float(t), pole)
    h = 0.5 * eps
    P = np.array([xc - h * tx, xc + h * tx, yc - h * ty, yc + h * ty])
    scale = float(np.max(np.linalg.norm(P - P.mean(axis=0), axis=1)))
    fit = _fit_sphere(P)
    if fit is None:
        z = _plane_complex_coords(P, scale)
    else:
        z = _sphere_complex_coords(P, *fit)
    z1, z2, z3, z4 = z
    omega = (z2 - z1) * (z4 - z3) / ((z2 - z4) * (z1 - z3))
    return float(omega.real) / (eps * eps)


def cross_ratio_fd_step(c1, c2, s, t, eps: float = 1e-3, pole=None):
    """(value, step used) of cross_ratio_fd, retried once at a golden-ratio step if degenerate."""
    try:
        return cross_ratio_fd(c1, c2, s, t, eps, pole=pole), eps
    except DegenerateSphere:
        retry = eps * _GOLDEN if eps * _GOLDEN <= 1e-2 else eps / _GOLDEN
        return cross_ratio_fd(c1, c2, s, t, retry, pole=pole), retry


def cross_ratio_fd_auto(c1, c2, s, t, eps: float = 1e-3, pole=None) -> float:
    """cross_ratio_fd with one automatic retry at eps scaled by the golden ratio."""
    return cross_ratio_fd_step(c1, c2, s, t, eps, pole=pole)[0]
