"""Closed curves on the unit 3-sphere, a standard link catalogue, the
Moebius group action, and link-file ingestion.

All curves are 2*pi-periodic maps into S^3 in R^4 with analytic first
derivatives.  Two representations are provided: truncated Fourier series
in R^4 composed with radial normalization (a round circle is the one-mode
case), and uniformly sampled nodes with periodic quintic spline
interpolation, built with numpy alone: an FFT circulant solve gives the
B-spline coefficients and a fixed six-term stencil evaluates them.
Moebius images of either are evaluated through the light cone.
Evaluation methods accept scalar or array parameters and broadcast.
Every uniform parameter grid, of a curve probe, a sample set or a torus
grid, is parameter_grid(n), the n parameters 2 pi k / n.
"""

import json

import numpy as np

from . import minkowski as mk
from .errors import (BadLinkFile, BadParameter, CoincidentPoints, ImmersionFailure,
                     LinkAreaError, open_output)
from .rng import Lcg64

TWO_PI = 2.0 * np.pi

#: chordal separation floor between link components
DELTA_SEP = 1e-6

#: minimum admissible parametric speed (immersion floor)
V_MIN = 1e-4

#: samples per curve of Link2's disjointness probe, of a curve that a link file
#: stores as samples4 nodes, and of the descent's Fourier fit and circle residual
N_SAMPLES = 256
K_MAX = 16  #: most Fourier modes of a curve

#: coarsest torus grid, per side, that measures the area: the quadrature's first
#: level and the descent's least objective grid, below which the descent zeroes g
#: at the few nodes without reaching the Hopf link
N_MIN = 32


def parameter_grid(n: int):
    """The n uniform parameters 2 pi k / n, k = 0, ..., n - 1."""
    return np.linspace(0.0, TWO_PI, n, endpoint=False)


#: parameters of a whole-curve probe: a Fourier curve's radius and speed checks,
#: the sup norm of perturbed_hopf_link's noise, and chart_pole's clearance
PROBE = parameter_grid(512)
PROBE.flags.writeable = False


class LinkCurve:
    """Interface shared by all curve representations.

    A representation implements _point_velocity(s), the point and the
    tangent velocity from one evaluation; evaluate() adds the speed floor.
    """

    def _point_velocity(self, s):
        raise NotImplementedError

    def point(self, s):
        return self._point_velocity(s)[0]

    def evaluate(self, s):
        """Point on S^3 and tangent velocity at parameter s (mod 2*pi)."""
        p, v = self._point_velocity(s)
        _speed_floor(v)
        return p, v


def _speed_floor(v):
    """Reject a velocity slower than V_MIN, or not a number, anywhere."""
    speed = np.linalg.norm(v, axis=-1)
    if not np.min(speed) >= V_MIN:
        raise ImmersionFailure(f"speed {np.min(speed):.3e} below {V_MIN}")


def _fourier_design(s, modes):
    """Rows [1, cos s, sin s, ..., cos(modes s), sin(modes s)] and their s-derivatives."""
    s = np.asarray(s, dtype=float)
    k = np.arange(1, modes + 1)
    ks = s[..., None] * k
    cos, sin = np.cos(ks), np.sin(ks)
    design = np.ones(s.shape + (2 * modes + 1,))
    ddesign = np.zeros_like(design)
    design[..., 1::2], design[..., 2::2] = cos, sin
    ddesign[..., 1::2], ddesign[..., 2::2] = -k * sin, k * cos
    return design, ddesign


def radial_jet(f, fp):
    """f/|f| and its derivative in R^4, given f and its derivative fp
    (broadcasts), from one |f|."""
    n = np.linalg.norm(f, axis=-1, keepdims=True)
    return f / n, fp / n - f * np.sum(f * fp, axis=-1, keepdims=True) / n ** 3


class FourierCurve(LinkCurve):
    """Truncated Fourier curve in R^4, radially normalized onto S^3.

    coefficients has shape (4, 2K+1): column 0 the constant term, then
    alternating cos/sin coefficients per mode.  The evaluated point is
    F(s)/|F(s)| and the velocity is the analytic derivative of that
    composition.
    """

    def __init__(self, coefficients):
        coeffs = np.asarray(coefficients, dtype=float)
        if coeffs.ndim != 2 or coeffs.shape[0] != 4 or coeffs.shape[1] % 2 != 1:
            raise BadParameter("fourier coefficients must have shape (4, 2K+1)")
        if (coeffs.shape[1] - 1) // 2 > K_MAX:
            raise BadParameter(f"more than {K_MAX} fourier modes")
        if not np.all(np.isfinite(coeffs)):
            raise BadParameter("fourier coefficients must be finite")
        self.coeffs = coeffs
        self.n_modes = (coeffs.shape[1] - 1) // 2
        with np.errstate(all="ignore"):  # an overflow is reported below, as a bad parameter
            f, fp = (m @ coeffs.T for m in _fourier_design(PROBE, self.n_modes))
            radii, v = np.linalg.norm(f, axis=-1), radial_jet(f, fp)[1]
        if np.min(radii) < 0.05:
            raise BadParameter("fourier curve passes too close to the origin")
        if not np.all(np.isfinite(v)):
            raise BadParameter("fourier coefficients too large to evaluate")
        _speed_floor(v)

    def _point_velocity(self, s):
        return radial_jet(*(m @ self.coeffs.T for m in _fourier_design(s, self.n_modes)))


class CircleCurve(FourierCurve):
    """Round circle on S^3, center + radius*(cos(s) u + sin(s) v).

    center, u, v must be mutually orthogonal with |center|^2 + radius^2 = 1
    and u, v unit, so every point lies on the sphere.  The circle is the
    one-mode Fourier curve with coefficients [center, radius*u, radius*v],
    so it evaluates, and is written to a link file, exactly as that curve.
    """

    def __init__(self, center, u, v, radius):
        center = np.asarray(center, dtype=float)
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        radius = float(radius)
        gram_ok = (abs(u @ u - 1) < 1e-9 and abs(v @ v - 1) < 1e-9
                   and abs(u @ v) < 1e-9 and abs(center @ u) < 1e-9
                   and abs(center @ v) < 1e-9)
        if not gram_ok:
            raise BadParameter("circle frame is not orthonormal")
        if abs(center @ center + radius * radius - 1.0) > 1e-9:
            raise BadParameter("circle does not lie on the unit sphere")
        if radius < V_MIN:
            raise ImmersionFailure("circle radius below speed floor")
        super().__init__(np.column_stack([center, radius * u, radius * v]))


#: Uniform quintic B-spline basis on the cell i + tau, tau in [0, 1): row k
#: holds the tau**k coefficients of the weights of c[i-2], ..., c[i+3]
#: (columns 0-5) and of their tau-derivatives (columns 6-11).
_QUINTIC = np.array([[1, 26, 66, 26, 1, 0, -5, -50, 0, 50, 5, 0],
                     [-5, -50, 0, 50, 5, 0, 20, 40, -120, 40, 20, 0],
                     [10, 20, -60, 20, 10, 0, -30, 60, 0, -60, 30, 0],
                     [-10, 20, 0, -20, 10, 0, 20, -80, 120, -80, 20, 0],
                     [5, -20, 30, -20, 5, 0, -5, 25, -50, 50, -25, 5],
                     [-1, 5, -10, 10, -5, 1, 0, 0, 0, 0, 0, 0]]) / 120.0
_STENCIL = np.arange(-2, 4)


class SampledCurve(LinkCurve):
    """Uniform nodes on S^3 joined by a periodic quintic spline.

    The spline is the periodic C^4 quintic on the uniform knots
    s_j = 2 pi j / n that interpolates the nodes in R^4.  Its B-spline
    coefficients c solve the circulant system (c[j-2] + 26 c[j-1] + 66 c[j]
    + 26 c[j+1] + c[j+2]) / 120 = node[j], diagonalized by the FFT; the
    eigenvalues (66 + 52 cos w + 2 cos 2w) / 120 are at least 16/120.
    Evaluation renormalizes radially so points sit on the sphere to roundoff.
    """

    def __init__(self, nodes):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != 4 or nodes.shape[0] < 8:
            raise BadParameter("need at least 8 nodes of dimension 4")
        if not np.all(np.isfinite(nodes)):
            raise BadParameter("nodes must be finite")
        norms = np.linalg.norm(nodes, axis=1)
        if np.any(norms < 0.5) or np.any(norms > 2.0):
            raise BadParameter("node norms too far from the unit sphere")
        self.nodes = nodes / norms[:, None]
        n = len(self.nodes)
        w = TWO_PI * np.arange(n // 2 + 1) / n
        eig = (66.0 + 52.0 * np.cos(w) + 2.0 * np.cos(2.0 * w)) / 120.0
        self._coeffs = np.fft.irfft(np.fft.rfft(self.nodes, axis=0) / eig[:, None], n, axis=0)
        self.evaluate(parameter_grid(4 * n))

    def _point_velocity(self, s):
        n = len(self._coeffs)
        x = np.mod(np.asarray(s, dtype=float), TWO_PI) * (n / TWO_PI)
        cell = np.floor(x)
        tau = x - cell
        # x = n (s just below a multiple of 2 pi) wraps to cell 0
        local = self._coeffs[(cell.astype(int)[..., None] + _STENCIL) % n]
        weights = (tau[..., None] ** np.arange(6)) @ _QUINTIC
        f, fp = np.moveaxis(weights.reshape(tau.shape + (2, 6)) @ local, -2, 0)
        return radial_jet(f, fp * (n / TWO_PI))


class TransformedCurve(LinkCurve):
    """Moebius image of another curve, evaluated through the light cone."""

    def __init__(self, base: LinkCurve, matrix):
        self.base = base
        self.matrix = np.asarray(matrix, dtype=float)

    def _point_velocity(self, s):
        """Moebius image of the base point and, by the quotient rule, its derivative."""
        x, xp = self.base._point_velocity(s)
        w, wp = mk.lift(x) @ self.matrix.T, mk.lift(xp, 0.0) @ self.matrix.T
        w0 = w[..., :1]
        return w[..., 1:] / w0, wp[..., 1:] / w0 - w[..., 1:] * wp[..., :1] / w0 ** 2


class Link2:
    """Two disjoint closed curves on S^3.

    Disjointness is probed at construction: on an N_SAMPLES x N_SAMPLES parameter
    grid, and between samples wherever the curves could meet (see min_separation).
    """

    def __init__(self, c1: LinkCurve, c2: LinkCurve):
        self.c1 = c1
        self.c2 = c2
        sep = self.min_separation()
        if not sep > DELTA_SEP:
            raise CoincidentPoints(f"components approach to {sep:.3e}")

    def min_separation(self) -> float:
        """Least chord over the sample pairs, refined near each pair that the
        sampled speeds cannot clear of DELTA_SEP, so that curves meeting
        between samples read about 0."""
        s = parameter_grid(N_SAMPLES)
        (x, xp), (y, yp) = self.c1._point_velocity(s), self.c2._point_velocity(s)
        dots = x @ y.T
        # the nearest sample pair has the largest x.y (both factors unit); its
        # chord is read from the difference, since 2 - 2 x.y cancels
        near = np.unravel_index(np.argmax(dots), dots.shape)
        sep = float(np.linalg.norm(x[near[0]] - y[near[1]]))
        # a point lies within pi/N_SAMPLES in parameter of a sample, so within
        # |x'| pi/N_SAMPLES of it; the factor 2 covers speeds above the sampled ones
        speeds = np.max(np.linalg.norm(xp, axis=-1)) + np.max(np.linalg.norm(yp, axis=-1))
        reach = DELTA_SEP + 2.0 * speeds * np.pi / N_SAMPLES
        if not sep <= reach:  # a NaN too, which __init__ rejects
            return sep
        i, j = np.nonzero(dots >= min(dots[near], 1.0 - 0.5 * reach * reach))  # near included
        return self._refined_separation(s[i], s[j])

    def _refined_separation(self, s, t):
        """Least chord along four least-squares Gauss-Newton steps on x(s) - y(t)
        from the parameter pairs (s, t), each clipped to one sample spacing."""
        h = TWO_PI / N_SAMPLES
        best = np.inf
        for step in range(5):
            (x, xp), (y, yp) = self.c1._point_velocity(s), self.c2._point_velocity(t)
            best = min(best, float(np.min(np.linalg.norm(x - y, axis=-1))))
            if step == 4:
                return best
            # pinv takes the least-norm step where the two tangents are parallel
            delta = np.linalg.pinv(np.stack([xp, -yp], axis=-1)) @ (y - x)[..., None]
            delta = np.clip(delta[..., 0], -h, h)
            s, t = s + delta[:, 0], t + delta[:, 1]


# ---------------------------------------------------------------------------
# standard catalogue

_E = np.eye(4)


def hopf_link() -> Link2:
    """The two orthogonal unit circles {(cos s, sin s, 0, 0)}, {(0, 0, cos t, sin t)}."""
    c1 = CircleCurve(np.zeros(4), _E[0], _E[1], 1.0)
    c2 = CircleCurve(np.zeros(4), _E[2], _E[3], 1.0)
    return Link2(c1, c2)


def separated_link(d: float) -> Link2:
    """Two round circles at chordal separation >= d, for d in (0, 2)."""
    if not 0.0 < d < 2.0:
        raise BadParameter("separation must lie in (0, 2)")
    cos_rho = 0.5 * d * (1.0 + 1e-9)
    if cos_rho >= 1.0 - 1e-12:
        raise BadParameter("separation too close to the diameter")
    sin_rho = float(np.sqrt(1.0 - cos_rho * cos_rho))
    c1 = CircleCurve(cos_rho * _E[0], _E[1], _E[2], sin_rho)
    c2 = CircleCurve(-cos_rho * _E[0], _E[1], _E[2], sin_rho)
    return Link2(c1, c2)


def parallel_circles_link() -> Link2:
    """Two coaxial unit circles in the planes z = +-1/2 of R^3, lifted to S^3."""

    def lifted(z0):
        q = z0 * z0 + 2.0  # |u|^2 + 1 on the circle
        center = np.array([0.0, 0.0, 2.0 * z0 / q, (q - 2.0) / q])
        return CircleCurve(center, _E[0], _E[1], 2.0 / q)

    return Link2(lifted(0.5), lifted(-0.5))


def great_circle_pair(alpha: float, beta: float) -> Link2:
    """Great circles at principal angles (alpha, beta), both in (0, pi/2].

    C1 lies in the e1e2-plane; C2 is spanned by cos(alpha) e1 + sin(alpha) e3
    and cos(beta) e2 + sin(beta) e4.  (pi/2, pi/2) is the Hopf link, and the
    isoclinic pairs alpha = beta have area 8 pi cot(alpha).
    """
    if not (0.0 < alpha <= 0.5 * np.pi and 0.0 < beta <= 0.5 * np.pi):
        raise BadParameter("principal angles must lie in (0, pi/2]")
    u = np.array([np.cos(alpha), 0.0, np.sin(alpha), 0.0])
    v = np.array([0.0, np.cos(beta), 0.0, np.sin(beta)])
    return Link2(CircleCurve(np.zeros(4), _E[0], _E[1], 1.0),
                 CircleCurve(np.zeros(4), u, v, 1.0))


_HOPF_COEFFS_1 = np.zeros((4, 7))
_HOPF_COEFFS_1[0, 1] = 1.0
_HOPF_COEFFS_1[1, 2] = 1.0
_HOPF_COEFFS_2 = np.zeros((4, 7))
_HOPF_COEFFS_2[2, 1] = 1.0
_HOPF_COEFFS_2[3, 2] = 1.0


def perturbed_hopf_link(eps: float, seed: int) -> Link2:
    """Hopf link with seeded Fourier noise of sup amplitude eps, renormalized.

    eps = 0 reproduces the Hopf link exactly.  Noise spans modes 0..3 and
    is rescaled so the largest R^4 displacement before renormalization is
    exactly eps, which keeps the components disjoint for eps < 0.3.
    """
    if not 0.0 <= eps < 0.3:
        raise BadParameter("perturbation amplitude must lie in [0, 0.3)")
    rng = Lcg64(seed)
    curves = []
    for base in (_HOPF_COEFFS_1, _HOPF_COEFFS_2):
        coeffs = base.copy()
        if eps > 0.0:
            # per coordinate: a0 scaled by 1/2, the cosine and sine of mode k by 2^-k
            raw = (rng.uniform_array(28, -1.0, 1.0).reshape(4, 7)
                   * (0.5, 0.5, 0.5, 0.25, 0.25, 0.125, 0.125))
            delta = _fourier_design(PROBE, 3)[0] @ raw.T
            top = np.max(np.linalg.norm(delta, axis=-1))
            coeffs = coeffs + (eps / top) * raw
        curves.append(FourierCurve(coeffs))
    return Link2(curves[0], curves[1])


def catalogue() -> dict:
    """The standard test links, keyed by short names."""
    links = {
        "hopf": hopf_link(),
        "separated_1.0": separated_link(1.0),
        "separated_1.5": separated_link(1.5),
        "separated_1.9": separated_link(1.9),
        "parallel_circles": parallel_circles_link(),
    }
    for seed in range(5):
        links[f"perturbed_hopf_0.2_s{seed}"] = perturbed_hopf_link(0.2, seed)
    return links


# ---------------------------------------------------------------------------
# Moebius group

class MobiusMap:
    """Orthochronous pseudo-orthogonal 5x5 matrix acting on S^3.

    The action lifts a point to the light cone, applies the matrix, and
    rescales back to the x0 = 1 slice; orthochronicity keeps the leading
    component positive.
    """

    def __init__(self, matrix):
        A = np.asarray(matrix, dtype=float)
        if A.shape != (5, 5):
            raise BadParameter("moebius matrix must be 5x5")
        if not mk.orthogonality_residual(A, mk.ETA5) <= 1e-10:
            raise BadParameter("matrix is not pseudo-orthogonal")
        if A[0, 0] <= 0.0:
            raise BadParameter("matrix reverses time orientation")
        self.matrix = A

    def act_point(self, x):
        """Moebius image of points x: lift, move, rescale to x0 = 1."""
        w = mk.lift(x) @ self.matrix.T
        return w[..., 1:] / w[..., :1]

    def transform_curve(self, c: LinkCurve) -> LinkCurve:
        return TransformedCurve(c, self.matrix)

    def transform_link(self, link: Link2) -> Link2:
        return Link2(self.transform_curve(link.c1), self.transform_curve(link.c2))


def boost_matrix(rapidity: float):
    """Boost mixing the timelike coordinate with the first spatial axis."""
    A = np.eye(5)
    A[0, 0] = A[1, 1] = np.cosh(rapidity)
    A[0, 1] = A[1, 0] = np.sinh(rapidity)
    return A


def rotation_embed(R):
    """Embed an SO(4) matrix as a time-preserving element of O+(4,1)."""
    A = np.eye(5)
    A[1:, 1:] = np.asarray(R, dtype=float)
    return A


def random_mobius(seed: int, rapidity_max: float) -> MobiusMap:
    """Seeded random rotation composed with a seeded boost.

    rapidity_max = 0 yields a pure rotation with unit corner entry.  The
    product of the QR rotation and the boost is pseudo-orthogonal to
    roundoff (residual about 1e-14), well inside MobiusMap's 1e-10.
    """
    if rapidity_max > 2.0:
        raise BadParameter("rapidity_max must be at most 2")
    rng = Lcg64(seed)
    G = np.array([[rng.normal() for _ in range(4)] for _ in range(4)])
    Q, R = np.linalg.qr(G)
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, -1] = -Q[:, -1]
    beta = rapidity_max * rng.uniform()
    return MobiusMap(rotation_embed(Q) @ boost_matrix(beta))


# ---------------------------------------------------------------------------
# charts between R^3 and S^3

def inverse_stereographic(u):
    """R^3 -> S^3, u -> (2u, |u|^2 - 1)/(|u|^2 + 1); infinity maps to (0,0,0,1)."""
    u = np.asarray(u, dtype=float)
    q = np.sum(u * u, axis=-1, keepdims=True)
    return np.concatenate([2.0 * u, q - 1.0], axis=-1) / (q + 1.0)


#: rows per block of the pairwise node distances, which bounds their memory
PAIR_BLOCK = 256


def _min_pairwise_distance(pts) -> float:
    """Smallest distance between distinct nodes, one block of rows at a time."""
    best = np.inf
    for i in range(0, len(pts), PAIR_BLOCK):
        dist = np.linalg.norm(pts[i:i + PAIR_BLOCK, None, :] - pts[None, i:, :], axis=-1)
        dist[np.tri(*dist.shape, dtype=bool)] = np.inf  # pairs j <= i
        best = min(best, float(np.min(dist)))
    return best


def chart_lift(points) -> SampledCurve:
    """Closed R^3 polygon -> sampled curve on S^3 via the inverse chart.

    Nodes are taken as uniformly spaced in parameter; at least 8 distinct
    nodes are required and the first node must not be repeated at the end.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise BadParameter("expected an (N, 3) array of nodes")
    if pts.shape[0] < 8:
        raise BadParameter("need at least 8 nodes")
    if not np.all(np.isfinite(pts)):
        raise BadParameter("nodes must be finite")
    if _min_pairwise_distance(pts) < 1e-12:
        raise BadParameter("repeated nodes")
    return SampledCurve(inverse_stereographic(pts))


# ---------------------------------------------------------------------------
# lk-1 link files

def _component_to_dict(c: LinkCurve) -> dict:
    if isinstance(c, FourierCurve):
        return {"kind": "fourier4", "coefficients": c.coeffs.tolist()}
    if isinstance(c, SampledCurve):
        return {"kind": "samples4", "nodes": c.nodes.tolist()}
    return {"kind": "samples4", "nodes": c.point(parameter_grid(N_SAMPLES)).tolist()}


def link_text(link: Link2) -> str:
    """The lk-1 JSON document of a link, as written to a link file."""
    doc = {
        "version": "lk-1",
        "components": [_component_to_dict(link.c1), _component_to_dict(link.c2)],
    }
    return json.dumps(doc, indent=1) + "\n"


def write_link(link: Link2, path) -> None:
    """Write the link's lk-1 file; a failed write raises IoFailure and leaves no file."""
    with open_output(path) as fh:
        fh.write(link_text(link).encode())


#: each lk-1 component kind: the field that holds its numbers, and the curve they build
_KINDS = {"fourier4": ("coefficients", FourierCurve),
          "samples4": ("nodes", SampledCurve),
          "samples3": ("nodes", chart_lift)}


def _component_from_dict(comp, index: int) -> LinkCurve:
    where = f"components[{index}]"
    if not isinstance(comp, dict):
        raise BadLinkFile(f"{where} is not an object")
    kind = comp.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise BadLinkFile(f"{where}.kind must be fourier4, samples4 or samples3")
    field, build = _KINDS[kind]
    value = comp.get(field)
    if value is None:
        raise BadLinkFile(f"{where}.{field} missing")
    try:
        with np.errstate(all="ignore"):  # an overflow fails the curve's own checks
            return build(np.asarray(value, dtype=float))
    except (LinkAreaError, TypeError, ValueError, OverflowError) as exc:
        raise BadLinkFile(f"{where}.{field} invalid: {exc}") from exc


def read_link(path) -> Link2:
    """Parse an lk-1 file into a validated two-component link.  A file that
    cannot be read, or does not hold one, raises BadLinkFile and nothing else."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise BadLinkFile(f"no such file: {path}") from exc
    except OSError as exc:
        raise BadLinkFile(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, an integer's digit limit
        raise BadLinkFile(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise BadLinkFile("not valid JSON: nested too deeply") from exc
    if not isinstance(doc, dict) or doc.get("version") != "lk-1":
        raise BadLinkFile("version must be \"lk-1\"")
    comps = doc.get("components")
    if not isinstance(comps, list) or len(comps) != 2:
        raise BadLinkFile("components must be a list of exactly two entries")
    c1 = _component_from_dict(comps[0], 0)
    c2 = _component_from_dict(comps[1], 1)
    try:
        return Link2(c1, c2)
    except CoincidentPoints as exc:
        raise BadLinkFile(f"components are not disjoint: {exc}") from exc
