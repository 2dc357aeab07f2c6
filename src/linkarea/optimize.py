"""Levenberg–Marquardt descent of the torus area over Fourier links.

Shape vectors concatenate the Fourier coefficients of both components;
the objective is the area functional at a fixed grid resolution so that
runs are deterministic.  The area is the L1 norm of the metric field g,
which vanishes identically on the Hopf link and its Moebius images, so
each step solves the damped least-squares problem for the residual
r = g·(2π/n) on the objective grid.  Each step linearizes r once: the
partials of r in the four dot products that g is built from, with the
chain rule through the metric kernel, the radial normalization and the
design matrices, give J^T J and J^T r by blocks of s-rows, so that the
whole grid_n^2 x 72 Jacobian is never held, and J^T w without J.
Each trial step δ is corrected by half its geodesic acceleration a (M. K.
Transtrum and J. P. Sethna, arXiv:1201.5885, 2012), which bends it along
the curved, sloppy directions that stall plain Levenberg–Marquardt near
the minimum: a solves the damped normal equations for the second
directional derivative of r along δ, from two probes of the metric field,
and J^T w.  A step is accepted only if the area decreases.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadParameter, CoincidentPoints, DisjointnessViolation
from .links import (N_SAMPLES, TWO_PI, FourierCurve, Link2, LinkCurve, _fourier_design,
                    radial_velocity)
from .spheres import ROUNDOFF, metric_kernel

#: optimizer defaults: mode cap, quadrature resolution
K_OPT = 4
GRID_OPT = 64

#: Levenberg–Marquardt damping: initial value, and the factor by which it
#: falls after an accepted step and grows after a rejected trial
LAMBDA_START = 1e-3
LAMBDA_FACTOR = 10.0

#: geodesic acceleration: the probe step h of the second difference along
#: δ, and the largest ‖a‖/‖δ‖ at which a trial keeps the correction
_GEODESIC_H = 0.1
_ACCEL_MAX = 0.75

#: nodes per block of s-rows in which a step builds J and J^T w, and a trial
#: its probes: a block of J holds this many rows of shape_dim() doubles, 590 kB
_JAC_BLOCK_NODES = 1024


def shape_dim() -> int:
    return 2 * 4 * (2 * K_OPT + 1)


def to_fourier_coeffs(curve: LinkCurve):
    """Truncated Fourier fit, up to mode K_OPT, of a curve through N_SAMPLES uniform samples."""
    s = np.linspace(0.0, TWO_PI, N_SAMPLES, endpoint=False)
    spectrum = np.fft.rfft(curve.point(s), axis=0)[:K_OPT + 1].T
    coeffs = np.empty((4, 2 * K_OPT + 1))
    coeffs[:, 0] = spectrum[:, 0].real / N_SAMPLES
    coeffs[:, 1::2] = 2.0 * spectrum[:, 1:].real / N_SAMPLES
    coeffs[:, 2::2] = -2.0 * spectrum[:, 1:].imag / N_SAMPLES
    return coeffs


def encode_link(link: Link2):
    """Concatenated per-component Fourier coefficients of a link."""
    blocks = []
    for comp in (link.c1, link.c2):
        if isinstance(comp, FourierCurve) and comp.n_modes <= K_OPT:
            block = np.zeros((4, 2 * K_OPT + 1))
            block[:, :comp.coeffs.shape[1]] = comp.coeffs
        else:
            block = to_fourier_coeffs(comp)
        blocks.append(block)
    return np.concatenate([b.ravel() for b in blocks])


def decode_coeffs(vector):
    v = np.asarray(vector, dtype=float)
    if v.size != shape_dim():
        raise BadParameter(f"shape vector must have length {shape_dim()}")
    both = v.reshape(2, 4, 2 * K_OPT + 1)
    return both[0], both[1]


def decode_link(vector) -> Link2:
    """Shape vector back to a validated link."""
    a, b = decode_coeffs(vector)
    return Link2(FourierCurve(a), FourierCurve(b))


@lru_cache(maxsize=8)
def _designs(grid_n: int):
    """Read-only Fourier design matrix and its derivative on grid_n nodes."""
    s = np.linspace(0.0, TWO_PI, grid_n, endpoint=False)
    mats = _fourier_design(s, K_OPT)
    for m in mats:
        m.flags.writeable = False
    return mats


def _grid_fields(vector, grid_n: int):
    """Raw Fourier values F, F' and the points F/|F| and their velocities.

    Each is a (..., 2, grid_n, 4) stack over both components on the grid
    nodes, for a shape vector or a (..., shape_dim()) stack of them.
    """
    shape = np.shape(vector)[:-1] + (2, 4, 2 * K_OPT + 1)
    coeffs = np.swapaxes(np.asarray(vector, dtype=float).reshape(shape), -1, -2)
    design, ddesign = _designs(grid_n)
    raw, draw = design @ coeffs, ddesign @ coeffs
    pts = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
    return raw, draw, pts, radial_velocity(raw, draw)


def _row_blocks(grid_n: int):
    """Slices of whole s-rows, _JAC_BLOCK_NODES nodes each (the last may be shorter)."""
    step = _JAC_BLOCK_NODES // grid_n
    return (slice(i, i + step) for i in range(0, grid_n, step))


def _metric_field(pts, vel):
    try:
        return metric_kernel(pts[0], vel[0], pts[1], vel[1])
    except CoincidentPoints as exc:
        raise DisjointnessViolation("components touch on the objective grid") from exc


def objective(vector, grid_n: int = GRID_OPT) -> float:
    """Area of the decoded link at fixed grid resolution (no refinement)."""
    g = _metric_field(*_grid_fields(vector, grid_n)[2:])
    return float(np.sum(np.abs(g, out=g))) * (TWO_PI / grid_n) ** 2


def _roundoff(vector, grid_n: int) -> float:
    """The area's roundoff at a shape vector, ROUNDOFF·Σ|Omega|·(2π/n)^2: |Omega|·2π/n
    = |x'||y'||r_q|/2, with _Linearization's r_q built by the same operations."""
    pts, vel = _grid_fields(vector, grid_n)[2:]
    cell = TWO_PI / grid_n
    r_q = pts[0] @ pts[1].T  # becomes 1 - x.y, then r_q and |r_q|, all in place
    np.divide(-cell, np.subtract(1.0, r_q, out=r_q), out=r_q)
    speed_x, speed_y = (np.linalg.norm(p, axis=-1) for p in vel)
    return ROUNDOFF * 0.5 * cell * float(speed_x @ np.abs(r_q, out=r_q) @ speed_y)


def _node_terms(raw, draw, x, xp):
    """One component's factors of its node map that depend on the node only:
    x, x', 1/|F|, x.F' and P F', each of shape (nodes, 4) or (nodes, 1)."""
    x_fp = np.sum(x * draw, axis=-1, keepdims=True)
    return x, xp, 1.0 / np.linalg.norm(raw, axis=-1, keepdims=True), x_fp, draw - x * x_fp


def _node_adjoint(terms, gx, gxp):
    """The transpose of one component's node map, which takes F and F' to the
    point x = F/|F|, with dx = P dF/|F|, P = I - x x^T, and to the velocity x',
    with dx' = P dF'/|F| - [P dF (x.F') + x (dF.(P F'))]/|F|^2 - x' (x.dF)/|F|.

    gx and gxp are a field's gradients with respect to the point and the
    velocity, at the nodes of terms (broadcasting over any other axes).
    Returns the gradients (from_f, from_fp) with respect to F and F': P is
    symmetric, so each term of dx and dx' acts on the gradients.
    """
    x, xp, inv, x_fp, p_fp = terms
    x_gxp = np.sum(x * gxp, axis=-1, keepdims=True)
    p_gx = gx - x * np.sum(x * gx, axis=-1, keepdims=True)
    p_gxp = gxp - x * x_gxp
    from_f = (p_gx * inv - (p_gxp * x_fp + x_gxp * p_fp) * inv * inv
              - np.sum(xp * gxp, axis=-1, keepdims=True) * x * inv)
    return from_f, p_gxp * inv


def _component_jacobian(terms, design, ddesign, gx, gxp, out) -> None:
    """Derivative of a field on the grid with respect to one component's coefficients.

    gx and gxp are the field's gradients with respect to the component's
    point and velocity, indexed (own node, other node, coordinate); terms
    are the component's _node_terms and design, ddesign its design rows on
    the own nodes, each shaped (own, 1, ...) to broadcast over the other
    nodes.  Writes the gradients of _node_adjoint times the design rows to
    out, an (own, other, 4, 2K+1) array or view.
    """
    from_f, from_fp = _node_adjoint(terms, gx, gxp)
    np.multiply(from_f[..., None], design, out=out)
    out += from_fp[..., None] * ddesign


class _Linearization:
    """r = g·(2π/n) on the objective grid at a shape vector, and its Jacobian J.

    g = (q b - c e)/b^2 depends on the points and velocities only through
    b = x.y - 1, q = x'.y', c = x'.y and e = x.y', with partials g_q = 1/b,
    g_c = -e/b^2, g_e = -c/b^2 and g_b = (q - 2 g b)/b^2 = g_c g_e/g_q - g g_q.
    r, r_q, r_c and r_e are built once, on the whole grid (on a block's rows
    alone, BLAS's edge kernels can move a product in its last bits), and r_b
    from them on each block of whole s-rows, _JAC_BLOCK_NODES nodes (the last
    may be shorter).  blocks() yields J a block at a time, normal_equations()
    sums J^T J and J^T r over them, and vjp gives J^T w without J.
    """

    def __init__(self, vector, grid_n: int):
        raw, draw, pts, vel = _grid_fields(vector, grid_n)
        self.terms = [_node_terms(raw[c], draw[c], pts[c], vel[c]) for c in range(2)]
        self.x, self.xp, self.y, self.yp = x, xp, y, yp = pts[0], vel[0], pts[1], vel[1]
        self.n, self.cell = grid_n, TWO_PI / grid_n
        g = _metric_field(pts, vel)
        minus_b = x @ y.T  # becomes 1 - x.y = -b, then -(2π/n)/b^2, all in place
        np.subtract(1.0, minus_b, out=minus_b)
        self.r_q = -self.cell / minus_b
        over_b2 = np.divide(self.r_q, minus_b, out=minus_b)
        self.r_c, self.r_e = x @ yp.T, xp @ y.T
        self.r_c *= over_b2
        self.r_e *= over_b2
        g *= self.cell
        self.r = g.ravel()

    def _partials(self):
        """(rows, (r_b, r_q, r_c, r_e)) on each block of s-rows."""
        r = self.r.reshape(self.n, self.n)
        for rows in _row_blocks(self.n):
            r_q, r_c, r_e = self.r_q[rows], self.r_c[rows], self.r_e[rows]
            yield rows, (r_c * r_e / r_q - r[rows] * r_q / self.cell, r_q, r_c, r_e)

    def blocks(self):
        """(r, J) on each block: r flattened in (s, t) order, J of shape
        (nodes, shape_dim()), from the gradients of r in each component's
        point and velocity, dr/dx = r_b y + r_e y', dr/dx' = r_q y' + r_c y,
        dr/dy = r_b x + r_c x' and dr/dy' = r_q x' + r_e x."""
        x, xp, y, yp, n = self.x, self.xp, self.y, self.yp, self.n
        terms = [[t[:, None] for t in c] for c in self.terms]
        design, ddesign = (m[:, None, None, :] for m in _designs(n))
        for rows, partials in self._partials():
            r_b, r_q, r_c, r_e = (p[..., None] for p in partials)
            xs, xps = x[rows, None], xp[rows, None]
            # each component's part of the block's (s, t, coefficient) Jacobian, in place
            parts = np.empty((len(xs), n, 2, 4, 2 * K_OPT + 1))
            _component_jacobian([t[rows] for t in terms[0]], design[rows], ddesign[rows],
                                r_b * y + r_e * yp, r_q * yp + r_c * y, parts[:, :, 0])
            _component_jacobian(terms[1], design, ddesign,
                                np.swapaxes(r_b * xs + r_c * xps, 0, 1),
                                np.swapaxes(r_q * xps + r_e * xs, 0, 1),
                                np.swapaxes(parts[:, :, 1], 0, 1))
            yield self.r.reshape(n, n)[rows].ravel(), parts.reshape(-1, shape_dim())

    def normal_equations(self):
        """J^T J, J^T r and ‖r‖, summed over the blocks."""
        normal, grad = np.zeros((shape_dim(), shape_dim())), np.zeros(shape_dim())
        for r, jac in self.blocks():
            normal += jac.T @ jac
            grad += jac.T @ r
            del jac  # so that the next block is built without this one
        return normal, grad, float(np.linalg.norm(self.r))

    def vjp(self, w):
        """J^T w: the partials, weighted by w, contracted over the other node
        first (the gradients of blocks() summed over it); then each node's
        gradients go through _node_adjoint and the design matrices."""
        x, xp, y, yp = self.x, self.xp, self.y, self.yp
        w = np.reshape(w, (len(x), len(y)))
        gx, gxp, gy, gyp = np.empty_like(x), np.empty_like(x), np.zeros_like(y), np.zeros_like(y)
        for rows, partials in self._partials():
            w_b, w_q, w_c, w_e = (w[rows] * p for p in partials)
            gx[rows], gxp[rows] = w_b @ y + w_e @ yp, w_q @ yp + w_c @ y
            gy += w_b.T @ x[rows] + w_c.T @ xp[rows]
            gyp += w_q.T @ xp[rows] + w_e.T @ x[rows]
        design, ddesign = _designs(len(x))
        grads = (_node_adjoint(t, *g) for t, g in zip(self.terms, ((gx, gxp), (gy, gyp))))
        return np.concatenate([(f.T @ design + fp.T @ ddesign).ravel() for f, fp in grads])


def _residual_jacobian(vector, grid_n: int = GRID_OPT):
    """r and the (grid_n^2, shape_dim()) Jacobian: _Linearization's blocks joined."""
    r, jac = zip(*_Linearization(vector, grid_n).blocks())
    return np.concatenate(r), np.concatenate(jac)


def _renormalize(vector):
    """Rescale each component block to mean radius one (a pure gauge move)."""
    v = np.asarray(vector, dtype=float).reshape(2, 4, 2 * K_OPT + 1)
    radii = np.linalg.norm(_designs(64)[0] @ np.swapaxes(v, -1, -2), axis=-1)
    return (v / np.mean(radii, axis=-1)[:, None, None]).ravel()


def _acceleration(v, delta, r, vjp, damped, grid_n: int):
    """The geodesic acceleration a of the step δ, and ‖a‖/‖δ‖.

    r_vv, the second directional derivative of r along δ, is the central
    second difference [r(v + hδ) - 2r(v) + r(v - hδ)]/h^2, and a solves the
    damped normal equations for it: damped a = -J^T r_vv (Transtrum and
    Sethna, arXiv:1201.5885).  The probes call _metric_field, not objective
    (called once per trial), by blocks of s-rows: no whole-grid probe is held.
    Where ‖a‖ exceeds _ACCEL_MAX ‖δ‖, or a probe's components touch, the
    correction is dropped: a = 0 with ratio 0.0.
    """
    h = _GEODESIC_H
    # both probes' points and velocities, each (probe, component, node, 4)
    pts, vel = _grid_fields(v + np.multiply.outer((h, -h), delta), grid_n)[2:]
    probes = np.empty((grid_n, grid_n))  # r(v + hδ) + r(v - hδ), over 2π/n
    try:
        for rows in _row_blocks(grid_n):
            g = _metric_field((pts[:, 0, rows], pts[:, 1]), (vel[:, 0, rows], vel[:, 1]))
            np.add(g[0], g[1], out=probes[rows])
    except DisjointnessViolation:
        return 0.0, 0.0
    r_vv = (probes.ravel() * (TWO_PI / grid_n) - 2.0 * r) / (h * h)
    accel = np.linalg.solve(damped, -vjp(r_vv))
    norm_a, norm_d = np.linalg.norm(accel), np.linalg.norm(delta)
    if not 0.0 < norm_a <= _ACCEL_MAX * norm_d:  # also drops a NaN
        return 0.0, 0.0
    return accel, float(norm_a / norm_d)


@dataclass
class StepRecord:
    """One accepted descent step.

    The area after the step, ‖r‖ at the point the step was solved from,
    the damping λ and the length ‖δ‖ of the accepted trial, the number of
    trials rejected before it, and the accepted trial's ‖a‖/‖δ‖, 0.0 where
    its geodesic correction was dropped.
    """
    objective: float
    residual_norm: float
    damping: float
    step_norm: float
    rejected: int
    accel_ratio: float


@dataclass
class MinimizeResult:
    vector: np.ndarray
    trace: list
    status: str  # "converged", "completed" or "stalled"
    records: list  # one StepRecord per accepted step


def minimize(v0, steps: int, grid_n: int = GRID_OPT,
             stop_below: float = 0.0) -> MinimizeResult:
    """Levenberg–Marquardt descent of the area objective, with geodesic acceleration.

    Each step solves (J^T J + λ·tr(J^T J)/dim·I) δ = -J^T r for the residual
    r and its Jacobian J (see _Linearization), corrects it by half its
    geodesic acceleration a (see _acceleration) and tries the renormalized
    v + δ + a/2.  The trial is accepted only if the area decreases;
    otherwise, or if its components touch, λ grows and the step is solved
    again; it falls after an accepted step, but not below the float epsilon
    ε, under which λ·tr(J^T J)/dim no longer moves J^T J's diagonal.  The
    trace holds the area at the start and after each accepted step, hence
    strictly decreases.  Status: "converged" once the area at an accepted
    point, the start and the last included, is at most max(stop_below,
    _roundoff); "stalled" once a trial's δ falls to v's resolution,
    ‖δ‖ <= ε‖v‖, or is not finite; else "completed", after steps steps.
    """
    if not 0 <= steps <= 5000:
        raise BadParameter("steps must lie in [0, 5000]")
    # a step holds four grid_n^2 fields (2.1 MB at 256) through its trials, whose
    # areas' metric kernels add four more; --grid 256 peaks at 36.0 MB VmHWM
    # (x86-64 Linux, Python 3.11, numpy 2.4)
    if not 1 <= grid_n <= 256:
        raise BadParameter("grid_n must lie in [1, 256]")
    if not np.isfinite(stop_below):
        raise BadParameter("stop_below must be finite")
    decode_coeffs(v0)  # validates the vector length
    v = _renormalize(np.asarray(v0, dtype=float))
    f = objective(v, grid_n)
    trace, records = [f], []
    lam, eps = LAMBDA_START, np.finfo(float).eps
    for step in range(steps + 1):
        if f <= max(stop_below, _roundoff(v, grid_n)):
            return MinimizeResult(vector=v, trace=trace, status="converged", records=records)
        if step == steps:
            break
        lin = _Linearization(v, grid_n)
        normal, grad, r_norm = lin.normal_equations()
        mean_diag = np.trace(normal) / len(v)
        for rejected in itertools.count():
            damped = normal + lam * mean_diag * np.eye(len(v))
            delta = np.linalg.solve(damped, -grad)
            if not np.linalg.norm(delta) > eps * np.linalg.norm(v):  # a NaN δ too
                return MinimizeResult(vector=v, trace=trace, status="stalled", records=records)
            accel, ratio = _acceleration(v, delta, lin.r, lin.vjp, damped, grid_n)
            trial = _renormalize(v + delta + 0.5 * accel)
            try:
                ft = objective(trial, grid_n)
            except DisjointnessViolation:
                ft = np.inf  # a colliding trial is rejected like a non-decrease
            if ft < f:
                break
            lam *= LAMBDA_FACTOR
        del lin, normal, damped  # before the next step's linearization
        records.append(StepRecord(ft, r_norm, lam, float(np.linalg.norm(delta)), rejected,
                                  ratio))
        v, f = trial, ft
        trace.append(f)
        lam = max(lam / LAMBDA_FACTOR, eps)
    return MinimizeResult(vector=v, trace=trace, status="completed", records=records)


def circle_fit_residual(curve: LinkCurve) -> float:
    """RMS distance of N_SAMPLES samples to the best-fit circle, over the diameter.

    The circle is the intersection of the best-fit affine 2-plane of the
    samples with the unit sphere.
    """
    s = np.linspace(0.0, TWO_PI, N_SAMPLES, endpoint=False)
    P = curve.point(s)
    centroid = P.mean(axis=0)
    _, _, Vt = np.linalg.svd(P - centroid, full_matrices=False)
    u1, u2 = Vt[0], Vt[1]
    # in-plane point closest to the origin and the induced circle radius
    m = centroid - (centroid @ u1) * u1 - (centroid @ u2) * u2
    rho2 = 1.0 - m @ m
    rho = np.sqrt(rho2) if rho2 > 0.0 else 0.0
    rel = P - m
    qa = rel @ u1
    qb = rel @ u2
    inplane = np.hypot(qa, qb)
    off = rel - qa[:, None] * u1 - qb[:, None] * u2
    d2 = (inplane - rho) ** 2 + np.sum(off * off, axis=1)
    gram = P @ P.T
    diam = float(np.sqrt(max(2.0 - 2.0 * np.min(gram), 1e-30)))
    return float(np.sqrt(np.mean(d2)) / diam)
