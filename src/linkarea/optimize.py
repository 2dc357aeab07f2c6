"""Levenberg–Marquardt descent of the torus area over Fourier links.

Shape vectors concatenate the Fourier coefficients of both components;
the objective is the area functional at a fixed grid resolution so that
runs are deterministic.  The area is the L1 norm of the metric field g,
which vanishes identically on the Hopf link and its Moebius images, so
each step solves the damped least-squares problem for the residual
r = g·(2π/n) on the objective grid, with the Jacobian of r built
analytically through the design matrices, the radial normalization and
the metric kernel.  The Jacobian is built in blocks of s-rows, and a step
adds up its normal equations J^T J and J^T r one block at a time, so it
never holds the whole grid_n^2 x 72 Jacobian.  Each trial step δ is
corrected by half its geodesic acceleration a (M. K. Transtrum and J. P.
Sethna, arXiv:1201.5885, 2012), which bends it along the curved, sloppy
directions that stall plain Levenberg–Marquardt near the minimum: a
solves the damped normal equations for the second directional derivative
of r along δ, taken from one probe of the metric field and the products
J δ and J^T w, which are built without J.  A step is accepted only if the
area decreases.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadParameter, CoincidentPoints, DisjointnessViolation
from .links import (TWO_PI, FourierCurve, Link2, LinkCurve, _fourier_design,
                    radial_velocity)
from .spheres import metric_kernel

#: optimizer defaults: mode cap, quadrature resolution
K_OPT = 4
GRID_OPT = 64

#: Levenberg–Marquardt damping: initial value, floor, and the factor by which
#: it falls after an accepted step and grows after a rejected trial
LAMBDA_START = 1e-3
LAMBDA_MIN = 1e-12
LAMBDA_FACTOR = 10.0

#: consecutive rejected trials before the descent reports a stall
MAX_REJECTS = 25

#: geodesic acceleration: the probe step h of the second difference along
#: δ, and the largest ‖a‖/‖δ‖ at which a trial keeps the correction
_GEODESIC_H = 0.1
_ACCEL_MAX = 0.75

#: nodes per block of s-rows in which the descent builds its Jacobian: a
#: block of J holds about this many rows of shape_dim() doubles, 590 kB
_JAC_BLOCK_NODES = 1024


def shape_dim() -> int:
    return 2 * 4 * (2 * K_OPT + 1)


def to_fourier_coeffs(curve: LinkCurve, n_nodes: int = 256):
    """Truncated Fourier fit, up to mode K_OPT, of a curve through uniform samples."""
    s = np.linspace(0.0, TWO_PI, n_nodes, endpoint=False)
    pts = curve.point(s)
    spectrum = np.fft.rfft(pts, axis=0)
    coeffs = np.zeros((4, 2 * K_OPT + 1))
    coeffs[:, 0] = spectrum[0].real / n_nodes
    for k in range(1, K_OPT + 1):
        coeffs[:, 2 * k - 1] = 2.0 * spectrum[k].real / n_nodes
        coeffs[:, 2 * k] = -2.0 * spectrum[k].imag / n_nodes
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

    Each is a (2, grid_n, 4) stack over both components on the grid nodes.
    """
    coeffs = np.swapaxes(np.asarray(vector, dtype=float).reshape(2, 4, 2 * K_OPT + 1), -1, -2)
    design, ddesign = _designs(grid_n)
    raw, draw = design @ coeffs, ddesign @ coeffs
    pts = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
    return raw, draw, pts, radial_velocity(raw, draw)


def _metric_field(pts, vel):
    try:
        return metric_kernel(pts[0], vel[0], pts[1], vel[1])
    except CoincidentPoints as exc:
        raise DisjointnessViolation("components touch on the objective grid") from exc


def objective(vector, grid_n: int = GRID_OPT) -> float:
    """Area of the decoded link at fixed grid resolution (no refinement)."""
    g = _metric_field(*_grid_fields(vector, grid_n)[2:])
    return float(np.sum(np.abs(g, out=g))) * (TWO_PI / grid_n) ** 2


def _node_terms(raw, draw, x, xp):
    """One component's factors of its node map that depend on the node only:
    x, x', 1/|F|, x.F' and P F', each of shape (nodes, 4) or (nodes, 1)."""
    x_fp = np.sum(x * draw, axis=-1, keepdims=True)
    return x, xp, 1.0 / np.linalg.norm(raw, axis=-1, keepdims=True), x_fp, draw - x * x_fp


def _node_tangent(terms, design, ddesign, dc):
    """One component's point and velocity variations (dx, dx') at its nodes
    for a variation dc, (4, 2K+1), of its coefficients.

    The node map takes F and F' to the point x = F/|F|, with dx = P dF/|F|,
    P = I - x x^T, and to the velocity x', with dx' = P dF'/|F| -
    [P dF (x.F') + x ((P dF).F')]/|F|^2 - x' (x.dF)/|F|; dF and dF' are the
    design matrices times dc, and (P dF).F' = dF.(P F').
    """
    x, xp, inv, x_fp, p_fp = terms
    df, dfp = design @ dc.T, ddesign @ dc.T
    x_df = np.sum(x * df, axis=-1, keepdims=True)
    p_df = df - x * x_df
    dxp = ((dfp - x * np.sum(x * dfp, axis=-1, keepdims=True)) * inv
           - (p_df * x_fp + x * np.sum(df * p_fp, axis=-1, keepdims=True)) * inv * inv
           - xp * x_df * inv)
    return p_df * inv, dxp


def _node_adjoint(terms, gx, gxp):
    """The transpose of _node_tangent's map before the design matrices.

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


def _jacobian_blocks(vector, grid_n: int):
    """Residual r = g·(2π/n) on the objective grid and its Jacobian, by blocks of s-rows.

    Yields (r, J) on consecutive blocks of whole s-rows, _JAC_BLOCK_NODES
    nodes each (the last may be shorter): r flattened in (s, t) order and J
    of shape (nodes, shape_dim()).  The kernel g = ((x'.y') b - (x'.y)(x.y')) / b^2
    with b = x.y - 1 has dg/dx = ((x'.y') y - (x'.y) y') / b^2 - 2 g y / b and
    dg/dx' = (b y' - (x.y') y) / b^2, and the mirror formulas in (y, y').
    g and the four products are held on the whole grid: on a block's rows
    alone, BLAS's edge kernels can move a product in its last bits.  The
    gradients and J are built one block at a time.
    """
    raw, draw, pts, vel = _grid_fields(vector, grid_n)
    x, xp, y, yp = pts[0], vel[0], pts[1], vel[1]
    terms = [[t[:, None] for t in _node_terms(raw[c], draw[c], pts[c], vel[c])]
             for c in range(2)]
    design, ddesign = (m[:, None, None, :] for m in _designs(grid_n))
    fields = (_metric_field(pts, vel), x @ y.T - 1.0, xp @ yp.T, xp @ y.T, x @ yp.T)
    cell = TWO_PI / grid_n
    step = _JAC_BLOCK_NODES // grid_n
    for i in range(0, grid_n, step):
        rows = slice(i, i + step)
        g, b, xp_yp, xp_y, x_yp = (f[rows, :, None] for f in fields)
        two_g_b = 2.0 * g / b
        b2 = b * b
        xs, xps = x[rows, None], xp[rows, None]
        gx = (xp_yp * y - xp_y * yp) / b2 - two_g_b * y
        gxp = (b * yp - x_yp * y) / b2
        gy = (xp_yp * xs - x_yp * xps) / b2 - two_g_b * xs
        gyp = (b * xps - xp_y * xs) / b2
        # each component's part of the block's (s, t, coefficient) Jacobian, in place
        jac = np.empty((len(g), grid_n, shape_dim()))
        parts = jac.reshape(len(g), grid_n, 2, 4, 2 * K_OPT + 1)
        _component_jacobian([t[rows] for t in terms[0]], design[rows], ddesign[rows],
                            gx, gxp, parts[:, :, 0])
        _component_jacobian(terms[1], design, ddesign, np.swapaxes(gy, 0, 1),
                            np.swapaxes(gyp, 0, 1), np.swapaxes(parts[:, :, 1], 0, 1))
        jac *= cell
        yield (g * cell).ravel(), jac.reshape(-1, shape_dim())


def _jacobian_products(vector, grid_n: int):
    """r = g·(2π/n) at a shape vector and the maps d -> J d and w -> J^T w, without J.

    g = (q b - c e) / b^2 depends on the points and velocities only through
    the four products b = x.y - 1, q = x'.y', c = x'.y and e = x.y', with
    partials g_b = (q - 2 g b) / b^2, g_q = 1/b, g_c = -e/b^2 and g_e =
    -c/b^2.  Each map builds the products and the partials on the blocks of
    s-rows of _jacobian_blocks, so that it holds no field but g, its input
    and its output on the whole grid.  J d adds up the partials times the
    products' variations, each one matmul of (n, 8) stacks that set each
    node's _node_tangent beside its point.  J^T w contracts the partials,
    weighted by w, over the other node first, by matmuls with the other
    curve's stacks: these are the gradients gx, gx', gy, gy' of
    _jacobian_blocks summed over the other node.  Then each node's
    gradients go through _node_adjoint and the design matrices, so J^T w
    makes no pass over J.
    """
    raw, draw, pts, vel = _grid_fields(vector, grid_n)
    design, ddesign = _designs(grid_n)
    terms = [_node_terms(raw[c], draw[c], pts[c], vel[c]) for c in range(2)]
    x, xp, y, yp = pts[0], vel[0], pts[1], vel[1]
    g = _metric_field(pts, vel)
    cell = TWO_PI / grid_n
    step = _JAC_BLOCK_NODES // grid_n

    def partials():
        for i in range(0, grid_n, step):
            rows = slice(i, i + step)
            b = x[rows] @ y.T - 1.0
            q, c, e = xp[rows] @ yp.T, xp[rows] @ y.T, x[rows] @ yp.T
            b2 = b * b
            yield rows, ((q - 2.0 * g[rows] * b) / b2, 1.0 / b, -e / b2, -c / b2)

    def jvp(d):
        (dx, dxp), (dy, dyp) = (_node_tangent(terms[k], design, ddesign, dc)
                                for k, dc in enumerate(decode_coeffs(d)))
        # [dx, x].[y, dy] = dx.y + x.dy is the variation of b, and so on
        u, up = np.hstack([dx, x]), np.hstack([dxp, xp])
        vt, vpt = np.hstack([y, dy]).T, np.hstack([yp, dyp]).T
        dg = np.empty((grid_n, grid_n))
        for rows, (g_b, g_q, g_c, g_e) in partials():
            out = dg[rows]
            np.multiply(g_b, u[rows] @ vt, out=out)
            out += g_q * (up[rows] @ vpt)
            out += g_c * (up[rows] @ vt)
            out += g_e * (u[rows] @ vpt)
        dg *= cell
        return dg.ravel()

    def vjp(w):
        w = np.reshape(w, (grid_n, grid_n))
        gx, gxp = np.empty((grid_n, 4)), np.empty((grid_n, 4))
        gy, gyp = np.zeros((grid_n, 4)), np.zeros((grid_n, 4))
        for rows, (g_b, g_q, g_c, g_e) in partials():
            w_b, w_q, w_c, w_e = (w[rows] * p for p in (g_b, g_q, g_c, g_e))
            gx[rows], gxp[rows] = w_b @ y + w_e @ yp, w_q @ yp + w_c @ y
            gy += w_b.T @ x[rows] + w_c.T @ xp[rows]
            gyp += w_q.T @ xp[rows] + w_e.T @ x[rows]
        out = []
        for k, grads in enumerate(((gx, gxp), (gy, gyp))):
            from_f, from_fp = _node_adjoint(terms[k], *grads)
            out.append((from_f.T @ design + from_fp.T @ ddesign).ravel())
        return np.concatenate(out) * cell

    return (g * cell).ravel(), jvp, vjp


def _residual_jacobian(vector, grid_n: int = GRID_OPT):
    """The blocks of _jacobian_blocks joined: r of length grid_n^2 and the
    (grid_n^2, shape_dim()) Jacobian."""
    r, jac = zip(*_jacobian_blocks(vector, grid_n))
    return np.concatenate(r), np.concatenate(jac)


def _normal_equations(vector, grid_n: int):
    """J^T J, J^T r and ‖r‖, summed over the blocks of _jacobian_blocks."""
    dim = shape_dim()
    normal, grad, r2 = np.zeros((dim, dim)), np.zeros(dim), 0.0
    for r, jac in _jacobian_blocks(vector, grid_n):
        normal += jac.T @ jac
        grad += jac.T @ r
        r2 += r @ r
        del jac  # so that the next block is built without this one
    return normal, grad, float(np.sqrt(r2))


def _renormalize(vector):
    """Rescale each component block to mean radius one (a pure gauge move)."""
    v = np.asarray(vector, dtype=float).reshape(2, 4, 2 * K_OPT + 1)
    design = _designs(64)[0]
    out = v.copy()
    for c in range(2):
        radii = np.linalg.norm(design @ v[c].T, axis=-1)
        out[c] /= np.mean(radii)
    return out.ravel()


def _acceleration(v, delta, r, jvp, vjp, damped, grid_n: int):
    """The geodesic acceleration a of the step δ, and ‖a‖/‖δ‖.

    r_vv, the second directional derivative of r along δ, is the forward
    second difference (2/h)[(r(v + hδ) - r(v))/h - Jδ], and a solves the
    damped normal equations for it: damped a = -J^T r_vv (Transtrum and
    Sethna, arXiv:1201.5885).  The probe calls _metric_field, not objective,
    so that objective is called once per trial.  Where ‖a‖ exceeds
    _ACCEL_MAX ‖δ‖, or the probe's components touch, the correction is
    dropped: a = 0 with ratio 0.0.
    """
    h = _GEODESIC_H
    try:
        probe = _metric_field(*_grid_fields(v + h * delta, grid_n)[2:])
    except DisjointnessViolation:
        return 0.0, 0.0
    r_vv = (2.0 / h) * ((probe.ravel() * (TWO_PI / grid_n) - r) / h - jvp(delta))
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
    r and its Jacobian J (see _normal_equations), corrects it by half its
    geodesic acceleration a (see _acceleration) and tries the renormalized
    v + δ + a/2.  The trial is accepted only if the area decreases;
    otherwise, or if its components touch, λ grows and the step is solved
    again.  The trace holds the area at the start and after each accepted
    step, hence strictly decreases.  Status: "converged" once the area is
    at most stop_below, "stalled" after MAX_REJECTS rejected trials in a
    row (the expected outcome at the minimum itself), else "completed".
    """
    if not 0 <= steps <= 5000:
        raise BadParameter("steps must lie in [0, 5000]")
    # a step holds five grid_n^2 fields (2.6 MB at 256) and at most two blocks
    # of J (_JAC_BLOCK_NODES x 72 doubles each); --grid 256 peaks at 36 MB RSS
    # (x86-64 Linux, Python 3.11, numpy 2.4)
    if not 1 <= grid_n <= 256:
        raise BadParameter("grid_n must lie in [1, 256]")
    if not np.isfinite(stop_below):
        raise BadParameter("stop_below must be finite")
    decode_coeffs(v0)  # validates the vector length
    v = _renormalize(np.asarray(v0, dtype=float))
    f = objective(v, grid_n)
    trace, records = [f], []
    lam = LAMBDA_START
    status = "completed"
    for _ in range(steps):
        if f <= stop_below:
            break
        normal, grad, r_norm = _normal_equations(v, grid_n)
        r, jvp, vjp = _jacobian_products(v, grid_n)
        diag = np.trace(normal) / len(v) * np.eye(len(v))
        for rejected in range(MAX_REJECTS):
            damped = normal + lam * diag
            delta = np.linalg.solve(damped, -grad)
            accel, ratio = _acceleration(v, delta, r, jvp, vjp, damped, grid_n)
            trial = _renormalize(v + delta + 0.5 * accel)
            try:
                ft = objective(trial, grid_n)
            except DisjointnessViolation:
                ft = np.inf  # a colliding trial is rejected like a non-decrease
            if ft < f:
                break
            lam *= LAMBDA_FACTOR
        else:
            status = "stalled"  # f is unchanged, hence still above stop_below
            break
        del r, jvp, vjp, damped  # before the next step's Jacobian pass
        records.append(StepRecord(ft, r_norm, lam, float(np.linalg.norm(delta)), rejected,
                                  ratio))
        v, f = trial, ft
        trace.append(f)
        lam = max(lam / LAMBDA_FACTOR, LAMBDA_MIN)
    if f <= stop_below:
        status = "converged"
    return MinimizeResult(vector=v, trace=trace, status=status, records=records)


def circle_fit_residual(curve: LinkCurve, n_samples: int = 256) -> float:
    """RMS distance of samples to the best-fit circle, over the diameter.

    The circle is the intersection of the best-fit affine 2-plane of the
    samples with the unit sphere.
    """
    s = np.linspace(0.0, TWO_PI, n_samples, endpoint=False)
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
