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
never holds the whole grid_n^2 x 72 Jacobian.  A step is accepted only if
the area decreases.
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


def _node_terms(raw, draw, x, xp, design, ddesign):
    """One component's factors in _component_jacobian that depend on its own
    node only: x, x', 1/|F|, x.F', P F' and the design rows, each shaped
    (own, 1, ...) to broadcast over the other nodes."""
    x, xp, draw = x[:, None], xp[:, None], draw[:, None]
    x_fp = np.sum(x * draw, axis=-1, keepdims=True)
    return (x, xp, 1.0 / np.linalg.norm(raw, axis=-1)[:, None, None], x_fp,
            draw - x * x_fp, design[:, None, None, :], ddesign[:, None, None, :])


def _component_jacobian(terms, gx, gxp, out) -> None:
    """Derivative of a field on the grid with respect to one component's coefficients.

    gx and gxp are the field's gradients with respect to the component's
    point and velocity, indexed (own node, other node, coordinate), and
    terms are the component's _node_terms on the own nodes.  The point is
    x = F/|F| with dx = P dF/|F|, P = I - x x^T, and the velocity x' has
    dx' = P dF'/|F| - [P dF (x.F') + x ((P dF).F')]/|F|^2 - x' (x.dF)/|F|;
    dF and dF' are rows of the design matrices.  P is symmetric, so each
    term acts on the gradients.  Writes it to out, an (own, other, 4, 2K+1)
    array or view.
    """
    x, xp, inv, x_fp, p_fp, design, ddesign = terms
    x_gxp = np.sum(x * gxp, axis=-1, keepdims=True)
    p_gx = gx - x * np.sum(x * gx, axis=-1, keepdims=True)
    p_gxp = gxp - x * x_gxp
    from_f = (p_gx * inv - (p_gxp * x_fp + x_gxp * p_fp) * inv * inv
              - np.sum(xp * gxp, axis=-1, keepdims=True) * x * inv)
    from_fp = p_gxp * inv
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
    terms = [_node_terms(raw[c], draw[c], pts[c], vel[c], *_designs(grid_n)) for c in range(2)]
    fields = (_metric_field(pts, vel), x @ y.T - 1.0, xp @ yp.T, xp @ y.T, x @ yp.T)
    cell = TWO_PI / grid_n
    step = max(1, _JAC_BLOCK_NODES // grid_n)
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
        _component_jacobian([t[rows] for t in terms[0]], gx, gxp, parts[:, :, 0])
        _component_jacobian(terms[1], np.swapaxes(gy, 0, 1), np.swapaxes(gyp, 0, 1),
                            np.swapaxes(parts[:, :, 1], 0, 1))
        jac *= cell
        yield (g * cell).ravel(), jac.reshape(-1, shape_dim())


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


@dataclass
class StepRecord:
    """One accepted descent step.

    The area after the step, ‖r‖ at the point the step was solved from,
    the damping λ and the length ‖δ‖ of the accepted trial, and the number
    of trials rejected before it.
    """
    objective: float
    residual_norm: float
    damping: float
    step_norm: float
    rejected: int


@dataclass
class MinimizeResult:
    vector: np.ndarray
    trace: list
    status: str  # "converged", "completed" or "stalled"
    records: list  # one StepRecord per accepted step


def minimize(v0, steps: int, grid_n: int = GRID_OPT,
             stop_below: float = 0.0) -> MinimizeResult:
    """Levenberg–Marquardt descent of the area objective.

    Each step solves (J^T J + λ·tr(J^T J)/dim·I) δ = -J^T r for the residual
    r and its Jacobian J (see _normal_equations) and tries the renormalized
    v + δ.  The trial is accepted only if the area decreases; otherwise, or
    if its components touch, λ grows and the step is solved again.  The
    trace holds the area at the start and after each accepted step, hence
    strictly decreases.  Status: "converged" once the area is at most
    stop_below, "stalled" after MAX_REJECTS rejected trials in a row (the
    expected outcome at the minimum itself), else "completed".
    """
    if not 0 <= steps <= 5000:
        raise BadParameter("steps must lie in [0, 5000]")
    # a step holds five grid_n^2 fields (2.6 MB at 256) and at most two blocks
    # of J (_JAC_BLOCK_NODES x 72 doubles each); --grid 256 peaks at 35 MB RSS
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
        diag = np.trace(normal) / len(v) * np.eye(len(v))
        for rejected in range(MAX_REJECTS):
            delta = np.linalg.solve(normal + lam * diag, -grad)
            trial = _renormalize(v + delta)
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
        records.append(StepRecord(ft, r_norm, lam, float(np.linalg.norm(delta)), rejected))
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
