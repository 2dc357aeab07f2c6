"""Levenberg–Marquardt descent of the torus area over Fourier links.

Shape vectors concatenate the Fourier coefficients of both components; the
objective is the area functional at a fixed grid resolution so that runs are
deterministic.  The area is the L1 norm of the metric field g, which vanishes
identically on the Hopf link and its Moebius images, so each step solves the
damped least-squares problem for the residual r = g·(2π/n) on the objective
grid, evaluated once per point (_Linearization) by spheres.metric_kernel.  The
partials of r in the four dot products that g is built from give its gradients
in each component's points and velocities, and the chain rule through each
node's 8x8 derivative of these in the Fourier values and the design rows gives
J by blocks of s-rows; J^T J and J^T r are summed over them, so that the whole
grid_n^2 x 72 Jacobian is never held.  Beside r, the normal equations carry
gauge rows that tie each component's speed |x'| to its mean, their Jacobians
built for both components in one pass: x = F/|F| can move along its own curve
without changing the link, and those reparametrizations are sloppy directions
of J^T J that stall plain Levenberg–Marquardt near the minimum
(M. K. Transtrum, B. B. Machta and J. P. Sethna, Phys. Rev. E 83, 2011); the
rows make them stiff.  A step is accepted only if the area decreases.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import BadParameter, CoincidentPoints
from .links import (N_MIN, N_SAMPLES, TWO_PI, FourierCurve, Link2, LinkCurve,
                    _fourier_design, parameter_grid, radial_jet)
from .spheres import ROUNDOFF, lift, metric_kernel

#: optimizer defaults: mode cap, quadrature resolution
K_OPT = 4
GRID_OPT = 64

#: Levenberg–Marquardt damping: initial value, and the factor by which it
#: falls after an accepted step and grows after a rejected trial
LAMBDA_START = 1e-3
LAMBDA_FACTOR = 10.0

#: nodes per block of s-rows in which a step builds J: a block holds this
#: many rows of shape_dim() doubles, 590 kB
_JAC_BLOCK_NODES = 1024


def shape_dim() -> int:
    return 2 * 4 * (2 * K_OPT + 1)


def to_fourier_coeffs(curve: LinkCurve):
    """Truncated Fourier fit, up to mode K_OPT, of a curve through N_SAMPLES uniform samples."""
    spectrum = np.fft.rfft(curve.point(parameter_grid(N_SAMPLES)), axis=0)[:K_OPT + 1].T
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
    mats = _fourier_design(parameter_grid(grid_n), K_OPT)
    for m in mats:
        m.flags.writeable = False
    return mats


def _grid_fields(vector, grid_n: int):
    """Raw Fourier values F, F' and the points F/|F| and their velocities,
    each a (2, grid_n, 4) stack over both components on the grid nodes."""
    coeffs = np.asarray(vector, dtype=float).reshape(2, 4, 2 * K_OPT + 1).swapaxes(-1, -2)
    design, ddesign = _designs(grid_n)
    raw, draw = design @ coeffs, ddesign @ coeffs
    return raw, draw, *radial_jet(raw, draw)


def objective(vector, grid_n: int = GRID_OPT) -> float:
    """Area of the decoded link at fixed grid resolution (no refinement)."""
    return _Linearization(vector, grid_n).area


def _node_jacobian(raw, draw, x, xp):
    """The (..., nodes, 8, 8) derivative of the node map, which takes F and F'
    to the point x = F/|F| and its velocity x', in (F, F'): with P = I - x x^T,
    dx = P dF/|F| and
    dx' = P dF'/|F| - [P dF (x.F') + x (dF.(P F'))]/|F|^2 - x' (x.dF)/|F|.
    """
    inv = 1.0 / np.linalg.norm(raw, axis=-1)[..., None, None]
    x_fp = np.sum(x * draw, axis=-1, keepdims=True)
    col, row = x[..., :, None], x[..., None, :]
    proj = (np.eye(4) - col * row) * inv
    jac = np.zeros(x.shape[:-1] + (8, 8))
    jac[..., :4, :4] = jac[..., 4:, 4:] = proj
    jac[..., 4:, :4] = -(proj * x_fp[..., None] + col * (draw - x * x_fp)[..., None, :] * inv
                         + xp[..., :, None] * row) * inv
    return jac


class _Linearization:
    """The one evaluation of a shape vector: area, r = g·(2π/n), r's Jacobian J
    and the gauge rows.

    g = (q b - c e)/b^2 depends on the points and velocities only through
    b = x.y - 1, q = x'.y', c = x'.y and e = x.y', with partials g_q = 1/b,
    g_c = -e/b^2, g_e = -c/b^2 and g_b = (q - 2 g b)/b^2 = g_c g_e/g_q - g g_q.
    r_q, r_c and r_e are built at the first step solved from the point or
    read of its roundoff (a rejected trial needs neither), and like r on the
    whole grid (on a block's rows alone, BLAS's edge kernels can move a product
    in its last bits); r_b is formed from them on each block of whole s-rows,
    _JAC_BLOCK_NODES nodes (the last may be shorter).  The chain rule through
    each component's _node_jacobian and design rows (_chain) turns the
    gradients of r in (x, x') and (y, y') into J: blocks() yields J a block
    at a time, and normal_equations() sums J^T J and J^T r over them and adds
    the gauge rows' terms, from the lower half of one _chain over both components.
    """

    def __init__(self, vector, grid_n: int):
        self.fields = _grid_fields(vector, grid_n)  # F, F', the points and their velocities
        (self.x, self.y), (self.xp, self.yp) = self.fields[2:]
        self.n, self.cell = grid_n, TWO_PI / grid_n
        g = metric_kernel(self.x, self.xp, self.y, self.yp)
        self.area = float(np.sum(np.abs(g))) * self.cell ** 2
        self.r = np.multiply(g, self.cell, out=g).ravel()

    @cached_property
    def _r_qce(self):
        """r_q, r_c and r_e on the whole grid."""
        minus_b = self.x @ self.y.T  # becomes 1 - x.y = -b, then -(2π/n)/b^2, all in place
        np.subtract(1.0, minus_b, out=minus_b)
        r_q = -self.cell / minus_b
        over_b2 = np.divide(r_q, minus_b, out=minus_b)
        r_c, r_e = self.x @ self.yp.T, self.xp @ self.y.T
        r_c *= over_b2
        r_e *= over_b2
        return r_q, r_c, r_e

    @cached_property
    def speeds(self):
        """The speeds |x'| and |y'| on the nodes, (2, n)."""
        return np.linalg.norm(self.fields[3], axis=-1)

    def roundoff(self) -> float:
        """The area's roundoff, ROUNDOFF·Σ|Omega|·(2π/n)^2: |Omega|·2π/n = |x'||y'||r_q|/2."""
        speed_x, speed_y = self.speeds
        return ROUNDOFF * 0.5 * self.cell * float(speed_x @ np.abs(self._r_qce[0]) @ speed_y)

    def _chain(self, comp=slice(None), rows=slice(None)):
        """The (nodes, 8, shape_dim()/2) derivative of component comp's points and velocities
        (of both, (2, nodes, 8, ...), by default) on the nodes rows in its coefficients: its
        _node_jacobian times the design block that maps the coefficients to (F, F')."""
        design = np.concatenate([np.eye(4)[:, :, None] * m[rows, None, None]
                                 for m in _designs(self.n)], axis=1)
        node_jac = _node_jacobian(*(f[comp, rows] for f in self.fields))
        return node_jac @ design.reshape(len(design), 8, -1)

    def blocks(self):
        """(r, J) on each block: r flattened in (s, t) order, J of shape
        (nodes, shape_dim()), from the gradients of r in each component's
        point and velocity, dr/dx = r_b y + r_e y', dr/dx' = r_q y' + r_c y,
        dr/dy = r_b x + r_c x' and dr/dy' = r_q x' + r_e x, stacked
        (s, t, 8), each times its node's _chain by one batched matmul."""
        x, xp, y, yp, n = self.x, self.xp, self.y, self.yp, self.n
        r, step, chain_y = self.r.reshape(n, n), _JAC_BLOCK_NODES // n, self._chain(1)
        for rows in (slice(i, i + step) for i in range(0, n, step)):
            r_q, r_c, r_e = (p[rows, :, None] for p in self._r_qce)
            r_b = r_c * r_e / r_q - r[rows, :, None] * r_q / self.cell
            xs, xps = x[rows, None], xp[rows, None]
            grad_x = np.concatenate([r_b * y + r_e * yp, r_q * yp + r_c * y], axis=-1)
            grad_y = np.concatenate([r_b * xs + r_c * xps, r_q * xps + r_e * xs], axis=-1)
            jac = np.empty((len(xs), n, 2, shape_dim() // 2))
            np.matmul(grad_x, self._chain(0, rows), out=jac[:, :, 0])
            np.matmul(grad_y.swapaxes(0, 1), chain_y, out=jac[:, :, 1].swapaxes(0, 1))
            yield r[rows].ravel(), jac.reshape(-1, shape_dim())

    @cached_property
    def gauge(self):
        """The gauge rows (|x'| - mean|x'|)·√(2π/n), one per node of each
        component, (2, n): all 0 where each component runs at constant speed."""
        return (self.speeds - np.mean(self.speeds, axis=-1, keepdims=True)) * np.sqrt(self.cell)

    def gauge_jacobian(self):
        """The (2, n, shape_dim()/2) Jacobian of each component's gauge rows in its
        coefficients: d|x'| = (x'/|x'|).dx', with dx' the lower half of its
        _chain, minus its mean over the nodes, times √(2π/n)."""
        tangent = self.fields[3] / self.speeds[..., None]
        d_speed = np.einsum("cnj,cnjk->cnk", tangent, self._chain()[:, :, 4:])
        return (d_speed - np.mean(d_speed, axis=1, keepdims=True)) * np.sqrt(self.cell)

    def normal_equations(self):
        """J^T J and J^T r, summed over the blocks, with each component's
        Jg^T Jg and Jg^T gauge added to its diagonal block; and ‖r‖."""
        normal, grad = np.zeros((shape_dim(), shape_dim())), np.zeros(shape_dim())
        for r, jac in self.blocks():
            normal += jac.T @ jac
            grad += jac.T @ r
            del jac  # so that the next block is built without this one
        half = shape_dim() // 2
        for comp, (jac, rows) in enumerate(zip(self.gauge_jacobian(), self.gauge)):
            block = slice(comp * half, (comp + 1) * half)
            normal[block, block] += jac.T @ jac
            grad[block] += jac.T @ rows
        return normal, grad, float(np.linalg.norm(self.r))


def _renormalize(vector):
    """Rescale each component block to mean radius one (a pure gauge move)."""
    v = np.asarray(vector, dtype=float).reshape(2, 4, 2 * K_OPT + 1)
    radii = np.linalg.norm(_designs(GRID_OPT)[0] @ np.swapaxes(v, -1, -2), axis=-1)
    return (v / np.mean(radii, axis=-1)[:, None, None]).ravel()


@dataclass
class StepRecord:
    """One accepted descent step.

    The area after the step, ‖r‖ at the point the step was solved from,
    the damping λ and the length ‖δ‖ of the accepted trial, the number of
    trials rejected before it, and the norm of the gauge rows after the step.
    """
    objective: float
    residual_norm: float
    damping: float
    step_norm: float
    rejected: int
    gauge_norm: float


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
    r with the gauge rows stacked under it, and its Jacobian J (see
    _Linearization), and tries the renormalized v + δ, whose one evaluation
    (a _Linearization, as the start's) is the next step's linearization if
    the area decreases; otherwise, or if its components touch (the kernel's
    CoincidentPoints), it is dropped, λ grows and the step is solved again.
    λ falls after an accepted step, but not below the float epsilon ε, under
    which λ·tr(J^T J)/dim no longer moves J^T J's diagonal.  The trace holds
    the area at the start and after each accepted step, hence strictly
    decreases.  Status: "converged" once the area at an accepted point, the
    start and the last included, is at most max(stop_below, its roundoff());
    "stalled" once a trial's δ falls to v's resolution, ‖δ‖ <= ε‖v‖, or is
    not finite; else "completed", after steps steps.
    """
    if not 0 <= steps <= 5000:
        raise BadParameter("steps must lie in [0, 5000]")
    # a step holds four grid_n^2 fields (2.1 MB at 256) through its trials, whose kernels
    # add four more: 36.5 MB VmHWM at --grid 256 (x86-64 Linux, Python 3.11, numpy 2.4)
    if not N_MIN <= grid_n <= 256:
        raise BadParameter(f"grid_n must lie in [{N_MIN}, 256]")
    if not np.isfinite(stop_below):
        raise BadParameter("stop_below must be finite")
    decode_coeffs(v0)  # validates the vector length
    v = _renormalize(np.asarray(v0, dtype=float))
    lin = _Linearization(v, grid_n)
    trace, records = [lin.area], []
    lam, eps = LAMBDA_START, np.finfo(float).eps
    for step in range(steps + 1):
        if lin.area <= max(stop_below, lin.roundoff()):
            return MinimizeResult(vector=v, trace=trace, status="converged", records=records)
        if step == steps:
            break
        normal, grad, r_norm = lin.normal_equations()
        mean_diag = np.trace(normal) / len(v)
        for rejected in itertools.count():
            damped = normal + lam * mean_diag * np.eye(len(v))
            delta = np.linalg.solve(damped, -grad)
            if not np.linalg.norm(delta) > eps * np.linalg.norm(v):  # a NaN δ too
                return MinimizeResult(vector=v, trace=trace, status="stalled", records=records)
            trial = _renormalize(v + delta)
            try:
                point = _Linearization(trial, grid_n)
            except CoincidentPoints:
                point = None  # a colliding trial is rejected like a non-decrease
            if point is not None and point.area < lin.area:
                break
            del point  # before the next trial
            lam *= LAMBDA_FACTOR
        records.append(StepRecord(point.area, r_norm, lam, float(np.linalg.norm(delta)),
                                  rejected, float(np.linalg.norm(point.gauge))))
        del normal, damped  # before the next step's normal equations
        v, lin = trial, point  # the accepted point is the next step's linearization
        trace.append(lin.area)
        lam = max(lam / LAMBDA_FACTOR, eps)
    return MinimizeResult(vector=v, trace=trace, status="completed", records=records)


def circle_fit_residual(curve: LinkCurve) -> float:
    """σ₄/σ₃ of the N_SAMPLES x 5 light-cone lifts (1, x) of the curve's samples: 0
    exactly on round circles, whose lifts span a 3-space of R^{4,1}; on a circle of
    radius r, σ₂ = σ₃ ∝ r, so it reads the relative out-of-circle amplitude at any r."""
    sigma = np.linalg.svd(lift(curve.point(parameter_grid(N_SAMPLES))), compute_uv=False)
    return float(sigma[3] / sigma[2])
