"""Finite-difference gradient descent of the torus area over Fourier links.

Shape vectors concatenate the Fourier coefficients of both components;
the objective is the area functional at a fixed grid resolution so that
runs are deterministic.  Gradients are central differences over the
coefficients, evaluated in one batched call that works in blocks of about
BLOCK_CELLS grid cells, so each block's arrays stay in cache.
Backtracking halves the step on non-decrease.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadParameter, CoincidentPoints, DisjointnessViolation
from .links import (TWO_PI, FourierCurve, Link2, LinkCurve, _fourier_design,
                    radial_velocity)
from .spheres import metric_kernel

#: optimizer defaults: mode cap, coefficient step, quadrature resolution
K_OPT = 4
H_OPT = 1e-4
GRID_OPT = 64

#: consecutive failed halvings before the descent reports a stall
MAX_BACKTRACKS = 25

#: grid cells per block of shapes in one batched objective evaluation
BLOCK_CELLS = 100_000


def shape_dim(n_modes: int = K_OPT) -> int:
    return 2 * 4 * (2 * n_modes + 1)


def to_fourier_coeffs(curve: LinkCurve, n_modes: int = K_OPT, n_nodes: int = 256):
    """Truncated Fourier fit of a curve through uniform samples."""
    s = np.linspace(0.0, TWO_PI, n_nodes, endpoint=False)
    pts = curve.point(s)
    spectrum = np.fft.rfft(pts, axis=0)
    coeffs = np.zeros((4, 2 * n_modes + 1))
    coeffs[:, 0] = spectrum[0].real / n_nodes
    for k in range(1, n_modes + 1):
        coeffs[:, 2 * k - 1] = 2.0 * spectrum[k].real / n_nodes
        coeffs[:, 2 * k] = -2.0 * spectrum[k].imag / n_nodes
    return coeffs


def encode_link(link: Link2, n_modes: int = K_OPT):
    """Concatenated per-component Fourier coefficients of a link."""
    blocks = []
    for comp in (link.c1, link.c2):
        if isinstance(comp, FourierCurve) and comp.n_modes <= n_modes:
            block = np.zeros((4, 2 * n_modes + 1))
            block[:, :comp.coeffs.shape[1]] = comp.coeffs
        else:
            block = to_fourier_coeffs(comp, n_modes)
        blocks.append(block)
    return np.concatenate([b.ravel() for b in blocks])


def decode_coeffs(vector, n_modes: int = K_OPT):
    v = np.asarray(vector, dtype=float)
    if v.size != shape_dim(n_modes):
        raise BadParameter(f"shape vector must have length {shape_dim(n_modes)}")
    both = v.reshape(2, 4, 2 * n_modes + 1)
    return both[0], both[1]


def decode_link(vector, n_modes: int = K_OPT) -> Link2:
    """Shape vector back to a validated link."""
    a, b = decode_coeffs(vector, n_modes)
    return Link2(FourierCurve(a), FourierCurve(b))


@lru_cache(maxsize=8)
def _designs(grid_n: int, n_modes: int):
    """Read-only Fourier design matrix and its derivative on grid_n nodes."""
    s = np.linspace(0.0, TWO_PI, grid_n, endpoint=False)
    mats = _fourier_design(s, n_modes), _fourier_design(s, n_modes, derivative=True)
    for m in mats:
        m.flags.writeable = False
    return mats


def _batch_objective(vectors, n_modes: int, grid_n: int):
    """Area objective for a batch of shape vectors at fixed resolution."""
    V = np.asarray(vectors, dtype=float).reshape(len(vectors), 2, 4, 2 * n_modes + 1)
    design, ddesign = _designs(grid_n, n_modes)
    rows = max(1, BLOCK_CELLS // (grid_n * grid_n))
    total = np.empty(len(V))
    for start in range(0, len(V), rows):
        coeffs = np.swapaxes(V[start:start + rows], -1, -2)
        raw = design @ coeffs
        pts = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
        vel = radial_velocity(raw, ddesign @ coeffs)
        try:
            g = metric_kernel(pts[:, 0], vel[:, 0], pts[:, 1], vel[:, 1])
        except CoincidentPoints as exc:
            raise DisjointnessViolation("components touch on the objective grid") from exc
        total[start:start + rows] = np.sum(np.abs(g, out=g), axis=(1, 2))
    return total * (TWO_PI / grid_n) ** 2


def objective(vector, grid_n: int = GRID_OPT, n_modes: int = K_OPT) -> float:
    """Area of the decoded link at fixed grid resolution (no refinement)."""
    return float(_batch_objective(np.asarray(vector)[None, :], n_modes, grid_n)[0])


def _renormalize(vector, n_modes: int):
    """Rescale each component block to mean radius one (a pure gauge move)."""
    v = np.asarray(vector, dtype=float).reshape(2, 4, 2 * n_modes + 1)
    design = _designs(64, n_modes)[0]
    out = v.copy()
    for c in range(2):
        radii = np.linalg.norm(design @ v[c].T, axis=-1)
        out[c] /= np.mean(radii)
    return out.ravel()


@dataclass
class MinimizeResult:
    vector: np.ndarray
    trace: list
    status: str  # "converged", "completed" or "stalled"


def minimize(v0, steps: int, lr: float, grid_n: int = GRID_OPT,
             n_modes: int = K_OPT, stop_below: float = 0.0) -> MinimizeResult:
    """Backtracking gradient descent of the area objective.

    The trace holds the objective at the start and after each accepted
    step, hence is non-increasing by construction.  The run stops early
    when 25 consecutive halvings fail to decrease the objective (reported
    as "stalled", which is the expected outcome at the minimum itself) or
    when the objective drops to stop_below.
    """
    if steps > 5000:
        raise BadParameter("steps capped at 5000")
    if not 0.0 < lr < 1.0:
        raise BadParameter("lr must lie in (0, 1)")
    if grid_n < 1:
        raise BadParameter("grid_n must be at least 1")
    decode_coeffs(v0, n_modes)  # validates the vector length
    v = _renormalize(np.asarray(v0, dtype=float), n_modes)
    f = objective(v, grid_n, n_modes)
    trace = [f]
    dim = shape_dim(n_modes)
    status = "completed"
    for _ in range(steps):
        if f <= stop_below:
            break
        perturbed = np.repeat(v[None, :], 2 * dim, axis=0)
        idx = np.arange(dim)
        perturbed[2 * idx, idx] += H_OPT
        perturbed[2 * idx + 1, idx] -= H_OPT
        try:
            values = _batch_objective(perturbed, n_modes, grid_n)
        except DisjointnessViolation:
            status = "stalled"  # too close to a collision to differentiate
            break
        grad = (values[0::2] - values[1::2]) / (2.0 * H_OPT)
        step_lr = lr
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            trial = _renormalize(v - step_lr * grad, n_modes)
            try:
                ft = objective(trial, grid_n, n_modes)
            except DisjointnessViolation:
                step_lr *= 0.5  # colliding step rejected like a non-decrease
                continue
            if ft < f:
                v, f = trial, ft
                trace.append(f)
                accepted = True
                break
            step_lr *= 0.5
        if not accepted:
            status = "stalled"  # f is unchanged, hence still above stop_below
            break
    if f <= stop_below:
        status = "converged"
    return MinimizeResult(vector=v, trace=trace, status=status)


def circle_fit_residual(curve: LinkCurve, n_samples: int = 256) -> float:
    """RMS distance of samples to the best-fit circle, over the diameter.

    The circle is the intersection of the best-fit affine 2-plane of the
    samples with the unit sphere.
    """
    s = np.linspace(0.0, TWO_PI, n_samples, endpoint=False)
    P = curve.point(s)
    centroid = P.mean(axis=0)
    _, _, Vt = np.linalg.svd(P - centroid)
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
