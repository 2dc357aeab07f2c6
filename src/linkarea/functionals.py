"""Quadrature of the torus densities: signed area, area, cross energy.

The periodic trapezoid rule on uniform power-of-two grids is spectrally
accurate for the smooth integrands here; grids are refined by doubling
until successive values agree to the requested tolerance, and the last
difference is reported as the error estimate.
"""

import contextlib
import os
from dataclasses import dataclass

import numpy as np

from .conformal import density_grids
from .errors import IoFailure, NoConvergence
from .links import TWO_PI, Link2

N_MIN = 32
N_MAX = 1024

CSV_HEADER = "s,t,g,theta,abs_omega,re_omega"


def _check_resolution(n: int) -> None:
    if n < N_MIN or n > N_MAX or (n & (n - 1)) != 0:
        raise ValueError(f"grid resolution must be a power of two in [{N_MIN}, {N_MAX}]")


@dataclass(frozen=True)
class TorusGrid:
    """Per-node torus data: metric coefficient, angle, density magnitudes."""
    s: np.ndarray
    t: np.ndarray
    g: np.ndarray
    theta: np.ndarray
    abs_omega: np.ndarray
    re_omega: np.ndarray


@dataclass(frozen=True)
class FunctionalReport:
    signed_area: float
    area: float
    energy: float
    grid_used: tuple
    est_error: float


def build_grid(link: Link2, n_s: int, n_t: int) -> TorusGrid:
    """Evaluate the densities at uniform nodes s_i = 2 pi i / n_s etc."""
    _check_resolution(n_s)
    _check_resolution(n_t)
    s = np.linspace(0.0, TWO_PI, n_s, endpoint=False)
    t = np.linspace(0.0, TWO_PI, n_t, endpoint=False)
    g, theta, absval, re = density_grids(link.c1, link.c2, s, t)
    return TorusGrid(s=s, t=t, g=g, theta=theta, abs_omega=absval, re_omega=re)


def _integrals(link: Link2, n: int):
    grid = build_grid(link, n, n)
    cell = (TWO_PI / n) ** 2
    sa = float(np.sum(grid.g) * cell)
    ar = float(np.sum(np.abs(grid.g)) * cell)
    en = float(np.sum(grid.abs_omega - grid.re_omega) * cell)
    return sa, ar, en


_CRITERIA = {"signed_area": (0,), "area": (1,), "energy": (2,), "all": (0, 1, 2)}


def compute_functionals(link: Link2, tol: float = 1e-8, n_start: int = N_MIN,
                        criterion: str = "all") -> FunctionalReport:
    """Signed area, area and cross energy with grid-doubling refinement.

    The criterion selects which functionals must move by at most tol
    between successive grids before refinement stops; all three values from
    the finer grid are reported either way.  Signed area and energy
    converge spectrally, but the area integrand |g| has a kink along its
    zero set (present for every link of positive area, since the signed
    area vanishes), which limits the area delta to roughly 1e-5 at the
    resolution cap; callers asking for tighter area tolerances get
    NoConvergence.
    """
    if not tol >= 1e-10:  # also rejects nan
        raise ValueError("tolerance below 1e-10 is not supported")
    _check_resolution(n_start)
    watch = _CRITERIA[criterion]
    n = n_start
    prev = _integrals(link, n)
    while True:
        n2 = 2 * n
        if n2 > N_MAX:
            raise NoConvergence(f"no convergence to {tol} within {N_MAX} nodes")
        cur = _integrals(link, n2)
        deltas = [abs(cur[k] - prev[k]) for k in watch]
        if max(deltas) <= tol:
            return FunctionalReport(signed_area=cur[0], area=cur[1], energy=cur[2],
                                    grid_used=(n2, n2), est_error=max(deltas))
        prev, n = cur, n2


def signed_area(link: Link2, tol: float = 1e-8) -> FunctionalReport:
    """Integral of the metric coefficient over the torus (vanishes for links)."""
    return compute_functionals(link, tol, criterion="signed_area")


def area(link: Link2, tol: float = 1e-3) -> FunctionalReport:
    """Integral of |g|; zero exactly on Moebius images of the Hopf link.

    The default tolerance reflects the kink-limited convergence order of
    the integrand; see compute_functionals.
    """
    return compute_functionals(link, tol, criterion="area")


def cross_energy(link: Link2, tol: float = 1e-8) -> float:
    """Integral of |Omega| - Re Omega, the component part of the knot energy."""
    return compute_functionals(link, tol, criterion="energy").energy


def export_grid(grid: TorusGrid, path) -> None:
    """Write the grid as CSV, s-major rows, 17 significant digits.

    The bytes are those of np.savetxt with fmt "%.17g": each s and t value
    is formatted once, and each s-row is one % on a template that already
    holds the t column.  A write that fails part-way removes the file.
    """
    t_cols = [",%.17g" % t + ",%.17g,%.17g,%.17g,%.17g\n" for t in grid.t]
    values = (grid.g, grid.theta, grid.abs_omega, grid.re_omega)
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    try:
        with fh:
            fh.write(CSV_HEADER + "\n")
            for i, s in enumerate(grid.s):
                row = np.stack([a[i] for a in values], axis=-1)
                fh.write(("%.17g" % s).join([""] + t_cols) % tuple(row.ravel().tolist()))
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(path)
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_grid(path) -> TorusGrid:
    """Re-import an exported grid; values round-trip bit-exactly."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if fh.readline().rstrip("\n") != CSV_HEADER:
                raise IoFailure("unexpected CSV header")
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if rows.shape[1] != 6 or len(rows) == 0:
        raise IoFailure("grid rows must hold 6 values each")
    s = np.unique(rows[:, 0])
    t = np.unique(rows[:, 1])
    n_s, n_t = len(s), len(t)
    if n_s * n_t != len(rows):
        raise IoFailure("grid rows do not form a full product grid")
    # rows are s-major by the export contract
    s = rows[::n_t, 0]
    t = rows[:n_t, 1]
    cols = [rows[:, k].reshape(n_s, n_t) for k in range(2, 6)]
    return TorusGrid(s=s, t=t, g=cols[0], theta=cols[1], abs_omega=cols[2], re_omega=cols[3])
