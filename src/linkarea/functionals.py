"""Quadrature of the torus densities: signed area, area, cross energy.

Levels are uniform n x n grids, n a power of two doubling until
successive values agree to the requested tolerance.  A level is one pass
over blocks of whole s-rows, for g and |Omega| only, and each block is
reduced to column sums and the brackets of its rows' sign changes before
the next, so g is never held whole.  The exported grid, which also
carries theta and Re Omega, is evaluated in blocks of s-rows too
(grid_blocks, which anglemap writes one at a time; build_grid joins them).

The signed area and the energy are trapezoid sums of smooth periodic
integrands, which converge spectrally.  The area integrand |g| has a kink
wherever g changes sign, so the area integrates each s-row exactly in t
through the tautological 1-form: g = -da/dt, with a the closed-form
pullback of symplectic.tautological_pullback, periodic in t, so a row's
integral of |g| is the sum of |a(s, z') - a(s, z)| over its consecutive
zeros z, z'.  The zeros are refined on g itself by regula falsi (N.
Anderson and A. Bjorck, BIT 13, 1973); a is stationary at a zero, so a
zero off by d moves its row's value by about |dg/dt| d^2 / 2.  The rows
are summed by the trapezoid rule in s (L. N. Trefethen and J. A. C.
Weideman, SIAM Review 56, 2014).
"""

from dataclasses import dataclass

import numpy as np

from .conformal import density_kernel, magnitude_kernel
from .errors import NoConvergence
from .links import TWO_PI, Link2
from .spheres import ROUNDOFF

N_MIN = 32
N_MAX = 1024

#: nodes per row block of a level (see _level); bounds the temporaries of
#: a block, so that a level holds little more than its brackets
_BLOCK_NODES = 1 << 14
#: nodes per row block of the exported grid, which anglemap evaluates,
#: formats and writes one block at a time: _GRID_BLOCK_NODES // n_t rows,
#: 64 at N_MIN down to 2 at N_MAX.  These even heights reproduce the kernel
#: on the whole grid bit for bit; 3-row blocks moved theta in its last
#: bits, and a single row takes BLAS's matrix-vector path, so the height
#: must stay even.  Smaller blocks hold less but cost time, as each block
#: pays the fixed cost of some hundred numpy calls: 1,024-node (2-row)
#: blocks made write_grid about 16 % slower at n_t = 512.
_GRID_BLOCK_NODES = 2048
#: a zero stops once its next step is at most _ZERO_STEP, or after _ZERO_PASSES
_ZERO_STEP = 1e-9
_ZERO_PASSES = 30
#: Lagrange weights of the cubic through nodes u = -1, 0, 1, 2 at u = j / 32,
#: u = (t - lo) / h in a bracket [lo, lo + h]: the start of each zero's search
_U = np.linspace(0.0, 1.0, 33)
_CUBIC = np.array([-_U * (_U - 1) * (_U - 2) / 6, (_U + 1) * (_U - 1) * (_U - 2) / 2,
                   -(_U + 1) * _U * (_U - 2) / 2, (_U + 1) * _U * (_U - 1) / 6])


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
class LevelRecord:
    """One grid of the refinement: its size n (the grid is n x n), the three
    values and the number of zeros of g in t that the area refined."""
    n: int
    signed_area: float
    area: float
    energy: float
    zeros: int

    @property
    def values(self) -> tuple:
        return (self.signed_area, self.area, self.energy)


@dataclass(frozen=True)
class FunctionalReport:
    signed_area: float
    area: float
    energy: float
    grid_used: tuple  # (n, n) of the last level
    est_error: float
    levels: tuple = ()


def _nodes(n: int) -> np.ndarray:
    return np.linspace(0.0, TWO_PI, n, endpoint=False)


def grid_blocks(link: Link2, n_s: int, n_t: int):
    """The densities at uniform nodes s_i = 2 pi i / n_s etc., by row blocks.

    Returns (s, t, blocks).  blocks yields (g, theta, abs, re) on
    consecutive blocks of whole s-rows, _GRID_BLOCK_NODES // n_t rows each
    (all n_s rows when fewer), and runs the kernel on a block only when it
    is reached, so a kernel error in a later block (CoincidentPoints, the
    cosine check's ValueError) is raised there.  The resolutions are
    checked, and both curves evaluated, before this returns.
    """
    _check_resolution(n_s)
    _check_resolution(n_t)
    s, t = _nodes(n_s), _nodes(n_t)
    x, xp = link.c1.evaluate(s)
    y, yp = link.c2.evaluate(t)
    step = _GRID_BLOCK_NODES // n_t
    return s, t, (density_kernel(x[i:i + step], xp[i:i + step], y, yp)
                  for i in range(0, n_s, step))


def build_grid(link: Link2, n_s: int, n_t: int) -> TorusGrid:
    """The densities on the n_s x n_t grid, assembled from grid_blocks.

    These are the values anglemap writes, bit for bit, and the same as
    density_kernel on the whole grid's curve stacks.
    """
    s, t, blocks = grid_blocks(link, n_s, n_t)
    g, theta, absval, re = (np.concatenate(field) for field in zip(*blocks))
    return TorusGrid(s=s, t=t, g=g, theta=theta, abs_omega=absval, re_omega=re)


def _level(link: Link2, n: int):
    """One pass over the n x n grid, in blocks of about _BLOCK_NODES nodes.

    Returns the first curve's points and velocities at the rows; the
    brackets (row, lo, hi, near) of the rows' sign changes, lo and hi in
    radians and near the (k, 4) values of g at lo - h, lo, hi, hi + h,
    h = 2 pi / n; and the column sums of g and |Omega| - g/2.  Nodes with
    |g| <= ROUNDOFF times the largest |Omega| of their row count as
    positive, so rows of roundoff (the Hopf link and its Moebius images)
    have no sign changes.  A bracket joins two consecutive nodes,
    cyclically: the one before node 0 is the row's last, at t = -h.  A g
    or |Omega| that is not finite anywhere raises NoConvergence.
    """
    x, xp = link.c1.evaluate(_nodes(n))
    y, yp = link.c2.evaluate(_nodes(n))
    sums, found = np.zeros((2, n)), []
    step = _BLOCK_NODES // n
    for r0 in range(0, n, step):
        g, absval = magnitude_kernel(x[r0:r0 + step], xp[r0:r0 + step], y, yp)[:2]
        positive = g >= -ROUNDOFF * absval.max(axis=1)[:, None]
        row, hi = divmod(np.flatnonzero(positive != np.roll(positive, 1, axis=1)), n)
        found.append((row + r0, hi, g[row[:, None], (hi[:, None] + np.arange(-2, 2)) % n]))
        sums[0] += g.sum(axis=0)
        g *= 0.5
        absval -= g
        sums[1] += absval.sum(axis=0)
    if not np.all(np.isfinite(sums)):
        raise NoConvergence(f"non-finite density on the {n}x{n} grid")
    row, hi, near = (np.concatenate(part) for part in zip(*found))
    return x, xp, (row, (hi - 1) * TWO_PI / n, hi * TWO_PI / n, near), sums


def _zeros(c2, x, xp, lo, hi, near):
    """The second curve's points at the zero of g(s, .) in each bracket.

    x and xp are the first curve's stacks at the zeros' rows, and lo, hi
    and near the brackets of _level; g is evaluated at paired points.  A
    zero's first point is the sample of the cubic through near nearest 0;
    each point replaces the bracket's end on its side, and the next is the
    bracket's regula falsi point, or its midpoint where the values give
    none.  An end kept twice in a row has its value scaled by 1 - g(new) /
    g(replaced end), or halved where that is not positive, so that both
    ends close in.
    """
    v_lo, v_hi = near[:, 1], near[:, 2]
    rises = v_lo < v_hi
    new = lo + (hi - lo) * _U[np.argmin(np.abs(near @ _CUBIC), axis=1)]
    kept = np.zeros(len(lo), np.int8)  # the end the last point kept: 1 lo, -1 hi
    at = np.empty_like(x)
    todo = np.arange(len(lo))
    for _ in range(_ZERO_PASSES):
        y, yp = c2.evaluate(new)
        at[todo] = y
        f = magnitude_kernel(x[todo, None], xp[todo, None], y[:, None], yp[:, None])[0][:, 0, 0]
        on_lo = (f < 0) == rises  # new lies on lo's side of the zero
        keeps = np.where(on_lo, -1, 1).astype(np.int8)
        with np.errstate(divide="ignore", invalid="ignore"):
            m = 1.0 - f / np.where(on_lo, v_lo, v_hi)
            m = np.where(keeps == kept, np.where(m > 0, m, 0.5), 1.0)
            lo, v_lo = np.where(on_lo, new, lo), np.where(on_lo, f, v_lo * m)
            hi, v_hi = np.where(on_lo, hi, new), np.where(on_lo, v_hi * m, f)
            frac = v_lo / (v_lo - v_hi)
        step = lo + (hi - lo) * np.where(np.isfinite(frac), np.clip(frac, 0.0, 1.0), 0.5) - new
        moves = np.abs(step) > _ZERO_STEP
        if not moves.any():
            break
        todo, new, lo, hi, v_lo, v_hi, rises, kept = (
            part[moves] for part in (todo, new + step, lo, hi, v_lo, v_hi, rises, keeps))
    return at


def _area(c2, x, xp, brackets) -> float:
    """Integral of |g| over the torus, from _level's stacks and brackets.

    A row's integral in t is the sum of |a(z') - a(z)| over its consecutive
    zeros z, z', the last one back to the first one period on, with a the
    pulled-back 1-form at the zeros (g = -da/dt); a row without a zero adds
    0.  The rows are summed by the trapezoid rule in s.
    """
    from .symplectic import tautological_pullback  # the area's path only, not anglemap's

    row = brackets[0]
    if not len(row):
        return 0.0
    x_row, xp_row = x[row], xp[row]
    y = _zeros(c2, x_row, xp_row, *brackets[1:])
    a = tautological_pullback(x_row[:, None], xp_row[:, None], y[:, None])[:, 0, 0]
    last = np.flatnonzero(np.r_[row[1:] != row[:-1], True])
    after = np.arange(1, len(row) + 1)
    after[last] = np.r_[0, last[:-1] + 1]
    return float(np.sum(np.abs(a[after] - a))) * (TWO_PI / len(x))


_CRITERIA = {"signed_area": (0,), "area": (1,), "energy": (2,), "all": (0, 1, 2)}


def compute_functionals(link: Link2, tol: float = 1e-8, n_start: int = N_MIN,
                        criterion: str = "all") -> FunctionalReport:
    """Signed area, area and cross energy on n x n grids, n doubling.

    The first level is n_start x n_start, and each is one pass of _level,
    for g and |Omega| only: the energy integrand is |Omega| - g/2.
    Refinement stops once the functionals that the criterion selects (a key
    of _CRITERIA, else ValueError) move by at most tol between levels.
    That move is est_error, floored at ROUNDOFF times the area if the area
    is watched: a smaller difference says nothing of the area's error.  All
    three values of the last level are reported either way, with one
    LevelRecord per level.  A start with no finer level under the cap
    raises NoConvergence before any node is evaluated.  A level's stacks
    and brackets are dropped before the next is built: a 512 start on
    separated_link(0.5) peaks at 1.4 MiB traced.

    Signed area and energy are trapezoid sums, which converge spectrally.
    The area is exact in t (see _area), so the round pairs, whose row
    integrals are smooth in s, match their closed forms to roundoff; where
    zeros of a row merge as s moves, or whole rows of g vanish, the row
    integral has kinks in s and the trapezoid rule converges at order 2 to
    3 only.
    """
    if not tol >= 1e-10:  # also rejects nan
        raise ValueError("tolerance below 1e-10 is not supported")
    _check_resolution(n_start)
    if criterion not in _CRITERIA:
        raise ValueError(f"criterion must be one of {', '.join(map(repr, _CRITERIA))}")
    watch = _CRITERIA[criterion]
    failure = NoConvergence(f"no convergence to {tol} within {N_MAX} nodes")
    if 2 * n_start > N_MAX:
        raise failure
    n = n_start
    levels = []
    while True:
        x, xp, brackets, sums = _level(link, n)
        signed, energy = sums.sum(axis=1) * (TWO_PI / n) ** 2
        levels.append(LevelRecord(n=n, signed_area=float(signed),
                                  area=_area(link.c2, x, xp, brackets), energy=float(energy),
                                  zeros=len(brackets[0])))
        del x, xp, brackets  # before the next level builds its own
        if len(levels) > 1:
            cur, prev = levels[-1].values, levels[-2].values
            est = max(abs(cur[k] - prev[k]) for k in watch)
            if 1 in watch:
                est = max(est, ROUNDOFF * cur[1])
            if est <= tol:
                return FunctionalReport(signed_area=cur[0], area=cur[1], energy=cur[2],
                                        grid_used=(n, n), est_error=float(est),
                                        levels=tuple(levels))
        if n == N_MAX:
            raise failure
        n *= 2


def signed_area(link: Link2, tol: float = 1e-8) -> FunctionalReport:
    """Integral of the metric coefficient over the torus (vanishes for links)."""
    return compute_functionals(link, tol, criterion="signed_area")


def area(link: Link2, tol: float = 1e-3) -> FunctionalReport:
    """Integral of |g|; exactly zero on Moebius images of the Hopf link,
    whose g is roundoff on every row.

    On round pairs the area converges spectrally and tolerances down to the
    1e-10 floor are reachable; on generic links its convergence in s is of
    order 2 to 3 (see compute_functionals), which the default tolerance
    allows for.
    """
    return compute_functionals(link, tol, criterion="area")
