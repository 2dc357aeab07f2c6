"""Quadrature of the torus densities: signed area, area, cross energy.

Grids are uniform n_s x n_t products of power-of-two sizes, each evaluated
in one pass over blocks of whole s-rows, for g and |Omega| only: the
quadrature never forms theta or Re Omega, which only the exported grid
carries, and reduces each block to column sums and row spectra before the
next, so that it never holds g whole.  The exported grid is evaluated in
blocks of s-rows too (grid_blocks), which anglemap hands to the CSV writer
one at a time; the TorusGrid of build_grid joins the same blocks.  Levels
double n_s until successive values agree to the requested tolerance.  n_t
follows the rows' Fourier spectra instead: where the area must converge,
it doubles while the spectral tail of the rows puts its estimate of the
area's t-error above the tolerance, and the next level keeps n_t >= n_s
unless every row is resolved to roundoff at fewer columns, in which case
it carries only those.  The error estimate is the larger of the last level difference and
that t-tail estimate.

The signed area and the energy are trapezoid sums of smooth periodic
integrands, which converge spectrally.  The area integrand |g| has a kink
wherever g changes sign, so the area integrates each s-row exactly in t:
the row's trigonometric interpolant is split at its zeros, found from sign
changes and polished by Newton's method on the interpolant, and integrated
between them through its Fourier antiderivative (J. P. Boyd, Solving
Transcendental Equations, SIAM 2014); the rows are then summed by the
trapezoid rule in s (L. N. Trefethen and J. A. C. Weideman, SIAM Review
56, 2014).  A row resolved in t is integrated exactly, so only s needs
refining.
"""

from dataclasses import dataclass

import numpy as np

from .conformal import density_kernel, magnitude_kernel
from .errors import NoConvergence
from .links import TWO_PI, Link2

N_MIN = 32
N_MAX = 1024

#: oversampled nodes per row block of a level (see _level); bounds the
#: temporaries of a block, so that a level holds little more than its modes
_BLOCK_NODES = 1 << 14
#: nodes per row block of the exported grid, which anglemap evaluates,
#: formats and writes one block at a time.  A block holds
#: max(4, _GRID_BLOCK_NODES // n_t) rows: 2,048 nodes up to n_t = 512, and
#: 4 rows of 1,024 at N_MAX.  It must never be a single row: there the
#: kernel's products take BLAS's matrix-vector path, and theta moves in its
#: last bits against the kernel on the whole grid.  Smaller blocks hold
#: less but cost time, as each block pays the fixed cost of some hundred
#: numpy calls: 2-row blocks made write_grid about 10 % slower at
#: n_t = 1024, and 1,024-node (2-row) blocks about 16 % slower at 512.
_GRID_BLOCK_NODES = 2048
#: zeros are bracketed on each row's interpolant sampled this much finer ...
_OVERSAMPLE = 8
#: ... up to this many columns, and at the columns' own nodes above it
_OVERSAMPLE_MAX_N = 128
#: |g| <= _ROUNDOFF * (largest |Omega| of the row) is roundoff, not a sign
_ROUNDOFF = 64 * np.finfo(float).eps
#: modes below this fraction of a level's largest are roundoff: left out of
#: the interpolant, and a row whose higher modes are all below it is resolved
_MODE_FLOOR = 4 * np.finfo(float).eps
#: a zero is polished once a Newton step moves it by less than this ...
_NEWTON_STEP = 1e-5
#: ... or after this many steps
_NEWTON_PASSES = 60


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
    """One grid of the refinement: its n_s x n_t size, the three values, the
    number of zeros of the rows' interpolants that the area polished, and
    the estimate of the area's t-error from the rows' spectral tail."""
    n_s: int
    n_t: int
    signed_area: float
    area: float
    energy: float
    zeros: int
    t_tail: float

    @property
    def values(self) -> tuple:
        return (self.signed_area, self.area, self.energy)


@dataclass(frozen=True)
class FunctionalReport:
    signed_area: float
    area: float
    energy: float
    grid_used: tuple  # (n_s, n_t)
    est_error: float
    levels: tuple = ()


def _nodes(n: int) -> np.ndarray:
    return np.linspace(0.0, TWO_PI, n, endpoint=False)


def grid_blocks(link: Link2, n_s: int, n_t: int):
    """The densities at uniform nodes s_i = 2 pi i / n_s etc., by row blocks.

    Returns (s, t, blocks).  blocks yields (g, theta, abs, re) on
    consecutive blocks of whole s-rows, max(4, _GRID_BLOCK_NODES // n_t)
    rows each (the last may be shorter), and runs the kernel on a block
    only when it is reached, so a kernel error in a later block
    (CoincidentPoints, the cosine check's ValueError) is raised there.
    The resolutions are checked, and both curves evaluated, before this
    returns.
    """
    _check_resolution(n_s)
    _check_resolution(n_t)
    s, t = _nodes(n_s), _nodes(n_t)
    x, xp = link.c1.evaluate(s)
    y, yp = link.c2.evaluate(t)
    step = max(4, _GRID_BLOCK_NODES // n_t)
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


def _level(link: Link2, n_s: int, n_t: int):
    """One pass over the n_s x n_t grid, in blocks of whole rows.

    Each block runs the kernel for g and |Omega| and is then reduced and
    dropped, so the level never holds g whole.  Row i of the modes holds
    a_0, ..., a_{n/2} of the row's interpolant p(t) = Re sum_k a_k exp(ikt),
    n = n_t.  Returns the modes; top, above which every mode of every row
    is below _MODE_FLOOR of the largest, i.e. FFT roundoff; amp, the
    amplitude |a_k| of each mode summed over the rows; the brackets (row,
    lo, hi, p(lo), p(hi)) of the sign changes of p, lo and hi in radians;
    and the column sums of g and |Omega| - g/2.  p is sampled _OVERSAMPLE
    times finer than the columns while n_t <= _OVERSAMPLE_MAX_N and at the
    columns above that, and a block holds about _BLOCK_NODES such samples.
    Samples with |p| <= _ROUNDOFF times the largest |Omega| of their row
    count as positive, so rows of roundoff (the Hopf link and its Moebius
    images) have no sign changes, and a zero that falls on a sample is
    bracketed between that sample and its neighbour.  A bracket joins two
    consecutive samples, cyclically: the one before sample 0 is the row's
    last, at index -1.  A g or |Omega| that is not finite anywhere on the
    grid raises NoConvergence.
    """
    x, xp = link.c1.evaluate(_nodes(n_s))
    y, yp = link.c2.evaluate(_nodes(n_t))
    half = n_t // 2
    pad = _OVERSAMPLE if n_t <= _OVERSAMPLE_MAX_N else 1
    modes, sums = np.empty((n_s, half + 1), complex), np.zeros((2, n_t))
    peak = np.zeros(half + 1)  # largest |a_k| over the rows, up to a factor 2
    amp = np.zeros(half + 1)
    found = []
    step = max(1, _BLOCK_NODES // (pad * n_t))
    for r0 in range(0, n_s, step):
        rows = slice(r0, r0 + step)
        g, absval = magnitude_kernel(x[rows], xp[rows], y, yp)[:2]
        spec = np.fft.rfft(g, norm="forward")  # a_0, a_k / 2, a_{n/2}
        vals = g
        if pad > 1:  # padded, irfft takes mode n/2 as the pair +-n/2: halved, it counts once
            padded = spec.copy()
            padded[:, half] *= 0.5
            vals = np.fft.irfft(padded, pad * n_t, norm="forward")
        positive = vals >= -_ROUNDOFF * absval.max(axis=1)[:, None]
        row, hi = divmod(np.flatnonzero(positive != np.roll(positive, 1, axis=1)), pad * n_t)
        found.append((row + r0, hi - 1, hi, vals[row, hi - 1], vals[row, hi]))
        sums[0] += g.sum(axis=0)
        g *= 0.5  # only now: vals is g itself when pad is 1
        absval -= g
        sums[1] += absval.sum(axis=0)
        size = np.abs(spec)
        np.maximum(peak, size.max(axis=0), out=peak)
        amp += size.sum(axis=0)
        spec[:, 1:half] *= 2.0
        modes[rows] = spec
    if not np.all(np.isfinite(sums)):
        raise NoConvergence(f"non-finite density on the {n_s}x{n_t} grid")
    amp[1:half] *= 2.0
    top = np.flatnonzero(peak > _MODE_FLOOR * np.max(peak))[-1] if np.any(peak) else 0
    row, lo, hi, v_lo, v_hi = (np.concatenate(part) for part in zip(*found))
    h = TWO_PI / (pad * n_t)
    return modes, int(top), amp, (row, lo * h, hi * h, v_lo, v_hi), sums


def _t_tail(amp, top: int, n_s: int) -> float:
    """Estimate of the area's t-error of a level, from _level's amp and top.

    A row's error is at most 2 pi max|g - p|, p its interpolant on the
    level's n_t columns, and max|g - p| is at most twice the amplitudes of
    the modes beyond n_t/2, which p misses or aliases.  Where every row is
    resolved (each mode from n_t/2 up below the mode floor), p misses only
    the roundoff modes above top, and those are summed.  Otherwise the
    modes above n_t/4 stand in for the ones beyond n_t/2.  That bounds the
    error only for a spectrum that decays geometrically, |a_k| ~ r^k with
    r^(n_t/4) <= 1/3: under algebraic decay it can understate the error,
    and under fast decay it overstates it about r^(-n_t/4)/2 times.  The
    amplitudes are summed over the rows with the trapezoid weight 2 pi / n_s
    in s.
    """
    half = len(amp) - 1
    first = max(half // 2, top) if top < half else half // 2
    return TWO_PI * TWO_PI / n_s * float(amp[first + 1:].sum())


def _carried_columns(sums, top: int, n_s: int) -> int:
    """n_t of the next level.

    The fewest columns m >= N_MIN, up to the level's n_t, at which every
    row is resolved (each mode from m/2 up below the mode floor) and the
    energy's trapezoid sum over every (n_t/m)-th column matches the full
    one to roundoff, since the floor is judged on g alone.  Without such
    an m, n_t keeps up with the next level's n_s.
    """
    n_t = sums.shape[1]
    m = max(N_MIN, 2 * top + 1)
    m = 1 << (m - 1).bit_length()  # the next power of two
    energy = sums[1].sum() if m <= n_t else 0.0
    while m <= n_t:
        stride = n_t // m
        if abs(stride * sums[1, ::stride].sum() - energy) <= _ROUNDOFF * energy:
            return m
        m *= 2
    return max(n_t, 2 * n_s)


def _interpolant(modes, top, row, z):
    """(p, p', P) at z, p the trigonometric interpolant of each zero's row.

    With w = exp(iz), p(z) = Re sum_k a_k w^k over k = 0..n/2, and
    P(z) = a_0 z + Re sum_{k>0} a_k w^k / (ik) is an antiderivative.  One
    Horner pass over the modes evaluates all three at every zero at once;
    the modes above top, negligible in every row, are left out.
    """
    w = np.exp(1j * z)
    head = modes[row, 0].real
    q = np.zeros(len(z), complex)
    d = np.zeros_like(q)
    anti = np.zeros_like(q)
    for k in range(top, 0, -1):
        c = modes[row, k]
        d *= w
        d += q
        q *= w
        q += c
        anti *= w
        anti += c * (-1j / k)
    d *= w
    d += q
    q *= w
    q += head
    anti *= w
    d *= w  # dp/dz = Re(i w dQ/dw)
    return q.real, -d.imag, head * z + anti.real


def _polish(modes, top, row, lo, hi, v_lo, v_hi):
    """Antiderivative of each row's interpolant at its zero in [lo, hi].

    Each zero starts at the regula falsi point of its bracket and moves by
    Newton steps on the interpolant, bisecting the bracket instead whenever
    a step would leave it, until a step is below _NEWTON_STEP.  With dz the
    last step, P(z) - p(z) dz / 2 is P at the zero to within p'' dz^3 / 6.
    """
    z = lo + (hi - lo) * np.clip(v_lo / (v_lo - v_hi), 0.0, 1.0)
    rises = v_lo < v_hi
    anti = np.empty(len(z))
    todo = np.arange(len(z))
    for _ in range(_NEWTON_PASSES):
        if not len(todo):
            break
        at = z[todo]
        p, dp, value = _interpolant(modes, top, row[todo], at)
        below = (p < 0) == rises[todo]  # at lies on the bracket's lo side of the zero
        lo[todo] = np.where(below & (p != 0), at, lo[todo])
        hi[todo] = np.where(below | (p == 0), hi[todo], at)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = p / dp
        new = at - step
        left, right = lo[todo], hi[todo]
        new = np.where((new >= left) & (new <= right), new, 0.5 * (left + right))
        z[todo] = new
        anti[todo] = value - 0.5 * p * (at - new)
        todo = todo[np.abs(new - at) > _NEWTON_STEP]
    return anti


def _abs_integral(modes, top: int, brackets):
    """Integral of |g| over the torus, and the number of zeros polished.

    modes, top and the sign-change brackets are those of _level.
    Each row's integral in t is that of |p|, p the row's trigonometric
    interpolant, exact between consecutive zeros of p through the Fourier
    antiderivative; the zeros are polished on p itself.  The rows are
    summed by the trapezoid rule in s.
    """
    n_s = len(modes)
    row = brackets[0]
    anti = _polish(modes, top, *brackets)
    mean = modes[:, 0].real
    integral = TWO_PI * np.abs(mean)
    if len(row):
        # consecutive zeros of a row, the last back to the first one period on
        last = np.flatnonzero(np.r_[row[1:] != row[:-1], True])
        after = np.arange(1, len(row) + 1)
        after[last] = np.r_[0, last[:-1] + 1]
        piece = anti[after] - anti
        piece[last] += TWO_PI * mean[row[last]]
        integral[row[last]] = np.bincount(row, np.abs(piece), minlength=n_s)[row[last]]
    return np.sum(integral) * (TWO_PI / n_s), len(row)


_CRITERIA = {"signed_area": (0,), "area": (1,), "energy": (2,), "all": (0, 1, 2)}


def compute_functionals(link: Link2, tol: float = 1e-8, n_start: int = N_MIN,
                        criterion: str = "all") -> FunctionalReport:
    """Signed area, area and cross energy on refined n_s x n_t grids.

    The first level is n_start x n_start.  Within a later level, if the
    criterion watches the area, n_t doubles while the rows' spectral tail
    puts its estimate of the area's t-error above tol (see _t_tail); the
    rows' spectra decide this before any zero is polished.  Each next level
    doubles n_s and carries the fewest columns, at least N_MIN, at which
    every row is resolved to the mode floor, or else keeps n_t >= n_s (see
    _carried_columns).  Each grid is evaluated in one pass by _level, for g
    and |Omega| only: the energy integrand is |Omega| - Re Omega =
    |Omega| - g/2.  Refinement stops once the functionals that the
    criterion selects move by at most tol between levels and, if the area
    is among them, the t-tail estimate is within tol; the larger of the two
    is est_error.  All three values of the last level are reported either
    way, with one LevelRecord per level, and grid_used is its (n_s, n_t).
    A start with no finer level under the cap raises NoConvergence before
    any node is evaluated.  A level's modes, brackets and amplitudes are
    dropped before the next _level call, the next level's or the re-run's
    at doubled n_t, so one level is alive at a time: a 512 start on
    separated_link(0.5) peaks at 3.3 MiB of traced memory, about one
    level's modes (2.1 MB) and its block temporaries.

    Signed area and energy are trapezoid sums, which converge spectrally.
    The area integrand |g| has a kink along the zero set of g (present for
    every link of positive area, since the signed area vanishes), so the
    area integrates each row's interpolant exactly between its zeros (see
    _abs_integral): once the rows are resolved in t, the round pairs, whose
    row integrals are smooth in s, match their closed forms to roundoff.
    Where zeros of a row merge as s moves, or whole rows of g vanish, the
    row integral has kinks in s and the trapezoid rule in s converges at
    order 2 to 3 only.
    """
    if not tol >= 1e-10:  # also rejects nan
        raise ValueError("tolerance below 1e-10 is not supported")
    _check_resolution(n_start)
    watch = _CRITERIA[criterion]
    area_watched = 1 in watch  # the t-tail estimates the area's error only
    failure = NoConvergence(f"no convergence to {tol} within {N_MAX} nodes")
    if 2 * n_start > N_MAX:
        raise failure
    n_s = n_t = n_start
    levels = []
    while True:
        modes, top, amp, brackets, sums = _level(link, n_s, n_t)
        tail = _t_tail(amp, top, n_s)
        if area_watched and levels and tail > tol and n_t < N_MAX:
            del modes, amp, brackets  # the re-run builds its own
            n_t *= 2
            continue
        area, zeros = _abs_integral(modes, top, brackets)
        del modes, amp, brackets  # before the next level builds its own
        cell = (TWO_PI / n_s) * (TWO_PI / n_t)
        signed, energy = sums.sum(axis=1) * cell
        levels.append(LevelRecord(n_s=n_s, n_t=n_t, signed_area=float(signed), area=float(area),
                                  energy=float(energy), zeros=zeros, t_tail=tail))
        if len(levels) > 1:
            cur, prev = levels[-1].values, levels[-2].values
            est = max(max(abs(cur[k] - prev[k]) for k in watch), tail if area_watched else 0.0)
            if est <= tol:
                return FunctionalReport(signed_area=cur[0], area=cur[1], energy=cur[2],
                                        grid_used=(n_s, n_t), est_error=float(est),
                                        levels=tuple(levels))
        if n_s == N_MAX:
            raise failure
        n_s, n_t = 2 * n_s, _carried_columns(sums, top, n_s)


def signed_area(link: Link2, tol: float = 1e-8) -> FunctionalReport:
    """Integral of the metric coefficient over the torus (vanishes for links)."""
    return compute_functionals(link, tol, criterion="signed_area")


def area(link: Link2, tol: float = 1e-3) -> FunctionalReport:
    """Integral of |g|; zero exactly on Moebius images of the Hopf link.

    On round pairs the area converges spectrally and tolerances down to the
    1e-10 floor are reachable; on generic links its convergence in s is of
    order 2 to 3 (see compute_functionals), which the default tolerance
    allows for.
    """
    return compute_functionals(link, tol, criterion="area")

