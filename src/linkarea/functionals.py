"""Quadrature of the torus densities: signed area, area, cross energy.

Grids are uniform and of power-of-two size, refined by doubling until
successive values agree to the requested tolerance; the last difference is
reported as the error estimate.  The doubled grid contains the coarse one,
so each level keeps g at every node, and the unscaled node sums of g and
|Omega| - g/2, and evaluates only the nodes it adds; the quadrature never
forms theta or Re Omega, which only the exported grid carries.

The signed area and the energy are trapezoid sums of smooth periodic
integrands, which converge spectrally.  The area integrand |g| has a kink
wherever g changes sign, so the area integrates each s-row exactly in t:
the row's trigonometric interpolant is split at its zeros, found from sign
changes and polished by Newton's method on the interpolant, and integrated
between them through its Fourier antiderivative (J. P. Boyd, Solving
Transcendental Equations, SIAM 2014); the rows are then summed by the
trapezoid rule in s (L. N. Trefethen and J. A. C. Weideman, SIAM Review
56, 2014).

The grid's CSV export writes the bytes of np.savetxt with fmt "%.17g", but
computes the digits with whole-array numpy operations.  For
1e-6 < |x| < 1e17, an error-free product with an exact power of ten
(T. J. Dekker, Numer. Math. 18, 1971) gives the correctly rounded 17-digit
mantissa.  Zeros, subnormals, nan, +-inf and magnitudes outside that window
fall back to Python's formatting, once per distinct value.  The import
accepts only the s-major product grid that the export writes.
"""

import contextlib
import functools
import os
from dataclasses import dataclass

import numpy as np

from .conformal import density_grids, magnitude_kernel
from .errors import IoFailure, NoConvergence
from .links import TWO_PI, Link2

N_MIN = 32
N_MAX = 1024

CSV_HEADER = "s,t,g,theta,abs_omega,re_omega"

#: nodes per kernel call and per row block of the FFTs; bounds a level's
#: temporaries, so that the 1024^2 level holds little more than its g
_BLOCK_NODES = 1 << 16
#: zeros are bracketed on each row's interpolant sampled this much finer ...
_OVERSAMPLE = 8
#: ... up to this grid size, and on the grid's own samples above it
_OVERSAMPLE_MAX_N = 128
#: |g| <= _ROUNDOFF * (largest |Omega| of the row) is roundoff, not a sign
_ROUNDOFF = 64 * np.finfo(float).eps
#: modes below this fraction of a level's largest are roundoff, left out
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
    """One grid of the refinement: its size, the three values and the
    number of zeros of the rows' interpolants that the area polished."""
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
    grid_used: tuple
    est_error: float
    levels: tuple = ()


def build_grid(link: Link2, n_s: int, n_t: int) -> TorusGrid:
    """Evaluate the densities at uniform nodes s_i = 2 pi i / n_s etc."""
    _check_resolution(n_s)
    _check_resolution(n_t)
    s = np.linspace(0.0, TWO_PI, n_s, endpoint=False)
    t = np.linspace(0.0, TWO_PI, n_t, endpoint=False)
    g, theta, absval, re = density_grids(link.c1, link.c2, s, t)
    return TorusGrid(s=s, t=t, g=g, theta=theta, abs_omega=absval, re_omega=re)


def _level_grid(link: Link2, n: int, coarse=None):
    """(g, sums, scale) on the n x n grid: g at every node, the node sums
    (sum g, sum |Omega| - g/2) and the largest |Omega| of each row.

    With coarse, the same triple for the n/2 grid, only the nodes that the n
    grid adds are evaluated: odd s against every t, and even s against odd t.
    The even-even nodes are the coarse grid's, since
    linspace(0, 2 pi, n)[::2] == linspace(0, 2 pi, n/2).  The kernel runs on
    blocks of whole rows, about _BLOCK_NODES nodes each.
    """
    nodes = np.linspace(0.0, TWO_PI, n, endpoint=False)
    x, xp = link.c1.evaluate(nodes)
    y, yp = link.c2.evaluate(nodes)
    g = np.empty((n, n))
    sums = np.zeros(2)
    scale = np.zeros(n)
    if coarse is None:
        parts = ((0, 1, slice(None)),)  # (first row, row stride, columns)
    else:
        g[::2, ::2] = coarse[0]
        sums += coarse[1]
        scale[::2] = coarse[2]
        parts = ((1, 2, slice(None)), (0, 2, slice(1, None, 2)))
    for first, stride, cols in parts:
        y_c, yp_c = y[cols], yp[cols]
        step = stride * max(1, _BLOCK_NODES // len(y_c))
        for r0 in range(first, n, step):
            rows = slice(r0, r0 + step, stride)
            gb, absval = magnitude_kernel(x[rows], xp[rows], y_c, yp_c)[:2]
            g[rows, cols] = gb
            np.maximum(scale[rows], absval.max(axis=1), out=scale[rows])
            sums[0] += np.sum(gb)
            gb *= 0.5
            absval -= gb
            sums[1] += np.sum(absval)
    return g, sums, scale


def _sign_changes(vals, tiny, r0: int):
    """Brackets of the sign changes along each row of vals, taken cyclically.

    Entries with |v| <= tiny of their row are roundoff and count as
    positive, so rows of roundoff have no sign changes, and a zero that
    falls on a node is bracketed between that node and its neighbour.  A
    bracket joins two consecutive entries, the one before entry 0 being the
    row's last, at index -1.  Returns (row + r0, lo, hi, v_lo, v_hi), with
    hi = lo + 1 in sample units.
    """
    positive = vals >= -tiny[:, None]
    row, hi = divmod(np.flatnonzero(positive != np.roll(positive, 1, axis=1)), vals.shape[1])
    lo = hi - 1
    return row + r0, lo, hi, vals[row, lo], vals[row, hi]


def _interpolant(modes, top, row, z):
    """(p, p', P) at z, p the trigonometric interpolant of each zero's row.

    With w = exp(iz), p(z) = Re sum_k a_k w^k over k = 0..n/2, and
    P(z) = a_0 z + Re sum_{k>0} a_k w^k / (ik) is an antiderivative.  One
    Horner pass over the modes evaluates all three at every zero at once;
    the modes above top, negligible in every row, are left out.
    """
    half = modes.shape[1]
    w = np.exp(1j * z)
    head = modes[row, 0]  # a_0 + i a_{n/2}
    q = np.zeros(len(z), complex)
    d = np.zeros_like(q)
    anti = np.zeros_like(q)
    for k in range(top, 0, -1):
        c = head.imag if k == half else modes[:, k][row]
        d *= w
        d += q
        q *= w
        q += c
        anti *= w
        anti += c * (-1j / k)
    d *= w
    d += q
    q *= w
    q += head.real
    anti *= w
    d *= w  # dp/dz = Re(i w dQ/dw)
    return q.real, -d.imag, head.real * z + anti.real


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


def _abs_integral(g, scale, coef):
    """Integral of |g| over the torus, and the number of zeros polished.

    Each row's integral in t is that of |p|, p the row's trigonometric
    interpolant, exact between consecutive zeros of p through the Fourier
    antiderivative; the rows are summed by the trapezoid rule in s.  Zeros
    are bracketed by sign changes of p, sampled _OVERSAMPLE times finer than
    the grid while n <= _OVERSAMPLE_MAX_N and at the nodes above that, and
    polished on p itself.  Samples with |g| <= _ROUNDOFF times the largest
    |Omega| of their row count as positive, so rows of roundoff (the Hopf
    link and its Moebius images) add no zeros.  The rows' Fourier
    coefficients go to coef, an n x n array, which may be g itself if g is
    not needed afterwards.
    """
    n = len(g)
    half = n // 2
    modes = coef.view(complex)  # row i: a_0 + i a_{n/2}, a_1, ..., a_{n/2 - 1}
    pad = _OVERSAMPLE if n <= _OVERSAMPLE_MAX_N else 1
    tiny = _ROUNDOFF * scale
    found = []
    peak = np.zeros(half + 1)  # largest |a_k| over the rows
    step = max(1, _BLOCK_NODES // (pad * n))
    for r0 in range(0, n, step):
        rows = slice(r0, r0 + step)
        spec = np.fft.rfft(g[rows], norm="forward")  # a_0, a_k / 2, a_{n/2}
        vals = np.fft.irfft(spec, pad * n, norm="forward") if pad > 1 else g[rows]
        found.append(_sign_changes(vals, tiny[rows], r0))
        np.maximum(peak, np.max(np.abs(spec), axis=0), out=peak)
        modes[rows, 1:] = 2.0 * spec[:, 1:half]
        modes[rows, 0] = spec[:, 0].real + 1j * spec[:, half].real
    row, lo, hi, v_lo, v_hi = (np.concatenate(part) for part in zip(*found))
    # above top, every mode of every row is at the roundoff floor of the FFT
    top = np.flatnonzero(peak > _MODE_FLOOR * np.max(peak))[-1] if np.any(peak) else 0
    h = TWO_PI / (pad * n)
    anti = _polish(modes, top, row, lo * h, hi * h, v_lo, v_hi)
    mean = modes[:, 0].real
    integral = TWO_PI * np.abs(mean)
    if len(row):
        # consecutive zeros of a row, the last back to the first one period on
        last = np.flatnonzero(np.r_[row[1:] != row[:-1], True])
        after = np.arange(1, len(row) + 1)
        after[last] = np.r_[0, last[:-1] + 1]
        piece = anti[after] - anti
        piece[last] += TWO_PI * mean[row[last]]
        integral[row[last]] = np.bincount(row, np.abs(piece), minlength=n)[row[last]]
    return np.sum(integral) * (TWO_PI / n), len(row)


_CRITERIA = {"signed_area": (0,), "area": (1,), "energy": (2,), "all": (0, 1, 2)}


def compute_functionals(link: Link2, tol: float = 1e-8, n_start: int = N_MIN,
                        criterion: str = "all") -> FunctionalReport:
    """Signed area, area and cross energy with grid-doubling refinement.

    The criterion selects which functionals must move by at most tol
    between successive grids before refinement stops; all three values from
    the finer grid are reported either way, with one LevelRecord per grid
    visited.  Each level keeps g at every node and the previous level's
    node sums, and evaluates only the nodes it adds, for g and |Omega| only:
    the energy integrand is |Omega| - Re Omega = |Omega| - g/2.  A start
    with no finer grid under the cap raises NoConvergence before any node
    is evaluated.

    Signed area and energy are trapezoid sums, which converge spectrally.
    The area integrand |g| has a kink along the zero set of g (present for
    every link of positive area, since the signed area vanishes), so the
    area integrates each row's interpolant exactly between its zeros (see
    _abs_integral): on the round pairs, whose rows have simple zeros, it
    matches the closed forms to about 1e-14 at 128^2.  Where zeros of a row
    merge as s moves, or whole rows of g vanish, the row integral has kinks
    in s and the trapezoid rule in s converges at order 2 to 3 only.
    """
    if not tol >= 1e-10:  # also rejects nan
        raise ValueError("tolerance below 1e-10 is not supported")
    _check_resolution(n_start)
    watch = _CRITERIA[criterion]
    failure = NoConvergence(f"no convergence to {tol} within {N_MAX} nodes")
    if 2 * n_start > N_MAX:
        raise failure
    n, level, levels = n_start, None, []
    while n <= N_MAX:
        level = _level_grid(link, n, level)
        g, sums, scale = level
        # the last grid's g is not needed again, so its coefficients overwrite it
        area, zeros = _abs_integral(g, scale, g if n == N_MAX else np.empty_like(g))
        cell = (TWO_PI / n) ** 2
        levels.append(LevelRecord(n=n, signed_area=float(sums[0] * cell), area=float(area),
                                  energy=float(sums[1] * cell), zeros=zeros))
        if len(levels) > 1:
            cur, prev = levels[-1].values, levels[-2].values
            delta = max(abs(cur[k] - prev[k]) for k in watch)
            if delta <= tol:
                return FunctionalReport(signed_area=cur[0], area=cur[1], energy=cur[2],
                                        grid_used=(n, n), est_error=float(delta),
                                        levels=tuple(levels))
        n *= 2
    raise failure


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


def cross_energy(link: Link2, tol: float = 1e-8) -> float:
    """Integral of |Omega| - Re Omega, the component part of the knot energy."""
    return compute_functionals(link, tol, criterion="energy").energy


#: width of the widest "%.17g" field, "-1.2345678901234567e-308"
_FIELD = 24
#: CSV rows formatted per block; bounds the writer's scratch memory
_BLOCK_ROWS = 4096
#: 10**p for p = 0..22, all exact doubles (5**22 < 2**53)
_POW10 = np.array([float(10 ** p) for p in range(23)])
#: masks that keep the first c of four packed bytes, c = 0..4
_KEEP = np.array([b"\xff" * c + b"\0" * (4 - c) for c in range(5)]).view(np.uint32)


@functools.cache
def _digit_tables():
    """The text "%04d" of 0..9999, four ASCII bytes packed in a uint32, and
    the trailing zeros of each (4 for 0).  Built on first use, so that
    commands that write no CSV do not pay for them.
    """
    digits = np.stack(np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4,
                                  indexing="ij"), axis=-1).reshape(10000, 4)
    zero = digits == ord("0")
    trailing = zero[:, 3] * (1 + zero[:, 2] * (1 + zero[:, 1] * (1 + zero[:, 0])))
    return digits.view(np.uint32)[:, 0], trailing


def _split(a):
    """Veltkamp's split of a into a 26-bit high part and the rest."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(a, p):
    """a * 10**p as h + l with h = fl(a * 10**p), exactly (Dekker's two-product)."""
    h = a * _POW10[p]
    ah, al = _split(a)
    bh, bl = _POW10_HI[p], _POW10_LO[p]
    return h, ((ah * bh - h) + ah * bl + al * bh) + al * bl


def _mantissa(d, e):
    """ASCII digits of the 17-digit integers d, trailing zeros dropped.

    Returns an (n, 17) uint8 array whose bytes after the last significant
    digit are NUL, except those of an integer part of e + 1 digits, and the
    count of significant digits.
    """
    quad_text, quad_trailing = _digit_tables()
    quads = np.empty((len(d), 5), np.uint32)
    trailing = np.zeros(len(d), np.intp)
    zero = np.ones(len(d), bool)
    for k in range(4, 0, -1):
        q = d // 10000
        r = d - 10000 * q
        quads[:, k] = quad_text[r]
        trailing += zero * quad_trailing[r]
        zero &= r == 0
        d = q
    quads[:, 0] = quad_text[d]
    nsig = 17 - trailing
    keep = np.maximum(nsig, e + 1)
    for k in range(1, 5):  # quad k holds digits 4k-3 .. 4k
        quads[:, k] &= _KEEP[np.clip(keep - (4 * k - 3), 0, 4)]
    return quads.view(np.uint8)[:, 3:], nsig


def _format_g17(x) -> np.ndarray:
    """'%.17g' % v for each v of x, as the rows of a NUL-padded (n, _FIELD) uint8 array.

    For 1e-6 < |v| < 1e17 the digits are exact: with E the decimal exponent
    of |v| and p = 16 - E in [0, 22], 10**p is an exact double, so
    |v| * 10**p = h + l exactly, and the 17-digit mantissa is h + l rounded
    half to even, the correctly rounded digits that "%.17g" prints.  E is
    fixed on the unrounded h + l; a mantissa that then rounds up to 1e17
    carries into E + 1.  Every other value (zeros, subnormals, tiny and huge
    magnitudes, nan, +-inf) is formatted by Python, once per distinct bit
    pattern.
    """
    x = np.ravel(np.asarray(x, dtype=np.float64))
    out = np.zeros((len(x), _FIELD), np.uint8)
    items = out.view(f"V{_FIELD}")[:, 0]  # one item per row of out, for whole-row copies
    a = np.abs(x)
    window = (a > 1e-6) & (a < 1e17)
    rest = np.flatnonzero(~window)
    if len(rest):
        bits, inverse = np.unique(x[rest].view(np.uint64), return_inverse=True)
        text = np.array([b"%.17g" % v for v in bits.view(np.float64)], dtype=f"S{_FIELD}")
        items[rest] = text.view(f"V{_FIELD}")[inverse]
    exact = np.flatnonzero(window)
    a = a[exact]
    e = np.clip(np.floor(np.log10(a)), -6, 16).astype(np.intp)
    h, l = _scaled(a, 16 - e)
    # log10 may miss the decade by one; settle it on the unrounded h + l
    off = (((h > 1e17) | ((h == 1e17) & (l >= 0))).astype(np.intp)
           - ((h < 1e16) | ((h == 1e16) & (l < 0))))
    fix = np.flatnonzero(off)
    e[fix] += off[fix]
    h[fix], l[fix] = _scaled(a[fix], 16 - e[fix])
    # h is an integer (>= 2**53); round h + l half to even
    down = np.floor(l)
    frac = l - down
    d = h.astype(np.int64) + down.astype(np.int64)
    d += (frac > 0.5) | ((frac == 0.5) & (d % 2 == 1))
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e[carry] += 1
    chars, nsig = _mantissa(d, e)
    sign = np.where(x[exact] < 0, ord("-"), 0)
    for k in np.flatnonzero(np.bincount(e + 6)) - 6:
        rows = np.flatnonzero(e == k)
        digits = chars[rows]
        text = np.zeros((len(rows), _FIELD), np.uint8)
        text[:, 0] = sign[rows]
        if -4 <= k < 0:
            lead = 1 - k  # "0." and -k - 1 zeros
            text[:, 1:1 + lead] = np.frombuffer(b"0." + b"0" * (-k - 1), np.uint8)
            text[:, 1 + lead:18 + lead] = digits
        else:
            scientific = not 0 <= k < 17
            point = 1 if scientific else k + 1  # digits before the point
            text[:, 1:1 + point] = digits[:, :point]
            text[:, 1 + point] = np.where(nsig[rows] > point, ord("."), 0)
            text[:, 2 + point:19] = digits[:, point:]
            if scientific:
                tail = b"e%+03d" % k
                text[:, 19:19 + len(tail)] = np.frombuffer(tail, np.uint8)
        items[exact[rows]] = text.view(f"V{_FIELD}")[:, 0]
    return out


def export_grid(grid: TorusGrid, path) -> None:
    """Write the grid as CSV, s-major rows, 17 significant digits.

    The bytes are those of np.savetxt with fmt "%.17g".  The digits are the
    exact ones described in _format_g17, computed with whole-array numpy
    operations.  Rows go out in blocks of whole s-rows, each a NUL-padded
    byte matrix of the six fields and their separators, written with the
    NULs dropped.  A write that fails part-way removes the file.
    """
    n_s, n_t = len(grid.s), len(grid.t)
    s_text, t_text = _format_g17(grid.s), _format_g17(grid.t)
    values = (grid.g, grid.theta, grid.abs_omega, grid.re_omega)
    step = max(1, _BLOCK_ROWS // n_t)
    block = np.zeros((min(step, n_s), n_t, 6, _FIELD + 1), np.uint8)
    block[..., _FIELD] = ord(",")
    block[:, :, 5, _FIELD] = ord("\n")
    block[:, :, 1, :_FIELD] = t_text
    try:
        fh = open(path, "wb")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    try:
        with fh:
            fh.write(CSV_HEADER.encode() + b"\n")
            for i in range(0, n_s, step):
                rows = block[:min(step, n_s - i)]
                rows[:, :, 0, :_FIELD] = s_text[i:i + step, None]
                cells = np.stack([v[i:i + step] for v in values], axis=-1)
                rows[:, :, 2:, :_FIELD] = _format_g17(cells).reshape(len(rows), n_t, 4, _FIELD)
                fh.write(rows[rows != 0].tobytes())
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(path)
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_grid(path) -> TorusGrid:
    """Re-import an exported grid; values round-trip bit-exactly.

    The rows must form the s-major product grid that export_grid writes;
    anything else raises IoFailure.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if fh.readline().rstrip("\n") != CSV_HEADER:
                raise IoFailure("unexpected CSV header")
            start = fh.tell()
            if not any(line.strip() for line in fh):
                raise IoFailure("no grid rows")
            fh.seek(start)
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise IoFailure(f"malformed grid rows in {path}: {exc}") from exc
    if rows.shape[1] != 6:
        raise IoFailure("grid rows must hold 6 values each")
    n_s, n_t = len(np.unique(rows[:, 0])), len(np.unique(rows[:, 1]))
    if n_s * n_t != len(rows):
        raise IoFailure("grid rows do not form a full product grid")
    s, t = rows[::n_t, 0], rows[:n_t, 1]
    if not (np.array_equal(rows[:, 0], np.repeat(s, n_t))
            and np.array_equal(rows[:, 1], np.tile(t, n_s))):
        raise IoFailure("grid rows are not an s-major product grid")
    cols = [rows[:, k].reshape(n_s, n_t) for k in range(2, 6)]
    return TorusGrid(s=s, t=t, g=cols[0], theta=cols[1], abs_omega=cols[2], re_omega=cols[3])
