"""Quadrature of the torus densities: signed area, area, cross energy.

The periodic trapezoid rule on uniform power-of-two grids is spectrally
accurate for the smooth integrands here; grids are refined by doubling
until successive values agree to the requested tolerance, and the last
difference is reported as the error estimate.

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
