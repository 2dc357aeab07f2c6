"""Grid CSV export and import.

The export writes the bytes of np.savetxt with fmt "%.17g", but computes
the digits with whole-array numpy operations, one block of whole s-rows
at a time.  write_grid takes the blocks as the grid evaluation yields
them (functionals.grid_blocks, which anglemap streams), so the writer's
memory does not grow with the grid, or a whole TorusGrid as one block.
For 1e-6 < |x| < 1e17, an error-free product with an exact power of ten
(T. J. Dekker, Numer. Math. 18, 1971) gives the correctly rounded
17-digit mantissa.  Zeros, subnormals, nan, +-inf and magnitudes outside
that window fall back to Python's formatting, once per distinct value.
The values are sorted by decimal exponent, so that each exponent's text
fills one slice of rows, and each block's NUL-padded byte matrix loses its
NULs in one bytes.translate.
The import accepts only the s-major product grid that the export writes.
"""

import functools

import numpy as np

from .errors import IoFailure, open_output
from .functionals import TorusGrid

CSV_HEADER = "s,t,g,theta,abs_omega,re_omega"

#: width of the widest "%.17g" field, "-1.2345678901234567e-308"
_FIELD = 24
#: 10**p for p = 0..22, all exact doubles (5**22 < 2**53)
_POW10 = np.array([float(10 ** p) for p in range(23)])
#: the sort key of the values that Python formats, above every decimal exponent
_FALLBACK = 18


@functools.cache
def _quad_text():
    """The text "%04d" of 0..9999, four ASCII bytes packed in a uint32, built
    on first use, so that commands that write no CSV do not pay for it.
    """
    digits = np.stack(np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4,
                                  indexing="ij"), axis=-1).reshape(10000, 4)
    return digits.view(np.uint32)[:, 0]


def _scaled(a, p):
    """a * 10**p as h + l with h = fl(a * 10**p), exactly: Dekker's two-product,
    with Veltkamp's split of each factor into a 26-bit high part and the rest.
    """
    b = _POW10[p]
    h = a * b
    ah, bh = 134217729.0 * a, 134217729.0 * b  # 2**27 + 1
    ah -= ah - a
    bh -= bh - b
    al = a - ah
    b -= bh
    return h, ((ah * bh - h) + ah * b + al * bh) + al * b


def _mantissa(d, e):
    """ASCII digits of the 17-digit integers d, trailing zeros dropped.

    Returns an (n, 17) uint8 array whose bytes after the last significant
    digit are NUL, except those of an integer part of e + 1 digits, and the
    count of significant digits.  Only the rows whose last digit is 0 are
    searched for trailing zeros, one digit further each pass.
    """
    quad_text = _quad_text()
    quads = np.empty((len(d), 5), np.uint32)
    chars = quads.view(np.uint8)[:, 3:]
    for k in range(4, 0, -1):
        q = d // 10000
        quads[:, k] = quad_text[d - 10000 * q]
        d = q
    chars[:, 0] = d + ord("0")
    nsig = np.full(len(d), 17)
    rows = np.flatnonzero(chars[:, 16] == ord("0"))
    while len(rows):  # the first digit of d >= 1e16 is not 0
        nsig[rows] -= 1
        at = nsig[rows]
        chars[rows, at] = np.where(at > e[rows], 0, ord("0"))
        rows = rows[chars[rows, at - 1] == ord("0")]
    return chars, nsig


def _decimal(x):
    """The decimal exponent E of each value of x as an int8 sort key, and its
    17-digit mantissa d; the key is _FALLBACK for values outside the window.

    For 1e-6 < |v| < 1e17 the digits are exact: with p = 16 - E in [0, 22],
    10**p is an exact double, so |v| * 10**p = h + l exactly, and d is h + l
    rounded half to even, the correctly rounded digits that "%.17g" prints.
    E is fixed on the unrounded h + l; a mantissa that then rounds up to
    1e17 carries into E + 1.
    """
    a = np.abs(x)
    window = (a > 1e-6) & (a < 1e17)
    outside = not window.all()
    if outside:
        a[~window] = 1.0  # a stand-in with no special case; Python formats these
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
    d += (frac > 0.5) | ((frac == 0.5) & (d & 1 == 1))
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e[carry] += 1
    key = e.astype(np.int8)
    if outside:
        key[~window] = _FALLBACK
    return key, d


def _format_g17(x) -> np.ndarray:
    """'%.17g' % v for each v of x, as the rows of a NUL-padded (n, _FIELD) uint8 array.

    The digits of 1e-6 < |v| < 1e17 are exact (_decimal); every other value
    (zeros, subnormals, tiny and huge magnitudes, nan, +-inf) is formatted by
    Python, once per distinct bit pattern.  The values are sorted once by
    decimal exponent, a stable radix sort of int8 keys with the
    Python-formatted ones last, so that the layout of each exponent fills
    one contiguous slice of rows; the rows are scattered back once.
    """
    x = np.ravel(np.asarray(x, dtype=np.float64))
    key, d = _decimal(x)
    order = np.argsort(key, kind="stable")
    key = key[order]
    ends = np.searchsorted(key, np.arange(-6, _FALLBACK + 1, dtype=np.int8), "right")
    chars, nsig = _mantissa(d[order[:ends[-2]]], key)
    text = np.zeros((len(x), _FIELD), np.uint8)
    text[:, 0] = ((x < 0) * np.uint8(ord("-")))[order]
    lo = 0
    for k, hi in zip(range(-6, _FALLBACK), ends):
        rows, digits, sig = text[lo:hi], chars[lo:hi], nsig[lo:hi]
        lo = hi
        if not len(rows):
            continue
        if -4 <= k < 0:
            for i, c in enumerate(b"0." + b"0" * (-k - 1), 1):  # columns copy faster than rows
                rows[:, i] = c
            rows[:, 2 - k:19 - k] = digits
        else:
            scientific = not 0 <= k < 17
            point = 1 if scientific else k + 1  # digits before the point
            rows[:, 1:1 + point] = digits[:, :point]
            rows[:, 1 + point] = np.where(sig > point, ord("."), 0)
            rows[:, 2 + point:19] = digits[:, point:]
            if scientific:
                tail = b"e%+03d" % k
                rows[:, 19:19 + len(tail)] = np.frombuffer(tail, np.uint8)
    if lo < len(x):
        bits, inverse = np.unique(x[order[lo:]].view(np.uint64), return_inverse=True)
        rest = np.array([b"%.17g" % v for v in bits.view(np.float64)], dtype=f"S{_FIELD}")
        text[lo:] = rest.view(np.uint8).reshape(-1, _FIELD)[inverse]
    out = np.empty_like(text)
    out.view(f"V{_FIELD}")[order] = text.view(f"V{_FIELD}")
    return out


def write_grid(s, t, blocks, path) -> None:
    """Write the grid on the nodes s x t as CSV, s-major rows, 17 significant digits.

    blocks yields the fields (g, theta, abs_omega, re_omega) on consecutive
    blocks of whole s-rows, as grid_blocks hands them; a TorusGrid g is
    the one block [(g.g, g.theta, g.abs_omega, g.re_omega)].  Each block is
    formatted and written as it arrives, as a NUL-padded byte matrix of the
    six fields and their separators with the NULs dropped, so the writer
    holds one block and its scratch.  The byte matrix is sized by the first
    block and allocated once per file, unless a later block is larger.  The
    bytes are those of np.savetxt with fmt "%.17g".

    Any exception raised while the file is open removes it (see
    errors.open_output): an OSError is raised as IoFailure, and anything
    else (a kernel error in a later block, KeyboardInterrupt) unchanged.
    """
    n_t = len(t)
    s_text, t_text = _format_g17(s), _format_g17(t)
    block = np.zeros((0, n_t, 6, _FIELD + 1), np.uint8)
    with open_output(path) as fh:
        fh.write(CSV_HEADER.encode() + b"\n")
        i = 0
        for fields in blocks:
            if len(fields[0]) > len(block):
                block = np.zeros((len(fields[0]), n_t, 6, _FIELD + 1), np.uint8)
                block[..., _FIELD] = ord(",")
                block[:, :, 5, _FIELD] = ord("\n")
                block[:, :, 1, :_FIELD] = t_text
            rows = block[:len(fields[0])]
            rows[:, :, 0, :_FIELD] = s_text[i:i + len(rows), None]
            cells = np.stack(fields, axis=-1)
            rows[:, :, 2:, :_FIELD] = _format_g17(cells).reshape(len(rows), n_t, 4, _FIELD)
            fh.write(rows.tobytes().translate(None, b"\0"))
            i += len(rows)


def read_grid(path) -> TorusGrid:
    """Re-import an exported grid; values round-trip bit-exactly.

    The rows must form the s-major product grid that write_grid writes;
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
