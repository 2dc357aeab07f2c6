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
A grid of more than two blocks, written by a single-threaded Linux
process, is written on two cores: a forked helper reads and formats the
odd blocks while this process does the even ones, and each writes its
blocks on its turns at the file position that the two share, in a file
or a FIFO alike.  The file is the same on either path, errors come in
block order, and no option selects the path.  The helper's own
peak RSS (VmHWM, pages shared with this process included) is 27-28 MB
at 128^2 to 1024^2, against this process's 33 MB, the same as when it
writes every block (p02 through the anglemap command, x86-64 Linux,
Python 3.11, numpy 2.4).
The import accepts only the s-major product grid that the export writes.
"""

import contextlib
import errno
import os
import pickle

import numpy as np

from .errors import IoFailure, open_output
from .functionals import TorusGrid

CSV_HEADER = "s,t,g,theta,abs_omega,re_omega"

#: width of the widest "%.17g" field, "-1.2345678901234567e-308"
_FIELD = 24
#: 10**p for p = 0..22, all exact doubles (5**22 < 2**53)
_POW10 = np.array([float(10 ** p) for p in range(23)])
#: Veltkamp's factor 2**27 + 1, and the split of _POW10 into 26-bit high parts and the rest
_SPLIT = 134217729.0
_POW10_HI = _SPLIT * _POW10
_POW10_HI -= _POW10_HI - _POW10
_POW10_LO = _POW10 - _POW10_HI
#: the sort key of the values that Python formats, above every decimal exponent
_FALLBACK = 18
#: the text "%04d" of 0..9999, four ASCII bytes packed in a uint32
_QUAD_TEXT = np.stack(np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4,
                                  indexing="ij"), axis=-1).reshape(10000, 4).view(np.uint32)[:, 0]


def _scaled(a, p):
    """a * 10**p as h + l with h = fl(a * 10**p), exactly: Dekker's two-product,
    with Veltkamp's split of each factor into a 26-bit high part and the rest
    (of 10**p, from _POW10_HI and _POW10_LO).  The arithmetic is in place, so
    that it holds six arrays the size of a at once.
    """
    h = _POW10[p]
    h *= a
    ah = a * _SPLIT
    al = ah - a
    ah -= al
    np.subtract(a, ah, out=al)
    bh, bl = _POW10_HI[p], _POW10_LO[p]
    l = ah * bh
    l -= h
    ah *= bl
    l += ah
    bh *= al
    l += bh
    al *= bl
    l += al
    return h, l


def _mantissa(d, e):
    """ASCII digits of the 17-digit integers d, trailing zeros dropped.

    Returns an (n, 17) uint8 array whose bytes after the last significant
    digit are NUL, except those of an integer part of e + 1 digits, and the
    count of significant digits.  Only the rows whose last digit is 0 are
    searched for trailing zeros, one digit further each pass.
    """
    quads = np.empty((len(d), 5), np.uint32)
    chars = quads.view(np.uint8)[:, 3:]
    for k in range(4, 0, -1):
        q = d // 10000
        quads[:, k] = _QUAD_TEXT[d - 10000 * q]
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
    p = np.log10(a)
    np.floor(p, out=p)
    np.clip(p, -6, 16, out=p)
    np.subtract(16, p, out=p)
    p = p.astype(np.intp)  # 16 - E
    h, l = _scaled(a, p)
    # log10 may miss the decade by one; settle it on the unrounded h + l
    up = (h > 1e17) | ((h == 1e17) & (l >= 0))
    fix = np.flatnonzero(up | (h < 1e16) | ((h == 1e16) & (l < 0)))
    p[fix] += np.where(up[fix], -1, 1)
    h[fix], l[fix] = _scaled(a[fix], p[fix])
    # h >= 1e16 > 2**53 is an even integer, so h + rint(l) is h + l rounded half to even
    d = h.astype(np.int64) + np.rint(l).astype(np.int64)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    p[carry] -= 1
    np.subtract(16, p, out=p)
    key = p.astype(np.int8)
    if outside:
        key[~window] = _FALLBACK
    return key, d


def _sorted_g17(x):
    """'%.17g' % v for each v of x, in an order of its own: (text, order).

    text is a NUL-padded (n, _FIELD) uint8 array whose row k is the text of
    x[order[k]].  The digits of 1e-6 < |v| < 1e17 are exact (_decimal);
    every other value (zeros, subnormals, tiny and huge magnitudes, nan,
    +-inf) is formatted by Python, once per distinct bit pattern.  The
    values are sorted once by decimal exponent, a stable radix sort of int8
    keys with the Python-formatted ones last, so that the layout of each
    exponent fills one contiguous slice of rows.
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
    for k, hi in zip(range(-6, _FALLBACK), ends.tolist()):
        if hi == lo:
            continue
        rows, digits, sig = text[lo:hi], chars[lo:hi], nsig[lo:hi]
        lo = hi
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
    return text, order


def _format_g17(x) -> np.ndarray:
    """'%.17g' % v for each v of x, as the rows of a NUL-padded (n, _FIELD) uint8 array."""
    text, order = _sorted_g17(x)
    out = np.empty_like(text)
    out.view(f"V{_FIELD}")[order] = text.view(f"V{_FIELD}")
    return out


def _single_threaded() -> bool:
    """Whether this is a Linux process of one thread, which may fork safely."""
    try:
        with open("/proc/self/status", "rb") as fh:
            return b"\nThreads:\t1\n" in fh.read()
    except OSError:
        return False


def _receive(pipe) -> None:
    """Wait for the other writer's end of turn, or raise its pickled error."""
    head = pipe.read(1)
    if head == b"\1":
        raise pickle.load(pipe)
    if head != b"\0":
        raise OSError(errno.EPIPE, "the other writer of the grid ended early")


def _take_turns(fd, text, mine, count, pipe_in, pipe_out) -> None:
    """os.write each block k of mine to fd once block k - 1 is written.

    The other writer shares fd's file position, so each block goes where
    block k - 1 ended: block 0 at once, a later block once _receive reads
    the end of turn k - 1 from pipe_in.  Each block then sends a zero byte
    through pipe_out, except an even last block, which no one waits for:
    the helper's blocks are odd, and the end of its last block tells the
    parent that it is done.  A block that fails to format first waits for
    block k - 1, so that the error raised is the first in block order.
    """
    for k in mine:
        try:
            data = text(k)
        finally:
            if k:
                _receive(pipe_in)
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        del data, view  # before the next block is formatted
        if k % 2 or k + 1 < count:
            os.write(pipe_out, b"\0")


def _write_forked(fd, text, count) -> None:
    """Write blocks 0, 2, 4, ... here and 1, 3, 5, ... in a forked helper.

    Each process formats its next block while the other writes.  The helper
    sends a byte 1 and its pickled error in place of an end of turn, and
    this process raises it at that block.  The helper leaves only through
    os._exit.  Once this process closes its ends of the pipes, the helper's
    next read or send fails and ends it; this process reaps it on every path.
    """
    down_r, down_w = os.pipe()  # to the helper
    up_r, up_w = os.pipe()      # from the helper
    pid = os.fork()
    if pid == 0:
        try:
            os.close(down_w)
            os.close(up_r)
            _take_turns(fd, text, range(1, count, 2), count, open(down_r, "rb"), up_w)
        except BaseException as exc:
            with contextlib.suppress(BaseException):
                os.write(up_w, b"\1" + pickle.dumps(exc))
        finally:
            os._exit(0)
    os.close(down_r)
    os.close(up_w)
    up = open(up_r, "rb")
    try:
        _take_turns(fd, text, range(0, count, 2), count, up, down_w)
        if count % 2 == 0:
            _receive(up)  # the helper wrote the last block
    finally:
        os.close(down_w)
        up.close()
        os.waitpid(pid, 0)


def write_grid(s, t, blocks, path) -> None:
    """Write the grid on the nodes s x t as CSV, s-major rows, 17 significant digits.

    blocks is a sequence of the fields (g, theta, abs_omega, re_omega) on
    consecutive blocks of whole s-rows, all but the last of one height, as
    grid_blocks returns them; a TorusGrid g is the one block [(g.g,
    g.theta, g.abs_omega, g.re_omega)].  Each block is formatted and
    written as it is read, as a NUL-padded byte matrix of the six fields
    and their separators with the NULs dropped, so a writer holds one
    block and its scratch.  The text of a block's values goes from its
    sorted order (_sorted_g17) into the byte matrix in one scatter.  The
    byte matrix is sized by the first block and allocated once per file,
    unless a later block is larger.  The bytes are those of np.savetxt with
    fmt "%.17g".

    With more than two blocks and a single-threaded Linux process
    (Threads: 1 in /proc/self/status), the blocks are split between this
    process and one forked helper (_write_forked), which read and write
    the even and the odd blocks in turns, through the file position that
    they share; otherwise this process writes every block in turn.  A
    regular file, a FIFO or a pipe takes either path, and there is no
    option: the file is the same either way.

    Any exception raised while the file is open removes a regular file (see
    errors.open_output): an OSError is raised as IoFailure, and anything
    else (a kernel error in a later block, KeyboardInterrupt) unchanged.
    On both paths the error raised is that of the first failed block.
    """
    n_s, n_t = len(s), len(t)
    s_text, t_text = _format_g17(s), _format_g17(t)
    count = len(blocks)
    block = field_text = np.zeros((0, n_t, 6, _FIELD + 1), np.uint8)

    def text(k):
        """The CSV bytes of block k."""
        nonlocal block, field_text
        fields = blocks[k]
        n = len(fields[0])
        if n > len(block):
            block = np.zeros((n, n_t, 6, _FIELD + 1), np.uint8)
            block[..., _FIELD] = ord(",")
            block[:, :, 5, _FIELD] = ord("\n")
            block[:, :, 1, :_FIELD] = t_text
            # the text of each CSV field, without its separator, as one item
            field_text = block.reshape(-1, _FIELD + 1)[:, :_FIELD].view(f"V{_FIELD}")[:, 0]
        rows = block[:n]
        first = n_s - n if k == count - 1 else k * n  # every block but the last is n rows
        rows[:, :, 0, :_FIELD] = s_text[first:first + n, None]
        values, order = _sorted_g17(np.stack(fields, axis=-1))
        # value j of the block is field j % 4 of node j // 4: CSV field 6 (j // 4) + 2 + j % 4
        field_text[order + 2 * (order >> 2) + 2] = values.view(f"V{_FIELD}")[:, 0]
        del values, order  # before the bytes are copied
        return rows.tobytes().translate(None, b"\0")

    with open_output(path) as fh:
        fh.write(CSV_HEADER.encode() + b"\n")
        if count > 2 and _single_threaded():
            fh.flush()
            _write_forked(fh.fileno(), text, count)
        else:
            for k in range(count):
                fh.write(text(k))


def read_grid(path) -> TorusGrid:
    """Re-import an exported grid; values round-trip bit-exactly.

    The rows must form the s-major product grid that write_grid writes;
    anything else raises IoFailure.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if fh.readline().rstrip("\n") != CSV_HEADER:
                raise IoFailure("unexpected CSV header")
            if not any(line.strip() for line in fh):
                raise IoFailure("no grid rows")
            fh.seek(0)
            rows = np.loadtxt(fh, delimiter=",", ndmin=2, skiprows=1)
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
