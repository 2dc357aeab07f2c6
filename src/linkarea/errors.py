"""Exception types raised by the linkarea library, and open_output, which
turns a failed write into IoFailure and leaves no partial file."""

import contextlib
import os
import stat


class LinkAreaError(Exception):
    """Base class for all linkarea errors."""


class CoincidentPoints(LinkAreaError):
    """Two points that must be distinct are closer than the separation floor."""


class ImmersionFailure(LinkAreaError):
    """A curve velocity dropped below the minimum admissible speed."""


class BadParameter(LinkAreaError):
    """A catalogue or construction parameter is outside its documented range."""


class BadLinkFile(LinkAreaError):
    """A link file does not conform to the lk-1 schema."""


class PoleOnCurve(LinkAreaError):
    """No chart pole with sufficient clearance from both curves exists."""


class CosineOutOfRange(LinkAreaError):
    """A cosine leaves [-1, 1] beyond roundoff: a defect of a route, not of the input."""


class NoConvergence(LinkAreaError):
    """Grid refinement hit the resolution cap before meeting the tolerance."""


class IoFailure(LinkAreaError):
    """Reading or writing a data file failed."""


@contextlib.contextmanager
def open_output(path):
    """Open path for binary writing, as a context whose failure leaves no file.

    An exception raised inside the block removes the file if it was a regular
    file when opened; a FIFO or a device is never removed.  It propagates,
    as does a failed open: an OSError as IoFailure, anything else (a kernel
    error, KeyboardInterrupt) unchanged.  Nested, an inner failure removes
    the outer file as well.
    """
    try:
        fh = open(path, "wb")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    regular = stat.S_ISREG(os.stat(path).st_mode)  # the file just opened; a FIFO stays
    try:
        with fh:
            yield fh
    except BaseException as exc:
        if regular:
            with contextlib.suppress(OSError):
                os.remove(path)
        if isinstance(exc, OSError):
            raise IoFailure(f"cannot write {path}: {exc}") from exc
        raise
