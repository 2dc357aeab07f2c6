"""Exception types raised by the linkarea library."""


class LinkAreaError(Exception):
    """Base class for all linkarea errors."""


class NotOnSphere(LinkAreaError):
    """A point expected on the unit 3-sphere is too far from it."""


class CoincidentPoints(LinkAreaError):
    """Two points that must be distinct are closer than the separation floor."""


class ImmersionFailure(LinkAreaError):
    """A curve velocity dropped below the minimum admissible speed."""


class BadParameter(LinkAreaError):
    """A catalogue or construction parameter is outside its documented range."""


class BadPolygon(LinkAreaError):
    """A polygonal node list cannot be turned into a closed curve."""


class BadLinkFile(LinkAreaError):
    """A link file does not conform to the lk-1 schema."""


class PoleOnCurve(LinkAreaError):
    """No chart pole with sufficient clearance from both curves exists."""


class DegenerateBasis(LinkAreaError):
    """Constructed tangent vectors do not have full rank."""


class SignInconsistency(LinkAreaError):
    """No single global sign reconciles the two sides of the 1-form check."""


class NoConvergence(LinkAreaError):
    """Grid refinement hit the resolution cap before meeting the tolerance."""


class DisjointnessViolation(LinkAreaError):
    """The two components of a candidate link come closer than the floor."""


class IoFailure(LinkAreaError):
    """Reading or writing a data file failed."""
