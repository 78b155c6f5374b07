"""Exception types shared across the package."""


class LandmarkFramesError(Exception):
    """Base class for all package-specific errors."""


class ParseError(LandmarkFramesError):
    """A text field could not be interpreted (bad integer, wrong arity, ...)."""


class MalformedAlignment(LandmarkFramesError):
    """Alignment segments overlap, leave gaps, or are empty."""


class FormatError(LandmarkFramesError):
    """A serialized artifact violates its file format."""


class UnknownPhone(LandmarkFramesError):
    """A phone label is missing from the manner table."""


class UnknownSenone(LandmarkFramesError):
    """A senone index has no phone mapping."""


class EmptyInput(LandmarkFramesError):
    """An operation received an empty alignment or sequence it cannot handle."""


class InvalidPattern(LandmarkFramesError):
    """A frame-drop pattern request is inconsistent or infeasible."""


class ShapeError(LandmarkFramesError):
    """Two frame-indexed objects disagree on length or senone count."""


class BeamCollapse(LandmarkFramesError):
    """Beam pruning (or NEG_INF emissions) removed every active state."""


class ScoreOverflow(LandmarkFramesError):
    """Partial path scores overflowed to +inf or nan during decoding."""


class DegenerateBaseline(LandmarkFramesError):
    """Relative PER increment is undefined for a zero baseline."""


class DegenerateTest(LandmarkFramesError):
    """A significance test has no variation to work with."""


class InvalidConfig(LandmarkFramesError):
    """An experiment or fold configuration is unusable."""
