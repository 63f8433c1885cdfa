"""Exception types shared across the package.

Everything raised on purpose derives from GfkError so the CLI can catch one
base class and turn it into a nonzero exit with a parseable message.
"""


class GfkError(Exception):
    """Base class for all package-specific errors."""


class NonPositiveDepth(GfkError):
    """A camera-frame z that must be positive is zero or negative."""


class NegativeRange(GfkError):
    """A range in meters that must be nonnegative is negative."""


class InvalidAlbedo(GfkError):
    """Albedo outside [0, 1]."""


class InsufficientSignal(GfkError):
    """Measured slice sum too small to form ratios."""


class AmbiguousRange(GfkError):
    """Ratio lookup found two near-equal minima far apart in range."""


class BehindCamera(GfkError):
    """Box entirely behind the image plane."""


class FullyOutOfImage(GfkError):
    """Projected box does not intersect the image rectangle."""


class DegenerateBox(GfkError):
    """2D box too small to carry geometric information."""


class InvalidStats(GfkError):
    """Class height statistics admit a nonpositive height at the chosen k."""


class NonPositiveDimension(GfkError):
    """Decoded box dimension would be zero or negative."""


class ShapeMismatch(GfkError):
    """Array shape does not match the network layer sizes."""


class EmptyDataset(GfkError):
    """Training requested on an empty sample list."""


class TrainingDiverged(GfkError):
    """A training loss became NaN or infinite; the message names epoch and step."""


class ParseError(GfkError):
    """Malformed input file; message carries file and line where known."""


class ModelParseError(GfkError):
    """Model file malformed or inconsistent with the declared layer sizes."""


class ConfigError(GfkError):
    """Bad run configuration; message carries the offending field path."""
