"""Exception types raised across the toolkit.

Every error is a subclass of :class:`SwkitError`, so callers can catch the
whole family with one clause. Bad numeric input (NaN, infinities) is rejected
eagerly at construction time instead of being propagated through the math:
a silently poisoned estimate would end up in benchmark CSVs.
"""


class SwkitError(Exception):
    """Base class for all toolkit errors."""


class InvalidSample(SwkitError):
    """Input data contains NaN or infinite entries."""


class LengthMismatch(SwkitError):
    """Two sample sets that must have equal size do not."""


class InvalidOrder(SwkitError):
    """Transport order p is below 1."""


class DimMismatch(SwkitError):
    """Two objects that must live in the same dimension do not."""


class InvalidLag(SwkitError):
    """Requested autocovariance lag is out of range for the dimension."""


class InsufficientSamples(SwkitError):
    """Operation needs more samples than the dataset provides."""


class NonPositiveError(SwkitError):
    """A value that must be strictly positive (for a log scale) is not."""


class EmptyInput(SwkitError):
    """A nonempty collection was required."""


class DatasetParseError(SwkitError):
    """A CSV dataset file could not be parsed."""

    def __init__(self, path, line, reason):
        self.path = str(path)
        self.line = int(line)
        self.reason = str(reason)
        super().__init__(f"{self.path}:{self.line}: {self.reason}")
