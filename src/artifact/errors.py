"""Exception taxonomy.

Each class carries the CLI exit code of its errors in `exit_code`, so shell
pipelines can tell configuration mistakes from numerical failures without
parsing stderr.  A subclass inherits its parent's code unless it sets its
own: every ParameterError exits 2 except InsufficientDataError, which exits
3; the CLI maps I/O failures (OSError) to 5 and an allocation too large
for the machine (MemoryError) to 1.
"""


class PredictionError(Exception):
    """Base class for every error raised by this package."""
    exit_code = 1


class ParameterError(PredictionError):
    """A parameter violates its documented domain."""
    exit_code = 2


class GridSizeError(ParameterError):
    """A frequency grid is missing bins, too small, or not a power of two."""


class DegenerateBandError(ParameterError):
    """The requested band contains no usable grid bins."""


class WindowMismatchError(ParameterError):
    """Two signals that must share a time window do not."""


class InsufficientDataError(ParameterError):
    """The signal window is too short for the requested evaluation."""
    exit_code = 3


class CausalityLeakError(PredictionError):
    """The numerically inverted kernel leaks too much mass onto t < 0."""
    exit_code = 4


class SaturationError(PredictionError):
    """The damping exponent would overflow double precision."""
    exit_code = 6


class InternalConsistencyError(PredictionError):
    """A quantity violated an identity the construction guarantees."""
