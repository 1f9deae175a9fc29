"""Exception types shared across the package.

Every error raised on purpose derives from :class:`RecRangeError`, so callers
can catch one base class. Subclasses also inherit the matching builtin
(ValueError or RuntimeError) to stay friendly to generic handling.
"""

from __future__ import annotations

import math
import numbers
import operator

__all__ = [
    "RecRangeError",
    "DomainError",
    "ParseError",
    "InsufficientRecordsError",
    "DegeneratePosteriorError",
    "UnsupportedEstimatorError",
    "ConvergenceError",
    "CapExhaustedError",
]


class RecRangeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RecRangeError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class ParseError(RecRangeError, ValueError):
    """Input text could not be parsed as numeric data."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class InsufficientRecordsError(RecRangeError, ValueError):
    """Fewer records are available than the operation requires."""


class DegeneratePosteriorError(RecRangeError, ValueError):
    """The requested posterior summary does not exist for these parameters."""


class UnsupportedEstimatorError(RecRangeError, ValueError):
    """No closed-form sampling moments exist for this estimator."""


class ConvergenceError(RecRangeError, RuntimeError):
    """An iterative routine exhausted its iteration budget."""


class CapExhaustedError(RecRangeError, RuntimeError):
    """Stream sampling hit its draw cap before collecting enough records."""

    def __init__(self, message: str, partial=None, draws: int = 0):
        super().__init__(message)
        self.partial = partial  # RecordSummary of what was found, or None
        self.draws = draws


def _count(name: str, value, least: int) -> int:
    """value as an int of at least least, or DomainError.

    The one check of every record count, repetition count, seed, stream
    index and worker count: it takes what operator.index takes (int and the
    numpy integers), but not bool, and no float, however integral.
    """
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if value < least:
        bound = {0: "nonnegative", 1: "positive"}.get(least, f">= {least}")
        raise DomainError(f"{name} must be {bound}, got {value!r}")
    return value


def _real(name: str, value, *, above=0.0, least=None, below=None, inf=False):
    """value as a float within its bounds, or DomainError.

    The one check of every real argument: an int, a float or a numpy real
    scalar, not bool, text, None, complex, nan, -inf or (unless inf) +inf,
    above above (positive by default) or at least least, and below below.
    """
    x = value
    if type(x) is not float:
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise DomainError(f"{name} must be a real number, got {value!r}")
        try:
            x = float(x)
        except OverflowError:  # an int beyond the floats
            x = math.inf if value > 0 else -math.inf
    if (x > above if least is None else x >= least) and (below is None or x < below):
        if -math.inf < x < math.inf or (inf and x == math.inf):
            return x
        raise DomainError(f"{name} must be finite, got {value!r}")
    low = above if least is None else least
    if below is not None:
        bound = f"in {'(' if least is None else '['}{low:g}, {below:g})"
    elif low == 0.0:
        bound = "positive" if least is None else "nonnegative"
    elif low == -math.inf:
        bound = "finite"
    else:
        bound = f"{'>' if least is None else '>='} {low!r}"
    raise DomainError(f"{name} must be {bound}, got {value!r}")
