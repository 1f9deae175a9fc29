"""Upper-record extraction and record-sequence samplers.

An observation X_j is an upper record when it is at least as large as the
current record holder, so for the record times T(1) = 1 and
T(n+1) = min{j > T(n) : X_j >= X_{T(n)}}; ties refresh the record. Under an
exponential model the gaps between successive record values are again
exponential, which the direct sampler exploits.

numpy loads only when something samples: the two samplers import it on
their first call, so extracting and truncating records never loads it. An
exact one-dimensional numpy array of native-order floats or integers is
scanned through its buffer, as Python floats, and the scan still never
imports numpy: it finds the ndarray type in sys.modules, where the caller
who made the array has already put it.

A float64 or float32 buffer takes a fast scan: a value below the current
record costs one comparison, a new record must lie strictly between -inf
and +inf, and one sum over the buffer must be finite, which it is exactly
when every value is finite and the sum does not overflow. When any of
these fails the checked scan runs instead, from the start, so a series
gives the same summary, or names the same first bad observation, either
way. Lists, tuples, integer buffers (whose ints beyond 2**53 would compare
exactly, not as floats) and every other series take the checked scan.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from collections.abc import Mapping, Set
from typing import TYPE_CHECKING, Sequence

from .errors import (
    CapExhaustedError,
    DomainError,
    InsufficientRecordsError,
    _count,
    _real,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RecordSummary",
    "extract_upper_records",
    "record_range_sequence",
    "truncate",
    "sample_records_direct",
    "sample_records_stream",
]

# numpy draws are chunked so the stream sampler is not a per-value Python loop
_STREAM_CHUNK = 256

# buffer formats that memoryview iterates as Python numbers: numpy's
# native-order integers, float32 and float64. float16 ("e"), long double and
# byte-swapped dtypes such as >f8 are left to numpy, since memoryview cannot
# unpack them on every supported Python
_SCAN_FORMATS = frozenset("bBhHiIlLqQfd")
# the buffer formats of the fast scan, whose items are already Python floats
_FLOAT_FORMATS = frozenset("fd")


@dataclass(frozen=True, slots=True)
class RecordSummary:
    """Upper record values with their 1-based occurrence indices.

    times are genuine observation indices for extracted or streamed data.
    Directly sampled record sequences have no underlying series, so their
    times are the placeholders 1..n and times_synthetic is set.
    """

    values: tuple[float, ...]
    times: tuple[int, ...]
    times_synthetic: bool = False

    def __post_init__(self):
        # each value by the real rule and each time by the count rule, so
        # text, bool and fractional times are refused rather than coerced
        values = tuple(
            _real(f"record value {k}", v, least=-math.inf)
            for k, v in enumerate(self.values, start=1)
        )
        times = tuple(
            _count(f"record time {k}", t, 1) for k, t in enumerate(self.times, start=1)
        )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "times", times)
        if not self.values:
            raise DomainError("a record summary needs at least one record")
        if len(self.values) != len(self.times):
            raise DomainError(
                f"values and times lengths differ: {len(self.values)} != {len(self.times)}"
            )
        if any(b < a for a, b in zip(self.values, self.values[1:])):
            raise DomainError("record values must be nondecreasing")
        if self.times[0] != 1:
            raise DomainError("the first observation is always the first record")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise DomainError("record times must be strictly increasing")

    @property
    def n(self) -> int:
        """Number of records collected."""
        return len(self.values)

    @property
    def range(self) -> float:
        """Spread between the latest and the first record; needs n >= 2."""
        if self.n < 2:
            raise InsufficientRecordsError(
                "the record range needs at least 2 records"
            )
        return self.values[-1] - self.values[0]


def _series(data):
    # The one check of a series; returns what a scan iterates, the buffer of
    # an exact 1-D ndarray of a scanned format (a subclass such as MaskedArray
    # may give items that differ from it), else the data. Text iterates as
    # characters, a mapping as its keys, a set in hash order, and what has no
    # length (a generator, a number, a 0-d array) is no series.
    if isinstance(data, (str, bytes, bytearray)):
        raise DomainError(
            f"observation 1 is not a number: {data[:1]!r}"
            f" (the series is a {type(data).__name__})"
        )
    try:
        size = -1 if isinstance(data, (Mapping, Set)) else len(data)
    except TypeError:
        size = -1
    if size < 0:
        raise DomainError(f"the series is a {type(data).__name__}, not a sequence")
    if size == 0:
        raise DomainError("the series is empty")
    np = sys.modules.get("numpy")
    if np is not None and type(data) is np.ndarray and data.ndim == 1:
        view = memoryview(data)
        if view.format in _SCAN_FORMATS:
            return view
    return data


def _not_a_number(j: int, x, exc: Exception) -> DomainError:
    # the error for observation j, which math.isfinite refused with exc
    if isinstance(exc, OverflowError):  # a number beyond the floats, as 10**400
        return DomainError(f"observation {j} is too large for a float")
    return DomainError(f"observation {j} is not a number: {x!r}")


def _upper_records(series, n: int | None = None) -> RecordSummary:
    # The record rule, T(1) = 1 and T(k+1) = min{j > T(k) : x_j >= x_T(k)}, in
    # one pass over an iterable; it stops after n records when n is given.
    # Each item is checked before float() sees it, since float() also reads
    # numeric text; math.isfinite raises TypeError for anything but a real
    # number (text, None, an array row) and OverflowError for an int beyond
    # the floats.
    values: list[float] = []
    times: list[int] = []
    current = -math.inf
    isfinite = math.isfinite  # a local name: the loop runs once per value
    for j, x in enumerate(series, start=1):
        try:
            if not isfinite(x):
                raise DomainError(f"observation {j} is not finite: {float(x)!r}")
        except (TypeError, OverflowError) as exc:
            raise _not_a_number(j, x, exc) from None
        x = float(x)
        if x >= current:
            values.append(x)
            times.append(j)
            current = x
            if len(values) == n:
                break
    return RecordSummary(values=tuple(values), times=tuple(times))


def _float_records(view: memoryview) -> RecordSummary | None:
    # The record rule over a float buffer, whose items are Python floats; None
    # when a value is not finite or the sum overflows, for the checked scan to
    # rerun. The sum decides, as it is finite only if every value is; the test
    # of a new record stops the loop early at a nan, which never compares
    # below the record, or at +inf. A -inf after the first value is skipped.
    values: list[float] = []
    times: list[int] = []
    current = -math.inf
    for j, x in enumerate(view, start=1):
        if x < current:
            continue
        if not -math.inf < x < math.inf:
            return None
        values.append(x)
        times.append(j)
        current = x
    if not math.isfinite(sum(view)):
        return None
    return RecordSummary(values=tuple(values), times=tuple(times))


def extract_upper_records(data: Sequence[float]) -> RecordSummary:
    """Scan a series and return its upper records and record times."""
    series = _series(data)
    if type(series) is memoryview and series.format in _FLOAT_FORMATS:
        summary = _float_records(series)
        if summary is not None:
            return summary
    return _upper_records(series)


def record_range_sequence(summary: RecordSummary) -> tuple[float, ...]:
    """Ranges x_T(k) - x_T(1) for k = 2..n, one per accumulated record."""
    if summary.n < 2:
        raise InsufficientRecordsError(
            "range sequence needs at least 2 records"
        )
    first = summary.values[0]
    return tuple(v - first for v in summary.values[1:])


def truncate(summary: RecordSummary, n: int) -> RecordSummary:
    """Summary restricted to the first n records."""
    n = _count("n", n, 1)
    if n > summary.n:
        raise InsufficientRecordsError(
            f"cannot keep {n} records out of {summary.n}"
        )
    return RecordSummary(
        values=summary.values[:n],
        times=summary.times[:n],
        times_synthetic=summary.times_synthetic,
    )


def _direct_values(delta: float, n: int, rng: np.random.Generator) -> np.ndarray:
    # the direct sampler's draw, unchecked: n record values as the running
    # sum of n Exp(delta) gaps; sim's blocks draw the same gaps unscaled into
    # the rows of a matrix and scale and sum them a matrix at a time, bit for
    # bit alike
    return rng.exponential(scale=delta, size=n).cumsum()


def _rng(seed) -> np.random.Generator:
    # a seed that is a number is a count; any other seed numpy takes (None, a
    # generator, a bit generator, a SeedSequence, a sequence) passes as it is
    import numpy as np

    if isinstance(seed, numbers.Number):
        seed = _count("seed", seed, 0)
    return np.random.default_rng(seed)


def sample_records_direct(delta: float, n: int, seed=None) -> RecordSummary:
    """Draw n record values directly as a cumulative sum of Exp(delta) gaps.

    Skips simulating the underlying series entirely, so the record times are
    synthetic placeholders.
    """
    _real("scale delta", delta)
    n = _count("n", n, 2)
    rng = _rng(seed)
    return RecordSummary(
        values=tuple(_direct_values(delta, n, rng)),
        times=tuple(range(1, n + 1)),
        times_synthetic=True,
    )


def sample_records_stream(
    delta: float, n: int, seed=None, cap: int = 1_000_000
) -> RecordSummary:
    """Simulate an Exp(delta) series until n upper records appear.

    Values come from inversion, -delta * log(1 - U) with U uniform on [0, 1),
    so a given generator state maps to one fixed series. Waiting times for
    late records have infinite mean, hence the explicit draw cap; hitting it
    raises CapExhaustedError carrying the partial summary.
    """
    import numpy as np

    _real("scale delta", delta)
    n = _count("n", n, 2)
    cap = _count("the draw cap", cap, 1)
    rng = _rng(seed)
    # values are drawn a chunk at a time only as the scan reaches them, so a
    # scan that stops at n records leaves the rest of the stream undrawn
    draws = (
        x
        for lo in range(0, cap, _STREAM_CHUNK)
        for x in -delta * np.log1p(-rng.random(min(_STREAM_CHUNK, cap - lo)))
    )
    summary = _upper_records(draws, n)
    if summary.n == n:
        return summary
    raise CapExhaustedError(
        f"found {summary.n} of {n} records in {cap} draws", partial=summary, draws=cap
    )
