"""Upper-record extraction and record-sequence samplers.

An observation X_j is an upper record when it is at least as large as the
current record holder, so for the record times T(1) = 1 and
T(n+1) = min{j > T(n) : X_j >= X_{T(n)}}; ties refresh the record. Under an
exponential model the gaps between successive record values are again
exponential, which the direct sampler exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapExhaustedError, DomainError, InsufficientRecordsError

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


@dataclass(frozen=True)
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
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "times", tuple(int(t) for t in self.times))
        if not self.values:
            raise DomainError("a record summary needs at least one record")
        if len(self.values) != len(self.times):
            raise DomainError(
                f"values and times lengths differ: {len(self.values)} != {len(self.times)}"
            )
        if any(not math.isfinite(v) for v in self.values):
            raise DomainError("record values must be finite")
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


def _upper_records(series, n: int | None = None) -> RecordSummary:
    # The record rule, T(1) = 1 and T(k+1) = min{j > T(k) : x_j >= x_T(k)}, in
    # one pass over an iterable; it stops after n records when n is given.
    values: list[float] = []
    times: list[int] = []
    current = -math.inf
    for j, x in enumerate(series, start=1):
        x = float(x)
        if not math.isfinite(x):
            raise DomainError(f"observation {j} is not finite: {x!r}")
        if x >= current:
            values.append(x)
            times.append(j)
            current = x
            if len(values) == n:
                break
    return RecordSummary(values=tuple(values), times=tuple(times))


def extract_upper_records(data: Sequence[float]) -> RecordSummary:
    """Scan a series once and return its upper records and record times."""
    if len(data) == 0:
        raise DomainError("cannot extract records from an empty series")
    return _upper_records(data)


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
    if not 1 <= n <= summary.n:
        raise InsufficientRecordsError(
            f"cannot keep {n} records out of {summary.n}"
        )
    return RecordSummary(
        values=summary.values[:n],
        times=summary.times[:n],
        times_synthetic=summary.times_synthetic,
    )


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _direct_values(delta: float, n: int, rng: np.random.Generator) -> np.ndarray:
    # the direct sampler's draw, unchecked: n record values as the running
    # sum of n Exp(delta) gaps; sim's blocks take it once per repetition
    return rng.exponential(scale=delta, size=n).cumsum()


def _check_sampler(delta: float, n: int) -> None:
    if not (math.isfinite(delta) and delta > 0.0):
        raise DomainError(f"scale delta must be positive, got {delta!r}")
    if n < 2:
        raise DomainError(f"record sampling needs n >= 2, got {n!r}")


def sample_records_direct(delta: float, n: int, seed=None) -> RecordSummary:
    """Draw n record values directly as a cumulative sum of Exp(delta) gaps.

    Skips simulating the underlying series entirely, so the record times are
    synthetic placeholders.
    """
    _check_sampler(delta, n)
    rng = _as_generator(seed)
    values = tuple(float(v) for v in _direct_values(delta, n, rng))
    return RecordSummary(
        values=values, times=tuple(range(1, n + 1)), times_synthetic=True
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
    _check_sampler(delta, n)
    if cap < 1:
        raise DomainError(f"the draw cap must be positive, got {cap!r}")
    rng = _as_generator(seed)
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
