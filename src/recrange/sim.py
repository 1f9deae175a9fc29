"""Seeded Monte Carlo experiments over the record-range model.

Every stream is a Philox counter stream (derive_rep_seed): one key per
(master seed, record count), and one index as the top word of the counter.
Runs split the repetitions into fixed blocks of _BLOCK_REPS, whatever the
worker count, and hand each block to one task, so results are bit-identical
no matter how the blocks are scheduled. A block returns one row of values per
cell (an estimator, or an interval's coverage or length), and a record
count's blocks are joined in index order, so each cell's repetitions are one
contiguous row. Every reported mean is one pairwise sum of such a row, in
the order numpy sums the same values as a strided column.

In a point study every repetition owns the stream at its own index. A block
keeps one generator and moves its counter to each repetition in turn; a
repetition costs one state load and one row of draws into a bounded matrix.
The block scales and sums that matrix's rows at once and keeps the last
record and the range. In an interval study a block owns the stream at its
block index and draws in two numpy calls what its repetitions need: the
scales from the prior, then the ranges, r | delta ~ Gamma(n - 1, delta).
Every equal-tails interval and every record rule, one (statistic, divisor)
entry of the estimators' table, depends on nothing else, so each is then
evaluated once per block on those arrays. The HPD kinds are still solved one
repetition at a time.

numpy loads only when something samples: derive_rep_seed, the block code
and run_*_sim import it where they use it, so importing this module never
loads it.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, _count, _real
from .estimators import (
    EstimatorId,
    _estimate,
    analytic_moments,
    mle_records,
    mle_urr,
)
from .intervals import (
    IntervalKind,
    _check_alpha,
    _equal_tails_endpoints,
    _intervals,
)
from .model import PosteriorParams, PriorParams

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SimConfig",
    "SimResult",
    "PointRow",
    "IntervalRow",
    "derive_rep_seed",
    "run_point_sim",
    "run_interval_sim",
]

# the closed-form moments of one (estimator, delta_true, n, prior) cell,
# shared by every study that asks for it again
_cell_moments = functools.lru_cache(maxsize=256)(analytic_moments)


def derive_rep_seed(seed: int, rep: int, stream: int = 0) -> np.random.Philox:
    """Counter-keyed substream number rep, as a Philox bit generator.

    The generator is Philox(SeedSequence(seed, spawn_key=(stream,)),
    counter=[0, 0, 0, rep]) and carries that SeedSequence as its seed_seq.
    Philox takes its key from it, generate_state(2, np.uint64), one key per
    (seed, stream). rep is the top word of the 256-bit counter, passed as a
    uint64 array (numpy rounds a list's ints above 2**63 through a float),
    so each index owns 2**192 blocks of four output words that no other
    index of the stream reaches (Salmon et al., "Parallel random numbers: as
    easy as 1, 2, 3", SC'11). Any subset of indices can be produced in any
    order or process. At record count n, default_rng(derive_rep_seed(seed,
    rep, n)) is the stream of a point study's repetition rep, and of an
    interval study's block rep: its repetitions rep * _BLOCK_REPS onwards,
    up to _BLOCK_REPS of them.
    """
    import numpy as np

    seed, stream = _count("seed", seed, 0), _count("stream", stream, 0)
    rep = _count("rep", rep, 0)
    if rep >= 2**64:
        raise DomainError(f"rep must be in [0, 2**64), got {rep!r}")
    return np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=(stream,)),
        counter=np.array([0, 0, 0, rep], dtype=np.uint64),
    )


@dataclass(frozen=True, slots=True)
class SimConfig:
    """One simulation request.

    n_records may be a single record count or a list of them; each count is
    run over the same repetition budget. estimators and alpha_list select
    what run_point_sim and run_interval_sim compute; interval_kinds names
    constructions as intervals.interval does (hpd_hpm is the closed form at
    the exact-HPD length) and defaults to equal tails only. These four keep
    each entry once, in the order first given, so a repeat adds no rows.
    workers runs the study's fixed blocks of repetitions on that many
    processes, at most one per usable CPU and one per block, without
    changing any output bit.
    """

    delta_true: float
    n_records: tuple[int, ...]
    reps: int
    seed: int
    prior: PriorParams
    estimators: tuple[EstimatorId, ...] = (
        EstimatorId.MLE_URR,
        EstimatorId.BAYES_QUADRATIC,
        EstimatorId.BAYES_SQUARED,
    )
    alpha_list: tuple[float, ...] = ()
    interval_kinds: tuple[IntervalKind, ...] = (IntervalKind.EQUAL_TAILS,)
    workers: int = 1

    def __post_init__(self):
        _real("true scale delta_true", self.delta_true)
        try:
            ns = tuple(self.n_records)
        except TypeError:  # a single record count
            ns = (self.n_records,)
        ns = tuple(dict.fromkeys(_count("record count", n, 2) for n in ns))
        if not ns:
            raise DomainError("n_records must not be empty")
        object.__setattr__(self, "n_records", ns)
        object.__setattr__(self, "reps", _count("reps", self.reps, 1))
        if self.reps >= 2**64:
            # a repetition's index is one 64-bit word of its stream's counter
            raise DomainError(f"reps must be in [1, 2**64), got {self.reps!r}")
        object.__setattr__(self, "seed", _count("seed", self.seed, 0))
        estimators = dict.fromkeys(map(EstimatorId, self.estimators))
        object.__setattr__(self, "estimators", tuple(estimators))
        alphas = dict.fromkeys(map(_check_alpha, self.alpha_list))
        object.__setattr__(self, "alpha_list", tuple(alphas))
        kinds = dict.fromkeys(map(IntervalKind, self.interval_kinds))
        object.__setattr__(self, "interval_kinds", tuple(kinds))
        object.__setattr__(self, "workers", _count("workers", self.workers, 1))


@dataclass(frozen=True, slots=True)
class PointRow:
    """Aggregate for one (estimator, record count) cell."""

    estimator_id: EstimatorId
    n: int
    average_estimate: float
    empirical_mse: float
    analytic_mean: float | None = None
    analytic_mse: float | None = None


@dataclass(frozen=True, slots=True)
class IntervalRow:
    """Aggregate for one (interval kind, record count, alpha) cell."""

    kind: IntervalKind
    n: int
    alpha: float
    empirical_coverage: float
    mean_length: float


@dataclass(frozen=True, slots=True)
class SimResult:
    """Everything a simulation produced, in a fixed row order."""

    config: SimConfig
    point_rows: tuple[PointRow, ...] = ()
    interval_rows: tuple[IntervalRow, ...] = ()


# a study's repetitions run in blocks of this many, one task each, the last
# block shorter; an interval study draws each block from its own stream
_BLOCK_REPS = 4096

# a block draws its record gaps into a matrix of at most _BUFFER_ROWS rows
# and _BUFFER_VALUES values (but at least one row), then scales and sums it
_BUFFER_ROWS, _BUFFER_VALUES = 1024, 1 << 16


def _draw_gaps(rng: np.random.Generator, out: np.ndarray) -> None:
    # one repetition's n record gaps, unscaled, into its row of the block:
    # the draws of rng.exponential(delta, n), which is delta times them
    rng.standard_exponential(out=out)


def _sample_block(
    n: int, seed: int, lo: int, hi: int, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Last record and range of point-study repetitions lo..hi-1, as arrays.

    Repetition rep draws its n record gaps from exactly the stream of
    default_rng(derive_rep_seed(seed, rep, n)). The block keeps one Philox
    of that key and, per repetition, writes rep into the counter of its
    saved state and loads the state back, then draws the gaps into that
    repetition's row of a matrix; it then scales and sums all rows at once,
    which gives sample_records_direct's values bit for bit. The matrix is
    bounded (_BUFFER_ROWS, _BUFFER_VALUES), whatever the block's size, and
    the block fills it once per range of that many repetitions.
    """
    import numpy as np

    k = hi - lo
    lasts, ranges = np.empty(k), np.empty(k)
    rows = min(k, _BUFFER_ROWS, max(1, _BUFFER_VALUES // n))
    gaps = np.empty((rows, n))
    bit_generator = derive_rep_seed(seed, lo, n)
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state  # fresh: no buffered output or half word
    counter = state["state"]["counter"]
    for start in range(0, k, rows):
        stop = min(start + rows, k)
        values = gaps[: stop - start]
        for i, rep in enumerate(range(lo + start, lo + stop)):
            counter[3] = rep
            bit_generator.state = state
            _draw_gaps(rng, values[i])
        # overflowing draws are left to _check_block, which names their source
        with np.errstate(over="ignore", invalid="ignore"):
            values *= delta
            np.cumsum(values, axis=1, out=values)  # a running sum, row by row
            lasts[start:stop] = values[:, -1]
            np.subtract(values[:, -1], values[:, 0], out=ranges[start:stop])
    _check_block(n, delta, lasts, ranges, None)
    return lasts, ranges


def _check_block(n: int, deltas, lasts, ranges, prior) -> None:
    # The per-repetition domain checks as one array check: every drawn scale,
    # last record and range finite and positive (nan fails both comparisons).
    # A point block draws no scale (deltas is the true scale, a float that
    # SimConfig checked) and an interval block no last record (lasts is None;
    # its ranges are then the record values that can overflow). The first bad
    # repetition names the input behind a scale or record value outside the
    # floats, or raises what the rules raise for it.
    drawn = deltas if lasts is None else lasts
    ok = (0.0 < drawn) & (drawn < math.inf) & (0.0 < ranges) & (ranges < math.inf)
    if ok.all():
        return
    i = int(ok.argmin())
    r = float(ranges[i])
    if lasts is None:
        delta, top = float(deltas[i]), r
        source = f"a scale drawn from the prior (a, b) = {prior!r}"
    else:
        delta, top, source = deltas, float(lasts[i]), "the true scale"
    if not 0.0 < delta < math.inf:
        raise DomainError(f"{source} is not a positive float, got {delta!r}")
    if not top < math.inf:
        raise DomainError(f"record values overflow at {source}, delta = {delta!r}")
    if lasts is not None:
        mle_records(top, n)
    mle_urr(r, n)


def _point_block(
    n: int,
    seed: int,
    lo: int,
    hi: int,
    delta: float,
    estimators: tuple[EstimatorId, ...],
    a: float,
    b: float,
) -> np.ndarray:
    """Estimates for repetitions lo..hi-1, one row per estimator."""
    import numpy as np

    last, r = _sample_block(n, seed, lo, hi, delta)
    s, A = a + n - 1.0, b + r  # the posterior of every repetition
    out = np.empty((len(estimators), hi - lo))
    for j, est in enumerate(estimators):
        out[j] = _estimate(est, n, s, last=last, r=r, A=A)
    return out


def _interval_block(
    n: int,
    seed: int,
    lo: int,
    hi: int,
    cells: tuple[tuple[IntervalKind, float], ...],
    a: float,
    b: float,
) -> np.ndarray:
    """Coverage and length rows of every cell for repetitions lo..hi-1.

    The result has shape (cells, 2, hi - lo): per cell a row of 0/1 coverage
    flags, then a row of lengths, over one whole block of repetitions.

    The block, lo // _BLOCK_REPS, draws from the stream of
    default_rng(derive_rep_seed(seed, block, n)): first its k = hi - lo
    scales from the inverted-gamma prior (a, b), then their k record ranges,
    r = delta * Gamma(n - 1), the range of n records at scale delta.
    """
    import numpy as np

    k = hi - lo
    rng = np.random.default_rng(derive_rep_seed(seed, lo // _BLOCK_REPS, n))
    # out-of-range draws are left to _check_block, which names their source
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        delta = 1.0 / rng.gamma(a, 1.0 / b, size=k)  # a draw of 0 gives inf
        r = delta * rng.standard_gamma(n - 1.0, size=k)
    _check_block(n, delta, None, r, (a, b))
    s, A = a + n - 1.0, b + r
    out = np.empty((len(cells), 2, k))
    hpd: dict = {}  # alpha -> (cell indices, kinds) of its HPD cells
    for j, (kind, alpha) in enumerate(cells):
        if kind is IntervalKind.EQUAL_TAILS:
            lower, upper, _ = _equal_tails_endpoints(s, A, alpha)
            out[j, 0] = (lower <= delta) & (delta <= upper)
            out[j, 1] = upper - lower
        else:
            js, kinds = hpd.setdefault(alpha, ([], []))
            js.append(j)
            kinds.append(kind)
    if not hpd:
        return out
    # the HPD kinds, one repetition at a time and one exact solve per alpha
    for i, (A_i, delta_i) in enumerate(zip(A.tolist(), delta.tolist())):
        post = PosteriorParams(s=s, A=A_i)
        for alpha, (js, kinds) in hpd.items():
            for j, iv in zip(js, _intervals(kinds, post, alpha)):
                out[j, 0, i] = 1.0 if iv.lower <= delta_i <= iv.upper else 0.0
                out[j, 1, i] = iv.length
    return out


def _usable_cpus() -> int:
    """CPUs this process may run on; the CPU count where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_blocks(block, config: SimConfig, *args) -> list[np.ndarray]:
    """block(n, seed, lo, hi, *args) over every record count and block.

    Repetitions split into blocks of _BLOCK_REPS, the last one shorter,
    whatever the worker count, so no task crosses a block boundary. Every
    task of the study goes to one pool of at most workers processes, capped
    at the usable CPUs, since more processes only compete for them, and at
    the tasks. The result holds one C-contiguous array per record count,
    each block's output joined along the last axis, the repetitions, in
    index order.
    """
    import numpy as np

    bounds = [
        (lo, min(lo + _BLOCK_REPS, config.reps))
        for lo in range(0, config.reps, _BLOCK_REPS)
    ]
    tasks = [
        (n, config.seed, lo, hi, *args) for n in config.n_records for lo, hi in bounds
    ]
    workers = min(config.workers, _usable_cpus(), len(tasks))
    if workers <= 1:
        blocks = [block(*task) for task in tasks]
    else:
        # imported here, so a study that starts no pool never loads it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(block, *task) for task in tasks]
            blocks = [f.result() for f in futures]  # submission order == index order
    k = len(bounds)
    return [
        np.concatenate(blocks[i : i + k], axis=-1) for i in range(0, len(blocks), k)
    ]


def run_point_sim(config: SimConfig) -> SimResult:
    """Sample records per repetition, estimate, and aggregate.

    Per (estimator, n) the result reports the average estimate and the
    empirical MSE (1/reps) * sum (estimate - delta_true)^2, next to the
    closed-form mean and MSE where those exist.
    """
    import numpy as np

    if not config.estimators:
        raise DomainError("point simulation needs at least one estimator")
    if EstimatorId.MLE_SAMPLE in config.estimators:
        raise DomainError(
            "mle_sample needs a full series; direct record sampling has none"
        )
    per_n = _run_blocks(
        _point_block,
        config,
        config.delta_true,
        config.estimators,
        config.prior.a,
        config.prior.b,
    )
    rows: list[PointRow] = []
    for n, estimates in zip(config.n_records, per_n):
        # one row per estimator, summed pairwise over reps: the bits of the
        # strided column's .mean(), which a sum over axis 0 would not keep
        errors = estimates - config.delta_true
        means = np.add.reduce(estimates, axis=-1) / config.reps
        mses = np.add.reduce(np.square(errors, out=errors), axis=-1) / config.reps
        for est, mean, mse in zip(config.estimators, means.tolist(), mses.tolist()):
            moments = _cell_moments(est, config.delta_true, n, config.prior)
            rows.append(
                PointRow(
                    estimator_id=est,
                    n=n,
                    average_estimate=mean,
                    empirical_mse=mse,
                    analytic_mean=moments.mean,
                    analytic_mse=moments.mse,
                )
            )
    return SimResult(config=config, point_rows=tuple(rows))


def run_interval_sim(config: SimConfig) -> SimResult:
    """Draw the scale from the prior, then records, then intervals.

    Coverage counts how often the drawn scale lands inside the interval;
    for a level-(1 - alpha) credible interval this is 1 - alpha in
    expectation under the prior.
    """
    import numpy as np

    if not config.alpha_list:
        raise DomainError("interval simulation needs at least one alpha")
    if not config.interval_kinds:
        raise DomainError("interval simulation needs at least one interval kind")
    if config.prior.b == 0.0:
        raise DomainError("sampling the scale from the prior needs b > 0")
    cells = tuple(
        (kind, alpha)
        for kind in config.interval_kinds
        for alpha in config.alpha_list
    )
    per_n = _run_blocks(
        _interval_block, config, cells, config.prior.a, config.prior.b
    )
    rows: list[IntervalRow] = []
    for n, stats in zip(config.n_records, per_n):
        means = (np.add.reduce(stats, axis=-1) / config.reps).tolist()
        for (kind, alpha), (coverage, length) in zip(cells, means):
            rows.append(
                IntervalRow(
                    kind=kind,
                    n=n,
                    alpha=alpha,
                    empirical_coverage=coverage,
                    mean_length=length,
                )
            )
    return SimResult(config=config, interval_rows=tuple(rows))
