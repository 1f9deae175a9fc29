"""Seeded Monte Carlo experiments over the record-range model.

Every repetition gets its own generator, derived from the master seed by a
counter-keyed split (numpy SeedSequence spawn keys, derive_rep_seed), so
results are bit-identical no matter how repetitions are scheduled. Runs
carve the repetition index range into contiguous blocks, one per worker
process. A block derives the generator states of its repetitions in one
pass, by the arithmetic of SeedSequence and PCG64 seeding, so each
repetition still draws from exactly derive_rep_seed's stream. A repetition
costs one state load and one row of draws into a bounded matrix; the block
scales and sums that matrix's rows at once and keeps only the sufficient
statistics (scale, last record, range). Every equal-tails interval and
every record rule, one (statistic, divisor) entry of the estimators' table,
depends on nothing else, so each is then evaluated once per block on those
arrays. The HPD kinds are still solved one repetition at a time. Blocks
are reduced strictly in index order.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientRecordsError
from .estimators import (
    EstimatorId,
    _estimate,
    analytic_moments,
    estimator_rule,
    mle_records,
    mle_urr,
)
from .intervals import (
    IntervalKind,
    _check_alpha,
    _equal_tails_endpoints,
    _intervals,
)
from .model import PosteriorParams, PriorParams, posterior_from
from .records import extract_upper_records, truncate

__all__ = [
    "SimConfig",
    "SimResult",
    "PointRow",
    "IntervalRow",
    "TableRow",
    "derive_rep_seed",
    "run_point_sim",
    "run_interval_sim",
    "reproduce_table1",
]

_TABLE1_ESTIMATORS = (
    EstimatorId.MLE_RECORDS,
    EstimatorId.MLE_URR,
    EstimatorId.BAYES_QUADRATIC,
    EstimatorId.BAYES_SQUARED,
)


# the closed-form moments of one (estimator, delta_true, n, prior) cell,
# shared by every study that asks for it again
_cell_moments = functools.lru_cache(maxsize=256)(analytic_moments)


def derive_rep_seed(seed: int, rep: int, stream: int = 0) -> np.random.SeedSequence:
    """Counter-keyed substream for one repetition.

    Distinct (stream, rep) pairs give statistically independent generators;
    the derivation is pure arithmetic on the key, so any subset of
    repetitions can be produced in any order or process. This is the
    definition of every study's streams: the blocks derive the generator
    states of default_rng on it for a whole range of rep at once
    (_rep_states), bit for bit.
    """
    return np.random.SeedSequence(seed, spawn_key=(stream, rep))


# numpy's SeedSequence hash (NEP 19) and PCG64 seeding (O'Neill 2014, "PCG")
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_MIX_A = (0x43B0D7E5, 0x931E8875)  # first hash constant, multiplier: pool mix
_OUT_B = (0x8B51F9DD, 0x58F38DED)  # ... and generate_state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(x: int) -> list[int]:
    # x as SeedSequence takes an int: little-endian uint32 words, at least one
    return [(x >> k) & _MASK32 for k in range(0, max(x.bit_length(), 1), 32)]


def _consts(h: int, mult: int, count: int) -> tuple[np.ndarray, int]:
    # count successive hash constants from h as a uint64 column, and the next
    hs = []
    for _ in range(count):
        hs.append(h)
        h = (h * mult) & _MASK32
    return np.array(hs, dtype=np.uint64)[:, None], h


# The hashes take Python ints or uint64 arrays of uint32 values, and every
# other operand is a uint64 array or a nonnegative Python int below 2**64,
# so an array stays uint64 under numpy 1.24's value-based promotion and
# numpy 2's NEP 50 alike. A product of two uint32 values fits in 64 bits,
# and a difference that wraps there keeps the right low 32 bits.
def _hashmix(value, h, mult: int):
    # SeedSequence's hashmix at hash constant h; also returns the next one
    h_next = (h * mult) & _MASK32
    value = ((value ^ h) * h_next) & _MASK32
    return value ^ (value >> 16), h_next


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ (value >> 16)


_OUT_H = _consts(*_OUT_B, 8)[0]  # generate_state's, alike for every key


def _rep_states(seed: int, stream: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of default_rng(derive_rep_seed(seed, rep, stream)).

    One pair per rep in lo..hi-1. SeedSequence hashes the words of seed
    (padded to its 4-word pool), then those of stream, then those of rep
    into the pool, and PCG64 seeds itself from 8 words generated from it.
    All up to rep's words is alike for every rep and is mixed once, in
    Python ints. The rest runs on (pool word, rep) arrays, one pass per run
    of reps with the same word count, and PCG64's two seeding steps in
    Python ints mod 2**128.
    """
    entropy = _words(seed)
    entropy += [0] * (4 - len(entropy))
    h, mult = _MIX_A
    pool = []
    for word in entropy[:4]:
        word, h = _hashmix(word, h, mult)
        pool.append(word)
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                word, h = _hashmix(pool[i_src], h, mult)
                pool[i_dst] = _mix(pool[i_dst], word)
    for word in entropy[4:] + _words(stream):
        for i_dst in range(4):
            hashed, h = _hashmix(word, h, mult)
            pool[i_dst] = _mix(pool[i_dst], hashed)
    pool = np.array(pool, dtype=np.uint64)[:, None]
    states = []
    while lo < hi:
        # the reps of one word count; a block holds no rep of 2**64 or more
        width = len(_words(lo))
        stop = min(hi, 1 << 32 * width)
        reps = lo + np.arange(stop - lo, dtype=np.uint64)
        mixed, h_rep = pool, h
        for word in (reps & _MASK32, reps >> 32)[:width]:
            hs, h_rep = _consts(h_rep, mult, 4)
            mixed = _mix(mixed, _hashmix(word, hs, mult)[0])
        out = _hashmix(mixed[[0, 1, 2, 3, 0, 1, 2, 3]], _OUT_H, _OUT_B[1])[0]
        # generate_state(4, uint64): PCG64's 128-bit seed, then its stream
        halves = (out[0::2] | out[1::2] << 32).tolist()
        for s_hi, s_lo, i_hi, i_lo in zip(*halves):
            inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
            states.append((state, inc))
        lo = stop
    return states


@dataclass(frozen=True, slots=True)
class SimConfig:
    """One simulation request.

    n_records may be a single record count or a list of them; each count is
    run over the same repetition budget. estimators and alpha_list select
    what run_point_sim and run_interval_sim compute; interval_kinds names
    constructions as intervals.interval does (hpd_hpm is the closed form at
    the exact-HPD length) and defaults to equal tails only. workers splits
    repetitions over processes, at most one per usable CPU, without changing
    any output bit.
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
        if not (math.isfinite(self.delta_true) and self.delta_true > 0.0):
            raise DomainError(
                f"true scale must be positive, got {self.delta_true!r}"
            )
        ns = self.n_records
        if isinstance(ns, int):
            ns = (ns,)
        ns = tuple(int(n) for n in ns)
        if not ns:
            raise DomainError("n_records must not be empty")
        if any(n < 2 for n in ns):
            raise DomainError(f"every record count must be >= 2, got {ns!r}")
        object.__setattr__(self, "n_records", ns)
        if self.reps < 1:
            raise DomainError(f"reps must be positive, got {self.reps!r}")
        object.__setattr__(self, "seed", int(self.seed))
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed!r}")
        object.__setattr__(
            self, "estimators", tuple(EstimatorId(e) for e in self.estimators)
        )
        alphas = tuple(float(a) for a in self.alpha_list)
        for alpha in alphas:
            _check_alpha(alpha)
        object.__setattr__(self, "alpha_list", alphas)
        object.__setattr__(
            self, "interval_kinds", tuple(IntervalKind(k) for k in self.interval_kinds)
        )
        if self.workers < 1:
            raise DomainError(f"workers must be positive, got {self.workers!r}")


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
class TableRow:
    """One deterministic estimate cell of the reference table."""

    n: int
    estimator_id: EstimatorId
    value: float


@dataclass(frozen=True, slots=True)
class SimResult:
    """Everything a simulation produced, in a fixed row order."""

    config: SimConfig
    point_rows: tuple[PointRow, ...] = ()
    interval_rows: tuple[IntervalRow, ...] = ()


def _chunks(reps: int, workers: int) -> list[tuple[int, int]]:
    # contiguous blocks covering range(reps) in index order
    workers = min(workers, reps)
    size, extra = divmod(reps, workers)
    bounds = []
    lo = 0
    for i in range(workers):
        hi = lo + size + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


# a block draws its record gaps into a matrix of at most _BUFFER_ROWS rows
# and _BUFFER_VALUES values (but at least one row), then scales and sums it
_BUFFER_ROWS, _BUFFER_VALUES = 1024, 1 << 16


def _draw_gaps(rng: np.random.Generator, out: np.ndarray) -> None:
    # one repetition's n record gaps, unscaled, into its row of the block:
    # the draws of rng.exponential(delta, n), which is delta times them
    rng.standard_exponential(out=out)


def _sample_block(
    n: int,
    seed: int,
    lo: int,
    hi: int,
    delta: float | None,
    prior: tuple[float, float] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scale, last record and range of repetitions lo..hi-1, as arrays.

    Repetition rep draws from exactly the stream of
    default_rng(derive_rep_seed(seed, rep, n)): its scale from the
    inverted-gamma prior (a, b) when delta is None, then its n record
    gaps. Per repetition the block loads one generator state, which
    _rep_states derives for a range of repetitions in one pass, and draws
    the gaps into that repetition's row of a matrix; it then scales and sums
    all rows at once, which gives sample_records_direct's values bit for bit.
    The matrix is bounded (_BUFFER_ROWS, _BUFFER_VALUES), whatever the block's
    size, and the block fills it once per range of that many repetitions.
    """
    k = hi - lo
    deltas, lasts, ranges = np.empty(k), np.empty(k), np.empty(k)
    if prior is None:
        deltas.fill(delta)
    else:
        a, scale = prior[0], 1.0 / prior[1]
    rows = min(k, _BUFFER_ROWS, max(1, _BUFFER_VALUES // n))
    gaps = np.empty((rows, n))
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for start in range(0, k, rows):
        stop = min(start + rows, k)
        values, scales = gaps[: stop - start], deltas[start:stop]
        for i, (state, inc) in enumerate(_rep_states(seed, n, lo + start, lo + stop)):
            # a fresh PCG64 holds no buffered half word
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            if prior is not None:
                g = rng.gamma(shape=a, scale=scale)  # may underflow to 0
                scales[i] = 1.0 / g if g > 0.0 else math.inf
            _draw_gaps(rng, values[i])
        # overflowing draws are left to _check_block, which names their source
        with np.errstate(over="ignore", invalid="ignore"):
            values *= scales[:, None]
            np.cumsum(values, axis=1, out=values)  # a running sum, row by row
            lasts[start:stop] = values[:, -1]
            np.subtract(values[:, -1], values[:, 0], out=ranges[start:stop])
    _check_block(n, deltas, lasts, ranges, prior)
    return deltas, lasts, ranges


def _check_block(n: int, deltas, lasts, ranges, prior) -> None:
    # The per-repetition domain checks as one array check: every scale, last
    # record and range finite and positive (nan fails both comparisons). The
    # first bad repetition names the input behind a scale or record value
    # outside the floats, or raises what the rules raise for it.
    ok = (
        (0.0 < deltas) & (deltas < math.inf)
        & (0.0 < lasts) & (lasts < math.inf)
        & (0.0 < ranges) & (ranges < math.inf)
    )
    if ok.all():
        return
    i = int(ok.argmin())
    delta, last = float(deltas[i]), float(lasts[i])
    if prior is None:
        source = "the true scale"
    else:
        source = f"a scale drawn from the prior (a, b) = {prior!r}"
    if not 0.0 < delta < math.inf:
        raise DomainError(f"{source} is not a positive float, got {delta!r}")
    if not last < math.inf:
        raise DomainError(f"record values overflow at {source}, delta = {delta!r}")
    mle_records(last, n)
    mle_urr(float(ranges[i]), n)


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
    """Estimates for repetitions lo..hi-1, one row per repetition."""
    _, last, r = _sample_block(n, seed, lo, hi, delta)
    s, A = a + n - 1.0, b + r  # the posterior of every repetition
    out = np.empty((hi - lo, len(estimators)))
    for j, est in enumerate(estimators):
        out[:, j] = _estimate(est, n, s, last=last, r=r, A=A)
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
    """(covered, length) pairs for repetitions lo..hi-1."""
    delta, _, r = _sample_block(n, seed, lo, hi, None, (a, b))
    s, A = a + n - 1.0, b + r
    out = np.empty((hi - lo, len(cells), 2))
    hpd: dict = {}  # alpha -> (cell indices, kinds) of its HPD cells
    for j, (kind, alpha) in enumerate(cells):
        if kind is IntervalKind.EQUAL_TAILS:
            lower, upper, _ = _equal_tails_endpoints(s, A, alpha)
            out[:, j, 0] = (lower <= delta) & (delta <= upper)
            out[:, j, 1] = upper - lower
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
                out[i, j, 0] = 1.0 if iv.lower <= delta_i <= iv.upper else 0.0
                out[i, j, 1] = iv.length
    return out


def _usable_cpus() -> int:
    """CPUs this process may run on; the CPU count where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_blocks(block, config: SimConfig, *args) -> list[np.ndarray]:
    """block(n, seed, lo, hi, *args) over every record count and chunk.

    Repetitions are chunked by the pool size, workers capped at the usable
    CPUs, since more processes only compete for them. Every task of the
    study goes to one pool of at most that many processes.
    The result holds one array per record count, rows in repetition order.
    """
    workers = min(config.workers, _usable_cpus())
    chunks = _chunks(config.reps, workers)
    tasks = [
        (n, config.seed, lo, hi, *args) for n in config.n_records for lo, hi in chunks
    ]
    workers = min(workers, len(tasks))
    if workers <= 1:
        blocks = [block(*task) for task in tasks]
    else:
        # imported here, so a study that starts no pool never loads it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(block, *task) for task in tasks]
            blocks = [f.result() for f in futures]  # submission order == index order
    k = len(chunks)
    return [np.concatenate(blocks[i : i + k]) for i in range(0, len(blocks), k)]


def run_point_sim(config: SimConfig) -> SimResult:
    """Sample records per repetition, estimate, and aggregate.

    Per (estimator, n) the result reports the average estimate and the
    empirical MSE (1/reps) * sum (estimate - delta_true)^2, next to the
    closed-form mean and MSE where those exist.
    """
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
        errors = estimates - config.delta_true
        for j, est in enumerate(config.estimators):
            moments = _cell_moments(est, config.delta_true, n, config.prior)
            rows.append(
                PointRow(
                    estimator_id=est,
                    n=n,
                    average_estimate=float(estimates[:, j].mean()),
                    empirical_mse=float((errors[:, j] ** 2).mean()),
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
        for j, (kind, alpha) in enumerate(cells):
            rows.append(
                IntervalRow(
                    kind=kind,
                    n=n,
                    alpha=alpha,
                    empirical_coverage=float(stats[:, j, 0].mean()),
                    mean_length=float(stats[:, j, 1].mean()),
                )
            )
    return SimResult(config=config, interval_rows=tuple(rows))


def reproduce_table1(data, prior: PriorParams) -> list[TableRow]:
    """Deterministic estimate columns over n = 2..6 from one data series.

    For each record-count cut the four record-based estimators are
    evaluated on the first n records of the series.
    """
    summary = extract_upper_records(data)
    if summary.n < 6:
        raise InsufficientRecordsError(
            f"the reference table needs 6 records, found {summary.n}"
        )
    rows: list[TableRow] = []
    for n in range(2, 7):
        cut = truncate(summary, n)
        post = posterior_from(prior, cut)
        for est in _TABLE1_ESTIMATORS:
            value = estimator_rule(est)(cut, post)
            rows.append(TableRow(n=n, estimator_id=est, value=value))
    return rows
