"""Seeded Monte Carlo experiments over the record-range model.

Every repetition gets its own generator, derived from the master seed by a
counter-keyed split (numpy SeedSequence spawn keys), so results are
bit-identical no matter how repetitions are scheduled. Runs carve the
repetition index range into contiguous blocks, one per worker process.
A block draws each repetition from its own stream and keeps only the
sufficient statistics (scale, last record, range); every record rule and
equal-tails interval depends on nothing else, so each is then evaluated
once per block on those arrays. The HPD kinds are still solved one
repetition at a time. Blocks are reduced strictly in index order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientRecordsError
from .estimators import (
    _FORMULAS,
    EstimatorId,
    analytic_moments,
    estimator_rule,
    mle_records,
    mle_urr,
)
from .intervals import IntervalKind, _equal_tails_endpoints, interval
from .model import PosteriorParams, PriorParams, posterior_from
from .records import _direct_values, extract_upper_records, truncate

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


def derive_rep_seed(seed: int, rep: int, stream: int = 0) -> np.random.SeedSequence:
    """Counter-keyed substream for one repetition.

    Distinct (stream, rep) pairs give statistically independent generators;
    the derivation is pure arithmetic on the key, so any subset of
    repetitions can be produced in any order or process.
    """
    return np.random.SeedSequence(seed, spawn_key=(stream, rep))


@dataclass(frozen=True)
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
        object.__setattr__(
            self, "estimators", tuple(EstimatorId(e) for e in self.estimators)
        )
        alphas = tuple(float(a) for a in self.alpha_list)
        if any(math.isnan(a) or not 0.0 < a < 1.0 for a in alphas):
            raise DomainError(f"every alpha must lie in (0, 1), got {alphas!r}")
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


def _sample_block(
    n: int,
    seed: int,
    lo: int,
    hi: int,
    delta: float | None,
    prior: tuple[float, float] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scale, last record and range of repetitions lo..hi-1, as arrays.

    Repetition rep draws from its own derive_rep_seed(seed, rep, n) stream:
    its scale from the inverted-gamma prior (a, b) when delta is None, then
    its n record values, exactly as sample_records_direct draws them.
    """
    k = hi - lo
    deltas, firsts, lasts = np.empty(k), np.empty(k), np.empty(k)
    if prior is not None:
        a, scale = prior[0], 1.0 / prior[1]
    for i, rep in enumerate(range(lo, hi)):
        rng = np.random.default_rng(derive_rep_seed(seed, rep, n))
        if prior is not None:
            delta = 1.0 / rng.gamma(shape=a, scale=scale)
        values = _direct_values(delta, n, rng)
        deltas[i] = delta
        firsts[i] = values[0]
        lasts[i] = values[-1]
    ranges = lasts - firsts
    _check_block(n, deltas, lasts, ranges)
    return deltas, lasts, ranges


def _check_block(n: int, deltas, lasts, ranges) -> None:
    # The per-repetition domain checks as one array check: every scale, last
    # record and range finite and positive (nan fails both comparisons). The
    # first bad repetition raises what the sampler or the rules raise for it.
    ok = (
        (0.0 < deltas) & (deltas < math.inf)
        & (0.0 < lasts) & (lasts < math.inf)
        & (0.0 < ranges) & (ranges < math.inf)
    )
    if ok.all():
        return
    i = int(ok.argmin())
    if not 0.0 < deltas[i] < math.inf:
        bad = float(deltas[i])
        raise DomainError(f"scale delta must be positive, got {bad!r}")
    mle_records(float(lasts[i]), n)
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
        out[:, j] = _FORMULAS[est](last=last, r=r, n=n, s=s, A=A)
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
    solved = []
    for j, (kind, alpha) in enumerate(cells):
        if kind is IntervalKind.EQUAL_TAILS:
            lower, upper, _ = _equal_tails_endpoints(s, A, alpha)
            out[:, j, 0] = (lower <= delta) & (delta <= upper)
            out[:, j, 1] = upper - lower
        else:
            solved.append(j)
    if not solved:
        return out
    # the HPD kinds, one repetition at a time; hpd_hpm right after hpd_exact
    # at the same alpha, so interval() solves each exact HPD once
    solved.sort(key=lambda j: (cells[j][1], cells[j][0] is IntervalKind.HPD_HPM))
    for i, (A_i, delta_i) in enumerate(zip(A.tolist(), delta.tolist())):
        post = PosteriorParams(s=s, A=A_i)
        for j in solved:
            kind, alpha = cells[j]
            iv = interval(kind, post, alpha)
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
            moments = analytic_moments(est, config.delta_true, n, config.prior)
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
