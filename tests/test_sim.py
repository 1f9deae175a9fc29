import concurrent.futures
import dataclasses
import functools
import math
import os
import pickle
import subprocess
import sys
import types
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from recrange import sim
from recrange import (
    DomainError,
    EstimatorId,
    InsufficientRecordsError,
    IntervalKind,
    IntervalRow,
    PointRow,
    PriorParams,
    SimConfig,
    SimResult,
    TableRow,
    chi2_quantile,
    datasets,
    derive_rep_seed,
    estimator_rule,
    interval,
    intervals,
    mle_urr,
    posterior_from,
    reproduce_table1,
    run_interval_sim,
    run_point_sim,
    sample_records_direct,
)

PRIOR = PriorParams(a=3.0, b=5.0)

# Printed comparison table for the first bundled series under PRIOR.
# The record-range MLE entries at n=4 and n=5 follow the estimator's
# definition range/(n-1); the printed source repeats an adjacent column
# at n=4, which is a transcription slip, not a different estimator.
TABLE1 = {
    EstimatorId.MLE_RECORDS: (2.19098642, 1.88219847, 1.81655216, 1.88274270, 1.58658848),
    EstimatorId.MLE_URR: (4.319232, 2.791927, 2.401156, 2.337743, 1.891358),
    EstimatorId.BAYES_QUADRATIC: (1.863846, 1.763976, 1.743353, 1.793872, 1.606310),
    EstimatorId.BAYES_SQUARED: (3.106411, 2.645964, 2.440694, 2.391829, 2.065256),
}


class TestSeedDerivation:
    def test_deterministic(self):
        a = np.random.default_rng(derive_rep_seed(5, 3, 4)).random(4)
        b = np.random.default_rng(derive_rep_seed(5, 3, 4)).random(4)
        assert np.array_equal(a, b)

    def test_reps_are_distinct_streams(self):
        draws = {
            float(np.random.default_rng(derive_rep_seed(5, rep, 4)).random())
            for rep in range(50)
        }
        assert len(draws) == 50

    def test_streams_are_distinct(self):
        a = np.random.default_rng(derive_rep_seed(5, 0, 4)).random()
        b = np.random.default_rng(derive_rep_seed(5, 0, 7)).random()
        assert a != b


class TestSimConfig:
    def test_scalar_n_normalized(self):
        cfg = SimConfig(delta_true=1.0, n_records=4, reps=3, seed=0, prior=PRIOR)
        assert cfg.n_records == (4,)

    def test_validation(self):
        with pytest.raises(DomainError):
            SimConfig(delta_true=0.0, n_records=4, reps=3, seed=0, prior=PRIOR)
        with pytest.raises(DomainError):
            SimConfig(delta_true=1.0, n_records=1, reps=3, seed=0, prior=PRIOR)
        with pytest.raises(DomainError):
            SimConfig(delta_true=1.0, n_records=4, reps=0, seed=0, prior=PRIOR)
        with pytest.raises(DomainError):
            SimConfig(
                delta_true=1.0, n_records=4, reps=3, seed=0, prior=PRIOR,
                alpha_list=(0.0,),
            )
        with pytest.raises(DomainError):
            SimConfig(
                delta_true=1.0, n_records=4, reps=3, seed=0, prior=PRIOR, workers=0
            )

    @pytest.mark.parametrize("alpha", [1e-17, 1e-300, 2.0**-54])
    def test_rejects_an_alpha_whose_level_rounds_to_one(self, alpha):
        with pytest.raises(DomainError, match=r"exceed 2\*\*-54"):
            SimConfig(
                delta_true=1.0, n_records=4, reps=3, seed=0, prior=PRIOR,
                alpha_list=(0.1, alpha),
            )

    def test_accepts_the_smallest_alpha_with_a_level(self):
        # 1 - alpha < 1, while 1 - alpha/2 rounds to 1
        alpha = 1e-16
        assert 1.0 - alpha < 1.0 and 1.0 - 0.5 * alpha == 1.0
        cfg = SimConfig(
            delta_true=1.0, n_records=3, reps=5, seed=0, prior=PRIOR,
            alpha_list=(alpha,), interval_kinds=tuple(IntervalKind),
        )
        rows = run_interval_sim(cfg).interval_rows
        assert [r.empirical_coverage for r in rows] == [1.0, 1.0, 0.0]

    def test_rejects_a_negative_seed(self):
        # numpy seed sequences take no negative entropy
        with pytest.raises(DomainError, match="seed must be nonnegative"):
            SimConfig(delta_true=1.0, n_records=4, reps=3, seed=-1, prior=PRIOR)


class TestPointSim:
    def test_singleton_aggregate(self):
        cfg = SimConfig(
            delta_true=2.0, n_records=4, reps=1, seed=123, prior=PRIOR,
            estimators=(EstimatorId.MLE_URR,),
        )
        result = run_point_sim(cfg)
        summary = sample_records_direct(2.0, 4, derive_rep_seed(123, 0, 4))
        want = mle_urr(summary.range, 4)
        row = result.point_rows[0]
        assert row.average_estimate == want
        assert row.empirical_mse == (want - 2.0) ** 2

    def test_deterministic_and_order_insensitive(self):
        cfg = dict(
            delta_true=2.0, n_records=(4, 5), reps=300, seed=9, prior=PRIOR,
            estimators=(EstimatorId.MLE_URR, EstimatorId.BAYES_QUADRATIC),
        )
        serial = run_point_sim(SimConfig(**cfg, workers=1))
        parallel = run_point_sim(SimConfig(**cfg, workers=3))
        again = run_point_sim(SimConfig(**cfg, workers=1))
        assert serial.point_rows == again.point_rows
        for r1, r2 in zip(serial.point_rows, parallel.point_rows):
            assert r1.average_estimate == r2.average_estimate
            assert r1.empirical_mse == r2.empirical_mse

    def test_posterior_mean_recovers_analytic_average(self):
        cfg = SimConfig(
            delta_true=2.0, n_records=4, reps=10_000, seed=31, prior=PRIOR,
            estimators=(EstimatorId.BAYES_SQUARED,),
        )
        row = run_point_sim(cfg).point_rows[0]
        # analytic mean (3*2+5)/5 = 2.2, variance 3*4/25
        se = math.sqrt(12.0 / 25.0 / cfg.reps)
        assert abs(row.average_estimate - 2.2) < 4.0 * se
        assert math.isclose(row.analytic_mean, 2.2, rel_tol=1e-12)

    def test_unbiased_flat_prior_case(self):
        cfg = SimConfig(
            delta_true=1.0, n_records=5, reps=10_000, seed=77,
            prior=PriorParams(a=1.0, b=0.0),
            estimators=(EstimatorId.BAYES_SQUARED,),
        )
        row = run_point_sim(cfg).point_rows[0]
        se = math.sqrt(0.25 / cfg.reps)
        assert abs(row.average_estimate - 1.0) < 4.0 * se

    def test_empirical_mse_tracks_analytic(self):
        cfg = SimConfig(
            delta_true=2.0, n_records=4, reps=20_000, seed=8, prior=PRIOR,
            estimators=(EstimatorId.MLE_URR,),
        )
        row = run_point_sim(cfg).point_rows[0]
        # mse of an unbiased chi-square-type average: allow a generous band
        assert abs(row.empirical_mse - row.analytic_mse) < 0.1 * row.analytic_mse

    def test_rejects_mle_sample(self):
        cfg = SimConfig(
            delta_true=1.0, n_records=4, reps=10, seed=0, prior=PRIOR,
            estimators=(EstimatorId.MLE_SAMPLE,),
        )
        with pytest.raises(DomainError):
            run_point_sim(cfg)

    def test_rejects_empty_estimators(self):
        cfg = SimConfig(
            delta_true=1.0, n_records=4, reps=10, seed=0, prior=PRIOR, estimators=()
        )
        with pytest.raises(DomainError):
            run_point_sim(cfg)


class TestIntervalSim:
    def test_equal_tails_coverage(self):
        cfg = SimConfig(
            delta_true=1.0, n_records=3, reps=4_000, seed=19,
            prior=PriorParams(a=3.0, b=4.0),
            alpha_list=(0.10,), interval_kinds=(IntervalKind.EQUAL_TAILS,),
        )
        row = run_interval_sim(cfg).interval_rows[0]
        # binomial SE at 0.9 over 4000 reps is about 0.0047
        assert abs(row.empirical_coverage - 0.90) < 0.02

    def test_hpd_never_longer_than_equal_tails(self):
        cfg = SimConfig(
            delta_true=1.0, n_records=3, reps=400, seed=23,
            prior=PriorParams(a=3.0, b=4.0),
            alpha_list=(0.10,),
            interval_kinds=(IntervalKind.EQUAL_TAILS, IntervalKind.HPD_EXACT),
        )
        rows = {row.kind: row for row in run_interval_sim(cfg).interval_rows}
        assert (
            rows[IntervalKind.HPD_EXACT].mean_length
            <= rows[IntervalKind.EQUAL_TAILS].mean_length
        )

    def test_hpd_hpm_length_equals_exact_hpd_length(self):
        # hpd_hpm is the closed form at the exact-HPD length, so it exists
        # at alpha 0.10, where the coverage-calibrated variant cannot
        cfg = SimConfig(
            delta_true=1.0, n_records=3, reps=60, seed=29,
            prior=PriorParams(a=3.0, b=4.0),
            alpha_list=(0.10,),
            interval_kinds=tuple(IntervalKind),
        )
        rows = {row.kind: row for row in run_interval_sim(cfg).interval_rows}
        assert math.isclose(
            rows[IntervalKind.HPD_HPM].mean_length,
            rows[IntervalKind.HPD_EXACT].mean_length,
            rel_tol=1e-12,
        )
        for row in rows.values():
            assert 0.0 <= row.empirical_coverage <= 1.0

    def test_parallel_determinism(self):
        cfg = dict(
            delta_true=1.0, n_records=3, reps=200, seed=41,
            prior=PriorParams(a=3.0, b=4.0),
            alpha_list=(0.10, 0.50), interval_kinds=(IntervalKind.EQUAL_TAILS,),
        )
        serial = run_interval_sim(SimConfig(**cfg, workers=1))
        parallel = run_interval_sim(SimConfig(**cfg, workers=2))
        assert serial.interval_rows == parallel.interval_rows

    def test_prior_draw_underflow_is_a_domain_error(self):
        # with a tiny prior shape the gamma draw of 1/delta underflows to 0
        prior = PriorParams(a=0.001, b=1.0)
        draws = [
            np.random.default_rng(derive_rep_seed(0, rep, 3)).gamma(0.001, 1.0)
            for rep in range(50)
        ]
        assert 0.0 in draws
        cfg = SimConfig(
            delta_true=1.0, n_records=(3,), reps=50, seed=0, prior=prior,
            alpha_list=(0.1,),
        )
        with pytest.raises(DomainError, match="got inf"):
            run_interval_sim(cfg)

    def test_requires_alphas_and_proper_prior(self):
        with pytest.raises(DomainError):
            run_interval_sim(
                SimConfig(delta_true=1.0, n_records=3, reps=5, seed=0, prior=PRIOR)
            )
        with pytest.raises(DomainError):
            run_interval_sim(
                SimConfig(
                    delta_true=1.0, n_records=3, reps=5, seed=0,
                    prior=PriorParams(a=1.0, b=0.0), alpha_list=(0.1,),
                )
            )


class _InlinePool:
    """ProcessPoolExecutor stand-in: logs max_workers and every task, runs
    tasks at submit."""

    def __init__(self, log, max_workers):
        log.started.append(max_workers)
        self.log = log

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.log.submitted.append(args)
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.fixture
def pool_log(monkeypatch):
    """Inline pools on a host pinned to 8 usable CPUs; returns their log."""
    log = types.SimpleNamespace(started=[], submitted=[])
    # sim imports the pool class from concurrent.futures when it starts one
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", functools.partial(_InlinePool, log)
    )
    # pinned, so pool sizes do not depend on the host's CPUs
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(8)), raising=False
    )
    return log


class TestPool:
    @pytest.fixture
    def started(self, pool_log):
        return pool_log.started

    @pytest.mark.parametrize(
        "n_records, reps, workers, pools",
        [
            ((4,), 3, 8, [3]),  # fewer repetitions than workers
            ((3, 4, 5), 1, 8, [3]),  # one task per record count, one pool
            ((3, 4, 5), 10, 2, [2]),  # six tasks share two workers
            ((3, 4), 10, 1, []),  # workers=1 never starts a pool
        ],
        ids=["reps_below_workers", "task_per_n", "tasks_above_workers", "serial"],
    )
    def test_one_pool_per_study_sized_by_tasks(
        self, started, n_records, reps, workers, pools
    ):
        cfg = dict(
            delta_true=1.0, n_records=n_records, reps=reps, seed=3,
            prior=PriorParams(a=3.0, b=4.0), alpha_list=(0.1,),
        )
        point = run_point_sim(SimConfig(**cfg, workers=workers))
        coverage = run_interval_sim(SimConfig(**cfg, workers=workers))
        assert started == pools + pools
        assert point.point_rows == run_point_sim(SimConfig(**cfg)).point_rows
        serial = run_interval_sim(SimConfig(**cfg))
        assert coverage.interval_rows == serial.interval_rows

    @pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "cpu_count"])
    def test_pool_is_capped_at_the_usable_cpus(self, started, monkeypatch, affinity):
        if affinity:
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
            )
        else:
            # platforms without affinity fall back to the CPU count
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = dict(
            delta_true=1.0, n_records=(3,), reps=1000, seed=3,
            prior=PriorParams(a=3.0, b=4.0),
        )
        capped = run_point_sim(SimConfig(**cfg, workers=500))
        assert started == [2]
        assert capped.point_rows == run_point_sim(SimConfig(**cfg)).point_rows

    def test_repetitions_are_chunked_by_the_capped_pool(self, pool_log):
        # 500 requested workers on 8 usable CPUs: 8 chunks per record count,
        # not 500 tiny ones
        cfg = dict(
            delta_true=1.0, n_records=(3, 6), reps=1000, seed=3,
            prior=PriorParams(a=3.0, b=4.0),
        )
        capped = run_point_sim(SimConfig(**cfg, workers=500))
        assert pool_log.started == [8]
        assert len(pool_log.submitted) == 16
        assert capped.point_rows == run_point_sim(SimConfig(**cfg)).point_rows


def _reference_point_rows(cfg):
    """run_point_sim as a loop over repetitions of public functions."""
    rows = []
    for n in cfg.n_records:
        estimates = np.empty((cfg.reps, len(cfg.estimators)))
        for rep in range(cfg.reps):
            summary = sample_records_direct(
                cfg.delta_true, n, derive_rep_seed(cfg.seed, rep, n)
            )
            post = posterior_from(cfg.prior, summary)
            for j, est in enumerate(cfg.estimators):
                estimates[rep, j] = estimator_rule(est)(summary, post)
        errors = estimates - cfg.delta_true
        for j, est in enumerate(cfg.estimators):
            mean, mse = estimates[:, j].mean(), (errors[:, j] ** 2).mean()
            rows.append((est, n, float(mean), float(mse)))
    return rows


def _reference_interval_rows(cfg):
    """run_interval_sim as a loop over repetitions of public functions."""
    cells = [(k, alpha) for k in cfg.interval_kinds for alpha in cfg.alpha_list]
    rows = []
    for n in cfg.n_records:
        stats = np.empty((cfg.reps, len(cells), 2))
        for rep in range(cfg.reps):
            rng = np.random.default_rng(derive_rep_seed(cfg.seed, rep, n))
            delta = 1.0 / rng.gamma(shape=cfg.prior.a, scale=1.0 / cfg.prior.b)
            post = posterior_from(cfg.prior, sample_records_direct(delta, n, rng))
            for j, (kind, alpha) in enumerate(cells):
                iv = interval(kind, post, alpha)
                stats[rep, j] = (iv.lower <= delta <= iv.upper, iv.length)
        for j, (kind, alpha) in enumerate(cells):
            coverage, length = stats[:, j, 0].mean(), stats[:, j, 1].mean()
            rows.append((kind, n, alpha, float(coverage), float(length)))
    return rows


class TestBlockPath:
    """Per-block rule evaluation against the per-repetition reference loop."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("reps", [1, 7])
    @pytest.mark.parametrize("seed", [0, 17, 2024])
    def test_point_study_matches_the_reference_loop(
        self, pool_log, seed, reps, workers
    ):
        cfg = SimConfig(
            delta_true=1.5, n_records=(2, 3, 8), reps=reps, seed=seed, prior=PRIOR,
            estimators=tuple(e for e in EstimatorId if e is not EstimatorId.MLE_SAMPLE),
            workers=workers,
        )
        got = [
            (r.estimator_id, r.n, r.average_estimate, r.empirical_mse)
            for r in run_point_sim(cfg).point_rows
        ]
        assert got == _reference_point_rows(cfg)
        assert len(pool_log.started) == (workers > 1)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("reps", [1, 7])
    @pytest.mark.parametrize("seed", [0, 17, 2024])
    def test_interval_study_matches_the_reference_loop(
        self, pool_log, seed, reps, workers
    ):
        cfg = SimConfig(
            delta_true=1.0, n_records=(2, 3, 8), reps=reps, seed=seed,
            prior=PriorParams(a=3.0, b=4.0), alpha_list=(0.1, 0.5),
            interval_kinds=tuple(IntervalKind), workers=workers,
        )
        got = [
            (r.kind, r.n, r.alpha, r.empirical_coverage, r.mean_length)
            for r in run_interval_sim(cfg).interval_rows
        ]
        assert got == _reference_interval_rows(cfg)
        assert len(pool_log.started) == (workers > 1)

    def test_exact_hpd_is_solved_once_for_both_hpd_kinds(self, monkeypatch):
        calls = []

        def counted(post, alpha):
            calls.append(alpha)
            return solve(post, alpha)

        solve = intervals.hpd_exact
        monkeypatch.setattr(intervals, "hpd_exact", counted)
        cfg = SimConfig(
            delta_true=1.0, n_records=(3,), reps=5, seed=4,
            prior=PriorParams(a=3.0, b=4.0), alpha_list=(0.1, 0.5),
            # hpd_hpm first: the block still solves hpd_exact before it
            interval_kinds=(IntervalKind.HPD_HPM, IntervalKind.HPD_EXACT),
        )
        run_interval_sim(cfg)
        assert len(calls) == 5 * 2

    def test_zero_range_raises_the_range_rule_error(self, monkeypatch):
        monkeypatch.setattr(sim, "_direct_values", lambda delta, n, rng: np.ones(n))
        cfg = SimConfig(
            delta_true=1.0, n_records=(3,), reps=4, seed=0, prior=PRIOR,
            estimators=(EstimatorId.BAYES_QUADRATIC,),
        )
        with pytest.raises(DomainError) as want:
            mle_urr(0.0, 3)
        with pytest.raises(DomainError) as got:
            run_point_sim(cfg)
        assert str(got.value) == str(want.value)
        with pytest.raises(DomainError) as got:
            run_interval_sim(dataclasses.replace(cfg, alpha_list=(0.1,)))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_block_estimates_are_the_printed_formulas(self, n):
        # last/n, r/(n-1), A/(s+1), A/(s-1) and 2A/q on every repetition
        ests = tuple(e for e in EstimatorId if e is not EstimatorId.MLE_SAMPLE)
        a, b, reps = 0.7, 4.1, 30
        got = sim._point_block(n, 5, 0, reps, 1.3, ests, a, b)
        s = a + n - 1.0
        q = chi2_quantile(0.5, 2 * s)
        for rep in range(reps):
            sm = sample_records_direct(1.3, n, derive_rep_seed(5, rep, n))
            last, r = sm.values[-1], sm.range
            A = b + r
            want = [last / n, r / (n - 1), A / (s + 1), A / (s - 1), 2 * A / q]
            assert got[rep].tolist() == want

    def test_bad_prior_scale_names_the_prior(self):
        with pytest.raises(DomainError) as got:
            sim._check_block(
                3, np.array([1.0, math.inf]), np.ones(2), np.ones(2), (3.0, 4.0)
            )
        assert str(got.value) == (
            "a scale drawn from the prior (a, b) = (3.0, 4.0) is not a positive "
            "float, got inf"
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "cfg, message",
        [
            (
                dict(prior=PriorParams(a=0.001, b=1.0), alpha_list=(0.1,)),
                "a scale drawn from the prior (a, b) = (0.001, 1.0) is not a "
                "positive float, got inf",
            ),
            (
                dict(prior=PriorParams(a=3.0, b=1e-320), alpha_list=(0.1,)),
                "a scale drawn from the prior (a, b) = (3.0, 1e-320) is not a "
                "positive float, got 0.0",
            ),
            (
                dict(prior=PRIOR, delta_true=1e308),
                "record values overflow at the true scale, delta = 1e+308",
            ),
        ],
        ids=["shape_underflow", "scale_overflow", "records_overflow"],
    )
    def test_out_of_range_draws_name_their_source(self, cfg, message):
        base = dict(delta_true=1.0, n_records=(3,), reps=50, seed=0)
        cfg = SimConfig(**{**base, **cfg})
        run = run_interval_sim if cfg.alpha_list else run_point_sim
        with pytest.raises(DomainError) as got:
            run(cfg)
        assert str(got.value) == message

    def test_out_of_range_draws_are_the_same_draws(self, monkeypatch):
        # the draws behind the message are the study's own: the first
        # repetition whose prior draw of 1/delta underflows is the one named
        seen = []
        check = sim._check_block

        def recorded(n, deltas, *rest):
            seen.append(deltas.tolist())
            check(n, deltas, *rest)

        monkeypatch.setattr(sim, "_check_block", recorded)
        cfg = SimConfig(
            delta_true=1.0, n_records=(3,), reps=50, seed=0,
            prior=PriorParams(a=0.001, b=1.0), alpha_list=(0.1,),
        )
        with pytest.raises(DomainError):
            run_interval_sim(cfg)
        draws = [
            np.random.default_rng(derive_rep_seed(0, rep, 3)).gamma(0.001, 1.0)
            for rep in range(50)
        ]
        want = [1.0 / g if g > 0.0 else math.inf for g in draws]
        assert seen == [want]

def test_import_leaves_the_process_pool_unloaded():
    # only a study that starts a pool imports concurrent.futures.process
    src = Path(sim.__file__).resolve().parents[1]
    code = "import sys, recrange; print('concurrent.futures.process' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.stdout.strip() == "False"


class TestResultRows:
    @pytest.fixture(scope="class")
    def results(self):
        cfg = dict(delta_true=1.0, n_records=3, reps=5, seed=2, prior=PRIOR)
        point = run_point_sim(SimConfig(**cfg))
        interval = run_interval_sim(SimConfig(**cfg, alpha_list=(0.1,)))
        table = reproduce_table1(datasets.SAMPLE_A, PRIOR)
        return point, interval, table

    def test_rows_are_slotted(self, results):
        point, interval, table = results
        rows = (point, point.point_rows[0], interval.interval_rows[0], table[0])
        for row, cls in zip(rows, (SimResult, PointRow, IntervalRow, TableRow)):
            assert type(row) is cls
            assert not hasattr(row, "__dict__")

    def test_rows_stay_frozen_and_comparable(self, results):
        point, interval, _ = results
        row = interval.interval_rows[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.mean_length = 0.0
        assert row == dataclasses.replace(row)
        assert row != dataclasses.replace(row, alpha=0.2)
        assert pickle.loads(pickle.dumps(point)) == point


class TestReproduceTable1:
    def test_matches_printed_columns(self):
        rows = reproduce_table1(datasets.SAMPLE_A, PRIOR)
        got = {(row.estimator_id, row.n): row.value for row in rows}
        for est, wants in TABLE1.items():
            tol = 1e-8 if est is EstimatorId.MLE_RECORDS else 1e-6
            for n, want in zip(range(2, 7), wants):
                assert math.isclose(got[(est, n)], want, rel_tol=tol), (est, n)

    def test_covers_n_two_to_six(self):
        rows = reproduce_table1(datasets.SAMPLE_A, PRIOR)
        assert sorted({row.n for row in rows}) == [2, 3, 4, 5, 6]
        assert len(rows) == 20

    def test_needs_six_records(self):
        with pytest.raises(InsufficientRecordsError):
            reproduce_table1([5.0, 4.0, 3.0, 2.0], PRIOR)
