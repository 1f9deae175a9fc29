import concurrent.futures
import dataclasses
import functools
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import types
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from recrange import sim
from recrange import (
    DomainError,
    EstimatorId,
    IntervalKind,
    IntervalRow,
    PointRow,
    PosteriorParams,
    PriorParams,
    RecordSummary,
    SimConfig,
    SimResult,
    chi2_quantile,
    datasets,
    derive_rep_seed,
    estimator_rule,
    interval,
    intervals,
    mle_urr,
    posterior_from,
    run_interval_sim,
    run_point_sim,
    sample_records_direct,
)

PRIOR = PriorParams(a=3.0, b=5.0)


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

    def test_rep_is_the_top_counter_word_of_the_stream_key(self):
        # every bit of rep survives, up to the last counter value
        key = np.random.SeedSequence(5, spawn_key=(4,)).generate_state(2, np.uint64)
        for rep in (0, 9, 2**63 + 1, 2**64 - 1):
            bits = derive_rep_seed(5, rep, 4)
            assert isinstance(bits, np.random.Philox)
            state = bits.state["state"]
            assert state["counter"].tolist() == [0, 0, 0, rep]
            assert state["key"].tolist() == key.tolist()
            # the key comes from the seed sequence that the generator keeps
            assert (bits.seed_seq.entropy, bits.seed_seq.spawn_key) == (5, (4,))

    @pytest.mark.parametrize(
        "seed, rep, stream",
        [(-1, 0, 0), (0, 0, -1), (0, -1, 0), (0, 2**64, 0), (0, 2**70, 3)],
    )
    def test_rejects_inputs_outside_the_key_and_counter(self, seed, rep, stream):
        with pytest.raises(DomainError):
            derive_rep_seed(seed, rep, stream)

    def test_block_at_the_last_counters_is_derive_rep_seeds(self):
        lo, hi = 2**64 - 2, 2**64
        got = sim._sample_block(5, 11, lo, hi, 1.3)
        assert list(zip(*(a.tolist() for a in got))) == _direct_block(
            5, 11, lo, hi, 1.3
        )

    @pytest.mark.parametrize("seed", [7, 2**32 + 5, 2**128 + 1])  # 1, 2, 5 words
    def test_wide_seed_study_matches_the_reference_loop(self, seed):
        cfg = SimConfig(
            delta_true=1.5, n_records=(2, 5), reps=6, seed=seed, prior=PRIOR,
            workers=2,
        )
        got = [
            (r.estimator_id, r.n, r.average_estimate, r.empirical_mse)
            for r in run_point_sim(cfg).point_rows
        ]
        assert got == _reference_point_rows(cfg)


class TestBlockStreams:
    """A block's generator states against the ones derive_rep_seed defines."""

    @pytest.mark.parametrize(
        "seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 1]  # last: 5 words
    )
    @pytest.mark.parametrize("n", [2, 9])
    @pytest.mark.parametrize(
        "lo, hi",
        [(0, 3), (5, 9), (2**32 - 2, 2**32 + 1), (2**64 - 3, 2**64)],
    )
    def test_states_match_default_rng(self, seed, n, lo, hi, monkeypatch):
        # with a known delta a repetition's first draw is its gaps, so the
        # generator's state there is the whole of its stream
        seen, draw = [], sim._draw_gaps

        def spy(rng, out):
            state = rng.bit_generator.state
            seen.append(
                (state["state"]["key"].tolist(), state["state"]["counter"].tolist(),
                 state["buffer_pos"], state["has_uint32"])
            )
            draw(rng, out)

        monkeypatch.setattr(sim, "_draw_gaps", spy)
        got = sim._sample_block(n, seed, lo, hi, 1.3)
        want = []
        for rep in range(lo, hi):
            rng = np.random.default_rng(derive_rep_seed(seed, rep, n))
            state = rng.bit_generator.state
            want.append(
                (state["state"]["key"].tolist(), state["state"]["counter"].tolist(),
                 state["buffer_pos"], state["has_uint32"])
            )
        assert seen == want
        assert list(zip(*(a.tolist() for a in got))) == _direct_block(
            n, seed, lo, hi, 1.3
        )


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
            SimConfig(delta_true=1.0, n_records=4, reps=2**64, seed=0, prior=PRIOR)
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

    def test_repeats_are_kept_once_in_the_order_first_given(self):
        cfg = SimConfig(
            delta_true=1.0, n_records=(5, 3, np.int64(5), 3), reps=3, seed=0, prior=PRIOR,
            estimators=("bayes_squared", EstimatorId.MLE_URR, "bayes_squared"),
            alpha_list=(0.5, 0.1, 0.5),
            interval_kinds=("hpd_exact", "equal_tails", IntervalKind.HPD_EXACT),
        )
        assert cfg.n_records == (5, 3)
        assert cfg.estimators == (EstimatorId.BAYES_SQUARED, EstimatorId.MLE_URR)
        assert cfg.alpha_list == (0.5, 0.1)
        assert cfg.interval_kinds == (IntervalKind.HPD_EXACT, IntervalKind.EQUAL_TAILS)

    def test_repeats_add_no_rows(self):
        base = dict(delta_true=1.0, reps=20, seed=0, prior=PRIOR)
        once = dict(
            n_records=(3,), estimators=("mle_urr",), alpha_list=(0.1,),
            interval_kinds=("equal_tails",),
        )
        twice = {key: value * 2 for key, value in once.items()}
        studies = ((run_point_sim, "point_rows"), (run_interval_sim, "interval_rows"))
        for run, rows in studies:
            got = getattr(run(SimConfig(**base, **twice)), rows)
            assert len(got) == 1
            assert got == getattr(run(SimConfig(**base, **once)), rows)


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
        # at alpha 0.10, far above the closed form's own coverage peak
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

    def test_columns_match_the_analytic_oracle(self):
        # With delta ~ InvGamma(a, b) and r | delta ~ Gamma(n - 1, delta),
        # every kind's length is A = b + r times its length at A = 1, so the
        # mean length estimates E[A] = b + (n - 1) b / (a - 1) times that unit
        # length, with Var A = (n - 1) E[delta^2] + (n - 1)^2 Var delta, finite
        # for a > 2. An interval covers its posterior mass in expectation:
        # 1 - alpha for equal tails and the exact HPD, and for hpd_hpm, the
        # closed form at A times the unit HPD length, its level at A = 1.
        # Both columns are checked at 5 standard errors.
        a, b, reps = 3.0, 4.0, 4_000
        cfg = SimConfig(
            delta_true=1.0, n_records=(3, 6), reps=reps, seed=43,
            prior=PriorParams(a=a, b=b), alpha_list=(0.05, 0.5),
            interval_kinds=tuple(IntervalKind),
        )
        e_delta2 = b * b / ((a - 1.0) * (a - 2.0))
        var_delta = e_delta2 / (a - 1.0)
        for row in run_interval_sim(cfg).interval_rows:
            k = row.n - 1.0
            mean_a = b + k * b / (a - 1.0)
            sd_a = math.sqrt(k * e_delta2 + k * k * var_delta)
            unit = interval(row.kind, PosteriorParams(s=a + k, A=1.0), row.alpha)
            se_length = sd_a * unit.length / math.sqrt(reps)
            assert abs(row.mean_length - mean_a * unit.length) < 5.0 * se_length, row
            se_cover = math.sqrt(unit.level * (1.0 - unit.level) / reps)
            assert abs(row.empirical_coverage - unit.level) < 5.0 * se_cover, row

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
        draws = _block_rng(0, 0, 3).gamma(0.001, 1.0, size=50)
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
    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # blocks of two repetitions, so small studies still run as several
        # tasks in a pool
        monkeypatch.setattr(sim, "_BLOCK_REPS", 2)

    @pytest.fixture
    def started(self, pool_log):
        return pool_log.started

    @pytest.mark.parametrize(
        "n_records, reps, workers, pools",
        [
            ((4,), 3, 8, [2]),  # fewer blocks than workers
            ((3, 4, 5), 1, 8, [3]),  # one task per record count, one pool
            ((3, 4, 5), 10, 2, [2]),  # fifteen tasks share two workers
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

    def test_tasks_are_the_blocks_whatever_the_workers(self, pool_log, monkeypatch):
        # 500 requested workers on 8 usable CPUs: one task per block of 300
        # repetitions and record count, the last block shorter, in a pool
        # of 8
        monkeypatch.setattr(sim, "_BLOCK_REPS", 300)
        cfg = dict(
            delta_true=1.0, n_records=(3, 6), reps=1000, seed=3,
            prior=PriorParams(a=3.0, b=4.0), alpha_list=(0.1,),
        )
        blocks = [(0, 300), (300, 600), (600, 900), (900, 1000)]
        studies = ((run_point_sim, "point_rows"), (run_interval_sim, "interval_rows"))
        for run, rows in studies:
            pool_log.started.clear()
            pool_log.submitted.clear()
            capped = run(SimConfig(**cfg, workers=500))
            assert pool_log.started == [8]
            assert [task[:4] for task in pool_log.submitted] == [
                (n, 3, lo, hi) for n in (3, 6) for lo, hi in blocks
            ]
            assert getattr(capped, rows) == getattr(run(SimConfig(**cfg)), rows)


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


def _block_rng(seed, block, n):
    return np.random.default_rng(derive_rep_seed(seed, block, n))


def _reference_interval_rows(cfg):
    """run_interval_sim as a loop over repetitions of public functions.

    Block b of sim._BLOCK_REPS repetitions draws, from its stream at index b,
    first the scales of all its repetitions from the prior, then their record
    ranges, r | delta ~ Gamma(n - 1, delta).
    """
    cells = [(k, alpha) for k in cfg.interval_kinds for alpha in cfg.alpha_list]
    a, b, size = cfg.prior.a, cfg.prior.b, sim._BLOCK_REPS
    rows = []
    for n in cfg.n_records:
        stats = np.empty((cfg.reps, len(cells), 2))
        for lo in range(0, cfg.reps, size):
            k = min(size, cfg.reps - lo)
            rng = _block_rng(cfg.seed, lo // size, n)
            deltas = 1.0 / rng.gamma(a, 1.0 / b, size=k)
            ranges = deltas * rng.standard_gamma(n - 1, size=k)
            draws = zip(range(lo, lo + k), deltas.tolist(), ranges.tolist())
            for rep, delta, r in draws:
                post = PosteriorParams(s=a + n - 1, A=b + r)
                for j, (kind, alpha) in enumerate(cells):
                    iv = interval(kind, post, alpha)
                    stats[rep, j] = (iv.lower <= delta <= iv.upper, iv.length)
        for j, (kind, alpha) in enumerate(cells):
            coverage, length = stats[:, j, 0].mean(), stats[:, j, 1].mean()
            rows.append((kind, n, alpha, float(coverage), float(length)))
    return rows


def _direct_block(n, seed, lo, hi, delta):
    """(last record, range) of point repetitions lo..hi-1 by the sampler."""
    want = []
    for rep in range(lo, hi):
        values = sample_records_direct(delta, n, derive_rep_seed(seed, rep, n)).values
        want.append((values[-1], values[-1] - values[0]))
    return want


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

    @pytest.mark.parametrize("block_reps", [3, sim._BLOCK_REPS])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("reps", [1, 7])
    @pytest.mark.parametrize("seed", [0, 17, 2024])
    def test_interval_study_matches_the_reference_loop(
        self, pool_log, monkeypatch, seed, reps, workers, block_reps
    ):
        # blocks of 3 split 7 repetitions into three, the last one short
        monkeypatch.setattr(sim, "_BLOCK_REPS", block_reps)
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

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_interval_rows_do_not_depend_on_the_workers(self, pool_log, workers):
        # three blocks per record count, the last of 5 repetitions; every
        # task stays inside one block
        size = sim._BLOCK_REPS
        cfg = dict(
            delta_true=1.0, n_records=(3, 6), reps=2 * size + 5, seed=5,
            prior=PriorParams(a=3.0, b=4.0), alpha_list=(0.1, 0.5),
        )
        got = run_interval_sim(SimConfig(**cfg, workers=workers)).interval_rows
        assert pool_log.started == ([] if workers == 1 else [workers])
        for _, _, lo, hi, *_ in pool_log.submitted:
            assert lo // size == (hi - 1) // size
        assert len(pool_log.submitted) == (0 if workers == 1 else 6)
        assert got == run_interval_sim(SimConfig(**cfg)).interval_rows

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
        def first_gap_only(rng, out):
            out.fill(0.0)
            out[0] = 1.0

        monkeypatch.setattr(sim, "_draw_gaps", first_gap_only)
        cfg = SimConfig(
            delta_true=1.0, n_records=(3,), reps=4, seed=0, prior=PRIOR,
            estimators=(EstimatorId.BAYES_QUADRATIC,),
        )
        with pytest.raises(DomainError) as want:
            mle_urr(0.0, 3)
        with pytest.raises(DomainError) as got:
            run_point_sim(cfg)
        assert str(got.value) == str(want.value)
        # an interval block draws no last records: a range that underflows
        # to 0 at a valid scale meets the same rule
        with pytest.raises(DomainError) as got:
            sim._check_block(3, np.ones(2), None, np.array([1.0, 0.0]), (3.0, 4.0))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("n", [2, 8, 9, 17, 129])
    def test_block_draws_are_the_direct_samplers(self, n):
        # one below, at and above a multiple of the buffer's rows, from lo > 0
        # too; the values are running sums (numpy's pairwise sum differs from
        # n = 8 up), so the last record and range match the sampler's exactly
        rows = min(sim._BUFFER_ROWS, sim._BUFFER_VALUES // n)
        for lo, hi in [(0, rows - 1), (3, 3 + rows), (rows + 7, 3 * rows + 8)]:
            got = sim._sample_block(n, 11, lo, hi, 1.3)
            want = _direct_block(n, 11, lo, hi, 1.3)
            assert list(zip(*(a.tolist() for a in got))) == want

    def test_block_memory_does_not_grow_with_its_repetitions(self, monkeypatch):
        # the traced peak of a block of many buffers stays below twice its
        # two output arrays: the gaps are not held for the whole block at
        # once (small buffers keep the traced run short; at the default ones
        # a 200k-repetition block holds the bound)
        sim._sample_block(8, 1, 0, 3, 1.3)  # numpy's one-time allocations
        monkeypatch.setattr(sim, "_BUFFER_ROWS", 64)
        tracemalloc.start()
        try:
            got = sim._sample_block(8, 1, 0, 5000, 1.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * sum(a.nbytes for a in got)

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
            assert got[:, rep].tolist() == want

    def test_bad_prior_scale_names_the_prior(self):
        with pytest.raises(DomainError) as got:
            sim._check_block(3, np.array([1.0, math.inf]), None, np.ones(2), (3.0, 4.0))
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
        # the draws behind the message are the study's own, its one block's:
        # the first repetition whose prior draw of 1/delta underflows is the
        # one named
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
        draws = _block_rng(0, 0, 3).gamma(0.001, 1.0, size=50).tolist()
        want = [1.0 / g if g > 0.0 else math.inf for g in draws]
        assert seen == [want]


class TestAggregation:
    """Rows against per-column .mean() over the concatenated block outputs.

    A study sums each cell's repetitions as one contiguous row. numpy sums a
    row pairwise in the order it sums the same values as a strided column,
    so the rows keep the bits of the column means; a sum over axis 0 of the
    (repetitions, cells) array differs in the last bits.
    """

    BLOCK, REPS = 128, 300  # three blocks per record count, the last short

    @pytest.fixture(autouse=True)
    def three_blocks(self, monkeypatch):
        monkeypatch.setattr(sim, "_BLOCK_REPS", self.BLOCK)

    def _blocks(self, block, cfg, n, *args):
        # the study's block outputs, repetitions moved to the first axis
        outputs = [
            block(n, cfg.seed, lo, min(lo + self.BLOCK, cfg.reps), *args)
            for lo in range(0, cfg.reps, self.BLOCK)
        ]
        return np.concatenate([np.moveaxis(out, -1, 0) for out in outputs])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_point_rows_are_the_column_means(self, pool_log, workers):
        cfg = SimConfig(
            delta_true=1.5, n_records=(3, 8), reps=self.REPS, seed=13, prior=PRIOR,
            estimators=tuple(e for e in EstimatorId if e is not EstimatorId.MLE_SAMPLE),
            workers=workers,
        )
        got = [
            (r.estimator_id, r.n, r.average_estimate, r.empirical_mse)
            for r in run_point_sim(cfg).point_rows
        ]
        want = []
        for n in cfg.n_records:
            estimates = self._blocks(
                sim._point_block, cfg, n, cfg.delta_true, cfg.estimators,
                cfg.prior.a, cfg.prior.b,
            )
            errors = estimates - cfg.delta_true
            for j, est in enumerate(cfg.estimators):
                mean, mse = estimates[:, j].mean(), (errors[:, j] ** 2).mean()
                want.append((est, n, float(mean), float(mse)))
        assert got == want
        assert len(pool_log.submitted) == (6 if workers > 1 else 0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_interval_rows_are_the_column_means(self, pool_log, workers):
        cfg = SimConfig(
            delta_true=1.0, n_records=(3, 6), reps=self.REPS, seed=13,
            prior=PriorParams(a=3.0, b=4.0), alpha_list=(0.1, 0.5),
            interval_kinds=(IntervalKind.EQUAL_TAILS, IntervalKind.HPD_EXACT),
            workers=workers,
        )
        cells = [(k, alpha) for k in cfg.interval_kinds for alpha in cfg.alpha_list]
        got = [
            (r.kind, r.n, r.alpha, r.empirical_coverage, r.mean_length)
            for r in run_interval_sim(cfg).interval_rows
        ]
        want = []
        for n in cfg.n_records:
            stats = self._blocks(
                sim._interval_block, cfg, n, tuple(cells), cfg.prior.a, cfg.prior.b
            )
            for j, (kind, alpha) in enumerate(cells):
                coverage, length = stats[:, j, 0].mean(), stats[:, j, 1].mean()
                want.append((kind, n, alpha, float(coverage), float(length)))
        assert got == want
        assert len(pool_log.submitted) == (6 if workers > 1 else 0)


def test_import_leaves_the_process_pool_unloaded(tmp_path):
    # only a study that starts a pool imports concurrent.futures.process, and
    # the runtime needs numpy only: scipy is a test oracle, never loaded by
    # the import or by an interval run of every kind
    src = Path(sim.__file__).resolve().parents[1]
    data = tmp_path / "sample_b.txt"
    data.write_text("\n".join(repr(v) for v in datasets.SAMPLE_B) + "\n")
    argv = ["interval", str(data), "--a", "3", "--b", "4", "--kind", "all",
            "--out", str(tmp_path / "interval.csv")]
    code = (
        "import sys, recrange\n"
        "print('concurrent.futures.process' in sys.modules)\n"
        "from recrange.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    lines = done.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", "[]")


class TestResultRows:
    @pytest.fixture(scope="class")
    def results(self):
        cfg = dict(delta_true=1.0, n_records=3, reps=5, seed=2, prior=PRIOR)
        point = run_point_sim(SimConfig(**cfg))
        interval = run_interval_sim(SimConfig(**cfg, alpha_list=(0.1,)))
        return point, interval

    def test_rows_are_slotted(self, results):
        point, interval = results
        rows = (
            point, point.point_rows[0], interval.interval_rows[0],
            point.config, point.config.prior, PosteriorParams(s=4.0, A=2.0),
            sample_records_direct(1.0, 3, 0),
        )
        classes = (
            SimResult, PointRow, IntervalRow,
            SimConfig, PriorParams, PosteriorParams, RecordSummary,
        )
        for row, cls in zip(rows, classes, strict=True):
            assert type(row) is cls
            assert not hasattr(row, "__dict__")

    def test_rows_stay_frozen_and_comparable(self, results):
        point, interval = results
        row = interval.interval_rows[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.mean_length = 0.0
        assert row == dataclasses.replace(row)
        assert row != dataclasses.replace(row, alpha=0.2)
        assert pickle.loads(pickle.dumps(point)) == point
        changes = (
            (point.config, "reps", 6),
            (point.config.prior, "b", 6.0),
            (PosteriorParams(s=4.0, A=2.0), "A", 3.0),
            (sample_records_direct(1.0, 3, 0), "times_synthetic", False),
        )
        for obj, field, value in changes:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, field, value)
            assert obj == dataclasses.replace(obj)
            assert obj != dataclasses.replace(obj, **{field: value})
            assert pickle.loads(pickle.dumps(obj)) == obj
