"""The benchmark's workloads: seeded inputs, the unit call, and output checks.

Each workload is a closed loop with one caller. Inputs are generated from
the workload seed before the timed window; the unit call hands only those
inputs to recrange. Checks run after the window and never freeze a
random-stream digest: Monte Carlo outputs are judged against analytic
values with their standard errors, interval endpoints against the
``scipy.stats.invgamma`` oracle.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RECORD_ESTIMATORS = (
    "mle_records",
    "mle_urr",
    "bayes_quadratic",
    "bayes_squared",
    "bayes_absolute",
)
# Interval audit: posteriors per workload, levels per posterior. The HPD
# problem is scale-free, so its residual depends only on (s, alpha); drawing
# alpha afresh for every interval makes each one a distinct solve, and the
# largest residual then reliably approaches the solver's stopping tolerance.
AUDIT_POSTERIORS = 100
AUDIT_LEVELS = 3

# Monte Carlo gates: |estimate - analytic| within this many standard errors
Z_MAX = 5.0
# oracle agreement for endpoints, coverage and equal density
ORACLE_TOL = 1e-9


@dataclass
class Gate:
    name: str
    passed: bool
    detail: str


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed])


class Workload:
    """Base: subclasses fill in inputs, call, items and check."""

    name = ""

    def __init__(self, lib, seed: int, smoke: bool, workdir: Path):
        self.lib = lib
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir

    def after(self, inp, out):
        """Post-process an output outside the latency span (default: none)."""
        return out

    def is_expected(self, exc: BaseException) -> bool:
        """Whether an exception is the correct output for its input."""
        return False

    def efficiency_study(self):
        """SimConfig whose workers=1/workers=2 rates give sim.parallel_efficiency."""
        return None

    def bytes_written(self, records) -> int:
        """Artifact bytes the program wrote for these records (default: none)."""
        return 0

    def properties(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# shared checks


def _point_rows_gates(per_call_rows, reps, delta, a, b, label):
    """Pooled MC average and empirical MSE against analytic moments.

    per_call_rows: one list of row dicts per successful study call, each
    row with estimator, n, average_estimate, empirical_mse.
    """
    import oracle

    cells: dict = {}
    for rows in per_call_rows:
        for row in rows:
            key = (row["estimator"], row["n"])
            cells.setdefault(key, []).append(
                (row["average_estimate"], row["empirical_mse"])
            )
    worst_mean = worst_mse = 0.0
    for (est, n), vals in cells.items():
        mom = oracle.moments(est, delta, n, a, b)
        total = reps * len(vals)
        avg = sum(v[0] for v in vals) / len(vals)
        mse = sum(v[1] for v in vals) / len(vals)
        worst_mean = max(worst_mean, abs(avg - mom["mean"]) / math.sqrt(mom["variance"] / total))
        worst_mse = max(
            worst_mse, abs(mse - mom["mse"]) / math.sqrt(mom["sq_error_variance"] / total)
        )
    ok = bool(cells) and worst_mean <= Z_MAX and worst_mse <= Z_MAX
    return [
        Gate(
            f"{label}: MC averages and MSE within {Z_MAX:g} analytic SE",
            ok,
            f"{len(cells)} cells; worst |z| mean {worst_mean:.2f}, mse {worst_mse:.2f}",
        )
    ]


def _point_row_problem(row, delta, a, b) -> str | None:
    import oracle

    if not (math.isfinite(row["average_estimate"]) and row["average_estimate"] > 0.0):
        return f"bad average for {row['estimator']} n={row['n']}"
    if not (math.isfinite(row["empirical_mse"]) and row["empirical_mse"] >= 0.0):
        return f"bad empirical MSE for {row['estimator']} n={row['n']}"
    mom = oracle.moments(row["estimator"], delta, row["n"], a, b)
    if oracle.rel_err(row["analytic_mean"], mom["mean"]) > ORACLE_TOL:
        return f"analytic mean off for {row['estimator']} n={row['n']}"
    if oracle.rel_err(row["analytic_mse"], mom["mse"]) > ORACLE_TOL:
        return f"analytic MSE off for {row['estimator']} n={row['n']}"
    return None


def _interval_rows_gates(per_call_rows, reps, label):
    """Pooled MC coverage within Z_MAX binomial standard errors of 1 - alpha."""
    cells: dict = {}
    for rows in per_call_rows:
        for row in rows:
            key = (row["kind"], row["n"], row["alpha"])
            cells.setdefault(key, []).append(row["empirical_coverage"])
    worst = 0.0
    for (_, _, alpha), covs in cells.items():
        total = reps * len(covs)
        cov = sum(covs) / len(covs)
        worst = max(worst, abs(cov - (1.0 - alpha)) / math.sqrt(alpha * (1 - alpha) / total))
    ok = bool(cells) and worst <= Z_MAX
    return [
        Gate(
            f"{label}: MC coverage within {Z_MAX:g} binomial SE of 1 - alpha",
            ok,
            f"{len(cells)} cells; worst |z| {worst:.2f}",
        )
    ]


def _interval_rows_problem(rows) -> str | None:
    lengths = {}
    for row in rows:
        if not 0.0 <= row["empirical_coverage"] <= 1.0:
            return f"coverage out of [0, 1] in {row['kind']} n={row['n']}"
        if not (math.isfinite(row["mean_length"]) and row["mean_length"] > 0.0):
            return f"bad mean length in {row['kind']} n={row['n']}"
        lengths[(row["kind"], row["n"], row["alpha"])] = row["mean_length"]
    for (kind, n, alpha), length in lengths.items():
        other = lengths.get(("equal_tails", n, alpha))
        if kind == "hpd_exact" and other is not None and length > other * (1 + 1e-12):
            return f"HPD longer than equal tails at n={n} alpha={alpha}"
    return None


def _audit_posteriors(rng, count, ns, a, b, delta=None):
    """(s, A, alphas) for the interval audit; delta=None draws it from the prior."""
    out = []
    for i in range(count):
        n = ns[i % len(ns)]
        d = delta if delta is not None else 1.0 / rng.gamma(a, 1.0 / b)
        alphas = tuple(float(x) for x in rng.uniform(0.02, 0.6, AUDIT_LEVELS))
        out.append((a + n - 1.0, b + float(rng.gamma(n - 1, d)), alphas))
    return out


def audit_intervals(lib, posteriors):
    """Equal-tails and exact-HPD intervals on given posteriors vs the oracle.

    Returns (gates, coverage residuals).
    """
    import oracle

    s, A, al, et_lo, et_hi, hp_lo, hp_hi = ([] for _ in range(7))
    for ps, pa, alphas in posteriors:
        post = lib.PosteriorParams(s=ps, A=pa)
        for alpha in alphas:
            et = lib.equal_tails(post, alpha)
            hpd = lib.hpd_exact(post, alpha)
            s.append(ps)
            A.append(pa)
            al.append(alpha)
            et_lo.append(et.lower)
            et_hi.append(et.upper)
            hp_lo.append(hpd.lower)
            hp_hi.append(hpd.upper)
    s, A, al = np.array(s), np.array(A), np.array(al)
    et_res = np.abs(oracle.coverage(np.array(et_lo), np.array(et_hi), s, A) - (1 - al))
    hp_res = np.abs(oracle.coverage(np.array(hp_lo), np.array(hp_hi), s, A) - (1 - al))
    et_end = np.maximum(
        oracle.rel_err(et_lo, oracle.ppf(al / 2, s, A)),
        oracle.rel_err(et_hi, oracle.ppf(1 - al / 2, s, A)),
    )
    dens = np.abs(oracle.logpdf(np.array(hp_lo), s, A) - oracle.logpdf(np.array(hp_hi), s, A))
    worst = max(et_end.max(), hp_res.max(), dens.max())
    gate = Gate(
        f"interval audit: endpoints, coverage, equal density within {ORACLE_TOL:g}",
        bool(worst <= ORACLE_TOL),
        f"{len(s)} interval pairs; worst {worst:.3g}",
    )
    return [gate], list(np.concatenate([et_res, hp_res]))


def _rows_of(result) -> list[dict]:
    rows = []
    for r in result.point_rows:
        rows.append(
            {
                "estimator": r.estimator_id.value,
                "n": r.n,
                "average_estimate": r.average_estimate,
                "empirical_mse": r.empirical_mse,
                "analytic_mean": r.analytic_mean,
                "analytic_mse": r.analytic_mse,
            }
        )
    for r in result.interval_rows:
        rows.append(
            {
                "kind": r.kind.value,
                "n": r.n,
                "alpha": r.alpha,
                "empirical_coverage": r.empirical_coverage,
                "mean_length": r.mean_length,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Monte Carlo studies through the library


class McPoint(Workload):
    """run_point_sim, workers=1, five record estimators, consecutive seeds."""

    name = "mc_point"
    ns = (3, 5, 8)
    delta = 2.0
    prior = (3.0, 5.0)

    def __init__(self, lib, seed, smoke, workdir):
        super().__init__(lib, seed, smoke, workdir)
        self.reps = 20 if smoke else 200
        base = seed * 1_000_000
        self.study_seeds = list(range(base, base + 100_000))
        self.audit = _audit_posteriors(
            _rng(seed, 1), 4 if smoke else AUDIT_POSTERIORS, self.ns, *self.prior, delta=self.delta
        )

    def inputs(self):
        return self.study_seeds

    def config(self, study_seed, workers=1):
        lib = self.lib
        return lib.SimConfig(
            delta_true=self.delta,
            n_records=self.ns,
            reps=self.reps,
            seed=study_seed,
            prior=lib.PriorParams(*self.prior),
            estimators=RECORD_ESTIMATORS,
            workers=workers,
        )

    def call(self, study_seed):
        return self.lib.run_point_sim(self.config(study_seed))

    def items(self, study_seed) -> int:
        return self.reps * len(self.ns)

    def efficiency_study(self):
        return self.config(self.study_seeds[0])

    def properties(self):
        return {
            "reps_per_call": self.reps,
            "record_counts": list(self.ns),
            "estimators": list(RECORD_ESTIMATORS),
            "delta_true": self.delta,
            "prior": list(self.prior),
            "study_seeds": "consecutive, from seed * 1e6",
        }

    def check(self, records):
        bad = {}
        good_rows = []
        for i, (_, result) in enumerate(records):
            rows = _rows_of(result)
            problem = None
            if len(rows) != len(self.ns) * len(RECORD_ESTIMATORS):
                problem = f"expected {len(self.ns) * len(RECORD_ESTIMATORS)} rows, got {len(rows)}"
            for row in rows:
                problem = problem or _point_row_problem(row, self.delta, *self.prior)
            if problem:
                bad[i] = problem
            else:
                good_rows.append(rows)
        gates = _point_rows_gates(
            good_rows, self.reps, self.delta, *self.prior, label="run_point_sim"
        )
        audit_gates, residuals = audit_intervals(self.lib, self.audit)
        return bad, gates + audit_gates, residuals


class McInterval(Workload):
    """run_interval_sim, workers=1, equal tails and exact HPD at three alphas."""

    name = "mc_interval"
    ns = (3, 6)
    prior = (3.0, 4.0)
    alphas = (0.05, 0.10, 0.50)
    kinds = ("equal_tails", "hpd_exact")

    def __init__(self, lib, seed, smoke, workdir):
        super().__init__(lib, seed, smoke, workdir)
        self.reps = 2 if smoke else 20
        base = seed * 1_000_000
        self.study_seeds = list(range(base, base + 100_000))
        self.audit = _audit_posteriors(
            _rng(seed, 1), 4 if smoke else AUDIT_POSTERIORS, self.ns, *self.prior
        )

    def inputs(self):
        return self.study_seeds

    def config(self, study_seed, workers=1):
        lib = self.lib
        return lib.SimConfig(
            delta_true=1.0,
            n_records=self.ns,
            reps=self.reps,
            seed=study_seed,
            prior=lib.PriorParams(*self.prior),
            alpha_list=self.alphas,
            interval_kinds=self.kinds,
            workers=workers,
        )

    def call(self, study_seed):
        return self.lib.run_interval_sim(self.config(study_seed))

    def items(self, study_seed) -> int:
        return self.reps * len(self.ns)

    def efficiency_study(self):
        return self.config(self.study_seeds[0])

    def properties(self):
        return {
            "reps_per_call": self.reps,
            "record_counts": list(self.ns),
            "alphas": list(self.alphas),
            "kinds": list(self.kinds),
            "prior": list(self.prior),
            "study_seeds": "consecutive, from seed * 1e6",
        }

    def check(self, records):
        bad = {}
        good_rows = []
        expected_rows = len(self.ns) * len(self.alphas) * len(self.kinds)
        for i, (_, result) in enumerate(records):
            rows = _rows_of(result)
            problem = None
            if len(rows) != expected_rows:
                problem = f"expected {expected_rows} rows, got {len(rows)}"
            problem = problem or _interval_rows_problem(rows)
            if problem:
                bad[i] = problem
            else:
                good_rows.append(rows)
        gates = _interval_rows_gates(good_rows, self.reps, label="run_interval_sim")
        audit_gates, residuals = audit_intervals(self.lib, self.audit)
        return bad, gates + audit_gates, residuals


# ---------------------------------------------------------------------------
# independent inference requests


@dataclass(frozen=True)
class Request:
    index: int
    series: np.ndarray
    prior: tuple[float, float]
    alpha: float
    delta_ref: float


class QueryMix(Workload):
    """One inference request per seeded synthetic series, replayed in order.

    Series lengths are stratified log-uniform, so every seed gets the same
    spread of short and long series and the pool's total size barely moves.
    """

    name = "query_mix"
    priors = ((3.0, 5.0), (8.0, 2.0), (1.5, 1.0), (0.5, 0.5))
    alphas = (0.05, 0.10)
    single_record_share = 0.02

    def __init__(self, lib, seed, smoke, workdir):
        super().__init__(lib, seed, smoke, workdir)
        self.pool_size = 24 if smoke else 256
        self.min_len, self.max_len = 50, (20_000 if smoke else 200_000)
        rng = _rng(seed, 0)
        log_lo, log_hi = math.log(self.min_len), math.log(self.max_len)
        strata = (np.arange(self.pool_size) + rng.random(self.pool_size)) / self.pool_size
        lengths = np.rint(np.exp(log_lo + strata * (log_hi - log_lo))).astype(int)
        rng.shuffle(lengths)
        singles = max(1, round(self.single_record_share * self.pool_size))
        single_idx = set(rng.choice(self.pool_size, size=singles, replace=False).tolist())
        self.pool = []
        for i, length in enumerate(lengths):
            delta = float(np.exp(rng.uniform(math.log(0.5), math.log(5.0))))
            series = rng.exponential(delta, int(length))
            if i in single_idx:
                series[0] = series.max() + delta  # the first value is the only record
            self.pool.append(
                Request(
                    index=i,
                    series=series,
                    prior=self.priors[int(rng.integers(len(self.priors)))],
                    alpha=self.alphas[int(rng.integers(len(self.alphas)))],
                    delta_ref=delta,
                )
            )

    def inputs(self):
        return self.pool

    def items(self, req) -> int:
        return 1

    def is_expected(self, exc) -> bool:
        return isinstance(exc, self.lib.InsufficientRecordsError)

    def call(self, req: Request):
        lib = self.lib
        a, b = req.prior
        prior = lib.PriorParams(a=a, b=b)
        summary = lib.extract_upper_records(req.series)
        post = lib.posterior_from(prior, summary)
        n = summary.n
        estimates = tuple(lib.point_estimate(e, summary, prior) for e in RECORD_ESTIMATORS)
        et = lib.equal_tails(post, req.alpha)
        hpd = lib.hpd_exact(post, req.alpha)
        hpm = lib.hpd_hpm_closed_form(post, hpd.length)
        moments = tuple(
            tuple(lib.analytic_moments(e, req.delta_ref, n, prior)) for e in RECORD_ESTIMATORS
        )
        rule = lib.LinearEstimator(m=1.0 / (a + n), d=b / (a + n))
        risk = lib.risk_linear(rule, req.delta_ref, n)
        admissible = lib.classify_admissible(rule, n)
        return (summary, post.s, post.A, estimates, et, hpd, hpm, moments, risk, str(admissible))

    def properties(self):
        import oracle

        lengths = np.array([len(r.series) for r in self.pool])
        n_hist: dict = {}
        for r in self.pool:
            n = len(oracle.upper_records(r.series)[0])
            n_hist[n] = n_hist.get(n, 0) + 1
        return {
            "requests_in_pool": self.pool_size,
            "replay": "the pool is served in order and replayed until the window ends",
            "series_length": {
                "distribution": f"stratified log-uniform on [{self.min_len}, {self.max_len}]",
                "min": int(lengths.min()),
                "median": float(np.median(lengths)),
                "mean": float(lengths.mean()),
                "max": int(lengths.max()),
                "total_values": int(lengths.sum()),
            },
            "record_count_histogram": {str(k): n_hist[k] for k in sorted(n_hist)},
            "single_record_series": sum(1 for r in self.pool if r.series[0] == r.series.max()),
            "priors": [list(p) for p in self.priors],
            "alphas": list(self.alphas),
            "delta": "log-uniform on [0.5, 5]",
        }

    def check(self, records):
        import oracle

        bad = {}
        oracle_records = {}

        def records_of(req):
            if req.index not in oracle_records:
                oracle_records[req.index] = oracle.upper_records(req.series)
            return oracle_records[req.index]

        rows = []  # (record index, request, output) for served posteriors
        for i, (req, out) in enumerate(records):
            values, times = records_of(req)
            if isinstance(out, BaseException):
                if len(values) != 1:
                    bad[i] = f"raised {type(out).__name__} on a series with {len(values)} records"
                continue
            summary = out[0]
            if not (
                np.array_equal(np.array(summary.values), values)
                and np.array_equal(np.array(summary.times), times)
            ):
                bad[i] = "upper records differ from the oracle"
                continue
            rows.append((i, req, out))
        if not rows:
            return bad, [Gate("query_mix: requests served", False, "no posterior served")], []

        idx = np.array([i for i, _, _ in rows])
        n = np.array([out[0].n for _, _, out in rows], dtype=float)
        first = np.array([out[0].values[0] for _, _, out in rows])
        last = np.array([out[0].values[-1] for _, _, out in rows])
        a = np.array([req.prior[0] for _, req, _ in rows])
        b = np.array([req.prior[1] for _, req, _ in rows])
        alpha = np.array([req.alpha for _, req, _ in rows])
        dref = np.array([req.delta_ref for _, req, _ in rows])
        s = np.array([out[1] for _, _, out in rows])
        A = np.array([out[2] for _, _, out in rows])

        def col(k, attr):
            return np.array([getattr(out[k], attr) for _, _, out in rows])

        problems = []  # (mask of bad rows, reason)
        s_true, A_true = a + n - 1.0, b + (last - first)
        problems.append((oracle.rel_err(s, s_true) > 1e-12, "posterior shape"))
        problems.append((oracle.rel_err(A, A_true) > 1e-12, "posterior scale"))

        est = np.array([out[3] for _, _, out in rows])
        want = {
            "mle_records": last / n,
            "mle_urr": (last - first) / (n - 1),
        }
        for name in ("bayes_quadratic", "bayes_squared", "bayes_absolute"):
            want[name] = oracle.bayes_weight(name, s_true) * A_true
        for j, name in enumerate(RECORD_ESTIMATORS):
            problems.append((oracle.rel_err(est[:, j], want[name]) > ORACLE_TOL, name))

        target = 1.0 - alpha
        et_lo, et_hi = col(4, "lower"), col(4, "upper")
        problems.append(
            (
                np.maximum(
                    oracle.rel_err(et_lo, oracle.ppf(alpha / 2, s_true, A_true)),
                    oracle.rel_err(et_hi, oracle.ppf(1 - alpha / 2, s_true, A_true)),
                )
                > ORACLE_TOL,
                "equal-tails endpoints",
            )
        )
        et_res = np.abs(oracle.coverage(et_lo, et_hi, s_true, A_true) - target)
        hp_lo, hp_hi = col(5, "lower"), col(5, "upper")
        hp_res = np.abs(oracle.coverage(hp_lo, hp_hi, s_true, A_true) - target)
        problems.append((hp_res > ORACLE_TOL, "HPD coverage"))
        dens = np.abs(oracle.logpdf(hp_lo, s_true, A_true) - oracle.logpdf(hp_hi, s_true, A_true))
        problems.append((dens > ORACLE_TOL, "HPD equal density"))
        problems.append(((hp_hi - hp_lo) > (et_hi - et_lo) * (1 + 1e-12), "HPD longer than ET"))
        for k in (4, 5):
            problems.append((np.abs(col(k, "level") - target) > 1e-12, "interval level"))

        g = hp_hi - hp_lo
        hm_lo, hm_hi, hm_level = col(6, "lower"), col(6, "upper"), col(6, "level")
        hm_want = oracle.hpm_lower(s_true, A_true, g)
        hm_cover = oracle.coverage(hm_lo, hm_hi, s_true, A_true)
        problems.append((oracle.rel_err(hm_lo, hm_want) > ORACLE_TOL, "closed-form lower"))
        problems.append((oracle.rel_err(hm_hi - hm_lo, g) > ORACLE_TOL, "closed-form length"))
        problems.append((np.abs(hm_level - hm_cover) > ORACLE_TOL, "closed-form level"))

        mom = np.array([out[7] for _, _, out in rows])  # rows x estimators x (mean, var, mse)
        bq_mse = None
        for j, name in enumerate(RECORD_ESTIMATORS):
            ref = np.array(
                [
                    [m["mean"], m["variance"], m["mse"]]
                    for m in (
                        oracle.moments(name, d, int(k), aa, bb)
                        for d, k, aa, bb in zip(dref, n, a, b)
                    )
                ]
            )
            if name == "bayes_quadratic":
                bq_mse = ref[:, 2]
            problems.append(
                (oracle.rel_err(mom[:, j, :], ref).max(axis=1) > ORACLE_TOL, f"{name} moments")
            )
        risk = np.array([out[8] for _, _, out in rows])
        problems.append((oracle.rel_err(risk, bq_mse / dref**2) > ORACLE_TOL, "Bayes-rule risk"))
        admissible = np.array([out[9] for _, _, out in rows])
        problems.append((admissible != "admissible_interior", "admissibility class"))

        for mask, reason in problems:
            for i in idx[mask]:
                bad.setdefault(int(i), reason)
        gate = Gate(
            f"query_mix: every output matches the oracle to {ORACLE_TOL:g}",
            not bad,
            f"{len(records)} requests, {len(bad)} mismatched",
        )
        return bad, [gate], list(np.concatenate([et_res, hp_res]))


# ---------------------------------------------------------------------------
# the command line


class CliSimulate(Workload):
    """In-process ``recrange simulate`` in point and interval mode, alternating.

    The timed calls use one worker. The two-worker process-pool path is
    checked after the window (byte-identical artifacts) and timed in the
    traced run (sim.parallel_efficiency): with two workers on a two-core
    host, any other process on the machine stalls a worker, and the call
    latency stops measuring the program.
    """

    name = "cli_simulate"
    ns = (3, 6)
    point_prior = (3.0, 5.0)
    delta = 2.0
    interval_prior = (3.0, 4.0)
    alphas = (0.05, 0.5)

    def __init__(self, lib, seed, smoke, workdir):
        super().__init__(lib, seed, smoke, workdir)
        self.reps = 50 if smoke else 1500
        self.out = workdir / "cli"
        self.sink = io.StringIO()
        base = seed * 1_000_000
        self.argvs = [self.argv(i % 2 == 0, base + i, 1) for i in range(20_000)]
        self.audit = _audit_posteriors(
            _rng(seed, 1),
            4 if smoke else AUDIT_POSTERIORS,
            self.ns,
            *self.point_prior,
            delta=self.delta,
        )

    def argv(self, point: bool, study_seed: int, workers: int, out=None):
        common = ["--n", ",".join(map(str, self.ns)), "--reps", str(self.reps),
                  "--seed", str(study_seed), "--workers", str(workers),
                  "--out", str(out or self.out)]
        if point:
            a, b = self.point_prior
            return ["simulate", "--mode", "point", "--a", str(a), "--b", str(b),
                    "--delta", str(self.delta),
                    "--estimators", ",".join(RECORD_ESTIMATORS)] + common
        a, b = self.interval_prior
        return ["simulate", "--mode", "interval", "--a", str(a), "--b", str(b),
                "--alpha", ",".join(map(str, self.alphas)), "--kind", "equal_tails"] + common

    def inputs(self):
        return self.argvs

    def items(self, argv) -> int:
        return self.reps * len(self.ns)

    def call(self, argv):
        self.sink.seek(0)
        self.sink.truncate()
        with redirect_stdout(self.sink):
            return self.lib.cli.main(argv)

    def _read(self, out) -> tuple[bytes, bytes]:
        return (Path(f"{out}.csv").read_bytes(), Path(f"{out}.json").read_bytes())

    def after(self, argv, code):
        if code != 0:
            return (code, b"", b"")
        return (code, *self._read(self.out))

    def bytes_written(self, records) -> int:
        return sum(len(csv_bytes) + len(json_bytes) for _, (_, csv_bytes, json_bytes) in records)

    def efficiency_study(self):
        lib = self.lib
        return lib.SimConfig(
            delta_true=self.delta,
            n_records=self.ns,
            reps=self.reps,
            seed=self.seed,
            prior=lib.PriorParams(*self.point_prior),
            estimators=RECORD_ESTIMATORS,
        )

    def properties(self):
        return {
            "reps_per_call": self.reps,
            "record_counts": list(self.ns),
            "workers": "1 in the timed calls; 2 in the byte-identity gate",
            "modes": "point (five estimators) and interval (equal_tails, alpha 0.05,0.5) "
            "alternate",
        }

    def check(self, records):
        bad = {}
        point_rows, interval_rows = [], []
        for i, (argv, (code, csv_bytes, json_bytes)) in enumerate(records):
            if code != 0:
                bad[i] = f"exit code {code}"
                continue
            doc = json.loads(json_bytes)
            rows = doc["rows"]
            seed = int(argv[argv.index("--seed") + 1])
            point = "point" in argv
            want_rows = len(self.ns) * (len(RECORD_ESTIMATORS) if point else len(self.alphas))
            if doc["manifest"]["seed"] != seed or len(rows) != want_rows:
                bad[i] = "manifest seed or row count wrong"
                continue
            if not csv_bytes.startswith(b"# manifest: "):
                bad[i] = "CSV artifact lacks its manifest"
                continue
            if point:
                problem = None
                for row in rows:
                    problem = problem or _point_row_problem(row, self.delta, *self.point_prior)
                if problem:
                    bad[i] = problem
                    continue
                point_rows.append(rows)
            else:
                problem = _interval_rows_problem(rows)
                if problem:
                    bad[i] = problem
                    continue
                interval_rows.append(rows)
        gates = _point_rows_gates(point_rows, self.reps, self.delta, *self.point_prior,
                                  label="simulate point")
        gates += _interval_rows_gates(interval_rows, self.reps, label="simulate interval")
        gates.append(self._byte_identity(records))
        audit_gates, residuals = audit_intervals(self.lib, self.audit)
        return bad, gates + audit_gates, residuals

    def _byte_identity(self, records) -> Gate:
        """A --workers 2 run with the same seed writes the same bytes."""
        picked = [r for r in records if r[1][0] == 0][:4]
        par_out = self.workdir / "cli_par"
        mismatched = 0
        for argv, (_, csv_bytes, json_bytes) in picked:
            seed = int(argv[argv.index("--seed") + 1])
            par_argv = self.argv("point" in argv, seed, 2, out=par_out)
            if self.call(par_argv) != 0 or self._read(par_out) != (csv_bytes, json_bytes):
                mismatched += 1
        return Gate(
            "simulate: --workers 2 artifacts byte-identical to --workers 1",
            bool(picked) and mismatched == 0,
            f"{len(picked)} runs compared, {mismatched} differ",
        )


WORKLOADS = {w.name: w for w in (McPoint, McInterval, QueryMix, CliSimulate)}
