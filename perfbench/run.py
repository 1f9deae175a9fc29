"""Benchmark for recrange: Monte Carlo studies, interval solving, a posterior
query mix, and parallel CLI runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec     # regenerate BENCHMARK.json

Run from the repository root; the program is imported from ``src/``. Each
run builds its workload's inputs from ``--seed`` before the timed window,
drives one closed loop (a single caller that waits for every reply) for
``--seconds``, then checks every output. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it measures half the window untraced
and half with every public recrange function wrapped, and reports the
per-layer metrics plus the tracing overhead. The last line of standard
output is one JSON object: correct, attempted, failed, metrics; the line
before it carries the details (gates, error rate, the tail percentile and
its sample count, unscaled rates).

End-to-end metrics, per workload:
  items_per_s       items completed per second spent in unit calls; an
                    item is a Monte Carlo repetition or one request
  latency_p50_ms    median unit-call latency
  latency_tail_ms   latency with exactly ten calls beyond it
  success_rate      1 - error rate; a failure is an unexpected exception
                    or an output the checks reject
  peak_rss_mb       peak RSS of this process, read right after the window
  max_coverage_residual  largest |oracle posterior mass - (1 - alpha)| over
                    the checked equal-tails and exact-HPD intervals
  setup_s           median wall time of a fresh interpreter importing
                    recrange and completing the workload's first small call
The three timing metrics above setup_s are probe-scaled; see PROBE_EVERY.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import tracing
import workloads
from probe import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"

# name, unit, better, bound (share of the parent's median a change may lose)
END_TO_END = (
    ("items_per_s", "1/s", "higher", 0.15),
    ("latency_p50_ms", "ms", "lower", 0.15),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("success_rate", "ratio", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("max_coverage_residual", "probability", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
)

LAYER_FAILURES = tuple(
    (f"{layer}.failures", "count", "lower")
    for layer in ("specfun", "records", "model", "estimators", "intervals", "risk", "sim", "cli")
)
PER_LAYER = (
    ("sim.derive_rep_seed.calls", "count", "lower"),
    ("sim.derive_rep_seed.busy_s", "s", "lower"),
    ("sim.self_s", "s", "lower"),
    ("sim.parallel_efficiency", "ratio", "higher"),
    ("records.sample_records_direct.calls", "count", "lower"),
    ("records.sample_records_direct.busy_s", "s", "lower"),
    ("records.extract_upper_records.values_per_s", "1/s", "higher"),
    ("records.extract_upper_records.busy_s", "s", "lower"),
    ("model.posterior_coverage.calls", "count", "lower"),
    ("model.posterior_coverage.busy_s", "s", "lower"),
    ("model.posterior_from.busy_s", "s", "lower"),
    ("specfun.reg_lower_gamma.calls", "count", "lower"),
    ("specfun.reg_lower_gamma.busy_s", "s", "lower"),
    ("specfun.chi2_quantile.calls", "count", "lower"),
    ("specfun.chi2_quantile.busy_s", "s", "lower"),
    ("specfun.chi2_quantile.repeat_ratio", "ratio", "lower"),
    ("intervals.hpd_exact.calls", "count", "lower"),
    ("intervals.hpd_exact.busy_s", "s", "lower"),
    ("intervals.hpd_exact.coverage_evals_per_call", "count", "lower"),
    ("intervals.hpd_exact.outer_iterations_mean", "count", "lower"),
    ("intervals.equal_tails.busy_s", "s", "lower"),
    ("estimators.busy_s", "s", "lower"),
    ("risk.busy_s", "s", "lower"),
    ("cli.main.busy_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    *LAYER_FAILURES,
    ("trace.overhead_items_per_s", "1/s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)

# one-line reasons; {placeholders} are filled from the measured input properties
WHY = {
    "mc_point": (
        "run_point_sim, workers=1, n 3/5/8, {reps_per_call} reps/n per call, 5 estimators: "
        "sim loop, record sampling, posterior, estimators; quantile hoisted"
    ),
    "mc_interval": (
        "run_interval_sim, workers=1, ET+exact HPD at alpha .05/.1/.5, n 3/6, {reps_per_call} "
        "reps/n per call: nested HPD root-finder, reg_lower_gamma dominate"
    ),
    "query_mix": (
        "{requests_in_pool} library requests, series log-uniform 50..2e5 (n {n_min}-{n_max}): "
        "long-series scan sets the tail; {repeat_pct}% of chi2_quantile (p,nu) args repeat"
    ),
    "cli_simulate": (
        "cli simulate, point/interval alternating, {reps_per_call} reps/n, n 3,6: arg parsing, "
        "manifest, CSV/JSON writes; workers=2 pool path checked and traced, not timed"
    ),
}

SETUP_RUNS = 9


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import recrange from this checkout's src/, and nothing else."""
    if not (SRC / "recrange" / "__init__.py").is_file():
        raise ProgramMissing(f"no recrange package under {SRC}")
    if importlib.util.find_spec("scipy") is None:
        raise ProgramMissing("scipy is needed as the correctness oracle")
    sys.path.insert(0, str(SRC))
    import recrange
    import recrange.cli  # noqa: F401  (the tracer wraps it too)

    if Path(recrange.__file__).resolve().parent.parent != SRC:
        raise ProgramMissing(f"recrange imported from {recrange.__file__}, not {SRC}")
    return recrange


# ---------------------------------------------------------------------------
# the timed closed loop


# The host's cores are shared: from one second to the next, and from one
# run to the next, the same code runs up to ~1.8x slower. A fixed
# pure-Python probe is timed at least every PROBE_EVERY seconds between unit
# calls, and every timing is scaled by REF_PROBE_S over the mean of the
# probes before and after its call, so times read as on a host where the
# probe takes REF_PROBE_S. Probe time is outside every measured span.
PROBE_EVERY = 0.05
REF_PROBE_S = 1e-3


@dataclasses.dataclass
class Call:
    latency: float
    items: int
    segment: int  # calls between two probes share a segment
    record: int | None  # index into Window.records; None when the call raised


@dataclasses.dataclass
class Window:
    calls: list = dataclasses.field(default_factory=list)
    # segment k lies between probes k and k + 1
    probes: list = dataclasses.field(default_factory=list)
    records: list = dataclasses.field(default_factory=list)  # (input, output)
    errors: Counter = dataclasses.field(default_factory=Counter)

    def scale(self, segment: int) -> float:
        return REF_PROBE_S / (0.5 * (self.probes[segment] + self.probes[segment + 1]))


def run_window(wl, inputs, start: int, seconds: float, tracer=None) -> tuple[Window, int]:
    """Serve inputs in order, one at a time, until `seconds` have passed."""
    w = Window()
    i = start
    deadline = perf_counter() + seconds
    w.probes.append(probe())
    last_probe = perf_counter()
    while True:
        inp = inputs[i % len(inputs)]
        if tracer is not None:
            tracer.item = i
        t0 = perf_counter()
        try:
            out = wl.call(inp)
        except Exception as exc:  # a failed item is recorded and the loop goes on
            out = exc
        t1 = perf_counter()
        i += 1
        record = len(w.records)
        if isinstance(out, Exception) and not wl.is_expected(out):
            record = None
            w.errors["".join(traceback.format_exception_only(out)).strip()[:300]] += 1
        elif isinstance(out, Exception):
            if tracer is not None:
                tracer.expected_error(out)
            w.records.append((inp, out.with_traceback(None)))
        else:
            w.records.append((inp, wl.after(inp, out)))
        w.calls.append(Call(t1 - t0, wl.items(inp), len(w.probes) - 1, record))
        now = perf_counter()
        if now >= deadline or now - last_probe >= PROBE_EVERY:
            w.probes.append(probe())
            last_probe = perf_counter()
            if now >= deadline:
                return w, i


@dataclasses.dataclass
class Summary:
    """Window statistics after the output checks, in probe-scaled time."""

    attempted: int
    failed: int
    items_per_s: float
    raw_items_per_s: float
    latencies: list


def summarize(w: Window, bad: set) -> Summary:
    ok = [c.record is not None and c.record not in bad for c in w.calls]
    done = sum(c.items for c, good in zip(w.calls, ok) if good)
    latencies = [c.latency * w.scale(c.segment) for c in w.calls]
    return Summary(
        attempted=sum(c.items for c in w.calls),
        failed=sum(c.items for c, good in zip(w.calls, ok) if not good),
        items_per_s=done / sum(latencies),
        raw_items_per_s=done / sum(c.latency for c in w.calls),
        latencies=latencies,
    )


def tail_latency(latencies) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with >= 10 samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(workload: str, runs: int) -> float:
    """Median wall time of a fresh interpreter importing recrange and
    completing a first call. Not probe-scaled: a probe timed next to a
    process start or exit reads the churn, not the host."""
    times = []
    for _ in range(runs):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "cold.py"), workload, str(WORKDIR)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed: {proc.stderr.strip()[-500:]}")
    return statistics.median(times)


def parallel_efficiency(lib, study, trials: int = 3) -> float:
    """workers=2 rate over twice the workers=1 rate on the same study."""
    if study is None:
        return 0.0
    run = lib.run_interval_sim if study.alpha_list else lib.run_point_sim
    items = study.reps * len(study.n_records)
    rates = {1: [], 2: []}
    for _ in range(trials):
        for workers in (1, 2):
            config = dataclasses.replace(study, workers=workers)
            t0 = perf_counter()
            run(config)
            rates[workers].append(items / (perf_counter() - t0))
    return statistics.median(rates[2]) / (2.0 * statistics.median(rates[1]))


# ---------------------------------------------------------------------------
# per-layer metrics from a traced window


def layer_metrics(tracer, bytes_written, overhead, efficiency) -> dict:
    calls, busy, counters = tracer.calls, tracer.busy, tracer.counters
    values = {}
    for name, _, _ in PER_LAYER:
        if name.endswith(".calls"):
            values[name] = calls[name[: -len(".calls")]]
        elif name.endswith(".busy_s") and name[: -len(".busy_s")] in tracer.names:
            values[name] = busy[name[: -len(".busy_s")]]
        elif name.endswith(".busy_s"):
            values[name] = tracer.layer_busy[name.split(".")[0]]
        elif name.endswith(".self_s"):
            values[name] = tracer.layer_self[name.split(".")[0]]
        elif name.endswith(".failures"):
            values[name] = tracer.layer_failures(name.split(".")[0])

    scanned = counters["records.extract_upper_records.values"]
    scan_busy = busy["records.extract_upper_records"]
    values["records.extract_upper_records.values_per_s"] = scanned / scan_busy if scan_busy else 0.0
    q_calls = calls["specfun.chi2_quantile"]
    values["specfun.chi2_quantile.repeat_ratio"] = (
        counters["specfun.chi2_quantile.repeats"] / q_calls if q_calls else 0.0
    )
    hpd_calls = calls["intervals.hpd_exact"]
    values["intervals.hpd_exact.coverage_evals_per_call"] = (
        counters["intervals.hpd_exact.coverage_evals"] / hpd_calls if hpd_calls else 0.0
    )
    solved = counters["intervals.hpd_exact.solved"]
    values["intervals.hpd_exact.outer_iterations_mean"] = (
        counters["intervals.hpd_exact.outer_iterations"] / solved if solved else 0.0
    )
    values["cli.bytes_written"] = bytes_written
    values["sim.parallel_efficiency"] = efficiency
    values["trace.overhead_items_per_s"] = overhead[0]
    values["trace.overhead_share"] = overhead[1]
    return values


# ---------------------------------------------------------------------------


def run_benchmark(args) -> int:
    try:
        lib = load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    WORKDIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](lib, args.seed, args.smoke, WORKDIR)
    inputs = wl.inputs()
    try:
        wl.call(inputs[-1])  # warm-up: lazy imports and first-call costs
    except Exception:
        pass

    tracer = None
    if args.trace:
        half = args.seconds / 2.0
        first, nxt = run_window(wl, inputs, 0, half)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            second, _ = run_window(wl, inputs, nxt, half, tracer)
        finally:
            tracer.uninstall()
        windows = [first, second]
    else:
        windows = [run_window(wl, inputs, 0, args.seconds)[0]]
    rss = peak_rss_mb()
    efficiency = parallel_efficiency(lib, wl.efficiency_study()) if args.trace else None

    records = [r for w in windows for r in w.records]
    bad, gates, residuals = wl.check(records)
    first_len = len(windows[0].records)
    summaries = [
        summarize(windows[0], {j for j in bad if j < first_len}),
        *(summarize(w, {j - first_len for j in bad if j >= first_len}) for w in windows[1:]),
    ]
    attempted = sum(s.attempted for s in summaries)
    failed = sum(s.failed for s in summaries)
    correct = failed == 0 and all(g.passed for g in gates)
    latencies = [x for s in summaries for x in s.latencies]
    tail, tail_pct, samples = tail_latency(latencies)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "error_rate": failed / attempted if attempted else 1.0,
        "latency_tail_percentile": round(tail_pct, 3),
        "latency_samples": samples,
        "unit_calls": sum(len(w.calls) for w in windows),
        "raw_items_per_s": [s.raw_items_per_s for s in summaries],
        "probe_ms_median": [1e3 * statistics.median(w.probes) for w in windows],
        "gates": [dataclasses.asdict(g) for g in gates],
        "wrong_outputs": len(bad),
        "errors": dict(sum((w.errors for w in windows), Counter())),
    }

    if args.trace:
        rates = [s.items_per_s for s in summaries]
        overhead = (rates[0] - rates[1], (rates[0] - rates[1]) / rates[0] if rates[0] else 0.0)
        detail["items_per_s_untraced_half"] = rates[0]
        detail["items_per_s_traced_half"] = rates[1]
        written = wl.bytes_written(windows[1].records)
        values = layer_metrics(tracer, written, overhead, efficiency)
        trace_path = WORKDIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "metrics": values})
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
        detail["spans_total"] = tracer.spans_recorded
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = {
            "items_per_s": summaries[0].items_per_s,
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_tail_ms": 1e3 * tail,
            "success_rate": 1.0 - detail["error_rate"],
            "peak_rss_mb": rss,
            "max_coverage_residual": max(residuals) if residuals else 1.0,
            "setup_s": measure_setup(args.workload, 1 if args.smoke else SETUP_RUNS),
        }
        units = {name: unit for name, unit, _, _ in END_TO_END}

    for gate in gates:
        print(f"gate {'PASS' if gate.passed else 'FAIL'}: {gate.name} ({gate.detail})")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
            }
        )
    )
    return 0


def write_spec() -> int:
    """Regenerate BENCHMARK.json and perfbench/inputs.json at seed 0."""
    lib = load_program()

    WORKDIR.mkdir(exist_ok=True)
    props, why = {}, {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(lib, 0, False, WORKDIR)
        p = wl.properties()
        fill = dict(p)
        if name == "query_mix":
            tracer = tracing.Tracer(span_cap=0)
            tracer.install()
            try:
                for req in wl.inputs():
                    try:
                        wl.call(req)
                    except lib.InsufficientRecordsError:
                        pass
            finally:
                tracer.uninstall()
            share = tracer.counters["specfun.chi2_quantile.repeats"] / tracer.calls[
                "specfun.chi2_quantile"
            ]
            p["chi2_quantile_repeat_share_one_pass"] = round(share, 4)
            counts = [int(k) for k in p["record_count_histogram"]]
            fill.update(repeat_pct=round(100 * share), n_min=min(counts), n_max=max(counts))
        props[name] = p
        why[name] = WHY[name].format(**fill)
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 20,
        "workloads": [{"name": n, "why": why[n]} for n in workloads.WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    (HERE / "inputs.json").write_text(
        json.dumps({"seed": 0, "workloads": props}, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {ROOT / 'BENCHMARK.json'} and {HERE / 'inputs.json'}")
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    p.add_argument("--write-spec", action="store_true", help="regenerate BENCHMARK.json")
    args = p.parse_args(argv)
    if not args.write_spec and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_spec:
        return write_spec()
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
