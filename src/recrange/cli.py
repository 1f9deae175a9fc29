"""Command-line surface: extract | estimate | interval | simulate | risk | reproduce.

Every output artifact embeds a RunManifest describing exactly what was
computed (command, parameters, seed, input digest, tool version), so a file
can always be traced back to the invocation that wrote it. Exit codes are a
stable contract: 0 success, 2 usage or parse error, 3 numeric failure
(solver did not converge, not enough records, degenerate posterior).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from ._meta import TOOL_VERSION
from .datasets import SAMPLE_A
from .errors import (
    DomainError,
    InsufficientRecordsError,
    ParseError,
    RecRangeError,
    UnsupportedEstimatorError,
)
from .estimators import EstimatorId, analytic_moments, estimator_rule, mle_sample
from .intervals import IntervalKind, _check_alpha, _intervals
from .model import PriorParams, posterior_coverage, posterior_from
from .records import extract_upper_records, record_range_sequence, truncate
from .risk import (
    LinearEstimator,
    LossWeight,
    bayes_risk_linear,
    classify_admissible,
    r1_r2_gap,
    risk_linear,
)
from .sim import SimConfig, run_interval_sim, run_point_sim, reproduce_table1

__all__ = ["RunManifest", "build_parser", "main", "entrypoint"]

SEED_ENV_VAR = "RRB_SEED"

# default significant digits in table output
_EST_FMT = ".6g"  # estimates
_IV_FMT = ".8g"  # interval endpoints


@dataclass(frozen=True)
class RunManifest:
    """Provenance stamp carried by every output artifact.

    parameters holds the experiment-defining flag values only; execution
    details that cannot change the output (worker count, output paths) are
    excluded so that identical manifests imply identical outputs.
    """

    command: str
    parameters: dict
    seed: int | None
    input_digest: str
    tool_version: str = TOOL_VERSION

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "seed": self.seed,
            "input_digest": self.input_digest,
            "tool_version": self.tool_version,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# input parsing


def read_values(path: str) -> tuple[list[float], str]:
    """Parse newline- or comma-separated decimals; returns (values, digest)."""
    raw = Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from exc
    values: list[float] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for token in line.replace(",", " ").split():
            try:
                values.append(float(token))
            except ValueError:
                raise ParseError(
                    f"{path}: line {lineno}: not a number: {token!r}", line=lineno
                ) from None
    if not values:
        raise ParseError(f"{path}: no numeric values found")
    return values, digest


def _digest_values(values) -> str:
    payload = ",".join(repr(float(v)) for v in values).encode("ascii")
    return hashlib.sha256(payload).hexdigest()


def parse_n_spec(text: str) -> tuple[int, ...]:
    """Record-count selections: '4', '2,4,6', or an inclusive range '2..6'."""
    out: list[int] = []
    for token in text.split(","):
        token = token.strip()
        try:
            if ".." in token:
                lo_s, hi_s = token.split("..", 1)
                lo, hi = int(lo_s), int(hi_s)
                if hi < lo:
                    raise ValueError
                out.extend(range(lo, hi + 1))
            else:
                out.append(int(token))
        except ValueError:
            raise ParseError(f"bad record-count selection: {token!r}") from None
    return tuple(out)


def parse_alpha_list(text: str) -> tuple[float, ...]:
    out: list[float] = []
    for token in text.split(","):
        try:
            value = float(token.strip())
        except ValueError:
            raise ParseError(f"bad alpha value: {token.strip()!r}") from None
        try:
            _check_alpha(value)
        except DomainError as exc:
            raise ParseError(str(exc)) from None
        out.append(value)
    return tuple(out)


def parse_estimators(text: str) -> tuple[EstimatorId, ...]:
    out: list[EstimatorId] = []
    for token in text.split(","):
        token = token.strip()
        try:
            out.append(EstimatorId(token))
        except ValueError:
            known = ", ".join(e.value for e in EstimatorId)
            raise ParseError(
                f"unknown estimator {token!r}; known: {known}"
            ) from None
    return tuple(out)


# ---------------------------------------------------------------------------
# output rendering


def _cell_text(value, fmt: str | None) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format(value, fmt) if fmt else repr(value)
    return str(value)


def render_table(columns, rows, formats=None, manifest=None) -> str:
    """Aligned plain-text table; floats use per-column significant digits."""
    formats = formats or {}
    header = [str(c) for c in columns]
    body = [[_cell_text(row.get(c), formats.get(c)) for c in columns] for row in rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
        for i in range(len(columns))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for r in body:
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)).rstrip())
    if manifest is not None:
        lines.append(f"# manifest: {manifest.to_json()}")
    return "\n".join(lines) + "\n"


def render_csv(columns, rows, manifest=None) -> str:
    """RFC-style CSV: header row, period decimals, full-precision floats."""
    buf = io.StringIO()
    if manifest is not None:
        buf.write(f"# manifest: {manifest.to_json()}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell_text(row.get(c), None) for c in columns])
    return buf.getvalue()


def render_json(columns, rows, manifest=None) -> str:
    payload = {
        "manifest": manifest.as_dict() if manifest is not None else None,
        "rows": [{c: row.get(c) for c in columns} for row in rows],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _check_finite(rows) -> None:
    # JSON has no inf or nan, and no artifact should carry one in any format
    for row in rows:
        for column, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError(
                    f"{column} is not finite for these inputs, got {value!r}"
                )


def _emit(args, columns, rows, formats, manifest) -> None:
    _check_finite(rows)
    if args.format == "csv":
        text = render_csv(columns, rows, manifest)
    elif args.format == "json":
        text = render_json(columns, rows, manifest)
    else:
        text = render_table(columns, rows, formats, manifest)
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text, encoding="utf-8")
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_extract(args) -> int:
    values, digest = read_values(args.input)
    summary = extract_upper_records(values)
    if summary.n < 2:
        print(
            "warning: only one record; the range sequence is empty",
            file=sys.stderr,
        )
    ranges = record_range_sequence(summary) if summary.n >= 2 else ()
    rows = []
    for k, (t, v) in enumerate(zip(summary.times, summary.values), start=1):
        rows.append(
            {
                "record": k,
                "time": t,
                "value": v,
                "range_from_first": ranges[k - 2] if k >= 2 else None,
            }
        )
    manifest = RunManifest(
        command="extract",
        parameters={"input": str(args.input)},
        seed=None,
        input_digest=digest,
    )
    columns = ["record", "time", "value", "range_from_first"]
    # fixed 8 decimals, matching the precision record data is listed at
    formats = {"value": ".8f", "range_from_first": ".8f"}
    _emit(args, columns, rows, formats, manifest)
    return 0


def _prior_from_args(args) -> PriorParams:
    return PriorParams(a=args.a, b=args.b)


def _record_counts(args, summary) -> tuple[int, ...]:
    """The --n selection (default: every count the data has), sorted and unique."""
    ns = parse_n_spec(args.n) if args.n else tuple(range(2, summary.n + 1))
    if not ns:
        raise DomainError("no record counts selected")
    bad = [n for n in ns if n < 2]
    if bad:
        raise DomainError(f"record counts must be >= 2, got {bad}")
    missing = [n for n in ns if n > summary.n]
    if missing:
        raise InsufficientRecordsError(
            f"data has {summary.n} records; cannot evaluate at n={missing}"
        )
    return tuple(sorted(set(ns)))


def cmd_estimate(args) -> int:
    values, digest = read_values(args.input)
    prior = _prior_from_args(args)
    estimators = parse_estimators(args.estimators)
    summary = extract_upper_records(values)
    ns = _record_counts(args, summary)

    sample_mean = mle_sample(values) if EstimatorId.MLE_SAMPLE in estimators else None
    rows = []
    for n in ns:
        cut = truncate(summary, n)
        post = posterior_from(prior, cut)
        row = {"n": n}
        for est in estimators:
            # mle_sample needs the raw series, which a record summary lacks
            if est is EstimatorId.MLE_SAMPLE:
                row[est.value] = sample_mean
            else:
                row[est.value] = estimator_rule(est)(cut, post)
            if args.delta_ref is not None:
                try:
                    mom = analytic_moments(est, args.delta_ref, n, prior)
                except UnsupportedEstimatorError:
                    mom = None
                row[f"{est.value}_mean"] = mom.mean if mom is not None else None
                row[f"{est.value}_mse"] = mom.mse if mom is not None else None
        rows.append(row)

    columns = ["n"]
    for est in estimators:
        columns.append(est.value)
        if args.delta_ref is not None:
            columns.extend([f"{est.value}_mean", f"{est.value}_mse"])
    formats = {c: _EST_FMT for c in columns if c != "n"}
    parameters = {
        "input": str(args.input),
        "a": args.a,
        "b": args.b,
        "estimators": [e.value for e in estimators],
        "n": list(ns),
        "delta_ref": args.delta_ref,
    }
    manifest = RunManifest("estimate", parameters, None, digest)
    _emit(args, columns, rows, formats, manifest)
    return 0


_KIND_CHOICES = (*(kind.value for kind in IntervalKind), "all")


def _kinds_from_flag(flag: str) -> tuple[IntervalKind, ...]:
    return tuple(IntervalKind) if flag == "all" else (IntervalKind(flag),)


def cmd_interval(args) -> int:
    values, digest = read_values(args.input)
    prior = _prior_from_args(args)
    alphas = parse_alpha_list(args.alpha)
    kinds = _kinds_from_flag(args.kind)
    summary = extract_upper_records(values)
    ns = _record_counts(args, summary)

    rows = []
    for n in ns:
        post = posterior_from(prior, truncate(summary, n))
        for alpha in alphas:
            for kind, iv in zip(kinds, _intervals(kinds, post, alpha)):
                rows.append(
                    {
                        "n": n,
                        "kind": kind.value,
                        "alpha": alpha,
                        "lower": iv.lower,
                        "upper": iv.upper,
                        "length": iv.length,
                        "coverage_check": posterior_coverage(iv.lower, iv.upper, post),
                    }
                )

    columns = ["n", "kind", "alpha", "lower", "upper", "length", "coverage_check"]
    formats = {c: _IV_FMT for c in ("lower", "upper", "length", "coverage_check")}
    formats["alpha"] = "g"
    parameters = {
        "input": str(args.input),
        "a": args.a,
        "b": args.b,
        "alpha": list(alphas),
        "kind": args.kind,
        "n": list(ns),
    }
    manifest = RunManifest("interval", parameters, None, digest)
    _emit(args, columns, rows, formats, manifest)
    return 0


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(
                f"{SEED_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    return 0


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    prior = PriorParams(a=args.a, b=args.b)
    ns = parse_n_spec(args.n)
    estimators = parse_estimators(args.estimators)
    alphas = parse_alpha_list(args.alpha) if args.alpha else ()
    kinds = _kinds_from_flag(args.kind)
    config = SimConfig(
        delta_true=args.delta,
        n_records=ns,
        reps=args.reps,
        seed=seed,
        prior=prior,
        estimators=estimators,
        alpha_list=alphas,
        interval_kinds=kinds,
        workers=args.workers,
    )
    parameters = {
        "mode": args.mode,
        "delta": args.delta,
        "a": args.a,
        "b": args.b,
        "n": list(ns),
        "reps": args.reps,
        "estimators": [e.value for e in estimators],
        "alpha": list(alphas),
        "kind": args.kind,
    }
    manifest = RunManifest(
        command="simulate",
        parameters=parameters,
        seed=seed,
        input_digest=hashlib.sha256(
            json.dumps(parameters, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest(),
    )

    if args.mode == "point":
        result = run_point_sim(config)
        columns = [
            "estimator",
            "n",
            "average_estimate",
            "empirical_mse",
            "analytic_mean",
            "analytic_mse",
        ]
        rows = [
            {
                "estimator": r.estimator_id.value,
                "n": r.n,
                "average_estimate": r.average_estimate,
                "empirical_mse": r.empirical_mse,
                "analytic_mean": r.analytic_mean,
                "analytic_mse": r.analytic_mse,
            }
            for r in result.point_rows
        ]
    else:
        if not alphas:
            raise DomainError("interval mode needs --alpha")
        result = run_interval_sim(config)
        columns = ["kind", "n", "alpha", "empirical_coverage", "mean_length"]
        rows = [
            {
                "kind": r.kind.value,
                "n": r.n,
                "alpha": r.alpha,
                "empirical_coverage": r.empirical_coverage,
                "mean_length": r.mean_length,
            }
            for r in result.interval_rows
        ]

    _check_finite(rows)
    csv_path = Path(f"{args.out}.csv")
    json_path = Path(f"{args.out}.json")
    csv_path.write_text(render_csv(columns, rows, manifest), encoding="utf-8")
    json_path.write_text(render_json(columns, rows, manifest), encoding="utf-8")
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_risk(args) -> int:
    loss = LossWeight(args.loss)
    rows = []
    columns: list[str]
    parameters: dict

    if args.k_sweep:
        if args.b is None:
            raise DomainError("--k-sweep needs --b for the prior scale")
        try:
            lo_s, hi_s = args.k_sweep.split(":", 1)
            k_lo, k_hi = float(lo_s), float(hi_s)
        except ValueError:
            raise ParseError(
                f"bad --k-sweep range {args.k_sweep!r}, expected LO:HI"
            ) from None
        if not (k_lo > 0 and k_hi > k_lo):
            raise DomainError("--k-sweep needs 0 < LO < HI")
        if args.k_points < 2:
            raise DomainError("--k-points must be at least 2")
        n, b = args.n, args.b
        log_lo, log_hi = math.log10(k_lo), math.log10(k_hi)
        step = (log_hi - log_lo) / (args.k_points - 1)
        for i in range(args.k_points):
            k = 10.0 ** (log_lo + i * step)
            bayes_rule = LinearEstimator(m=k / (1 + k * n), d=k * b / (1 + k * n))
            boundary_rule = LinearEstimator(m=1.0 / n, d=1.0 / n)
            vague = PriorParams(a=1.0 / k, b=b)
            rows.append(
                {
                    "k": k,
                    "r1": bayes_risk_linear(bayes_rule, n, vague, loss),
                    "r2": bayes_risk_linear(boundary_rule, n, vague, loss),
                    "gap": r1_r2_gap(k, n, b),
                }
            )
        columns = ["k", "r1", "r2", "gap"]
        parameters = {
            "k_sweep": args.k_sweep,
            "k_points": args.k_points,
            "n": args.n,
            "b": args.b,
            "loss": loss.value,
        }
    else:
        if args.m is None or args.d is None:
            raise DomainError("risk needs --m and --d (or --k-sweep)")
        est = LinearEstimator(m=args.m, d=args.d)
        row = {
            "m": args.m,
            "d": args.d,
            "n": args.n,
            "classification": classify_admissible(est, args.n).value,
        }
        if args.delta is not None:
            row["risk"] = risk_linear(est, args.delta, args.n, loss)
        if args.a is not None and args.b is not None:
            row["bayes_risk"] = bayes_risk_linear(
                est, args.n, PriorParams(a=args.a, b=args.b), loss
            )
        rows.append(row)
        columns = [c for c in ("m", "d", "n", "classification", "risk", "bayes_risk")
                   if c in row]
        parameters = {
            "m": args.m,
            "d": args.d,
            "n": args.n,
            "delta": args.delta,
            "a": args.a,
            "b": args.b,
            "loss": loss.value,
        }

    formats = {c: _EST_FMT for c in columns if c not in ("n", "classification")}
    formats.pop("gap", None)  # the sweep's gap column shrinks below 6 digits
    manifest = RunManifest("risk", parameters, None, _digest_values([]))
    _emit(args, columns, rows, formats, manifest)
    return 0


def cmd_reproduce(args) -> int:
    if args.input:
        values, digest = read_values(args.input)
    else:
        values, digest = list(SAMPLE_A), _digest_values(SAMPLE_A)
    prior = PriorParams(a=args.a, b=args.b)
    table = reproduce_table1(values, prior)
    by_n: dict[int, dict] = {}
    for cell in table:
        by_n.setdefault(cell.n, {"n": cell.n})[cell.estimator_id.value] = cell.value
    rows = [by_n[n] for n in sorted(by_n)]
    columns = ["n", "mle_records", "mle_urr", "bayes_quadratic", "bayes_squared"]
    formats = {c: _EST_FMT for c in columns if c != "n"}
    parameters = {
        "table": args.table,
        "input": str(args.input) if args.input else "bundled",
        "a": args.a,
        "b": args.b,
    }
    manifest = RunManifest("reproduce", parameters, None, digest)
    _emit(args, columns, rows, formats, manifest)
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch


def _add_format_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default="table",
        help="output format (default: table)",
    )
    p.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recrange",
        description=(
            "Point and interval estimation of an exponential scale from "
            "upper record ranges, with risk analysis and seeded simulation."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {TOOL_VERSION}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="list upper records and ranges of a series")
    p.add_argument("input", help="text file of newline/comma-separated numbers")
    _add_format_flags(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("estimate", help="point estimates over record counts")
    p.add_argument("input")
    p.add_argument("--a", type=float, required=True, help="prior shape")
    p.add_argument("--b", type=float, required=True, help="prior scale")
    p.add_argument(
        "--estimators",
        default="mle_sample,mle_records,mle_urr,bayes_quadratic,bayes_squared,bayes_absolute",
        help="comma-separated estimator ids",
    )
    p.add_argument("--n", help="record counts, e.g. 4 or 2,4 or 2..6 (default: all)")
    p.add_argument(
        "--delta-ref",
        type=float,
        help="reference scale at which to add analytic mean/MSE columns",
    )
    _add_format_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("interval", help="credible intervals over record counts")
    p.add_argument("input")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--alpha", default="0.05", help="comma-separated levels")
    p.add_argument("--kind", choices=_KIND_CHOICES, default="all")
    p.add_argument("--n", help="record counts (default: all)")
    _add_format_flags(p)
    p.set_defaults(func=cmd_interval)

    p = sub.add_parser("simulate", help="seeded Monte Carlo experiments")
    p.add_argument("--mode", choices=("point", "interval"), default="point")
    p.add_argument("--delta", type=float, default=1.0, help="true scale (point mode)")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--n", required=True, help="record counts, e.g. 4..7")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument(
        "--seed",
        type=int,
        help=f"master seed (default: ${SEED_ENV_VAR} or 0)",
    )
    p.add_argument(
        "--estimators", default="mle_urr,bayes_quadratic,bayes_squared"
    )
    p.add_argument("--alpha", default="0.1", help="levels for interval mode")
    p.add_argument("--kind", choices=_KIND_CHOICES, default="equal_tails")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="simulation", help="output path prefix")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("risk", help="risk of linear rules m*range + d")
    p.add_argument("--m", type=float)
    p.add_argument("--d", type=float)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, help="true scale for the risk column")
    p.add_argument("--a", type=float, help="prior shape for the Bayes risk column")
    p.add_argument("--b", type=float, help="prior scale")
    p.add_argument("--loss", choices=("scaled", "unscaled"), default="scaled")
    p.add_argument("--k-sweep", help="log-spaced sweep LO:HI of the r1/r2 gap")
    p.add_argument("--k-points", type=int, default=13)
    _add_format_flags(p)
    p.set_defaults(func=cmd_risk)

    p = sub.add_parser("reproduce", help="regenerate the reference table")
    p.add_argument("--table", type=int, choices=(1,), required=True)
    p.add_argument("--input", help="override the bundled series")
    p.add_argument("--a", type=float, default=3.0)
    p.add_argument("--b", type=float, default=5.0)
    _add_format_flags(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, DomainError, UnsupportedEstimatorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecRangeError as exc:  # numeric failures and anything else from here
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())
