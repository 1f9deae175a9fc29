"""One cold start: import recrange and complete a workload's first small call.

Run as ``python3 perfbench/cold.py <workload> <work dir>`` from a fresh
interpreter; the benchmark times the whole process to get ``setup_s``. It
imports nothing beyond recrange and the standard library.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import recrange  # noqa: E402

ESTIMATORS = ("mle_records", "mle_urr", "bayes_quadratic", "bayes_squared", "bayes_absolute")


def main(workload: str, workdir: str) -> int:
    if Path(recrange.__file__).resolve().parent.parent != SRC:
        print(f"recrange imported from {recrange.__file__}, not {SRC}", file=sys.stderr)
        return 2
    prior = recrange.PriorParams(a=3.0, b=5.0)
    if workload == "mc_point":
        recrange.run_point_sim(
            recrange.SimConfig(
                delta_true=2.0, n_records=(3, 5, 8), reps=20, seed=1, prior=prior,
                estimators=ESTIMATORS,
            )
        )
    elif workload == "mc_interval":
        recrange.run_interval_sim(
            recrange.SimConfig(
                delta_true=1.0, n_records=(3, 6), reps=2, seed=1, prior=prior,
                alpha_list=(0.05, 0.1, 0.5), interval_kinds=("equal_tails", "hpd_exact"),
            )
        )
    elif workload == "query_mix":
        summary = recrange.extract_upper_records([0.5, 1.5, 0.7, 2.5, 3.1, 0.2, 4.0])
        post = recrange.posterior_from(prior, summary)
        for est in ESTIMATORS:
            recrange.point_estimate(est, summary, prior)
        recrange.equal_tails(post, 0.05)
        hpd = recrange.hpd_exact(post, 0.05)
        recrange.hpd_hpm_closed_form(post, hpd.length)
    elif workload == "cli_simulate":
        import io
        from contextlib import redirect_stdout

        from recrange import cli

        with redirect_stdout(io.StringIO()):
            code = cli.main(
                ["simulate", "--a", "3", "--b", "5", "--n", "3,6", "--reps", "20",
                 "--seed", "1", "--out", str(Path(workdir) / "cold")]
            )
        return code
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
