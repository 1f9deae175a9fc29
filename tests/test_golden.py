"""Byte-for-byte regression of CLI artifacts against stored golden files.

Each case runs the CLI in a scratch directory on relative input names, so
the run manifest (which records the input path) does not depend on where
the suite runs. The files under ``tests/golden/`` hold the expected bytes;
``python tests/test_golden.py`` rewrites them from the current code, which
is only right when the artifact bytes are meant to change.
"""

import os
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from recrange import datasets
from recrange.cli import main

GOLDEN = Path(__file__).parent / "golden"

INPUTS = {"sample_a.txt": datasets.SAMPLE_A, "sample_b.txt": datasets.SAMPLE_B}

# commands that honour --format; each is captured as CSV and as JSON
TABLE_CASES = {
    "reproduce": ["reproduce", "--table", "1"],
    "estimate": ["estimate", "sample_a.txt", "--a", "3", "--b", "5", "--delta-ref", "2"],
    "interval": [
        "interval", "sample_b.txt", "--a", "3", "--b", "4",
        "--alpha", "0.1,0.05", "--kind", "all",
    ],
}

# simulate writes <prefix>.csv and <prefix>.json itself
_SIM_INTERVAL = [
    "simulate", "--mode", "interval", "--a", "3", "--b", "4", "--n", "3,4",
    "--reps", "50", "--alpha", "0.1,0.5", "--seed", "2",
]
SIMULATE_CASES = {
    "simulate_point": [
        "simulate", "--a", "8", "--b", "2", "--n", "4..5", "--reps", "40",
        "--delta", "2", "--seed", "11",
        "--estimators", "mle_records,mle_urr,bayes_quadratic,bayes_squared,bayes_absolute",
    ],
    "simulate_equal_tails": _SIM_INTERVAL + ["--kind", "equal_tails"],
    "simulate_hpd_exact": _SIM_INTERVAL + ["--kind", "hpd_exact"],
}

ARTIFACTS = sorted(
    f"{name}.{fmt}" for name in (*TABLE_CASES, *SIMULATE_CASES) for fmt in ("csv", "json")
)


def render_artifacts() -> dict[str, bytes]:
    """Run every case in the current directory; returns file name -> bytes."""
    for name, values in INPUTS.items():
        Path(name).write_text("\n".join(repr(v) for v in values) + "\n")
    argvs = [
        argv + ["--format", fmt, "--out", f"{name}.{fmt}"]
        for name, argv in TABLE_CASES.items()
        for fmt in ("csv", "json")
    ]
    argvs += [argv + ["--out", name] for name, argv in SIMULATE_CASES.items()]
    with redirect_stdout(StringIO()):
        for argv in argvs:
            code = main(argv)
            if code != 0:
                raise RuntimeError(f"recrange {' '.join(argv)} exited {code}")
    return {name: Path(name).read_bytes() for name in ARTIFACTS}


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("golden"))
        return render_artifacts()


@pytest.mark.parametrize("name", ARTIFACTS)
def test_artifact_bytes_match_golden(rendered, name):
    assert rendered[name] == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for name, data in render_artifacts().items():
            (GOLDEN / name).write_bytes(data)
