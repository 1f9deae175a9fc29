"""numpy loads only when something samples.

Each case starts a fresh interpreter, since this suite's own process has
long since imported numpy. The non-sampling imports and commands must leave
it out of sys.modules; the samplers, derive_rep_seed and simulate must still
load it on first use and give the golden bytes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import recrange
from test_golden import GOLDEN, SIMULATE_CASES

SRC = Path(recrange.__file__).resolve().parents[1]


def run_fresh(code: str, cwd: Path) -> list[str]:
    """Run code in a new interpreter that imports recrange from SRC."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, env=env, cwd=cwd,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


NON_SAMPLING = {
    "import recrange": [],
    "import recrange.cli": [],
    "extract": ["extract", "sample_a.txt"],
    "estimate": [
        "estimate", "sample_a.txt", "--a", "3", "--b", "5", "--delta-ref", "2"
    ],
    "interval": ["interval", "sample_a.txt", "--a", "3", "--b", "5", "--kind", "all"],
    "risk": ["risk", "--m", "0.2", "--d", "0.5", "--n", "4", "--delta", "2",
             "--a", "3", "--b", "5"],
    "risk sweep": ["risk", "--n", "4", "--b", "5", "--k-sweep", "0.1:10"],
    "reproduce": ["reproduce", "--table", "1"],
}


@pytest.mark.parametrize("case", list(NON_SAMPLING))
def test_non_sampling_paths_leave_numpy_unloaded(sample_a_file, case):
    argv = NON_SAMPLING[case]
    code = [case if case.startswith("import") else "import recrange"]
    if argv:
        code += [
            "from contextlib import redirect_stdout",
            "from io import StringIO",
            "from recrange.cli import main",
            "with redirect_stdout(StringIO()):",
            f"    assert main({argv!r}) == 0",
        ]
    code.append("import sys; print('numpy' in sys.modules)")
    assert run_fresh("\n".join(code), sample_a_file.parent) == ["False"]


def test_sampling_loads_numpy_on_first_use(tmp_path):
    argv = SIMULATE_CASES["simulate_point"] + ["--out", "simulate_point"]
    draws = [
        "derive_rep_seed(1, 2, 3).random_raw(2).tolist()",
        "sample_records_direct(2.0, 3, seed=5).values",
        "sample_records_stream(2.0, 3, seed=5).values",
    ]
    code = "\n".join([
        "import sys",
        "from contextlib import redirect_stdout",
        "from io import StringIO",
        "from recrange import *",
        "from recrange.cli import main",
        "print('numpy' in sys.modules)",
        *(f"print({draw})" for draw in draws),
        "with redirect_stdout(StringIO()):",
        f"    assert main({argv!r}) == 0",
    ])
    want = [str(eval(draw, dict(vars(recrange)))) for draw in draws]
    assert run_fresh(code, tmp_path) == ["False", *want]
    for suffix in (".csv", ".json"):
        name = "simulate_point" + suffix
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
