import json
import math
from pathlib import Path

import pytest

from recrange import DomainError, ParseError, datasets
from recrange.cli import (
    RunManifest,
    parse_alpha_list,
    parse_estimators,
    parse_n_spec,
    read_values,
)

# the one message for an alpha outside (2**-54, 1), from library and CLI alike
ALPHA_MESSAGE = (
    "alpha must lie in (0, 1) and exceed 2**-54, below which 1 - alpha rounds to 1"
)


def rows_of(stdout: str) -> list[dict]:
    return json.loads(stdout)["rows"]


class TestParsers:
    def test_n_spec_forms(self):
        assert parse_n_spec("4") == (4,)
        assert parse_n_spec("2,4,6") == (2, 4, 6)
        assert parse_n_spec("2..6") == (2, 3, 4, 5, 6)

    @pytest.mark.parametrize("bad", ["", "x", "4..2", "1..","2,,3", "2..x"])
    def test_n_spec_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_n_spec(bad)

    def test_alpha_list(self):
        assert parse_alpha_list("0.1") == (0.1,)
        assert parse_alpha_list("0.10,0.05") == (0.10, 0.05)
        with pytest.raises(ParseError):
            parse_alpha_list("0.0")
        with pytest.raises(ParseError):
            parse_alpha_list("banana")

    def test_estimator_list(self):
        ids = parse_estimators("mle_urr,bayes_squared")
        assert [e.value for e in ids] == ["mle_urr", "bayes_squared"]
        with pytest.raises(ParseError):
            parse_estimators("nonsense")

    def test_read_values_line_numbers(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1.0\n2.0\noops\n")
        with pytest.raises(ParseError) as err:
            read_values(str(p))
        assert err.value.line == 3

    def test_read_values_comma_form(self, tmp_path):
        p = tmp_path / "csvish.txt"
        p.write_text("1.0, 2.5,0.5\n7\n")
        values, digest = read_values(str(p))
        assert values == [1.0, 2.5, 0.5, 7.0]
        assert len(digest) == 64  # sha-256 hex


class TestManifest:
    def test_stable_json(self):
        m1 = RunManifest("estimate", {"a": 3.0, "b": 5.0}, None, "ff" * 32)
        m2 = RunManifest("estimate", {"b": 5.0, "a": 3.0}, None, "ff" * 32)
        assert m1.to_json() == m2.to_json()
        assert "tool_version" in m1.to_json()


class TestExtract:
    def test_table_lists_all_records(self, invoke, sample_a_file):
        code, out, err = invoke("extract", str(sample_a_file))
        assert code == 0
        for printed in ("0.06274109", "9.51953091"):
            assert printed in out
        assert out.count("\n") >= 7  # header + 6 records + manifest

    def test_json_round_trip(self, invoke, sample_a_file):
        code, out, _ = invoke("extract", str(sample_a_file), "--format", "json")
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 6
        assert rows[0]["time"] == 1
        assert math.isclose(rows[-1]["range_from_first"], 9.51953091 - 0.06274109)

    def test_single_value_warns(self, invoke, tmp_path):
        p = tmp_path / "one.txt"
        p.write_text("3.5\n")
        code, out, err = invoke("extract", str(p))
        assert code == 0
        assert "record" in err.lower()  # warning about missing range

    def test_parse_error_exits_2(self, invoke, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("abc\n")
        code, _, err = invoke("extract", str(p))
        assert code == 2
        assert "line 1" in err

    def test_missing_file_exits_2(self, invoke):
        code, _, err = invoke("extract", "no-such-file.txt")
        assert code == 2


class TestEstimate:
    def test_table1_columns(self, invoke, sample_a_file):
        code, out, _ = invoke(
            "estimate", str(sample_a_file), "--a", "3", "--b", "5",
            "--n", "2..6", "--format", "json",
        )
        assert code == 0
        rows = rows_of(out)
        assert [r["n"] for r in rows] == [2, 3, 4, 5, 6]
        first, last = rows[0], rows[-1]
        assert math.isclose(first["bayes_quadratic"], 1.863846, rel_tol=1e-6)
        assert math.isclose(first["bayes_squared"], 3.106411, rel_tol=1e-6)
        assert math.isclose(last["mle_urr"], 1.891358, rel_tol=1e-6)
        assert math.isclose(last["mle_records"], 1.58658848, rel_tol=1e-8)

    def test_flat_prior_identity(self, invoke, sample_a_file):
        code, out, _ = invoke(
            "estimate", str(sample_a_file), "--a", "1", "--b", "0",
            "--estimators", "bayes_squared,mle_urr", "--format", "json",
        )
        assert code == 0
        for row in rows_of(out):
            assert math.isclose(row["bayes_squared"], row["mle_urr"], rel_tol=1e-12)

    def test_delta_ref_adds_moment_columns(self, invoke, sample_a_file):
        code, out, _ = invoke(
            "estimate", str(sample_a_file), "--a", "3", "--b", "5", "--n", "4",
            "--delta-ref", "2", "--estimators", "mle_urr,mle_sample",
            "--format", "json",
        )
        assert code == 0
        row = rows_of(out)[0]
        assert math.isclose(row["mle_urr_mean"], 2.0, rel_tol=1e-12)
        assert row["mle_sample_mean"] is None  # no closed form exists

    def test_too_many_records_requested(self, invoke, sample_a_file):
        code, _, err = invoke(
            "estimate", str(sample_a_file), "--a", "3", "--b", "5", "--n", "10"
        )
        assert code == 3
        assert "6 records" in err

    def test_bad_n_spec_exits_2(self, invoke, sample_a_file):
        code, _, _ = invoke(
            "estimate", str(sample_a_file), "--a", "3", "--b", "5", "--n", "6..2"
        )
        assert code == 2

    def test_bad_prior_exits_2(self, invoke, sample_a_file):
        code, _, _ = invoke(
            "estimate", str(sample_a_file), "--a", "-1", "--b", "5"
        )
        assert code == 2

    def test_overflowing_moment_exits_2(self, invoke, sample_a_file):
        code, out, err = invoke(
            "estimate", str(sample_a_file), "--a", "3", "--b", "4",
            "--delta-ref", "1e200", "--format", "json",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: mle_records_mse is not finite for these inputs")


class TestInterval:
    def test_all_kinds_with_coverage_check(self, invoke, sample_b_file):
        code, out, _ = invoke(
            "interval", str(sample_b_file), "--a", "3", "--b", "4",
            "--alpha", "0.10", "--n", "2", "--kind", "all", "--format", "json",
        )
        assert code == 0
        rows = {r["kind"]: r for r in rows_of(out)}
        assert set(rows) == {"equal_tails", "hpd_exact", "hpd_hpm"}
        et, hpd, hpm = rows["equal_tails"], rows["hpd_exact"], rows["hpd_hpm"]
        assert hpd["length"] <= et["length"]
        assert abs(et["coverage_check"] - 0.90) < 1e-9
        assert abs(hpd["coverage_check"] - 0.90) < 1e-9
        # the closed-form row shares the exact interval's length but its
        # true coverage is far below target; the column must expose that
        assert math.isclose(hpm["length"], hpd["length"], rel_tol=1e-9)
        assert hpm["coverage_check"] < 0.5

    def test_all_kinds_solve_each_exact_hpd_once(
        self, invoke, sample_b_file, monkeypatch
    ):
        from recrange import intervals

        calls = []

        def counted(post, alpha):
            calls.append((post, alpha))
            return solve(post, alpha)

        solve = intervals.hpd_exact
        monkeypatch.setattr(intervals, "hpd_exact", counted)
        code, out, _ = invoke(
            "interval", str(sample_b_file), "--a", "3", "--b", "4",
            "--alpha", "0.05,0.1", "--kind", "all", "--format", "json",
        )
        assert code == 0
        hpm_rows = [r for r in rows_of(out) if r["kind"] == "hpd_hpm"]
        # one solve per (record count, alpha), shared by hpd_exact and hpd_hpm
        assert len(calls) == len(hpm_rows) == 10
        assert len(set(calls)) == 10

    def test_lengths_grow_with_confidence(self, invoke, sample_b_file):
        code, out, _ = invoke(
            "interval", str(sample_b_file), "--a", "3", "--b", "4",
            "--alpha", "0.10,0.05,0.01", "--n", "2", "--kind", "equal_tails",
            "--format", "json",
        )
        assert code == 0
        lengths = [r["length"] for r in rows_of(out)]
        by_alpha = dict(zip([0.10, 0.05, 0.01], lengths))
        assert by_alpha[0.01] > by_alpha[0.05] > by_alpha[0.10]

    def test_library_consistency(self, invoke, sample_b_file):
        from recrange import PosteriorParams, equal_tails

        code, out, _ = invoke(
            "interval", str(sample_b_file), "--a", "3", "--b", "4",
            "--alpha", "0.10", "--n", "2", "--kind", "equal_tails",
            "--format", "json",
        )
        assert code == 0
        row = rows_of(out)[0]
        # posterior for the first record gap of the second series: s=4, A=b+range
        iv = equal_tails(PosteriorParams(s=4.0, A=6.013778), 0.10)
        assert math.isclose(row["lower"], iv.lower, rel_tol=1e-6)
        assert math.isclose(row["upper"], iv.upper, rel_tol=1e-6)

    def test_bad_alpha_exits_2(self, invoke, sample_b_file):
        code, _, _ = invoke(
            "interval", str(sample_b_file), "--a", "3", "--b", "4", "--alpha", "1.5"
        )
        assert code == 2

    def test_smallest_alpha_with_a_level(self, invoke, sample_b_file):
        # 1 - alpha/2 rounds to 1 here, which the HPD start must not need
        code, out, err = invoke(
            "interval", str(sample_b_file), "--a", "3", "--b", "4",
            "--alpha", "1e-16", "--kind", "all", "--format", "json",
        )
        assert (code, err) == (0, "")
        rows = rows_of(out)
        assert {r["kind"] for r in rows} == {"equal_tails", "hpd_exact", "hpd_hpm"}
        assert all(0.0 < r["lower"] < r["upper"] for r in rows)

    @pytest.mark.parametrize("alpha", ["1e-17", "1e-300", "0.1,1e-20"])
    def test_alpha_whose_level_rounds_to_one_exits_2(
        self, invoke, sample_b_file, alpha
    ):
        code, out, err = invoke(
            "interval", str(sample_b_file), "--a", "3", "--b", "4",
            "--alpha", alpha, "--kind", "hpd_exact",
        )
        assert code == 2
        bad = float(alpha.split(",")[-1])
        assert err.splitlines() == [f"error: {ALPHA_MESSAGE}, got {bad!r}"]


class TestRecordCounts:
    @pytest.mark.parametrize(
        "argv",
        [["estimate"], ["interval", "--kind", "equal_tails"]],
        ids=lambda argv: argv[0],
    )
    def test_selection_is_sorted_unique_and_never_empty(
        self, invoke, tmp_path, sample_a_file, argv
    ):
        one = tmp_path / "one.txt"
        one.write_text("3.5\n1.0\n2.0\n")  # a single upper record
        code, out, err = invoke(*argv, str(one), "--a", "3", "--b", "5")
        assert (code, out) == (2, "")
        assert "no record counts selected" in err

        code, out, _ = invoke(
            *argv, str(sample_a_file), "--a", "3", "--b", "5", "--n", "4,2,4",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert [r["n"] for r in doc["rows"]] == [2, 4]
        assert doc["manifest"]["parameters"]["n"] == [2, 4]


class TestSimulate:
    def test_point_mode_writes_artifacts(self, invoke, tmp_path):
        out_prefix = tmp_path / "run"
        code, out, _ = invoke(
            "simulate", "--a", "8", "--b", "2", "--n", "4..5", "--reps", "40",
            "--delta", "2", "--seed", "11", "--out", str(out_prefix),
        )
        assert code == 0
        csv_text = (tmp_path / "run.csv").read_text()
        json_doc = json.loads((tmp_path / "run.json").read_text())
        assert csv_text.startswith("# manifest:")
        assert json_doc["manifest"]["seed"] == 11
        assert {r["n"] for r in json_doc["rows"]} == {4, 5}

    def test_same_seed_byte_identical(self, invoke, tmp_path):
        args = (
            "simulate", "--a", "8", "--b", "2", "--n", "4", "--reps", "60",
            "--delta", "2", "--seed", "5",
        )
        invoke(*args, "--out", str(tmp_path / "a"))
        invoke(*args, "--out", str(tmp_path / "b"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_seed_env_fallback(self, invoke, tmp_path, monkeypatch):
        monkeypatch.setenv("RRB_SEED", "5")
        args = (
            "simulate", "--a", "8", "--b", "2", "--n", "4", "--reps", "60",
            "--delta", "2",
        )
        invoke(*args, "--out", str(tmp_path / "env"))
        monkeypatch.delenv("RRB_SEED")
        invoke(*args, "--seed", "5", "--out", str(tmp_path / "flag"))
        assert (tmp_path / "env.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()

    def test_bad_env_seed_exits_2(self, invoke, tmp_path, monkeypatch):
        monkeypatch.setenv("RRB_SEED", "not-a-seed")
        code, _, err = invoke(
            "simulate", "--a", "8", "--b", "2", "--n", "4", "--reps", "10",
            "--delta", "2", "--out", str(tmp_path / "x"),
        )
        assert code == 2

    @pytest.mark.parametrize("via_env", [False, True])
    def test_negative_seed_exits_2(self, invoke, monkeypatch, via_env):
        args = ["simulate", "--a", "3", "--b", "5", "--n", "3", "--reps", "10"]
        if via_env:
            monkeypatch.setenv("RRB_SEED", "-1")
        else:
            args += ["--seed", "-1"]
        code, out, err = invoke(*args)
        assert code == 2
        assert err.splitlines() == ["error: seed must be nonnegative, got -1"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "args, message",
        [
            # the prior's gamma draw of 1/delta underflows to 0
            (
                ["--mode", "interval", "--a", "0.001", "--b", "1", "--alpha", "0.1"],
                "a scale drawn from the prior (a, b) = (0.001, 1.0) is not a "
                "positive float, got inf",
            ),
            # 1/b overflows, so every drawn scale is 0
            (
                ["--mode", "interval", "--a", "3", "--b", "1e-320", "--alpha", "0.1"],
                "a scale drawn from the prior (a, b) = (3.0, 1e-320) is not a "
                "positive float, got 0.0",
            ),
            (
                ["--delta", "1e308", "--a", "3", "--b", "4"],
                "record values overflow at the true scale, delta = 1e+308",
            ),
        ],
        ids=["prior_shape_underflow", "prior_scale_overflow", "delta_overflow"],
    )
    def test_out_of_range_draws_exit_2_naming_their_source(
        self, invoke, tmp_path, args, message
    ):
        out = tmp_path / "x"
        code, _, err = invoke(
            "simulate", *args, "--n", "3", "--reps", "50", "--out", str(out)
        )
        assert code == 2
        assert err.splitlines() == [f"error: {message}"]
        assert list(tmp_path.iterdir()) == []

    def test_smallest_alpha_with_a_level(self, invoke, tmp_path):
        out = tmp_path / "x"
        code, _, err = invoke(
            "simulate", "--mode", "interval", "--a", "3", "--b", "4", "--n", "3",
            "--reps", "20", "--alpha", "1e-16", "--kind", "hpd_exact",
            "--out", str(out),
        )
        assert (code, err) == (0, "")
        assert json.loads(Path(f"{out}.json").read_text())["rows"][0]["alpha"] == 1e-16

    @pytest.mark.parametrize("alpha", ["1e-17", "1e-300"])
    def test_alpha_whose_level_rounds_to_one_exits_2(self, invoke, tmp_path, alpha):
        code, _, err = invoke(
            "simulate", "--mode", "interval", "--a", "3", "--b", "4", "--n", "3",
            "--reps", "20", "--alpha", alpha, "--kind", "hpd_exact",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert err.splitlines() == [f"error: {ALPHA_MESSAGE}, got {float(alpha)!r}"]

    def test_zero_reps_exits_2(self, invoke, tmp_path):
        code, _, _ = invoke(
            "simulate", "--a", "8", "--b", "2", "--n", "4", "--reps", "0",
            "--delta", "2", "--out", str(tmp_path / "x"),
        )
        assert code == 2

    def test_interval_mode(self, invoke, tmp_path):
        code, _, _ = invoke(
            "simulate", "--mode", "interval", "--a", "3", "--b", "4", "--n", "3",
            "--reps", "50", "--alpha", "0.1", "--seed", "2",
            "--out", str(tmp_path / "iv"),
        )
        assert code == 0
        doc = json.loads((tmp_path / "iv.json").read_text())
        row = doc["rows"][0]
        assert row["kind"] == "equal_tails"
        assert 0.0 <= row["empirical_coverage"] <= 1.0

    def test_interval_mode_all_kinds(self, invoke, tmp_path):
        code, _, err = invoke(
            "simulate", "--mode", "interval", "--a", "3", "--b", "4", "--n", "3",
            "--reps", "50", "--alpha", "0.1", "--kind", "all",
            "--out", str(tmp_path / "all"),
        )
        assert code == 0, err
        doc = json.loads((tmp_path / "all.json").read_text())
        rows = {r["kind"]: r for r in doc["rows"]}
        assert set(rows) == {"equal_tails", "hpd_exact", "hpd_hpm"}
        hpm, exact = rows["hpd_hpm"], rows["hpd_exact"]
        assert math.isclose(hpm["mean_length"], exact["mean_length"], rel_tol=1e-12)
        for row in rows.values():
            assert 0.0 <= row["empirical_coverage"] <= 1.0


class TestRisk:
    def test_exact_zero_risk(self, invoke):
        code, out, _ = invoke(
            "risk", "--m", "0", "--d", "2", "--n", "4", "--delta", "2",
            "--format", "json",
        )
        assert code == 0
        assert rows_of(out)[0]["risk"] == 0.0

    def test_boundary_classification(self, invoke):
        code, out, _ = invoke(
            "risk", "--m", "0.25", "--d", "0.25", "--n", "4", "--delta", "2",
            "--a", "3", "--b", "5", "--format", "json",
        )
        assert code == 0
        row = rows_of(out)[0]
        assert row["classification"] == "admissible_boundary"
        assert math.isclose(row["risk"], 0.203125, rel_tol=1e-12)

    def test_k_sweep_gap_decreases(self, invoke):
        code, out, _ = invoke(
            "risk", "--n", "4", "--b", "2", "--k-sweep", "1:1e6",
            "--k-points", "7", "--format", "json",
        )
        assert code == 0
        gaps = [abs(r["gap"]) for r in rows_of(out)]
        assert all(x > y for x, y in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-4

    def test_sweep_needs_b(self, invoke):
        code, _, _ = invoke("risk", "--n", "4", "--k-sweep", "1:100")
        assert code == 2

    def test_needs_some_mode(self, invoke):
        code, _, _ = invoke("risk", "--n", "4")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize(
        "args, column",
        [
            # delta * delta, b * b and b * b in the gap underflow to 0
            (["--m", "0.1", "--d", "1", "--delta", "1e-200"], "risk"),
            (["--m", "0.2", "--d", "0.1", "--a", "3", "--b", "1e-200"], "bayes_risk"),
            (["--b", "1e-200", "--k-sweep", "1:10", "--k-points", "3"], "r1"),
            # the risk itself overflows
            (["--m", "1e200", "--d", "0.1", "--delta", "1"], "risk"),
        ],
        ids=["tiny_delta", "tiny_b", "tiny_b_sweep", "huge_m"],
    )
    def test_out_of_range_values_exit_2(self, invoke, args, column, fmt):
        code, out, err = invoke("risk", "--n", "4", *args, "--format", fmt)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {column} is not finite for these inputs")


class TestReproduce:
    def test_table_one(self, invoke):
        code, out, _ = invoke("reproduce", "--table", "1", "--format", "json")
        assert code == 0
        rows = rows_of(out)
        assert [r["n"] for r in rows] == [2, 3, 4, 5, 6]
        assert math.isclose(rows[0]["mle_urr"], 4.319232, rel_tol=1e-6)
        assert math.isclose(rows[4]["bayes_squared"], 2.065256, rel_tol=1e-6)

    def test_unknown_table_exits_2(self, invoke):
        code, _, _ = invoke("reproduce", "--table", "2")
        assert code == 2

    def test_input_override(self, invoke, sample_a_file):
        code, out, _ = invoke(
            "reproduce", "--table", "1", "--input", str(sample_a_file),
            "--format", "json",
        )
        assert code == 0
        assert len(rows_of(out)) == 5


class TestTopLevel:
    def test_version_flag(self, invoke):
        code, out, _ = invoke("--version")
        assert code == 0

    def test_no_command_exits_2(self, invoke):
        code, _, _ = invoke()
        assert code == 2

    def test_csv_format_uses_full_precision(self, invoke, sample_a_file):
        code, out, _ = invoke(
            "estimate", str(sample_a_file), "--a", "3", "--b", "5", "--n", "2",
            "--estimators", "mle_urr", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# manifest:")
        assert lines[1].split(",")[0] == "n"
        value = float(lines[2].split(",")[1])
        assert math.isclose(value, 4.31923174, rel_tol=1e-8)
