"""CLI behavior: documents, exit codes, flags."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bitype
from bitype.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_process(*argv, **env):
    """``python -m bitype`` in a fresh interpreter, with extra environment variables."""
    env = dict(os.environ, PYTHONPATH=str(Path(bitype.__file__).parents[1]), **env)
    proc = subprocess.run(
        [sys.executable, "-m", "bitype", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestGen:
    def test_four_generators(self, capsys):
        code, out, _ = run(capsys, "gen", "--blocks", "2,2", "--t", "2", "--s", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 4
        assert sorted(doc["gens"]) == doc["gens"]

    def test_by_compositions_matches_direct(self, capsys):
        code, direct, _ = run(capsys, "gen", "--blocks", "2,2", "--t", "4", "--s", "2")
        code2, literal, _ = run(
            capsys, "gen", "--blocks", "2,2", "--t", "4", "--s", "2", "--by-compositions"
        )
        assert code == code2 == 0
        assert json.loads(direct)["gens"] == json.loads(literal)["gens"]

    def test_human_mode(self, capsys):
        code, out, _ = run(capsys, "gen", "--blocks", "2,2", "--t", "2", "--s", "2", "--human")
        assert code == 0 and "4 generators" in out

    def test_range_error_object_and_exit(self, capsys):
        code, out, _ = run(capsys, "gen", "--blocks", "2,2", "--t", "1", "--s", "2")
        assert code == 3
        assert json.loads(out)["error"]["type"] == "range"

    def test_usage_error(self, capsys):
        code = main(["gen", "--blocks", "2,2"])
        capsys.readouterr()
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code = main(["frobnicate"])
        capsys.readouterr()
        assert code == 2


class TestInvariants:
    def test_paper_instance(self, capsys):
        code, out, _ = run(capsys, "invariants", "--blocks", "2,2,2", "--t", "3", "--s", "2")
        doc = json.loads(out)
        assert code == 0
        assert doc["dimFormula"] == doc["dimOracle"] == 4
        assert doc["h"] == 2
        assert doc["unmixedFormula"] is True and doc["unmixedOracle"] is True
        assert doc["regFormula"] == 2
        assert ["x11", "x12"] in doc["minimalCovers"]

    def test_formula_nulls_outside_regime(self, capsys):
        code, out, _ = run(capsys, "invariants", "--blocks", "2,2", "--t", "8", "--s", "2")
        doc = json.loads(out)
        assert code == 0
        assert doc["dimFormula"] is None and doc["unmixedFormula"] is None
        assert doc["dimOracle"] == 3  # every singleton covers at the corner

    def test_guard_exit(self, capsys):
        code, out, _ = run(
            capsys,
            "invariants", "--blocks", "2,2", "--t", "3", "--s", "2",
            "--max-cover-vars", "2",
        )
        assert code == 4
        assert json.loads(out)["error"]["type"] == "guard"


class TestAss:
    def test_formula_oracle_agree(self, capsys):
        code, out, _ = run(
            capsys, "ass", "--blocks", "2,2", "--t", "15", "--s", "4", "--oracle"
        )
        doc = json.loads(out)
        assert code == 0
        assert len(doc["formula"]) == len(doc["oracle"]) == 10
        assert doc["agree"] is True

    def test_witnesses(self, capsys):
        code, out, _ = run(
            capsys, "ass", "--blocks", "2,2", "--t", "15", "--s", "4", "--witnesses"
        )
        doc = json.loads(out)
        assert doc["witnesses"]["x11+x12"] == "x11^3*x12^3*x21^4*x22^4"

    def test_out_of_regime_without_oracle(self, capsys):
        code, out, _ = run(capsys, "ass", "--blocks", "2,2", "--t", "4", "--s", "2")
        assert code == 3

    def test_out_of_regime_with_oracle(self, capsys):
        code, out, _ = run(capsys, "ass", "--blocks", "2,2", "--t", "4", "--s", "2", "--oracle")
        doc = json.loads(out)
        assert code == 0
        assert doc["formula"] is None
        assert len(doc["oracle"]) > 0


class TestBetti:
    def test_segre_square(self, capsys):
        code, out, _ = run(capsys, "betti", "--blocks", "2,2", "--t", "2", "--s", "2")
        doc = json.loads(out)
        assert code == 0
        assert doc["regularity"] == doc["regularityFormula"] == 1
        coarse = {(e["i"], e["j"]): e["rank"] for e in doc["coarse"]}
        assert coarse == {(0, 2): 4, (1, 3): 4, (2, 4): 1}

    def test_box_guard(self, capsys):
        code, out, _ = run(
            capsys, "betti", "--blocks", "2,2", "--t", "4", "--s", "2", "--max-box", "3"
        )
        assert code == 4


class TestSortCheck:
    def test_evidence(self, capsys):
        code, out, _ = run(
            capsys, "sort-check", "--blocks", "2,2", "--t", "2", "--s", "2", "--gb-evidence"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["sortable"] is True
        assert doc["relationCount"] == 1
        assert doc["violations"] == []
        assert doc["fibersChecked"] == {"2": 9, "3": 16}

    def test_plain(self, capsys):
        code, out, _ = run(capsys, "sort-check", "--blocks", "2,2", "--t", "11", "--s", "3")
        doc = json.loads(out)
        assert doc["sortable"] is True and doc["relationCount"] == 0

    def test_relation_guard_degrades_gracefully(self, capsys):
        code, out, _ = run(
            capsys,
            "sort-check", "--blocks", "2,2", "--t", "4", "--s", "2",
            "--max-pairs", "10",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["sortable"] is True
        assert doc["relationCount"] is None and "guardNote" in doc

    def test_many_variables(self, capsys):
        # 66 variables, wider than a 64-bit variable mask
        code, out, err = run(
            capsys,
            "sort-check", "--blocks", "33,33", "--t", "2", "--s", "1",
            "--max-pairs", "1000",
        )
        assert code == 0 and "Traceback" not in err
        doc = json.loads(out)
        assert doc["sortable"] is True and doc["violation"] is None
        assert doc["relationCount"] is None and "guardNote" in doc

    @pytest.mark.parametrize("value", ["1", "0", "-3"])
    def test_max_degree_below_two_is_a_usage_error(self, capsys, value):
        # below degree 2 there is no fiber to check, so no evidence to report
        code, out, err = run(
            capsys,
            "sort-check", "--blocks", "2,2", "--t", "2", "--s", "2",
            "--gb-evidence", "--max-degree", value,
        )
        assert code == 2 and out == ""
        assert f"--max-degree: must be at least 2, got {value}" in err


class TestGuardFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ("betti", "--max-box"),
            ("ass", "--oracle", "--max-witness-box"),
            ("invariants", "--max-cover-vars"),
            ("sort-check", "--max-pairs"),
        ],
        ids=lambda argv: argv[-1],
    )
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_non_positive_cap_is_a_usage_error(self, capsys, argv, value):
        *command, flag = argv
        code, out, err = run(
            capsys, *command, "--blocks", "2,2", "--t", "2", "--s", "2", flag, value
        )
        assert code == 2 and out == ""
        assert f"{flag}: must be at least 1, got {value}" in err


class TestJobs:
    @pytest.mark.parametrize("value", ["0", "-3", "x"])
    def test_rejected_as_usage_error(self, capsys, value):
        code, out, err = run(
            capsys, "gen", "--blocks", "2,2", "--t", "2", "--s", "2", "--jobs", value
        )
        assert code == 2 and out == ""
        assert "--jobs" in err

    def test_positive_accepted(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--blocks", "2,2", "--t", "2", "--s", "2", "--jobs", "2"
        )
        assert code == 0 and json.loads(out)["count"] == 4


class TestBrokenPipe:
    def test_closed_stdout_exits_one_without_traceback(self):
        # the 678 KB document overflows the pipe, so the write hits the closed end
        env = dict(os.environ, PYTHONPATH=str(Path(bitype.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "bitype", "gen", "--blocks", "33,33", "--t", "2", "--s", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err


class TestGraph:
    def test_walk_ideal_matches(self, capsys):
        code, out, _ = run(capsys, "graph", "--blocks", "2,2", "--t", "4")
        doc = json.loads(out)
        assert code == 0
        assert doc["equalsLStar"] is True
        assert len(doc["generators"]) == 17
        assert len(doc["edges"]) == 8

    def test_edge_ideal_remark(self, capsys):
        code, out, _ = run(capsys, "graph", "--blocks", "2,2", "--edge-ideal")
        doc = json.loads(out)
        assert code == 0
        assert doc["equalsLStar"] is False
        assert len(doc["generators"]) == 8

    def test_size_three_shortfall_is_data(self, capsys):
        code, out, _ = run(capsys, "graph", "--blocks", "3,1", "--t", "4")
        doc = json.loads(out)
        assert code == 0 and doc["equalsLStar"] is False

    def test_dot_output(self, capsys, tmp_path):
        target = tmp_path / "g.dot"
        code, out, _ = run(capsys, "graph", "--blocks", "1,1", "--t", "3", "--dot", str(target))
        assert code == 0
        assert "x11 -- x21" in target.read_text()

    def test_low_degree_rejected(self, capsys):
        code, out, _ = run(capsys, "graph", "--blocks", "2,2", "--t", "2")
        assert code == 3

    def test_unwritable_dot_path_is_a_range_error(self, tmp_path):
        target = tmp_path / "missing" / "g.dot"
        code, out, err = run_process("graph", "--blocks", "2,2", "--t", "4", "--dot", str(target))
        assert code == 3 and "Traceback" not in err
        error = json.loads(out)["error"]
        assert error["type"] == "range" and str(target) in error["message"]
        assert not target.exists()


class TestReport:
    def test_small_grid_csv(self, capsys):
        code, out, _ = run(capsys, "report", "--grid", "small")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "blocks,t,s,quantity,formula,oracle,agree,status"
        assert len(lines) > 40
        # disagreements appear as rows, not failures
        assert any(",false," in line for line in lines)

    def test_unknown_grid(self, capsys):
        code, out, _ = run(capsys, "report", "--grid", "nope")
        assert code == 3

    def test_timings_flag_adds_column(self, capsys):
        code, out, _ = run(capsys, "report", "--grid", "small", "--timings")
        assert out.splitlines()[0].endswith(",millis")

    def test_human_mode(self, capsys):
        code, out, _ = run(capsys, "report", "--grid", "small", "--human")
        assert code == 0
        assert "agree" in out and "regularity" in out


class TestGraphModes:
    def test_ordered_and_no_span_flags_echoed(self, capsys):
        code, out, _ = run(
            capsys, "graph", "--blocks", "2,2,2", "--t", "3", "--ordered", "--no-span"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["ordered"] is True and doc["spanBlocks"] is False
        # literal enumeration admits block-skipping walks, so no identification
        assert doc["equalsLStar"] is False

    def test_consecutive_mode(self, capsys):
        code, out, _ = run(
            capsys, "graph", "--blocks", "2,2,2", "--t", "3", "--mode", "consecutive"
        )
        doc = json.loads(out)
        assert code == 0
        # spanning walks in consecutive mode still realize the eight generators
        assert len(doc["generators"]) == 8 and doc["equalsLStar"] is True


class TestGuardEnvironment:
    def test_non_integer_cap_is_a_range_error_where_it_is_used(self):
        code, out, err = run_process(
            "betti", "--blocks", "2,2", "--t", "2", "--s", "2", BITYPE_MAX_BOX="abc"
        )
        assert code == 3 and "Traceback" not in err
        assert json.loads(out)["error"]["message"] == "BITYPE_MAX_BOX must be an integer, got 'abc'"
        # gen reads no guard, so the bad value does not concern it
        code, out, err = run_process(
            "gen", "--blocks", "2,2", "--t", "4", "--s", "2", BITYPE_MAX_BOX="abc"
        )
        assert code == 0 and "Traceback" not in err
        assert json.loads(out)["count"] == 17

    def test_integer_cap_is_honoured(self):
        code, out, _ = run_process(
            "betti", "--blocks", "2,2", "--t", "4", "--s", "2", BITYPE_MAX_BOX="3"
        )
        assert code == 4 and "exceeds cap 3" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_non_positive_cap_is_a_range_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("BITYPE_MAX_BOX", value)
        code, out, _ = run(capsys, "betti", "--blocks", "2,2", "--t", "2", "--s", "2")
        assert code == 3
        assert json.loads(out)["error"] == {
            "type": "range",
            "message": f"BITYPE_MAX_BOX must be at least 1, got {int(value)}",
        }


class TestRecursionLimit:
    @pytest.mark.parametrize(
        "argv,n_vars",
        [
            (("gen", "--blocks", "700,700", "--t", "2", "--s", "1"), 1400),
            (("sort-check", "--blocks", "600,600", "--t", "2", "--s", "1"), 1200),
        ],
        ids=["gen", "sort-check"],
    )
    def test_wide_blocks_trip_a_guard(self, argv, n_vars):
        code, out, err = run_process(*argv)
        assert code == 4 and "Traceback" not in err
        error = json.loads(out)["error"]
        assert error["type"] == "guard"
        assert f"{n_vars} variables" in error["message"]


_GUARD_FLAGS = {
    "invariants": ("--max-cover-vars", 9),
    "ass": ("--max-witness-box", 512),
    "betti": ("--max-box", 256),
    "sort-check": ("--max-pairs", 200),
}
_SWITCHES = {
    "gen": ("--by-compositions",),
    "ass": ("--oracle", "--witnesses"),
    "sort-check": ("--gb-evidence",),
    "graph": ("--ordered", "--no-span", "--edge-ideal"),
}


@st.composite
def cli_argv(draw):
    """Small invocations of every subcommand except report; about a quarter invalid."""
    command = draw(st.sampled_from(["gen", "invariants", "ass", "betti", "sort-check", "graph"]))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    s = draw(st.integers(1, 2))
    t_lo = max(len(sizes), s, 3 if command == "graph" else 2)
    t_hi = 6 if command == "graph" else min(s * sum(sizes), 4)
    t = draw(st.integers(t_lo, max(t_lo, t_hi)))
    blocks = ",".join(map(str, sizes))
    # spoil at most one value, so every command also meets its range errors
    spoil = draw(st.sampled_from([None, None, None, "blocks", "t", "s"]))
    if spoil == "blocks":
        blocks = draw(st.sampled_from(["", "x", "2,,2", "0", "2,-1"]))
    elif spoil == "t":
        t = draw(st.integers(-1, 1))
    elif spoil == "s":
        s = draw(st.sampled_from([-1, 0, t + 1]))
    argv = [command, "--blocks", blocks, "--t", str(t)]
    if command == "graph":
        argv += ["--mode", draw(st.sampled_from(["all", "consecutive"]))]
    else:
        argv += ["--s", str(s)]
    if command in _GUARD_FLAGS:
        flag, top = _GUARD_FLAGS[command]
        argv += [flag, str(draw(st.integers(-1, top)))]
    argv += [flag for flag in _SWITCHES.get(command, ()) if draw(st.booleans())]
    if "--gb-evidence" in argv:
        argv += ["--max-degree", str(draw(st.integers(-1, 2)))]
    if draw(st.booleans()):
        argv.append("--human")
    return argv


class TestFuzz:
    @given(cli_argv())
    @settings(max_examples=300, deadline=None)
    def test_documented_exit_code_and_json(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3, 4), (argv, code)
        if code in (3, 4) or (code == 0 and "--human" not in argv):
            json.loads(out.getvalue())
