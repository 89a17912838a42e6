"""CLI behavior: documents, exit codes, flags."""

import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import bitype
from bitype import cli
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

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ("--blocks", "3,3,3", "--t", "14", "--s", "3"),
                "0c59a4d93c62febf4592b0a1bfecf159c0d922ac21c9b1dfe795ac54ef0f4929",
            ),
            (
                ("--blocks", "1,3,1", "--t", "5", "--s", "3"),
                "641024107b7cbabf4c1e02cfaf20d004ea8e1a329b1fd30290ac39b0b12c3461",
            ),
            (
                ("--blocks", "33,33", "--t", "2", "--s", "1"),
                "6fe862f208433633cf56115a60ffc749fef073a393300d7eaf491c003d602f81",
            ),
            (
                ("--blocks", "12", "--t", "6", "--s", "2"),
                "c025c9d6d34b488b14e674944e98e9b27fd480f5761bb916cb2370a2efa97f16",
            ),
            (
                ("--blocks", "2,2", "--t", "4", "--s", "2", "--human"),
                "237310fb3e0ef516ae22d6105751213164e99a2b26aa20d68556ea72fed80fbd",
            ),
            (
                ("--blocks", "3,3,3", "--t", "14", "--s", "3", "--by-compositions"),
                "35ab0fd070bac2069e7887a454daa4ec30aa3788cc8269ecb161a1a8b4ae82bd",
            ),
        ],
    )
    def test_document_is_pinned(self, capsys, argv, digest):
        code, out, err = run(capsys, "gen", *argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ("--blocks", "2,2,2", "--t", "3", "--s", "2"),
                "d2f4f13674f2a2c65611c7464af553e35ecc34b84167743d2686a9b0ef142992",
            ),
            (
                ("--blocks", "2,2", "--t", "8", "--s", "2"),
                "0b13680a04c4d45071148c4e01303d315de95cad9cc896bcbf088ab3d52ed7a6",
            ),
            (
                ("--blocks", "1,3,1", "--t", "5", "--s", "3"),
                "37b6cc7de27f6a0adb3be8faad217fddb15e8525a7b09ae263036c1b34ecf85b",
            ),
            (
                ("--blocks", "3,3", "--t", "5", "--s", "2", "--human"),
                "7c0152434a1be0db696b7a3fa3ecf4223029adf4e4dffa47ce41ce130f75bd81",
            ),
        ],
    )
    def test_document_is_pinned(self, capsys, argv, digest):
        code, out, err = run(capsys, "invariants", *argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ("--blocks", "2,2", "--t", "15", "--s", "4"),
                "8b21d9edad8db65bb6a7900caf2f009eb08176acb9bd09255392313faf7737ed",
            ),
            (
                # out of regime: the witnesses come from the oracle
                ("--blocks", "2,2,2", "--t", "6", "--s", "3"),
                "1ceedf6bb1005a6af6181e8d956cf5ea62e08a5019184ec5e8d936001328469d",
            ),
            (
                ("--blocks", "1,3,1", "--t", "9", "--s", "2"),
                "48515db8fdb8085730fef3402caa5372d0834080504e279c5f7de3b0556dc31c",
            ),
            (
                ("--blocks", "2,3", "--t", "5", "--s", "3", "--human"),
                "239097263229e0b1adc204c37ce4011503ab8bf93ca404d9feac1c9a35291052",
            ),
        ],
    )
    def test_oracle_document_is_pinned(self, capsys, argv, digest):
        code, out, err = run(capsys, "ass", *argv, "--oracle", "--witnesses")
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# Betti documents whose lcm box exceeds the default cap, with the cap each runs under.
PAST_CAP_BOXES = {"2,2,2,2": "7000", "3,3,3": "20000"}


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

    @pytest.mark.parametrize(
        "blocks,t,s,digest",
        [
            ("2,2,2", "6", "3", "b0530979e8522c043ad227f05ef1e9278256f0d4aab4c03b2afb6db803b27786"),
            ("3,3", "5", "3", "54440246920edcda97b1aca40cbeb4a3a714c85138cf7898f500b9d63891cb06"),
            ("3,1,3", "5", "2", "0121f928d36654901c276b4be6d06b9609322316c9c6ea4c22bc45496ba4dbb0"),
            ("1,3,3", "9", "2", "046f5e15da8c586c15f5a0b263b46857284b89c30cbc03568241e1f0b72bd82b"),
            ("2,2,2,2", "6", "2", "55c8631eabd4226339fd7f138a36ac5ab7efc37d1b1191337dc11c2dd829c8a3"),
            ("3,3,3", "6", "2", "d9f86fdb6e5fa93f8f78c7996274abd36c14ebf1266e975d0a082b813e709fd9"),
        ],
    )
    def test_document_is_pinned(self, capsys, blocks, t, s, digest):
        guard = ["--max-box", PAST_CAP_BOXES[blocks]] if blocks in PAST_CAP_BOXES else []
        code, out, err = run(capsys, "betti", "--blocks", blocks, "--t", t, "--s", s, *guard)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    def test_pair_guard_bounds_the_evidence(self, capsys):
        code, out, _ = run(
            capsys,
            "sort-check", "--blocks", "2,2", "--t", "4", "--s", "2",
            "--gb-evidence", "--max-pairs", "3",
        )
        assert code == 4
        assert json.loads(out) == {
            "error": {"message": "153 generator pairs exceed the cap 3", "type": "guard"}
        }

    @pytest.mark.parametrize(
        "blocks,t,s,digest",
        [
            ("2,2", "4", "2", "57c1c1a60b7123c1768950aac4ed5d6515c5f735b720c2f3f04a359e03504cca"),
            ("1,3,1", "5", "3", "509002199563527bb62a7e5cd57611022f43f3b2f383548c27e379a366536230"),
            ("2,2", "11", "3", "e0c5f71e8e2dddd90a719e41644e797efdc5ed8d54036264014577b558d1f5c2"),
            ("2,3", "4", "2", "83891f111904f5eaa1008c68daabd2e038a2883b355ff0b969f261257ba75979"),
        ],
    )
    def test_evidence_document_is_pinned(self, capsys, blocks, t, s, digest):
        code, out, err = run(
            capsys,
            "sort-check", "--blocks", blocks, "--t", t, "--s", s,
            "--gb-evidence", "--max-degree", "3",
        )
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ("--blocks", "2,2", "--t", "11", "--s", "3"),
                "f0c3ad1fe40ed55a6d95e2d4d4295b83e37d44d82fab9c57c7d39d2c1ec2598f",
            ),
            (
                ("--blocks", "2,3", "--t", "4", "--s", "2"),
                "608c0b40a24eacb843e3865d4f482970c116eaa5376581df8f8f68a0d75614fe",
            ),
            (
                # the pair guard trips, so the document carries a guardNote
                ("--blocks", "2,2", "--t", "4", "--s", "2", "--max-pairs", "10"),
                "496e11af40d43daeb5b8e0a0a8f221b7656f21005c3ac16246fcc6b48b10df07",
            ),
            (
                ("--blocks", "1,3,1", "--t", "5", "--s", "3", "--human"),
                "220a50d41684dff5afe792c6c2e3fca7a43e41b83be2c98a2475cbed34d8ffc7",
            ),
        ],
    )
    def test_plain_document_is_pinned(self, capsys, argv, digest):
        code, out, err = run(capsys, "sort-check", *argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ("--blocks", "2,2", "--t", "4"),
                "2d6b536990850d3b93822f1d4df7276001f1f615c0055dd1fd2b7bba450bc4eb",
            ),
            (
                ("--blocks", "2,2", "--edge-ideal"),
                "dfa364a320f50977a201b7129f62f30e848b29fc4658a853be76a5ebfcca5835",
            ),
            (
                ("--blocks", "2,2,2", "--t", "3", "--mode", "consecutive", "--ordered"),
                "139ac7cf1d39c3ae9e8b350cbae1e4fe682da3759d72ba2eb333ba86d4b61a56",
            ),
            (
                ("--blocks", "3,1", "--t", "4"),
                "18ca6e7fc663b47e64b19466bd0905277ed68bf3f2d155e7e97c421507c2f179",
            ),
        ],
    )
    def test_document_is_pinned(self, capsys, argv, digest):
        code, out, err = run(capsys, "graph", *argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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


_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028é😀')))
_INTS = st.one_of(st.integers(), st.integers(-(2**80), 2**80))
_LEAVES = st.one_of(
    st.none(), st.booleans(), _INTS, _TEXT, st.lists(st.one_of(_INTS, st.booleans()))
)
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=24,
)


class TestWriter:
    @given(_DOCUMENTS)
    @example([1, True, -2, False, 2**70])
    @example({"": {}, "a": [], "b": (), "\u00e9\"\\\n": ("x", None, (1, 2))})
    @settings(max_examples=200, deadline=None)
    def test_matches_the_stdlib(self, doc):
        assert cli._dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)

    def test_bools_in_an_int_list_stay_bools(self):
        assert cli._dumps([1, True, 0, False]) == "[\n  1,\n  true,\n  0,\n  false\n]"

    @pytest.mark.parametrize(
        "doc", [1.5, {"a": [0, 0.0]}, {1, 2}, [frozenset()], {1: "a"}, {"a": {None: 1}}]
    )
    def test_other_types_raise(self, doc):
        with pytest.raises(TypeError):
            cli._dumps(doc)


README = Path(__file__).parents[1] / "README.md"


def readme_cli_examples(dot_path):
    """The argv of every ``bitype`` example in the README's CLI section but the full report."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)[1:]
        if argv and argv[:3] != ["report", "--grid", "full"]:
            examples.append([str(dot_path) if a == "graph.dot" else a for a in argv])
    return examples


class TestParserReuse:
    def test_main_builds_one_parser(self, capsys, monkeypatch):
        build_parser, built = cli.build_parser, []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        codes = [
            main(["gen", "--blocks", "2,2", "--t", "2", "--s", "2"]),
            main(["gen", "--blocks", "2,2"]),
            main(["betti", "--blocks", "2,2", "--t", "2", "--s", "2", "--human"]),
            main(["gen", "--blocks", "2,2", "--t", "4", "--s", "2"]),
        ]
        capsys.readouterr()
        assert codes == [0, 2, 0, 0]
        assert len(built) == 1
        assert build_parser() is not build_parser()

    def test_in_process_sequence_matches_fresh_processes(self, capsys, tmp_path):
        examples = readme_cli_examples(tmp_path / "graph.dot")
        assert len(examples) == 9
        usage = ["gen", "--blocks", "2,2"]
        guard = ["betti", "--blocks", "2,2", "--t", "4", "--s", "2", "--max-box", "3"]
        sequence = [usage, *examples, *(argv + ["--human"] for argv in examples), guard, *examples]
        expected = {}
        for argv in sequence:
            code, out, err = run(capsys, *argv)
            key = tuple(argv)
            if key not in expected:
                expected[key] = run_process(*argv)
            assert (code, out, err) == expected[key], argv
        assert {expected[tuple(usage)][0], expected[tuple(guard)][0]} == {2, 4}

    def test_import_builds_no_parser(self):
        probe = (
            "import argparse, contextlib, io\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import bitype.cli\n"
            "after_import = len(built)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    bitype.cli.main(['gen', '--blocks', '2,2', '--t', '2', '--s', '2'])\n"
            "print(after_import, len(built) > 0)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(bitype.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "True"]


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
