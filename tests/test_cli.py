"""CLI behavior: documents, exit codes, flags."""

import json

import pytest

from bitype.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
        # 66 variables: past the 64 the compiled box scan could hold
        code, out, err = run(
            capsys,
            "sort-check", "--blocks", "33,33", "--t", "2", "--s", "1",
            "--max-pairs", "1000",
        )
        assert code == 0 and "Traceback" not in err
        doc = json.loads(out)
        assert doc["sortable"] is True and doc["violation"] is None
        assert doc["relationCount"] is None and "guardNote" in doc


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
