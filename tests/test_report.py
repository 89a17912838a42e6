"""Grid report: row structure, canonical order, disagreement handling."""

import hashlib

import pytest

from bitype import ParameterRangeError, bitype_ideal, covers, report
from bitype.report import (
    ReportRow,
    disagreements,
    grid_cells,
    report_grid,
    rows_to_csv,
)


def test_small_grid_cells_are_valid_and_canonical():
    cells = grid_cells("small")
    assert len(cells) > 40
    quantities = {q for (_, _, _, q) in cells}
    assert quantities == {"regularity", "dim", "unmixed", "ass", "sortable", "graph"}


def test_full_grid_cells_cover_more():
    assert len(grid_cells("full")) > len(grid_cells("small"))


def test_unknown_grid_rejected():
    with pytest.raises(ParameterRangeError):
        grid_cells("galactic")


def test_rows_sorted_and_disagreements_are_rows():
    rows = report_grid("small")
    assert rows == sorted(rows, key=ReportRow.sort_key)
    recorded = disagreements(rows)
    # the known shortfalls show up as data rows with ok status
    assert any(r.quantity == "graph" for r in recorded)
    assert all(r.status == "ok" for r in recorded)
    # every formula-defined regularity/dim/ass row on this grid agrees
    for row in rows:
        if row.quantity in ("regularity", "dim", "ass") and row.status == "ok":
            assert row.agree == "true", row


def test_csv_shape_and_determinism():
    rows = report_grid("small")
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "blocks,t,s,quantity,formula,oracle,agree,status"
    assert len(lines) == len(rows) + 1
    assert rows_to_csv(report_grid("small")) == text
    timed = rows_to_csv(rows, timings=True)
    assert timed.splitlines()[0].endswith(",millis")


def test_full_grid_csv_is_pinned():
    text = rows_to_csv(report_grid("full"))
    assert hashlib.md5(text.encode()).hexdigest() == "90eef3fe747bb3a96a42760c0039e47f"


def test_small_grid_csv_is_pinned():
    text = rows_to_csv(report_grid("small"))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "1285b0bbb7ffb9c409ffecf997590ee5f5ba4e1b88b39142ccd2cd47584e919e"


def test_each_triple_builds_its_ideal_at_most_once(monkeypatch):
    built = []

    def counting(params):
        built.append((params.blocks.block_sizes, params.t, params.s))
        return bitype_ideal(params)

    monkeypatch.setattr(report, "bitype_ideal", counting)
    report_grid("small")
    cells = grid_cells("small")
    needing = {(b, t, s) for b, t, s, q in cells if q != "sortable"}
    sortable_only = {(b, t, s) for b, t, s, _ in cells} - needing
    assert sortable_only  # the grid exercises the never-built case
    assert sorted(built) == sorted(needing)


def test_each_triple_enumerates_its_covers_at_most_once(monkeypatch):
    enumerated = []
    true_covers = covers.minimal_vertex_covers

    def counting(ideal, max_vars=None):
        enumerated.append(ideal)
        return true_covers(ideal, max_vars)

    monkeypatch.setattr(covers, "minimal_vertex_covers", counting)
    report_grid("small")
    needing = {(b, t, s) for b, t, s, q in grid_cells("small") if q in ("dim", "unmixed")}
    assert len(enumerated) == len(needing)
