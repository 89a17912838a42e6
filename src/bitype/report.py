"""Grid cross-validation: every closed form against its oracle.

A report row carries one (parameters, quantity) cell: the formula value,
the oracle value, whether they agree, and a status flag.  Disagreement is
data, never an exception; range and guard trips are recorded per row.
Rows are emitted in a canonical order and, by default, without timings so
identical invocations produce byte-identical documents.
"""

import time
from dataclasses import dataclass
from itertools import product as iproduct

from . import assoc, covers, homology, sorting
from .builders import IdealParameters, bitype_ideal, make_params
from .core import BlockStructure
from .errors import ParameterRangeError, SizeGuardError
from .graphs import generalized_graph_ideal, strong_block_graph


@dataclass(frozen=True)
class ReportRow:
    blocks: tuple[int, ...]
    t: int
    s: int
    quantity: str
    formula: str
    oracle: str
    agree: str  # "true" / "false" / ""
    status: str  # "ok" / "range" / "guard"
    millis: float

    def sort_key(self):
        return (self.quantity, self.blocks, self.s, self.t)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _row(blocks, t, s, quantity, fn) -> ReportRow:
    start = time.perf_counter()
    status = "ok"
    formula = oracle = agree = ""
    try:
        result = fn()
        if len(result) == 3:
            f_val, o_val, agree_val = result
        else:
            f_val, o_val = result
            agree_val = f_val == o_val
        formula, oracle, agree = _fmt(f_val), _fmt(o_val), _fmt(agree_val)
    except ParameterRangeError:
        status = "range"
    except SizeGuardError:
        status = "guard"
    millis = (time.perf_counter() - start) * 1000.0
    return ReportRow(tuple(blocks), t, s, quantity, formula, oracle, agree, status, millis)


def _regularity_cell(params: IdealParameters):
    ideal = bitype_ideal(params)
    return covers.regularity_formula(params), homology.regularity_oracle(ideal)


def _dim_cell(params: IdealParameters):
    ideal = bitype_ideal(params)
    return covers.dim_formula(params), covers.dim_oracle(ideal)


def _unmixed_cell(params: IdealParameters):
    ideal = bitype_ideal(params)
    return covers.unmixed_formula(params), covers.is_unmixed(ideal)


def _ass_cell(params: IdealParameters):
    formula = {p.indices for p in assoc.associated_primes_formula(params)}
    oracle = {
        p.indices for p in assoc.associated_primes_oracle(bitype_ideal(params))
    }
    # counts are shown; agreement is set equality
    return len(formula), len(oracle), formula == oracle


def _sortable_cell(params: IdealParameters):
    return True, sorting.sortable_violation(params) is None


def _graph_cell(params: IdealParameters):
    graph = strong_block_graph(params.blocks, "all")
    walk = generalized_graph_ideal(graph, params.t)
    direct = bitype_ideal(params)
    return len(direct), len(walk), walk == direct


_CELLS = {
    "regularity": _regularity_cell,
    "dim": _dim_cell,
    "unmixed": _unmixed_cell,
    "ass": _ass_cell,
    "sortable": _sortable_cell,
    "graph": _graph_cell,
}


def _valid_params(blocks, t, s) -> IdealParameters | None:
    try:
        return make_params(blocks, t, s)
    except ParameterRangeError:
        return None


def _block_tuples(n_range, m_range):
    for n in n_range:
        yield from iproduct(m_range, repeat=n)


def grid_cells(name: str) -> list[tuple[tuple[int, ...], int, int, str]]:
    """The (blocks, t, s, quantity) cells of a named grid, canonical order."""
    cells: list[tuple[tuple[int, ...], int, int, str]] = []

    def add(blocks, t, s, quantity):
        if _valid_params(blocks, t, s) is not None:
            cells.append((tuple(blocks), t, s, quantity))

    if name == "small":
        for blocks in [(1, 1), (2, 1), (2, 2)]:
            for s in (1, 2):
                for t in range(2, min(2 * sum(blocks), 5) + 1):
                    add(blocks, t, s, "regularity")
        for blocks in [(2, 2), (2, 3)]:
            n_total = sum(blocks)
            for t in range(2, 2 * n_total):
                add(blocks, t, 2, "dim")
                add(blocks, t, 2, "unmixed")
        for s in (2, 3, 4):
            for r in range(1, s):
                add((2, 2), 4 * s - r, s, "ass")
        for t in range(2, 9):
            add((2, 2), t, 2, "sortable")
        for blocks, ts in [((2, 2), (3, 4, 5)), ((2, 2, 2), (3,)), ((1, 3), (3, 4, 5))]:
            for t in ts:
                add(blocks, t, 2, "graph")
    elif name == "full":
        for blocks in _block_tuples((1, 2, 3), (1, 2)):
            n_total = sum(blocks)
            for s in (1, 2, 3):
                for t in range(len(blocks), min(s * n_total, 6) + 1):
                    add(blocks, t, s, "regularity")
        for blocks in _block_tuples((2, 3), (1, 2, 3)):
            n_total = sum(blocks)
            for s in (2, 3):
                for t in range(2, s * n_total):
                    add(blocks, t, s, "dim")
                    add(blocks, t, s, "unmixed")
        for blocks in _block_tuples((1, 2, 3, 4, 5), (1, 2, 3, 4, 5)):
            n_total = sum(blocks)
            if n_total > 5:
                continue
            for s in (2, 3, 4):
                for r in range(1, s):
                    add(blocks, s * n_total - r, s, "ass")
        for blocks in _block_tuples((1, 2, 3), (1, 2, 3)):
            n_total = sum(blocks)
            for s in (1, 2, 3):
                for t in range(len(blocks), 3 * n_total + 1):
                    add(blocks, t, s, "sortable")
        for blocks in _block_tuples((2,), (1, 2, 3)):
            n_total = sum(blocks)
            for t in range(3, 2 * n_total):
                add(blocks, t, 2, "graph")
        add((2, 2, 2), 3, 2, "graph")
    else:
        raise ParameterRangeError(f"unknown grid {name!r}; use 'small' or 'full'")
    return cells


def report_grid(name: str, jobs: int = 1) -> list[ReportRow]:
    cells = grid_cells(name)

    def run(cell):
        blocks, t, s, quantity = cell
        params = _valid_params(blocks, t, s)
        return _row(blocks, t, s, quantity, lambda: _CELLS[quantity](params))

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(run, cells))
    else:
        rows = [run(cell) for cell in cells]
    rows.sort(key=ReportRow.sort_key)
    return rows


def rows_to_csv(rows: list[ReportRow], timings: bool = False) -> str:
    header = ["blocks", "t", "s", "quantity", "formula", "oracle", "agree", "status"]
    if timings:
        header.append("millis")
    lines = [",".join(header)]
    for row in rows:
        fields = [
            ".".join(map(str, row.blocks)),
            str(row.t),
            str(row.s),
            row.quantity,
            row.formula,
            row.oracle,
            row.agree,
            row.status,
        ]
        if timings:
            fields.append(f"{row.millis:.3f}")
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def disagreements(rows: list[ReportRow]) -> list[ReportRow]:
    return [r for r in rows if r.agree == "false"]
