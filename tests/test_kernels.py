"""Pure and compiled kernels must be output-identical; both must match naive references.

The cross-checks take the ``speedups`` fixture and skip when the compiled
extension is not built; the reference tests run on either lane.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from bitype import kernels
from bitype.kernels import _pure


@pytest.fixture(scope="module")
def speedups():
    return pytest.importorskip("bitype.kernels._speedups")


@st.composite
def table_and_vector(draw):
    width = draw(st.integers(1, 5))
    count = draw(st.integers(0, 5))
    flat = draw(
        st.lists(st.integers(0, 3), min_size=count * width, max_size=count * width)
    )
    vec = tuple(draw(st.lists(st.integers(0, 4), min_size=width, max_size=width)))
    return tuple(flat), count, width, vec


@given(table_and_vector())
@settings(max_examples=120, deadline=None)
def test_contains_and_masks_agree(speedups, data):
    flat, count, width, vec = data
    pure = _pure.make_table(flat, count, width)
    fast = speedups.make_table(flat, count, width)
    assert pure.contains(vec) == fast.contains(vec)
    assert pure.deficit_masks(vec) == fast.deficit_masks(vec)
    assert pure.colon_prime_mask(vec) == fast.colon_prime_mask(vec)


@given(table_and_vector())
@settings(max_examples=40, deadline=None)
def test_ass_scan_agrees(speedups, data):
    flat, count, width, _ = data
    bounds = tuple(2 for _ in range(width))
    pure = _pure.make_table(flat, count, width).ass_scan(bounds)
    fast = speedups.make_table(flat, count, width).ass_scan(bounds)
    assert pure == fast


def reference_rank(rows) -> int:
    """Gaussian elimination over exact fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    rank = 0
    cols = len(m[0])
    for col in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][col]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col] / inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


small_matrices = st.integers(1, 5).flatmap(
    lambda n_cols: st.lists(
        st.tuples(*[st.integers(-4, 4)] * n_cols), min_size=1, max_size=5
    )
)


@given(small_matrices)
@settings(max_examples=80, deadline=None)
def test_rank_matches_fraction_reference(rows):
    expected = reference_rank(rows)
    assert _pure.rank_int_rows(rows) == expected
    assert kernels.rank_int_rows(rows) == expected


@given(small_matrices)
@settings(max_examples=80, deadline=None)
def test_compiled_rank_matches_fraction_reference(speedups, rows):
    assert speedups.rank_int_rows(rows) == reference_rank(rows)


def test_rank_overflow_falls_back():
    big = 1 << 70
    rows = [(big, 1), (1, big)]
    assert kernels.rank_int_rows(rows) == 2
    assert _pure.rank_int_rows(rows) == 2


def test_compiled_rank_raises_on_overflow(speedups):
    big = 1 << 70
    with pytest.raises(OverflowError):
        speedups.rank_int_rows([(big, 1), (1, big)])


def test_rank_guard_trips_inside_elimination():
    big = (1 << 40) + 7
    rows = [(big, big - 1, 1), (big - 1, big, 2), (1, 2, big)]
    # int64 intermediates overflow here, but the selector still answers
    assert kernels.rank_int_rows(rows) == reference_rank(rows)


@pytest.mark.parametrize(
    "blocks,t,s",
    [((2,), 2, 1), ((1, 1), 2, 2), ((2, 2), 4, 2), ((2, 1), 3, 2), ((1, 2, 1), 4, 2)],
)
def test_sortable_scan_agrees(speedups, blocks, t, s):
    assert _pure.sortable_box_scan(blocks, t, s) == speedups.sortable_box_scan(blocks, t, s)


def test_sortable_scan_finds_the_same_first_violation(speedups):
    # a deliberately broken configuration: cap 1 with degree above the block
    # count forces no violation (squarefree slices stay sortable), while a
    # synthetic non-closed set must be flagged identically by both lanes
    for blocks, t, s in [((3,), 2, 1), ((2, 2), 3, 1), ((2, 2), 2, 1)]:
        assert _pure.sortable_box_scan(blocks, t, s) == speedups.sortable_box_scan(blocks, t, s)


def test_colon_prime_mask_matches_literal_colon():
    # reference: build the colon ideal and test whether it is a prime
    from bitype import BlockStructure, Monomial, MonomialIdeal

    blocks = BlockStructure((2, 1))
    vectors = [(2, 0, 1), (1, 1, 1), (0, 2, 1), (1, 0, 2), (0, 1, 2)]
    ideal = MonomialIdeal.from_generators(blocks, [Monomial(blocks, v) for v in vectors])
    flat = tuple(x for g in ideal.gens for x in g.entries)
    table = kernels.make_table(flat, len(ideal.gens), 3)
    for entries in product(range(3), repeat=3):
        f = Monomial(blocks, entries)
        supp = ideal.colon(f).as_prime_support()
        expected = -1
        if supp is not None and not ideal.contains(f):
            expected = sum(1 << k for k in supp.indices)
        assert table.colon_prime_mask(entries) == expected


def test_implementation_name():
    assert kernels.implementation_name() in ("pure", "compiled")
