"""The kernels against literal references.

The generator-table scans are held to a loop over the rows in order (the
scans' own bitset layout is not used there), including the order of
``deficit_masks``; the rank to elimination over exact fractions; the colon
mask to the colon ideal built by ``MonomialIdeal.colon``.
"""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from bitype import kernels
from conftest import bitype_instances


class RowLoopTable:
    """Reference scans: one pass over the rows per query."""

    def __init__(self, rows):
        self.width = len(rows[0]) if rows else 0
        self.rows = rows

    def contains(self, f) -> bool:
        for row in self.rows:
            if all(a <= b for a, b in zip(row, f)):
                return True
        return False

    def deficit_masks(self, a) -> list[int]:
        out = []
        for row in self.rows:
            mask = 0
            ok = True
            for k in range(self.width):
                diff = a[k] - row[k]
                if diff < 0:
                    ok = False
                    break
                if diff > 0:
                    mask |= 1 << k
            if ok:
                out.append(mask)
        return out

    def colon_prime_mask(self, f) -> int:
        mask = 0
        for row in self.rows:
            over = -1
            count = 0
            excess = 0
            for k in range(self.width):
                d = row[k] - f[k]
                if d > 0:
                    count += 1
                    if count > 1:
                        break
                    over = k
                    excess = d
            if count == 0:
                return -1  # f lies in the ideal; colon is the unit ideal
            if count == 1 and excess == 1:
                mask |= 1 << over
        if mask == 0:
            return -1
        for row in self.rows:
            hit = False
            for k in range(self.width):
                if (mask >> k) & 1 and row[k] > f[k]:
                    hit = True
                    break
            if not hit:
                return -1
        return mask

    def ass_scan(self, bounds) -> dict[int, tuple[int, ...]]:
        found: dict[int, tuple[int, ...]] = {}
        for f in product(*(range(b + 1) for b in bounds)):
            mask = self.colon_prime_mask(f)
            if mask >= 0 and mask not in found:
                found[mask] = f
        return found


@st.composite
def table_and_vector(draw):
    width = draw(st.integers(1, 5))
    count = draw(st.integers(0, 5))
    flat = draw(
        st.lists(st.integers(0, 3), min_size=count * width, max_size=count * width)
    )
    vec = tuple(draw(st.lists(st.integers(0, 4), min_size=width, max_size=width)))
    rows = tuple(tuple(flat[r * width:(r + 1) * width]) for r in range(count))
    return rows, width, vec


@given(table_and_vector())
@settings(max_examples=120, deadline=None)
def test_contains_and_masks_agree(data):
    rows, width, vec = data
    table = kernels.make_table(rows)
    reference = RowLoopTable(rows)
    assert table.contains(vec) == reference.contains(vec)
    assert table.deficit_masks(vec) == reference.deficit_masks(vec)
    assert table.colon_prime_mask(vec) == reference.colon_prime_mask(vec)


@given(table_and_vector())
@settings(max_examples=40, deadline=None)
def test_ass_scan_agrees(data):
    rows, width, _ = data
    bounds = tuple(2 for _ in range(width))
    table = kernels.make_table(rows)
    assert table.ass_scan(bounds) == RowLoopTable(rows).ass_scan(bounds)


def test_scans_agree_on_every_box_point_of_small_bitype_ideals():
    instances = points = 0
    for n_vars in range(1, 5):
        for ideal in bitype_instances(n_vars):
            table = kernels.make_table(ideal.rows)
            reference = RowLoopTable(ideal.rows)
            bounds = ideal.lcm_of_generators().entries
            for a in product(*(range(b + 1) for b in bounds)):
                assert table.contains(a) == reference.contains(a), (ideal, a)
                assert table.deficit_masks(a) == reference.deficit_masks(a), (ideal, a)
                assert table.colon_prime_mask(a) == reference.colon_prime_mask(a), (ideal, a)
                points += 1
            instances += 1
    assert (instances, points) == (225, 24371)


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
    assert kernels.rank_int_rows(rows) == reference_rank(rows)


def test_rank_overflow_falls_back():
    big = 1 << 70
    rows = [(big, 1), (1, big)]
    assert kernels.rank_int_rows(rows) == 2


def test_rank_guard_trips_inside_elimination():
    big = (1 << 40) + 7
    rows = [(big, big - 1, 1), (big - 1, big, 2), (1, 2, big)]
    # the fraction-free intermediates pass 2**63 here; the rank stays exact
    assert kernels.rank_int_rows(rows) == reference_rank(rows)


def test_colon_prime_mask_matches_literal_colon():
    # reference: build the colon ideal and test whether it is a prime
    from bitype import BlockStructure, Monomial, MonomialIdeal

    blocks = BlockStructure((2, 1))
    vectors = [(2, 0, 1), (1, 1, 1), (0, 2, 1), (1, 0, 2), (0, 1, 2)]
    ideal = MonomialIdeal.from_generators(blocks, [Monomial(blocks, v) for v in vectors])
    table = kernels.make_table(ideal.rows)
    for entries in product(range(3), repeat=3):
        f = Monomial(blocks, entries)
        supp = ideal.colon(f).as_prime_support()
        expected = -1
        if supp is not None and not ideal.contains(f):
            expected = sum(1 << k for k in supp.indices)
        assert table.colon_prime_mask(entries) == expected


def test_implementation_name():
    assert kernels.implementation_name() == "pure"
