"""Vertex covers and the dimension/unmixedness formulas against enumeration."""

import inspect
from itertools import combinations

import pytest

from bitype import (
    BlockStructure,
    Monomial,
    MonomialIdeal,
    ParameterRangeError,
    SizeGuardError,
    bitype_ideal,
    make_params,
)
from bitype import covers as covers_module
from bitype.covers import (
    cover_number,
    dim_formula,
    dim_oracle,
    is_unmixed,
    is_vertex_cover,
    minimal_vertex_covers,
    range_case,
    regularity_formula,
    unmixed_formula,
)
from conftest import asymmetric_ideals, bitype_instances, ordered_walk_ideals


class TestCoverPredicate:
    def test_all_variables_cover(self):
        ideal = bitype_ideal(make_params((2, 2), 3, 2))
        assert is_vertex_cover(ideal, range(4))

    def test_block_cover(self):
        ideal = bitype_ideal(make_params((2, 2), 3, 2))
        assert is_vertex_cover(ideal, {0, 1})

    def test_single_variable_fails(self):
        ideal = bitype_ideal(make_params((2, 2), 3, 2))
        # the generator x12^2*x21 avoids x11
        assert not is_vertex_cover(ideal, {0})

    @pytest.mark.parametrize("index", [-1, 4, 1.5, True])
    def test_index_naming_no_variable(self, index):
        ideal = bitype_ideal(make_params((2, 2), 3, 2))
        with pytest.raises(ParameterRangeError):
            is_vertex_cover(ideal, [0, 1, index])


class TestMinimalCovers:
    def test_two_block_covers(self):
        ideal = bitype_ideal(make_params((2, 2), 3, 2))
        covers = minimal_vertex_covers(ideal)
        assert [sorted(w) for w in covers] == [[0, 1], [2, 3]]
        assert cover_number(ideal) == 2

    def test_top_degree_singletons(self):
        ideal = bitype_ideal(make_params((2, 2), 11, 3))
        covers = minimal_vertex_covers(ideal)
        assert [sorted(w) for w in covers] == [[0], [1], [2], [3]]
        assert cover_number(ideal) == 1

    def test_three_blocks(self):
        ideal = bitype_ideal(make_params((2, 2, 2), 3, 2))
        covers = minimal_vertex_covers(ideal)
        assert [sorted(w) for w in covers] == [[0, 1], [2, 3], [4, 5]]

    def test_minimality_by_element_removal(self):
        ideal = bitype_ideal(make_params((2, 3), 5, 2))
        for cover in minimal_vertex_covers(ideal):
            assert is_vertex_cover(ideal, cover)
            for k in cover:
                assert not is_vertex_cover(ideal, cover - {k})

    def test_supersets_remain_covers(self):
        ideal = bitype_ideal(make_params((2, 2), 3, 2))
        for cover in minimal_vertex_covers(ideal):
            assert is_vertex_cover(ideal, set(cover) | {0})

    def test_prime_input(self, b22):
        from conftest import mono

        prime = MonomialIdeal.from_generators(
            b22, [mono(b22, 1, 0, 0, 0), mono(b22, 0, 1, 0, 0)]
        )
        assert cover_number(prime) == 2

    def test_guard(self):
        ideal = bitype_ideal(make_params((2, 2), 3, 2))
        with pytest.raises(SizeGuardError):
            minimal_vertex_covers(ideal, max_vars=3)

    def test_guard_counts_support_variables(self, monkeypatch):
        monkeypatch.delenv("BITYPE_MAX_COVER_VARS", raising=False)
        ideal = bitype_ideal(make_params((7, 7, 7), 3, 1))
        with pytest.raises(SizeGuardError, match=r"^21 support variables exceed the enumeration cap 20$"):
            minimal_vertex_covers(ideal)

    def test_table_beyond_memory_is_a_guard(self):
        ideal = bitype_ideal(make_params((32, 32), 2, 1))
        with pytest.raises(SizeGuardError, match="2\\^64 bytes"):
            minimal_vertex_covers(ideal, max_vars=64)

    def test_twenty_variables_give_the_blocks(self):
        ideal = bitype_ideal(make_params((5, 5, 5, 5), 4, 1))
        covers = minimal_vertex_covers(ideal)
        assert [sorted(w) for w in covers] == [list(range(i, i + 5)) for i in range(0, 20, 5)]

    def test_zero_and_unit_rejected(self, b22):
        with pytest.raises(ParameterRangeError):
            minimal_vertex_covers(MonomialIdeal.zero(b22))
        with pytest.raises(ParameterRangeError):
            minimal_vertex_covers(MonomialIdeal.unit_ideal(b22))


def reference_covers(ideal: MonomialIdeal) -> list[frozenset[int]]:
    """Minimal vertex covers by brute force over every variable subset.

    Covering is read off the generators' entries; a cover is minimal when
    removing any one element uncovers some generator.
    """
    supports = {frozenset(k for k, e in enumerate(g.entries) if e) for g in ideal.gens}
    n_vars = ideal.blocks.n_vars
    subsets = [frozenset(w) for size in range(n_vars + 1) for w in combinations(range(n_vars), size)]
    cover_sets = {w for w in subsets if all(w & g for g in supports)}
    found = [w for w in cover_sets if not any(w - {k} in cover_sets for k in w)]
    return sorted(found, key=lambda f: (len(f), tuple(sorted(f))))


def perfect_matching(edges: int) -> MonomialIdeal:
    """The edge ideal of ``edges`` disjoint edges, one block per edge: 2^edges minimal covers."""
    blocks = BlockStructure((2,) * edges)
    gens = []
    for i in range(edges):
        entries = [0] * (2 * edges)
        entries[2 * i] = entries[2 * i + 1] = 1
        gens.append(Monomial(blocks, tuple(entries)))
    return MonomialIdeal.from_generators(blocks, gens)


class TestAgainstReference:
    @pytest.mark.parametrize("n_vars", range(1, 7))
    def test_bitype_instances(self, n_vars):
        # every instance: covers do not depend on the lcm box
        for ideal in bitype_instances(n_vars, box_cap=10**9):
            assert minimal_vertex_covers(ideal) == reference_covers(ideal), ideal

    def test_asymmetric_ideals(self):
        for ideal in asymmetric_ideals():
            assert minimal_vertex_covers(ideal) == reference_covers(ideal), ideal

    @pytest.mark.parametrize("n_vars", range(2, 5))
    def test_ordered_walk_ideals(self, n_vars):
        for ideal in ordered_walk_ideals(n_vars):
            assert minimal_vertex_covers(ideal) == reference_covers(ideal), ideal

    @pytest.mark.parametrize("edges", range(2, 6))
    def test_perfect_matchings(self, edges):
        ideal = perfect_matching(edges)
        found = minimal_vertex_covers(ideal)
        assert len(found) == 2**edges
        assert found == reference_covers(ideal)

    def test_exponents_above_a_byte(self):
        blocks = BlockStructure((2, 2))
        gens = [(300, 0, 1, 0), (0, 256, 0, 2), (1, 1, 0, 0), (0, 0, 0, 999)]
        ideal = MonomialIdeal.from_generators(blocks, [Monomial(blocks, e) for e in gens])
        assert minimal_vertex_covers(ideal) == reference_covers(ideal)

    def test_ten_edge_matching(self):
        ideal = perfect_matching(10)
        found = minimal_vertex_covers(ideal)
        assert len(found) == 1024
        for cover in found:
            assert is_vertex_cover(ideal, cover)
            assert not any(is_vertex_cover(ideal, cover - {k}) for k in cover)


def covers_from(source: str):
    """``minimal_vertex_covers`` compiled from a version of the covers module source."""
    namespace = {"__name__": "bitype.covers", "__package__": "bitype"}
    exec(compile(source, covers_module.__file__, "exec"), namespace)
    return namespace["minimal_vertex_covers"]


def mutant_covers(old: str, new: str):
    """``minimal_vertex_covers`` with one fragment of its source replaced."""
    source = inspect.getsource(covers_module)
    assert source.count(old) == 1, old
    return covers_from(source.replace(old, new))


# name: (fragment of the covers module, its replacement)
COVER_MUTATIONS = {
    # every cover the walk reaches is kept, minimal or not
    "minimality filter": ("if not table[m ^ b]:", "if False:"),
    # each variable's bitset holds the rows that are nonzero there
    "zero bitset inverted": ('_ZERO_IS_ONE = b"1" + b"0" * 255', '_ZERO_IS_ONE = b"0" + b"1" * 255'),
    # covers come out in walk order, not by size
    "size order dropped": ("covers.sort(key=lambda c: (len(c), c))", "pass"),
    # a cover is reached before the sets one removal gives are settled
    "vertices tried upwards": ("range(last, start - 1, -1)", "range(start, last + 1)"),
}

# (2,3) t=4 s=2 has mixed cover sizes and a non-minimal cover the walk reaches
MUTATION_IDEALS = [
    bitype_ideal(make_params((2, 2), 3, 2)),
    bitype_ideal(make_params((2, 3), 4, 2)),
    perfect_matching(3),
]


class TestCoverMutations:
    """Each broken rule of the pruned walk disagrees with the brute-force reference."""

    @pytest.mark.parametrize("name", COVER_MUTATIONS)
    def test_mutant_disagrees(self, name):
        mutant = mutant_covers(*COVER_MUTATIONS[name])
        for ideal in MUTATION_IDEALS:
            assert mutant(ideal) != reference_covers(ideal), ideal

    def test_unmutated_source_agrees(self):
        walk = covers_from(inspect.getsource(covers_module))
        for ideal in MUTATION_IDEALS:
            assert walk(ideal) == reference_covers(ideal), ideal


class TestDimension:
    def test_three_block_example(self):
        params = make_params((2, 2, 2), 3, 2)
        assert dim_formula(params) == 4
        assert dim_oracle(bitype_ideal(params)) == 4

    def test_top_regime(self):
        params = make_params((2, 2), 11, 3)
        assert range_case(params) == "b"
        assert dim_formula(params) == 3
        assert dim_oracle(bitype_ideal(params)) == 3

    def test_low_regime(self):
        params = make_params((2, 2), 2, 2)
        assert range_case(params) == "a"
        assert dim_formula(params) == 2
        assert dim_oracle(bitype_ideal(params)) == 2

    def test_range_error_at_corner(self):
        params = make_params((2, 2), 8, 2)  # t = s*N has no formula regime
        with pytest.raises(ParameterRangeError):
            dim_formula(params)


class TestUnmixed:
    def test_equal_blocks_unmixed(self):
        params = make_params((2, 2), 3, 2)
        assert unmixed_formula(params) is True
        assert is_unmixed(bitype_ideal(params)) is True

    def test_unequal_blocks_mixed(self):
        params = make_params((2, 3), 3, 2)
        assert unmixed_formula(params) is False
        assert is_unmixed(bitype_ideal(params)) is False
        sizes = {len(w) for w in minimal_vertex_covers(bitype_ideal(params))}
        assert sizes == {2, 3}

    def test_top_regime_always_unmixed(self):
        params = make_params((2, 2), 11, 3)
        assert unmixed_formula(params) is True
        assert is_unmixed(bitype_ideal(params)) is True


class TestRegularityFormula:
    def test_examples(self):
        assert regularity_formula(make_params((2, 2, 2), 3, 2)) == 2
        assert regularity_formula(make_params((1,), 4, 4)) == 3
        assert regularity_formula(make_params((2, 2), 2, 2)) == 1
