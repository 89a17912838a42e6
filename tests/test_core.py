"""Monomial and ideal arithmetic: worked examples plus algebraic laws."""

import json
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from bitype import (
    BlockStructure,
    Monomial,
    MonomialIdeal,
    ParameterRangeError,
    StructureError,
    bitype_ideal,
    ideal_product,
    ideal_sum,
    make_params,
    minimalize,
)
from bitype.core import PrimeSupport, arrangements, run_representatives, symmetric_runs
from conftest import (
    asymmetric_ideals,
    bitype_instances,
    gen_set,
    mono,
    monomials_refused,
    validated,
)


def small_blocks():
    return st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
        lambda ms: BlockStructure(tuple(ms))
    )


@st.composite
def blocks_and_vectors(draw, max_vectors=6, max_exp=3):
    blocks = draw(small_blocks())
    count = draw(st.integers(1, max_vectors))
    vecs = draw(
        st.lists(
            st.tuples(*[st.integers(0, max_exp) for _ in range(blocks.n_vars)]),
            min_size=count,
            max_size=count,
        )
    )
    return blocks, [Monomial(blocks, v) for v in vecs]


class TestDivides:
    def test_zero_divides_everything(self, b22):
        unit = Monomial.unit(b22)
        assert unit.divides(mono(b22, 3, 1, 0, 2))

    def test_componentwise(self, b22):
        assert mono(b22, 1, 0, 1, 0).divides(mono(b22, 2, 1, 1, 0))

    def test_first_coordinate_fails(self, b22):
        assert not mono(b22, 2, 0, 0, 0).divides(mono(b22, 1, 2, 2, 2))

    def test_structure_mismatch(self, b22, b11):
        with pytest.raises(StructureError):
            Monomial.unit(b22).divides(Monomial.unit(b11))


class TestLcm:
    def test_idempotent(self, b22):
        a = mono(b22, 2, 0, 1, 0)
        assert a.lcm(a) == a

    def test_componentwise_max(self, b22):
        assert a_lcm_entries(b22) == (2, 2, 1, 2)

    def test_lcm_over_top_generators(self, b22):
        ideal = bitype_ideal(make_params((2, 2), 15, 4))
        assert ideal.lcm_of_generators().entries == (4, 4, 4, 4)


def a_lcm_entries(b22):
    return mono(b22, 2, 0, 1, 0).lcm(mono(b22, 0, 2, 1, 2)).entries


class TestMembership:
    def test_unit_ideal_contains_all(self, b22):
        unit = MonomialIdeal.unit_ideal(b22)
        assert unit.contains(mono(b22, 5, 0, 0, 0))

    def test_cross_product_member(self, b22):
        ideal = bitype_ideal(make_params((2, 2), 2, 2))
        assert ideal.contains(mono(b22, 1, 0, 1, 0))

    def test_square_not_member(self, b22):
        ideal = bitype_ideal(make_params((2, 2), 2, 2))
        assert not ideal.contains(mono(b22, 2, 0, 0, 0))

    def test_zero_ideal_contains_nothing(self, b22):
        assert not MonomialIdeal.zero(b22).contains(mono(b22, 1, 1, 1, 1))


class TestMinimalize:
    def test_power_dropped(self):
        b = BlockStructure((1,))
        ideal = minimalize(b, [Monomial(b, (1,)), Monomial(b, (2,))])
        assert gen_set(ideal) == {(1,)}

    def test_divisible_dropped(self, b22):
        ideal = minimalize(
            b22,
            [mono(b22, 1, 0, 1, 0), mono(b22, 1, 0, 0, 1), mono(b22, 1, 0, 1, 1)],
        )
        assert gen_set(ideal) == {(1, 0, 1, 0), (1, 0, 0, 1)}

    def test_zero_vector_collapses_to_unit(self, b22):
        ideal = minimalize(b22, [Monomial.unit(b22), mono(b22, 1, 0, 0, 0)])
        assert ideal.is_unit

    def test_empty_is_zero(self, b22):
        assert minimalize(b22, []).is_zero

    @given(blocks_and_vectors())
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_order_insensitive(self, data):
        blocks, vecs = data
        first = minimalize(blocks, vecs)
        again = minimalize(blocks, first.gens)
        reversed_input = minimalize(blocks, list(reversed(vecs)))
        assert first == again == reversed_input

    @given(blocks_and_vectors(max_vectors=4, max_exp=2))
    @settings(max_examples=40, deadline=None)
    def test_membership_agrees_with_raw_divisibility(self, data):
        blocks, vecs = data
        ideal = minimalize(blocks, vecs)
        bound = [max(v.entries[k] for v in vecs) + 1 for k in range(blocks.n_vars)]
        from itertools import product

        for entries in product(*(range(b + 1) for b in bound)):
            f = Monomial(blocks, entries)
            raw = any(g.divides(f) for g in vecs)
            assert ideal.contains(f) == raw


class TestColon:
    def test_colon_by_unit(self, b22):
        ideal = bitype_ideal(make_params((2, 2), 3, 2))
        assert ideal.colon(Monomial.unit(b22)) == ideal

    def test_colon_simple(self, b22):
        ideal = bitype_ideal(make_params((2, 2), 2, 2))
        quotient = ideal.colon(mono(b22, 1, 0, 0, 0))
        assert gen_set(quotient) == {(0, 0, 1, 0), (0, 0, 0, 1)}

    def test_colon_top_witness(self, b22):
        ideal = bitype_ideal(make_params((2, 2), 15, 4))
        witness = mono(b22, 3, 3, 4, 4)
        quotient = ideal.colon(witness)
        assert gen_set(quotient) == {(1, 0, 0, 0), (0, 1, 0, 0)}
        # cross-checked through membership of the pushed-in monomials
        assert ideal.contains(witness * mono(b22, 1, 0, 0, 0))
        assert ideal.contains(witness * mono(b22, 0, 1, 0, 0))
        assert not ideal.contains(witness * mono(b22, 0, 0, 1, 0))
        assert not ideal.contains(witness * mono(b22, 0, 0, 0, 1))

    @given(blocks_and_vectors(max_vectors=4, max_exp=2))
    @settings(max_examples=40, deadline=None)
    def test_colon_composes(self, data):
        blocks, vecs = data
        ideal = minimalize(blocks, vecs)
        f = Monomial(blocks, tuple(k % 2 for k in range(blocks.n_vars)))
        g = Monomial(blocks, tuple((k + 1) % 2 for k in range(blocks.n_vars)))
        assert ideal.colon(f).colon(g) == ideal.colon(f * g)


class TestSumProduct:
    def test_sum_with_zero(self, b22):
        ideal = bitype_ideal(make_params((2, 2), 3, 2))
        assert ideal_sum(ideal, MonomialIdeal.zero(b22)) == ideal

    def test_product_with_unit(self, b22):
        ideal = bitype_ideal(make_params((2, 2), 3, 2))
        assert ideal_product(ideal, MonomialIdeal.unit_ideal(b22)) == ideal

    @given(blocks_and_vectors(max_vectors=3, max_exp=1))
    @settings(max_examples=25, deadline=None)
    def test_product_distributes_over_sum(self, data):
        from itertools import product

        blocks, vecs = data
        if len(vecs) < 3:
            return
        a = minimalize(blocks, vecs[:1])
        b = minimalize(blocks, vecs[1:2])
        c = minimalize(blocks, vecs[2:])
        lhs = ideal_product(a, ideal_sum(b, c))
        rhs = ideal_sum(ideal_product(a, b), ideal_product(a, c))
        bound = lhs.lcm_of_generators().lcm(rhs.lcm_of_generators()).entries
        for entries in product(*(range(e + 2) for e in bound)):
            f = Monomial(blocks, entries)
            assert lhs.contains(f) == rhs.contains(f)


class TestComputedIdealsStayRows:
    """Colon, sum and product minimalize int rows and validate no Monomial.

    Each equals the ideal that ``from_generators`` builds from validated
    monomials.
    """

    @staticmethod
    def same_blocks_ideals():
        b22 = BlockStructure((2, 2))
        ideals = [bitype_ideal(make_params((2, 2), t, s)) for t, s in ((2, 1), (3, 2), (4, 2))]
        ideals += [ideal for ideal in asymmetric_ideals() if ideal.blocks == b22]
        return ideals + [MonomialIdeal.zero(b22), MonomialIdeal.unit_ideal(b22)]

    def test_colon(self):
        ideals = [bitype_ideal(make_params((1, 3, 1), 5, 3)), *asymmetric_ideals()]
        cases = []
        for ideal in ideals + self.same_blocks_ideals():
            n = ideal.blocks.n_vars
            alternating = Monomial(ideal.blocks, tuple(k % 2 for k in range(n)))
            for f in validated(ideal)[:2] + [alternating, Monomial.unit(ideal.blocks)]:
                quotients = [
                    Monomial(ideal.blocks, tuple(max(a - b, 0) for a, b in zip(g.entries, f.entries)))
                    for g in validated(ideal)
                ]
                cases.append((ideal, f, MonomialIdeal.from_generators(ideal.blocks, quotients)))
        with monomials_refused():
            for ideal, f, expected in cases:
                assert ideal.colon(f) == expected, (ideal, f)

    def test_sum(self):
        ideals = self.same_blocks_ideals()
        cases = [
            (left, right, MonomialIdeal.from_generators(left.blocks, validated(left) + validated(right)))
            for left in ideals
            for right in ideals
        ]
        with monomials_refused():
            for left, right, expected in cases:
                assert ideal_sum(left, right) == expected, (left, right)
        assert not any("gens" in vars(ideal) for ideal in ideals)  # read as rows only

    def test_product(self):
        ideals = self.same_blocks_ideals()
        cases = []
        for left in ideals:
            for right in ideals:
                products = [g * h for g in validated(left) for h in validated(right)]
                cases.append((left, right, MonomialIdeal.from_generators(left.blocks, products)))
        with monomials_refused():
            for left, right, expected in cases:
                assert ideal_product(left, right) == expected, (left, right)
        assert not any("gens" in vars(ideal) for ideal in ideals)  # read as rows only


class TestAsPrime:
    def test_variables_give_support(self, b22):
        ideal = minimalize(b22, [mono(b22, 0, 0, 1, 0), mono(b22, 0, 0, 0, 1)])
        support = ideal.as_prime_support()
        assert support is not None and support.sorted_indices() == (2, 3)
        assert support.names() == ("x21", "x22")

    def test_degree_two_generators_are_not_prime(self):
        ideal = bitype_ideal(make_params((2, 2), 2, 2))
        assert ideal.as_prime_support() is None

    def test_zero_and_unit(self, b22):
        assert MonomialIdeal.zero(b22).as_prime_support() is None
        assert MonomialIdeal.unit_ideal(b22).as_prime_support() is None


class TestRowsBackedIdeal:
    """An ideal is its exponent rows; ``gens`` is built from them on demand."""

    ROWS = ((1, 1, 2), (1, 2, 1), (2, 0, 2), (2, 1, 1), (2, 2, 0))

    def test_constructions_are_equal(self):
        blocks = BlockStructure((1, 2))
        monomials = [Monomial(blocks, row) for row in self.ROWS]
        built = [
            MonomialIdeal(blocks, monomials),
            MonomialIdeal._from_rows(blocks, self.ROWS),
            MonomialIdeal.from_generators(blocks, reversed(monomials)),
            bitype_ideal(make_params((1, 2), 4, 2)),
        ]
        for ideal in built:
            assert ideal.rows == self.ROWS
            assert ideal == built[0] and hash(ideal) == hash(built[0])

    def test_gens_are_the_validated_monomials(self):
        ideal = MonomialIdeal._from_rows(BlockStructure((1, 2)), self.ROWS)
        assert ideal.gens == tuple(Monomial(ideal.blocks, row) for row in self.ROWS)
        assert ideal.gens is ideal.gens

    def test_constructor_keeps_the_given_monomials(self, b22):
        gens = (mono(b22, 1, 0, 1, 0), mono(b22, 0, 1, 0, 1))
        ideal = MonomialIdeal(b22, gens)
        assert ideal.gens == gens and ideal.rows == ((1, 0, 1, 0), (0, 1, 0, 1))

    def test_table_keeps_the_rows(self):
        ideal = bitype_ideal(make_params((2, 2), 4, 2))
        assert ideal._table.rows is ideal.rows

    def test_zero_and_unit(self, b22):
        zero, unit = MonomialIdeal.zero(b22), MonomialIdeal.unit_ideal(b22)
        assert zero.is_zero and not zero.is_unit and len(zero) == 0
        assert unit.is_unit and not unit.is_zero and len(unit) == 1
        assert unit.gens == (Monomial.unit(b22),)
        assert zero == MonomialIdeal(b22, ()) and unit == MonomialIdeal(b22, unit.gens)
        principal = MonomialIdeal._from_rows(b22, ((0, 0, 1, 0),))
        assert not principal.is_unit and not principal.is_zero

    def test_dict_and_repr_are_unchanged(self, b22):
        ideal = bitype_ideal(make_params((2, 2), 2, 2))
        assert ideal.to_dict() == {
            "blocks": [2, 2],
            "gens": [[0, 1, 0, 1], [0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 1, 0]],
        }
        assert repr(ideal) == "MonomialIdeal(x12*x22, x12*x21, x11*x22, x11*x21)"
        assert repr(MonomialIdeal.zero(b22)) == "MonomialIdeal(0)"
        assert repr(MonomialIdeal.unit_ideal(b22)) == "MonomialIdeal(1)"
        assert MonomialIdeal.zero(b22).to_dict() == {"blocks": [2, 2], "gens": []}
        assert MonomialIdeal.unit_ideal(b22).to_dict() == {"blocks": [2, 2], "gens": [[0, 0, 0, 0]]}


class TestSerialization:
    def test_roundtrip(self):
        ideal = bitype_ideal(make_params((2, 2), 4, 2))
        data = json.loads(json.dumps(ideal.to_dict()))
        assert MonomialIdeal.from_dict(data) == ideal

    def test_dict_shape(self, b22):
        ideal = bitype_ideal(make_params((2, 2), 2, 2))
        data = ideal.to_dict()
        assert data["blocks"] == [2, 2]
        assert sorted(data["gens"]) == data["gens"]

    def test_pretty(self, b22):
        assert mono(b22, 2, 1, 0, 0).pretty() == "x11^2*x12"
        assert Monomial.unit(b22).pretty() == "1"


class TestValidation:
    def test_negative_exponent(self, b22):
        with pytest.raises(ParameterRangeError):
            Monomial(b22, (0, 0, -1, 0))

    @pytest.mark.parametrize("bad", [1.7, 2.0, "2", True, False, None])
    def test_non_integer_exponent(self, bad):
        with pytest.raises(ParameterRangeError):
            Monomial(BlockStructure((2,)), (bad, 1))

    @pytest.mark.parametrize("bad", [1.5, "2", True])
    def test_non_integer_exponent_from_dict(self, bad):
        with pytest.raises(ParameterRangeError):
            MonomialIdeal.from_dict({"blocks": [2], "gens": [[bad, 0], [0, 2]]})

    def test_integer_like_exponent_becomes_int(self):
        class Three:
            def __index__(self):
                return 3

        m = Monomial(BlockStructure((2,)), (Three(), 0))
        assert m.entries == (3, 0) and type(m.entries[0]) is int

    def test_non_integer_block_size_is_not_truncated(self):
        # int() read (2.5, True) as the block sizes (2, 1)
        with pytest.raises(ParameterRangeError, match="block size 2.5 is not an integer"):
            BlockStructure((2.5, True))

    def test_non_integer_block_size_from_dict(self):
        # int() truncated the block to 2 variables and built (x11)
        with pytest.raises(ParameterRangeError, match="block size 2.7"):
            MonomialIdeal.from_dict({"blocks": [2.7], "gens": [[1, 0]]})

    def test_non_integer_prime_index_is_not_truncated(self):
        # int() collapsed {1.9, True} to the support {1}
        with pytest.raises(ParameterRangeError, match="variable index"):
            PrimeSupport(BlockStructure((2, 2)), {1.9, True})

    def test_wrong_length(self, b22):
        with pytest.raises(StructureError):
            Monomial(b22, (0, 0, 0))

    def test_bad_blocks(self):
        with pytest.raises(ParameterRangeError):
            BlockStructure((2, 0))

    def test_flat_index_bijection(self, b222):
        uneven = [(3, 3, 3), (1, 2, 3), (1,), (5, 1, 1, 4), (2, 2, 2, 2, 2)]
        for blocks in (b222, *map(BlockStructure, uneven)):
            seen = set()
            for i in range(blocks.n_blocks):
                for j in range(blocks.block_sizes[i]):
                    k = blocks.flat_index(i, j)
                    assert blocks.block_of(k) == i
                    seen.add(k)
            assert seen == set(range(blocks.n_vars))
            for k in (-1, blocks.n_vars):
                with pytest.raises(IndexError):
                    blocks.block_of(k)


class TestSymmetricRuns:
    @pytest.mark.parametrize("n_vars", range(1, 6))
    def test_bitype_runs_are_unions_of_blocks(self, n_vars):
        for ideal in bitype_instances(n_vars):
            blocks = ideal.blocks
            boundaries = set(blocks.offsets) | {blocks.n_vars}
            runs = symmetric_runs(ideal)
            assert runs[0][0] == 0 and runs[-1][1] == blocks.n_vars
            assert [start for start, _ in runs[1:]] == [stop for _, stop in runs[:-1]]
            assert all(start in boundaries and stop in boundaries for start, stop in runs)

    def test_two_blocks_share_a_run(self):
        ideal = bitype_ideal(make_params((1, 3, 3), 18, 3))
        assert symmetric_runs(ideal) == [(0, 1), (1, 7)]

    def test_one_run_over_three_blocks(self):
        assert symmetric_runs(bitype_ideal(make_params((3, 3, 3), 16, 2))) == [(0, 9)]

    def test_no_symmetry_gives_singletons(self):
        for ideal in asymmetric_ideals():
            assert symmetric_runs(ideal) == [(k, k + 1) for k in range(ideal.blocks.n_vars)]


class TestOrbits:
    @pytest.mark.parametrize(
        "bounds,runs",
        [
            ((2, 2, 2), [(0, 3)]),
            ((1, 3, 3, 2, 2), [(0, 1), (1, 3), (3, 5)]),
            ((2, 1, 3), [(0, 1), (1, 2), (2, 3)]),
        ],
    )
    def test_arrangements_of_representatives_tile_the_box(self, bounds, runs):
        seen = []
        for point in run_representatives(bounds, runs):
            for start, stop in runs:
                assert list(point[start:stop]) == sorted(point[start:stop], reverse=True)
            images = list(arrangements(point, runs))
            assert images == sorted(set(images))
            seen.extend(images)
        assert sorted(seen) == list(product(*(range(b + 1) for b in bounds)))

    def test_distinct_arrangements_only(self):
        point = (3, 3, 2, 2, 1, 1, 0, 0, 0)
        count = sum(1 for _ in arrangements(point, [(0, 9)]))
        assert count == factorial(9) // (2 * 2 * 2 * factorial(3))
