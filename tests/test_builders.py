"""Builders: worked generator sets, parameter validation, construction cross-check."""

from itertools import product

import pytest

from bitype import (
    BlockStructure,
    MonomialIdeal,
    ParameterRangeError,
    bitype_ideal,
    bitype_ideal_by_compositions,
    make_params,
    veronese_type_ideal,
)
from conftest import GOLDEN_11_3, GOLDEN_15_4, GOLDEN_2_2, GOLDEN_3_2_222, GOLDEN_4_2, gen_set


class TestVeroneseType:
    def test_capped_slice(self, b22):
        ideal = veronese_type_ideal(b22, 0, 3, 2)
        assert gen_set(ideal) == {(2, 1, 0, 0), (1, 2, 0, 0)}

    def test_full_veronese_when_degree_below_cap(self, b22):
        ideal = veronese_type_ideal(b22, 0, 1, 2)
        assert gen_set(ideal) == {(1, 0, 0, 0), (0, 1, 0, 0)}

    def test_squarefree_slice(self):
        blocks = BlockStructure((3,))
        ideal = veronese_type_ideal(blocks, 0, 2, 1)
        assert gen_set(ideal) == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}

    def test_degree_out_of_range(self, b22):
        with pytest.raises(ParameterRangeError):
            veronese_type_ideal(b22, 0, 5, 2)

    def test_generators_are_already_canonical(self):
        # the builder skips minimalization; it must not need it
        shapes = [shape for n in (1, 2, 3) for shape in product((1, 2, 3), repeat=n)]
        for shape in shapes:
            blocks = BlockStructure(shape)
            for i, m in enumerate(shape):
                for cap in (1, 2, 3):
                    for degree in range(1, cap * m + 1):
                        ideal = veronese_type_ideal(blocks, i, degree, cap)
                        canonical = MonomialIdeal.from_generators(blocks, ideal.gens)
                        assert ideal == canonical, (shape, i, degree, cap)


class TestGoldenSets:
    def test_degree_two(self):
        assert gen_set(bitype_ideal(make_params((2, 2), 2, 2))) == GOLDEN_2_2

    def test_degree_four(self):
        assert gen_set(bitype_ideal(make_params((2, 2), 4, 2))) == GOLDEN_4_2

    def test_three_blocks(self):
        assert gen_set(bitype_ideal(make_params((2, 2, 2), 3, 2))) == GOLDEN_3_2_222

    def test_near_top_cap_three(self):
        assert gen_set(bitype_ideal(make_params((2, 2), 11, 3))) == GOLDEN_11_3

    def test_near_top_cap_four(self):
        assert gen_set(bitype_ideal(make_params((2, 2), 15, 4))) == GOLDEN_15_4

    def test_generator_count_17_from_generating_function(self):
        # coeff of x^4 in (1+x+x^2)^4 is 19; two vectors miss a block
        count = 0
        for v in product(range(3), repeat=4):
            if sum(v) == 4:
                count += 1
        assert count == 19
        assert len(bitype_ideal(make_params((2, 2), 4, 2))) == 19 - 2


class TestCompositionOracle:
    def test_single_block_single_generator(self):
        ideal = bitype_ideal_by_compositions(make_params((1,), 3, 3))
        assert gen_set(ideal) == {(3,)}

    def test_top_instance(self):
        assert gen_set(bitype_ideal_by_compositions(make_params((2, 2), 15, 4))) == GOLDEN_15_4

    def test_three_block_instance(self):
        assert (
            gen_set(bitype_ideal_by_compositions(make_params((2, 2, 2), 3, 2)))
            == GOLDEN_3_2_222
        )

    def test_full_grid_equality(self):
        checked = 0
        for n in (1, 2, 3):
            for blocks in product((1, 2, 3), repeat=n):
                big_n = sum(blocks)
                for s in (1, 2, 3):
                    for t in range(n, s * big_n + 1):
                        try:
                            params = make_params(blocks, t, s)
                        except ParameterRangeError:
                            continue
                        assert bitype_ideal(params) == bitype_ideal_by_compositions(params), (
                            blocks,
                            t,
                            s,
                        )
                        checked += 1
        assert checked > 900

    def test_every_generator_has_degree_t_and_caps(self):
        params = make_params((2, 3), 5, 2)
        for g in bitype_ideal(params).gens:
            assert g.total_degree == 5
            assert max(g.entries) <= 2
            assert all(g.block_degree(i) >= 1 for i in range(2))


class TestParameterValidation:
    @pytest.mark.parametrize(
        "blocks,t,s",
        [
            ((2, 2), 1, 2),   # s > t
            ((2, 2), 1, 1),   # t < n
            ((2, 2), 9, 2),   # t > s*N
            ((2, 2), 0, 0),
        ],
    )
    def test_rejected(self, blocks, t, s):
        with pytest.raises(ParameterRangeError):
            make_params(blocks, t, s)

    def test_deficit(self):
        assert make_params((2, 2), 15, 4).deficit == 1
        assert make_params((2, 2), 11, 3).deficit == 1
