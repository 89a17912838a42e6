"""Builders: worked generator sets, parameter validation, construction cross-check."""

import gc
import inspect
from itertools import product

import pytest

from bitype import (
    BlockStructure,
    Monomial,
    MonomialIdeal,
    ParameterRangeError,
    bitype_ideal,
    bitype_ideal_by_compositions,
    make_params,
    veronese_type_ideal,
)
from bitype import builders
from conftest import (
    GOLDEN_11_3,
    GOLDEN_15_4,
    GOLDEN_2_2,
    GOLDEN_3_2_222,
    GOLDEN_4_2,
    gen_set,
    monomials_refused,
)


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

    def test_builds_rows_without_validating(self):
        golden = {
            ((2, 2), 2, 2): GOLDEN_2_2,
            ((2, 2), 4, 2): GOLDEN_4_2,
            ((2, 2), 11, 3): GOLDEN_11_3,
            ((2, 2), 15, 4): GOLDEN_15_4,
            ((2, 2, 2), 3, 2): GOLDEN_3_2_222,
        }
        expected = {}
        for (sizes, t, s), vectors in golden.items():
            blocks = BlockStructure(sizes)
            monomials = [Monomial(blocks, v) for v in vectors]
            expected[sizes, t, s] = MonomialIdeal.from_generators(blocks, monomials)
        with monomials_refused():
            for (sizes, t, s), ideal in expected.items():
                assert bitype_ideal_by_compositions(make_params(sizes, t, s)) == ideal

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


def oracle_cases():
    """(blocks, t, s) beyond the full grid: single blocks, singleton blocks, corners."""
    cases = [((m,), t, s) for m in range(1, 9) for s in (1, 2, 3) for t in range(s, s * m + 1)]
    cases += [
        ((1,) * k, t, s) for k in range(1, 9) for s in (1, 2, 3) for t in range(max(k, s), s * k + 1)
    ]
    for shape in ((2, 3), (1, 4), (3, 1, 2), (2, 2, 2, 2), (1, 2, 3, 2)):
        big_n = sum(shape)
        for s in (1, 2, 3):
            cases += [(shape, t, s) for t in {max(len(shape), s), s * big_n}]
    return cases


class TestDirectBuilder:
    """The recursion builds canonical generators directly and validates nothing twice."""

    def test_builds_without_minimalizing_or_validating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the direct builder must not call this")

        monkeypatch.setattr(MonomialIdeal, "from_generators", classmethod(refuse))
        monkeypatch.setattr(Monomial, "__post_init__", refuse)
        monkeypatch.setattr(builders, "_bounded_compositions", refuse)
        for blocks, t, s in (((2, 2), 4, 2), ((1, 3, 1), 5, 3), ((3, 3, 3), 14, 3), ((5,), 3, 1)):
            assert len(bitype_ideal(make_params(blocks, t, s))) > 0

    def test_generators_equal_validated_monomials(self):
        for blocks, t, s in (((2, 2), 4, 2), ((1, 3, 1), 5, 3), ((2, 3), 7, 2), ((4,), 4, 2)):
            ideal = bitype_ideal(make_params(blocks, t, s))
            for g in ideal.gens:
                assert all(type(e) is int for e in g.entries)
                validated = Monomial(ideal.blocks, g.entries)
                assert validated == g and hash(validated) == hash(g)

    def test_agrees_with_compositions_beyond_the_grid(self):
        for blocks, t, s in oracle_cases():
            params = make_params(blocks, t, s)
            assert bitype_ideal(params) == bitype_ideal_by_compositions(params), (blocks, t, s)

    def test_build_leaves_no_cyclic_garbage(self):
        params = make_params((3, 3, 3), 14, 3)
        gc.collect()
        gc.disable()
        try:
            ideal = bitype_ideal(params)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert len(ideal) == 29916

    def test_two_blocks_of_four(self):
        params = make_params((4, 4), 8, 3)
        ideal = bitype_ideal(params)
        assert len(ideal) == 3761
        assert ideal == bitype_ideal_by_compositions(params)


def builder_from(source: str):
    """``bitype_ideal`` compiled from a version of the builders module source."""
    namespace = {"__name__": "bitype.builders", "__package__": "bitype"}
    exec(compile(source, builders.__file__, "exec"), namespace)
    return namespace["bitype_ideal"]


def mutant_builder(old: str, new: str):
    """``bitype_ideal`` with one fragment of its source replaced."""
    source = inspect.getsource(builders)
    assert source.count(old) == 1, old
    return builder_from(source.replace(old, new))


# name: (fragment of bitype_ideal, its replacement, an instance where the mutant is wrong)
BUILDER_MUTATIONS = {
    # a block's last variable may stay 0 although nothing in the block was touched
    "block-touch rule": ("if lo < 1 and ends[k] and not touched:", "if False:", ((2, 2), 2, 2)),
    # every block tail starts as if its block were already touched
    "touched reset": (
        "_complete(plan, memo, k, rem, False, (), tails)",
        "_complete(plan, memo, k, rem, True, (), tails)",
        ((2, 2, 2), 3, 2),
    ),
    # block tails are shared between different remaining degrees
    "tail key without degree": ("key = (k, rem)", "key = k", ((2, 2), 3, 2)),
    # the remainder no longer has to fit the later variables at cap s, so the
    # last variable can take more than s
    "cap floor": ("lo = rem - room[k]", "lo = 0", ((2, 2), 4, 1)),
    # a block may use up the degree that the later blocks need
    "later-blocks ceiling": ("hi = min(s, rem - later[k])", "hi = min(s, rem)", ((2, 2), 2, 2)),
}


class TestBuilderMutations:
    """Each broken rule of the recursion disagrees with the compositions oracle."""

    @pytest.mark.parametrize("name", BUILDER_MUTATIONS)
    def test_mutant_disagrees(self, name):
        old, new, (blocks, t, s) = BUILDER_MUTATIONS[name]
        params = make_params(blocks, t, s)
        assert mutant_builder(old, new)(params) != bitype_ideal_by_compositions(params)

    def test_unmutated_source_agrees(self):
        build = builder_from(inspect.getsource(builders))
        for blocks, t, s in [case for _, _, case in BUILDER_MUTATIONS.values()]:
            params = make_params(blocks, t, s)
            assert build(params) == bitype_ideal_by_compositions(params)


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

    @pytest.mark.parametrize("value", [4.0, 4.5, "4", True], ids=repr)
    @pytest.mark.parametrize("name", ["t", "s"])
    def test_non_integer_refused(self, name, value):
        # 4.0 passed validation and then raised a raw TypeError; True built s = 1
        t, s = (value, 2) if name == "t" else (4, value)
        with pytest.raises(ParameterRangeError, match=f"^{name} "):
            make_params((2, 2), t, s)

    def test_deficit(self):
        assert make_params((2, 2), 15, 4).deficit == 1
        assert make_params((2, 2), 11, 3).deficit == 1
