"""Koszul complexes, homology ranks, Betti tables, regularity oracle."""

from itertools import permutations, product
from math import comb

import pytest

from bitype import (
    BlockStructure,
    Monomial,
    MonomialIdeal,
    SizeGuardError,
    bitype_ideal,
    make_params,
)
from bitype import core, homology
from bitype.homology import (
    BettiTable,
    KoszulComplex,
    _betti_at,
    betti_table,
    reduced_homology_ranks,
    regularity_oracle,
    upper_koszul,
)
from conftest import asymmetric_ideals, bitype_instances, mono, ordered_walk_ideals


class TestKoszulComplex:
    def test_generator_multidegree_gives_empty_face_only(self):
        blocks = BlockStructure((1,))
        ideal = MonomialIdeal.from_generators(blocks, [Monomial(blocks, (1,))])
        cx = upper_koszul(ideal, Monomial(blocks, (1,)))
        assert cx.facets == (0,)
        assert reduced_homology_ranks(cx) == {-1: 1}

    def test_four_cycle(self, b22):
        ideal = bitype_ideal(make_params((2, 2), 2, 2))
        cx = upper_koszul(ideal, mono(b22, 1, 1, 1, 1))
        faces = cx.faces_by_dim()
        assert len(faces[1]) == 4 and len(faces[2]) == 4
        ranks = reduced_homology_ranks(cx)
        assert ranks[1] == 1 and ranks.get(0, 0) == 0

    def test_outside_ideal_is_void(self, b22):
        ideal = bitype_ideal(make_params((2, 2), 2, 2))
        cx = upper_koszul(ideal, mono(b22, 2, 0, 0, 0))
        assert cx.facets == ()
        assert reduced_homology_ranks(cx) == {}


class TestHomologyRanks:
    def test_full_simplex_contractible(self):
        cx = KoszulComplex(vertices=(0, 1, 2), facets=(0b111,))
        assert all(r == 0 for r in reduced_homology_ranks(cx).values())

    def test_hollow_square(self):
        cx = KoszulComplex(vertices=(0, 1, 2, 3), facets=(0b0011, 0b0110, 0b1100, 0b1001))
        ranks = reduced_homology_ranks(cx)
        assert ranks[1] == 1 and ranks[0] == 0

    def test_two_isolated_vertices(self):
        cx = KoszulComplex(vertices=(0, 1), facets=(0b01, 0b10))
        ranks = reduced_homology_ranks(cx)
        assert ranks[0] == 1 and ranks[-1] == 0

    def test_empty_complex(self):
        cx = KoszulComplex(vertices=(), facets=(0,))
        assert reduced_homology_ranks(cx) == {-1: 1}


class TestBettiTable:
    def test_principal_power(self):
        blocks = BlockStructure((1,))
        ideal = MonomialIdeal.from_generators(blocks, [Monomial(blocks, (3,))])
        table = betti_table(ideal)
        assert table.coarse() == {(0, 3): 1}

    def test_segre_square_resolution(self):
        ideal = bitype_ideal(make_params((2, 2), 2, 2))
        table = betti_table(ideal)
        assert table.coarse() == {(0, 2): 4, (1, 3): 4, (2, 4): 1}
        assert table.total_by_index() == {0: 4, 1: 4, 2: 1}
        assert table.quotient_coarse() == {(0, 0): 1, (1, 2): 4, (2, 3): 4, (3, 4): 1}

    def test_taylor_upper_bound(self):
        ideal = bitype_ideal(make_params((2, 2), 2, 2))
        totals = betti_table(ideal).total_by_index()
        for i, rank in totals.items():
            assert rank <= comb(len(ideal), i + 1)

    def test_beta_zero_exactly_at_generators(self):
        ideal = bitype_ideal(make_params((2, 2), 3, 2))
        table = betti_table(ideal)
        gen_degrees = {g.entries for g in ideal.gens}
        zero_rows = {a for (i, a), r in table.entries.items() if i == 0 and r}
        assert zero_rows == gen_degrees
        assert all(table.entries[(0, a)] == 1 for a in zero_rows)

    def test_euler_characteristic_consistency(self):
        ideal = bitype_ideal(make_params((2, 2), 3, 2))
        table = betti_table(ideal)
        bounds = ideal.lcm_of_generators().entries
        for entries in product(*(range(b + 1) for b in bounds)):
            a = Monomial(ideal.blocks, entries)
            cx = upper_koszul(ideal, a)
            ranks = reduced_homology_ranks(cx)
            alternating_beta = sum(
                (-1) ** i * table.entries.get((i, entries), 0)
                for i in range(ideal.blocks.n_vars + 2)
            )
            assert alternating_beta == -cx.euler_characteristic_reduced()

    def test_block_permutation_symmetry(self):
        params = make_params((2, 2), 3, 2)
        ideal = bitype_ideal(params)
        table = betti_table(ideal)
        swapped = {
            (i, (a[2], a[3], a[0], a[1])): rank for (i, a), rank in table.entries.items()
        }
        assert swapped == table.entries

    def test_box_guard(self):
        ideal = bitype_ideal(make_params((2, 2), 4, 2))
        with pytest.raises(SizeGuardError):
            betti_table(ideal, box_cap=10)


class TestRegularityOracle:
    def test_principal(self):
        blocks = BlockStructure((1,))
        ideal = MonomialIdeal.from_generators(blocks, [Monomial(blocks, (5,))])
        assert regularity_oracle(ideal) == 4

    def test_linear_resolution_degree_two(self):
        assert regularity_oracle(bitype_ideal(make_params((2, 2), 2, 2))) == 1

    def test_three_block_example(self):
        assert regularity_oracle(bitype_ideal(make_params((2, 2, 2), 3, 2))) == 2


def quotient_betti_via_full_koszul(ideal, a):
    """Reference: Betti numbers of the quotient from the full Koszul complex.

    Tensors the Koszul resolution of the residue field with the quotient
    and takes homology in one multidegree.  Uses only membership tests and
    exact ranks, nothing from the upper-Koszul machinery under test.
    """
    from itertools import combinations

    from bitype.kernels import _pure

    width = ideal.blocks.n_vars

    def alive(vec):
        return all(e >= 0 for e in vec) and not ideal.contains(
            Monomial(ideal.blocks, tuple(vec))
        )

    basis = {}
    for i in range(width + 1):
        keep = []
        for subset in combinations(range(width), i):
            vec = list(a)
            for k in subset:
                vec[k] -= 1
            if alive(vec):
                keep.append(subset)
        basis[i] = keep
    ranks = {}
    for i in range(1, width + 1):
        lower = {s: idx for idx, s in enumerate(basis[i - 1])}
        rows = []
        for subset in basis[i]:
            row = [0] * len(basis[i - 1])
            for pos in range(len(subset)):
                face = subset[:pos] + subset[pos + 1:]
                if face in lower:
                    row[lower[face]] = -1 if pos % 2 else 1
            rows.append(row)
        ranks[i] = _pure.rank_int_rows(rows) if rows and basis[i - 1] else 0
    out = {}
    for i in range(width + 1):
        rank = len(basis[i]) - ranks.get(i, 0) - ranks.get(i + 1, 0)
        if rank:
            out[i] = rank
    return out


class TestAgainstFullKoszulReference:
    @pytest.mark.parametrize(
        "blocks,t,s",
        [((2, 2), 2, 2), ((2, 2), 3, 2), ((1, 2), 3, 2), ((1, 1, 1), 3, 1)],
    )
    def test_quotient_betti_numbers_match(self, blocks, t, s):
        ideal = bitype_ideal(make_params(blocks, t, s))
        table = betti_table(ideal)
        bounds = ideal.lcm_of_generators().entries
        for entries in product(*(range(b + 2) for b in bounds)):
            reference = quotient_betti_via_full_koszul(ideal, entries)
            expected = {}
            if all(e == 0 for e in entries):
                expected[0] = 1
            for i in range(ideal.blocks.n_vars + 1):
                rank = table.entries.get((i, entries), 0)
                if rank:
                    expected[i + 1] = rank
            assert reference == expected, entries


def full_box_betti(ideal):
    """Reference: ``_betti_at`` at every point of the lcm box, in box order."""
    bounds = ideal.lcm_box(homology.DEFAULT_BOX_CAP, "multidegree")
    entries = {}
    for a in product(*(range(b + 1) for b in bounds)):
        for i, rank in _betti_at(ideal, a):
            entries[(i, a)] = rank
    return entries


def same_table(ideal):
    """The orbit-reduced table has the reference's entries in the reference's order."""
    return list(betti_table(ideal).entries.items()) == list(full_box_betti(ideal).items())


class TestOrbitReduction:
    @pytest.mark.parametrize("n_vars", range(1, 6))
    def test_bitype_instances_match_full_box(self, n_vars):
        for ideal in bitype_instances(n_vars):
            assert same_table(ideal), ideal

    def test_asymmetric_ideals_match_full_box(self):
        for ideal in asymmetric_ideals():
            assert same_table(ideal), ideal

    @pytest.mark.parametrize("n_vars", range(2, 5))
    def test_ordered_walk_ideals_match_full_box(self, n_vars):
        for ideal in ordered_walk_ideals(n_vars):
            assert same_table(ideal), ideal


class TestOrbitMutations:
    """Each broken reduction must disagree with the full-box reference."""

    def test_dropped_arrangement(self, monkeypatch):
        def all_but_first(point, runs):
            images = list(core.arrangements(point, runs))
            return images[1:] or images

        monkeypatch.setattr(homology, "arrangements", all_but_first)
        assert not same_table(bitype_ideal(make_params((2, 2), 3, 2)))

    def test_forced_run(self, monkeypatch):
        ideal = asymmetric_ideals()[0]
        monkeypatch.setattr(homology, "symmetric_runs", lambda i: [(0, i.blocks.n_vars)])
        assert not same_table(ideal)
