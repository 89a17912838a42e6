"""Koszul complexes, homology ranks, Betti tables, regularity oracle."""

from itertools import permutations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from bitype import (
    BlockStructure,
    Monomial,
    MonomialIdeal,
    SizeGuardError,
    bitype_ideal,
    make_params,
)
from bitype import core, homology, kernels
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

    from bitype import kernels

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
        ranks[i] = kernels.rank_int_rows(rows) if rows and basis[i - 1] else 0
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


def full_chain_ranks(complex_):
    """Reference: every face of the complex, full boundary rows, exact ranks."""
    grouped = complex_.faces_by_dim()
    if not grouped:
        return {}
    boundary_rank = [0] * (len(grouped) + 1)
    for size in range(1, len(grouped)):
        lower = {f: i for i, f in enumerate(grouped[size - 1])}
        rows = []
        for face in grouped[size]:
            row = [0] * len(lower)
            bits = [b for b in range(face.bit_length()) if (face >> b) & 1]
            for pos, b in enumerate(bits):
                row[lower[face ^ (1 << b)]] = -1 if pos % 2 else 1
            rows.append(row)
        boundary_rank[size] = kernels.rank_int_rows(rows)
    return {
        size - 1: len(bucket) - boundary_rank[size] - boundary_rank[size + 1]
        for size, bucket in enumerate(grouped)
    }


def facet_masks(*facets):
    return tuple(sum(1 << v for v in facet) for facet in facets)


# Named complexes as facet lists over vertices 0..5.
RP2 = facet_masks(
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (1, 3, 4), (1, 3, 5), (2, 4, 5),
)
OCTAHEDRON = facet_masks(*((a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)))
NAMED = {
    "rp2": (RP2, {-1: 0, 0: 0, 1: 0, 2: 0}),
    "octahedron": (OCTAHEDRON, {-1: 0, 0: 0, 1: 0, 2: 1}),
    "two_triangles": (facet_masks((0, 1, 2), (3, 4, 5)), {-1: 0, 0: 1, 1: 0, 2: 0}),
    "cone": (facet_masks((0, 1, 2), (0, 2, 3), (0, 3, 4)), {-1: 0, 0: 0, 1: 0, 2: 0}),
    "empty": ((0,), {-1: 1}),
    "void": ((), {}),
}


def complex_of(facets):
    """The complex with these facets on the vertices they use."""
    union = 0
    for facet in facets:
        union |= facet
    vertices = tuple(v for v in range(union.bit_length()) if (union >> v) & 1)
    return KoszulComplex(vertices=vertices, facets=facets)


def koszul_complexes(ideals):
    """The distinct Koszul complexes at the in-ideal points of each ideal's lcm box."""
    seen = set()
    for ideal in ideals:
        bounds = ideal.lcm_of_generators().entries
        for entries in product(*(range(b + 1) for b in bounds)):
            cx = upper_koszul(ideal, Monomial(ideal.blocks, entries))
            if cx.facets and cx not in seen:
                seen.add(cx)
                yield cx


def star_corpus():
    """Every Koszul complex of the small ideals, then the named complexes."""
    ideals = [i for n in range(1, 5) for i in bitype_instances(n)] + asymmetric_ideals()
    yield from koszul_complexes(ideals)
    for facets, _ in NAMED.values():
        yield complex_of(facets)


facet_families = st.integers(0, 8).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), max_size=8)
).map(lambda masks: complex_of(tuple(sorted(set(masks)))))


class TestStarReduction:
    """Homology relative to the apex's closed star equals the full chain complex's."""

    @pytest.mark.parametrize("name", NAMED)
    def test_named_complexes(self, name):
        facets, expected = NAMED[name]
        cx = complex_of(facets)
        assert full_chain_ranks(cx) == expected
        assert reduced_homology_ranks(cx) == expected

    def test_cone_needs_no_elimination(self, monkeypatch):
        def no_rank(rows):
            raise AssertionError("a cone needs no elimination")

        monkeypatch.setattr(kernels, "rank_int_rows", no_rank)
        facets, expected = NAMED["cone"]
        assert reduced_homology_ranks(complex_of(facets)) == expected

    def test_koszul_complexes_match_full_chains(self):
        checked = 0
        for cx in star_corpus():
            assert reduced_homology_ranks(cx) == full_chain_ranks(cx), cx
            checked += 1
        assert checked > 100

    @settings(max_examples=300, deadline=None)
    @given(facet_families)
    def test_facet_families_match_full_chains(self, cx):
        assert reduced_homology_ranks(cx) == full_chain_ranks(cx)


def nonempty_faces(facet):
    sub = facet
    while sub:
        yield sub
        sub = (sub - 1) & facet


def relative_faces_by(enumerated, keep):
    """A ``_relative_faces`` stand-in: faces of the enumerated facets that ``keep`` accepts."""

    def relative(facets, apex, top):
        grouped = [set() for _ in range(top + 1)]
        for facet in enumerated(facets, apex):
            for sub in nonempty_faces(facet):
                if keep(sub, facets, apex):
                    grouped[bin(sub).count("1")].add(sub)
        return [sorted(bucket) for bucket in grouped]

    return relative


def missing_apex(facets, apex):
    return [f for f in facets if not (f >> apex) & 1]


def in_no_facet_of(sub, facets):
    return not any(sub | g == g for g in facets)


class TestStarMutations:
    """Each broken relative complex must disagree with the full chain complex."""

    def disagrees(self, monkeypatch, enumerated, keep):
        monkeypatch.setattr(homology, "_relative_faces", relative_faces_by(enumerated, keep))
        return any(reduced_homology_ranks(cx) != full_chain_ranks(cx) for cx in star_corpus())

    def test_star_faces_kept(self, monkeypatch):
        assert self.disagrees(monkeypatch, missing_apex, lambda sub, facets, apex: True)

    def test_open_star_removed(self, monkeypatch):
        def misses_apex(sub, facets, apex):
            return not (sub >> apex) & 1

        assert self.disagrees(monkeypatch, lambda facets, apex: facets, misses_apex)

    def test_filtered_by_every_facet(self, monkeypatch):
        def outside_all(sub, facets, apex):
            return in_no_facet_of(sub, facets)

        assert self.disagrees(monkeypatch, missing_apex, outside_all)

    def test_correct_stand_in_agrees(self, monkeypatch):
        def outside_star(sub, facets, apex):
            return in_no_facet_of(sub, [g for g in facets if (g >> apex) & 1])

        assert not self.disagrees(monkeypatch, missing_apex, outside_star)
