"""Associated primes: closed form, witness construction, colon-search oracle."""

from itertools import chain, product

import pytest

from bitype import (
    BlockStructure,
    Monomial,
    MonomialIdeal,
    ParameterRangeError,
    PrimeSupport,
    bitype_ideal,
    make_params,
)
from bitype.assoc import (
    associated_primes_formula,
    associated_primes_oracle,
    formula_matches_oracle,
    minimal_supports,
    witness_monomial,
)
from bitype import assoc, core
from bitype.covers import minimal_vertex_covers
from conftest import asymmetric_ideals, bitype_instances, mono, ordered_walk_ideals


def support_sets(primes):
    return {p.indices for p in primes}


class TestFormula:
    def test_top_example_ten_primes(self):
        primes = associated_primes_formula(make_params((2, 2), 15, 4))
        assert len(primes) == 10
        assert support_sets(primes) == {
            frozenset(c)
            for size in (1, 2)
            for c in __import__("itertools").combinations(range(4), size)
        }

    def test_deficit_one_cap_three(self):
        primes = associated_primes_formula(make_params((2, 2), 11, 3))
        assert len(primes) == 10

    def test_two_singleton_blocks(self):
        primes = associated_primes_formula(make_params((1, 1), 3, 2))
        assert support_sets(primes) == {frozenset({0}), frozenset({1}), frozenset({0, 1})}

    def test_out_of_range(self):
        with pytest.raises(ParameterRangeError):
            associated_primes_formula(make_params((2, 2), 4, 2))  # r = 4 > s-1


class TestWitness:
    def test_pair_witness_top(self):
        params = make_params((2, 2), 15, 4)
        w = witness_monomial(params, PrimeSupport(params.blocks, frozenset({0, 1})))
        assert w.entries == (3, 3, 4, 4)

    def test_singleton_witness_top(self):
        params = make_params((2, 2), 15, 4)
        w = witness_monomial(params, PrimeSupport(params.blocks, frozenset({0})))
        assert w.entries == (2, 4, 4, 4)

    def test_pair_witness_cap_three(self):
        params = make_params((2, 2), 11, 3)
        w = witness_monomial(params, PrimeSupport(params.blocks, frozenset({2, 3})))
        assert w.entries == (3, 3, 2, 2)

    def test_every_witness_colons_to_its_prime(self):
        params = make_params((2, 2), 15, 4)
        ideal = bitype_ideal(params)
        for prime in associated_primes_formula(params):
            w = witness_monomial(params, prime)
            assert w.total_degree == params.t - 1
            assert not ideal.contains(w)
            assert ideal.colon(w).as_prime_support() == prime

    def test_support_too_large(self):
        params = make_params((2, 2), 15, 4)
        with pytest.raises(ParameterRangeError):
            witness_monomial(params, PrimeSupport(params.blocks, frozenset({0, 1, 2})))


class TestOracle:
    def test_principal_power(self):
        blocks = BlockStructure((1,))
        ideal = MonomialIdeal.from_generators(blocks, [Monomial(blocks, (4,))])
        found = associated_primes_oracle(ideal)
        assert support_sets(found) == {frozenset({0})}
        assert found[PrimeSupport(blocks, frozenset({0}))].entries == (3,)

    def test_top_example(self):
        ideal = bitype_ideal(make_params((2, 2), 15, 4))
        found = associated_primes_oracle(ideal)
        assert len(found) == 10

    def test_segre_product_case(self, b22):
        ideal = bitype_ideal(make_params((2, 2), 2, 2))
        found = associated_primes_oracle(ideal)
        assert support_sets(found) == {frozenset({0, 1}), frozenset({2, 3})}
        witness = found[PrimeSupport(b22, frozenset({2, 3}))]
        assert ideal.colon(witness).as_prime_support().sorted_indices() == (2, 3)

    def test_witnesses_recorded_alongside(self):
        ideal = bitype_ideal(make_params((2, 2), 11, 3))
        for prime, witness in associated_primes_oracle(ideal).items():
            assert ideal.colon(witness).as_prime_support() == prime

    def test_oracle_matches_literal_colon_search(self):
        # independent reference: colon by every box monomial, then as-prime
        ideal = bitype_ideal(make_params((1, 2), 4, 2))
        bounds = ideal.lcm_of_generators().entries
        expected = set()
        for entries in product(*(range(b + 1) for b in bounds)):
            support = ideal.colon(Monomial(ideal.blocks, entries)).as_prime_support()
            if support is not None and not ideal.contains(Monomial(ideal.blocks, entries)):
                expected.add(support.indices)
        assert support_sets(associated_primes_oracle(ideal)) == expected

    def test_minimal_primes_are_minimal_covers(self):
        ideal = bitype_ideal(make_params((2, 3), 3, 2))
        primes = associated_primes_oracle(ideal)
        assert {p.indices for p in minimal_supports(primes)} == {
            frozenset(w) for w in minimal_vertex_covers(ideal)
        }

    def test_formula_oracle_equality_small(self):
        assert formula_matches_oracle(make_params((1, 1), 3, 2))
        assert formula_matches_oracle(make_params((2, 2), 15, 4))


class TestSpecialColonCases:
    def test_colon_prime_detection_handles_non_prime(self, b22):
        ideal = bitype_ideal(make_params((2, 2), 2, 2))
        # colon by 1 is the ideal itself, not a prime
        assert ideal.colon(Monomial.unit(b22)).as_prime_support() is None

    def test_oracle_rejects_zero_and_unit(self, b22):
        with pytest.raises(ParameterRangeError):
            associated_primes_oracle(MonomialIdeal.zero(b22))
        with pytest.raises(ParameterRangeError):
            associated_primes_oracle(MonomialIdeal.unit_ideal(b22))


def full_box_primes(ideal):
    """Reference: the unreduced kernel scan, as (prime, first witness) pairs in oracle order."""
    raw = ideal._table.ass_scan(ideal.lcm_box(assoc.DEFAULT_WITNESS_BOX, "witness"))
    masks = sorted(raw, key=lambda m: (bin(m).count("1"), assoc._mask_bits(m)))
    return [(assoc._mask_bits(m), raw[m]) for m in masks]


def same_primes(ideal):
    """The orbit-reduced search finds the reference's primes and witnesses, in its order."""
    found = associated_primes_oracle(ideal)
    return [(p.sorted_indices(), w.entries) for p, w in found.items()] == full_box_primes(ideal)


class TestOrbitReduction:
    @pytest.mark.parametrize("n_vars", range(1, 6))
    def test_bitype_instances_match_full_box(self, n_vars):
        for ideal in bitype_instances(n_vars, box_cap=assoc.DEFAULT_WITNESS_BOX):
            assert same_primes(ideal), ideal

    def test_asymmetric_ideals_match_full_box(self):
        for ideal in asymmetric_ideals():
            assert same_primes(ideal), ideal

    @pytest.mark.parametrize("n_vars", range(2, 5))
    def test_ordered_walk_ideals_match_full_box(self, n_vars):
        for ideal in ordered_walk_ideals(n_vars):
            assert same_primes(ideal), ideal

    def test_each_point_coloned_once(self):
        class CountingColons:
            """The ideal's table, recording every point it colons."""

            def __init__(self, table):
                self.table, self.points = table, []

            def colon_prime_mask(self, f):
                self.points.append(f)
                return self.table.colon_prime_mask(f)

            def __getattr__(self, name):
                return getattr(self.table, name)

        ideal = bitype_ideal(make_params((2, 2), 15, 4))
        counting = CountingColons(ideal._table)
        ideal.__dict__["_table"] = counting
        assert same_primes(ideal)
        assert len(counting.points) == len(set(counting.points))


class TestOrbitMutations:
    """Each broken reduction must disagree with the full-box reference."""

    def test_dropped_arrangement(self, monkeypatch):
        def all_but_first(point, runs):
            images = list(core.arrangements(point, runs))
            return images[1:] or images

        monkeypatch.setattr(assoc, "arrangements", all_but_first)
        assert not same_primes(bitype_ideal(make_params((2, 2), 3, 2)))

    def test_representative_mask_for_every_image(self):
        class RepresentativeColons:
            """The ideal's table, but each colon is taken at its run representative."""

            def __init__(self, table, runs):
                self.table, self.runs = table, runs

            def colon_prime_mask(self, f):
                rep = chain.from_iterable(sorted(f[a:b], reverse=True) for a, b in self.runs)
                return self.table.colon_prime_mask(tuple(rep))

            def __getattr__(self, name):
                return getattr(self.table, name)

        ideal = bitype_ideal(make_params((2, 2), 15, 4))
        ideal.__dict__["_table"] = RepresentativeColons(ideal._table, core.symmetric_runs(ideal))
        assert not same_primes(ideal)

    def test_forced_run(self, monkeypatch):
        ideal = asymmetric_ideals()[0]
        monkeypatch.setattr(assoc, "symmetric_runs", lambda i: [(0, i.blocks.n_vars)])
        assert not same_primes(ideal)
