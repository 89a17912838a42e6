"""Sort operator laws, sortability checks, relations, fibers, rewriting."""

from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from bitype import (
    BlockStructure,
    Monomial,
    MonomialIdeal,
    ParameterRangeError,
    RewriteLimitError,
    UnsortableError,
    bitype_ideal,
    make_params,
)
from bitype import kernels, sorting
from bitype.sorting import (
    DEFAULT_REWRITE_CAP,
    ToricPresentation,
    _split,
    fiber,
    fibers_of_degree,
    is_sortable,
    is_sorted_pair,
    normal_form,
    quadratic_gb_evidence,
    sort_pair,
    sortable_violation,
    sorting_relations,
)
from conftest import mono


@st.composite
def equal_degree_pair(draw):
    blocks = BlockStructure(tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))))
    n = blocks.n_vars
    u = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    v = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    # pad the lighter one in its final coordinate to equalize degrees
    du, dv = sum(u), sum(v)
    if du < dv:
        u[-1] += dv - du
    else:
        v[-1] += du - dv
    return Monomial(blocks, tuple(u)), Monomial(blocks, tuple(v))


class TestSortPair:
    def test_fixed_on_diagonal(self, b22):
        u = mono(b22, 1, 0, 1, 0)
        assert sort_pair(u, u) == (u, u)

    def test_single_block(self):
        blocks = BlockStructure((2,))
        u, v = Monomial(blocks, (2, 0)), Monomial(blocks, (0, 2))
        assert sort_pair(u, v) == (Monomial(blocks, (1, 1)), Monomial(blocks, (1, 1)))

    def test_cross_blocks(self, b22):
        u, v = mono(b22, 1, 0, 0, 1), mono(b22, 0, 1, 1, 0)
        first, second = sort_pair(u, v)
        assert first.entries == (1, 0, 1, 0) and second.entries == (0, 1, 0, 1)

    def test_degree_mismatch(self, b22):
        with pytest.raises(ParameterRangeError):
            sort_pair(mono(b22, 1, 0, 0, 0), mono(b22, 1, 1, 0, 0))

    @given(equal_degree_pair())
    @settings(max_examples=80, deadline=None)
    def test_conservation_and_idempotence(self, pair):
        u, v = pair
        first, second = sort_pair(u, v)
        merged = tuple(a + b for a, b in zip(u.entries, v.entries))
        assert tuple(a + b for a, b in zip(first.entries, second.entries)) == merged
        assert sort_pair(first, second) == (first, second)
        assert sort_pair(u, v) == sort_pair(v, u)

    @given(equal_degree_pair())
    @settings(max_examples=80, deadline=None)
    def test_interleave_recomputation(self, pair):
        # the sorted pair is the odd/even deal of the merged occurrence list
        u, v = pair
        first, second = sort_pair(u, v)
        occurrences = []
        for k, c in enumerate(a + b for a, b in zip(u.entries, v.entries)):
            occurrences.extend([k] * c)
        odd = occurrences[0::2]
        even = occurrences[1::2]
        n = u.blocks.n_vars
        assert first.entries == tuple(odd.count(k) for k in range(n))
        assert second.entries == tuple(even.count(k) for k in range(n))


class TestSortable:
    def test_full_generator_set(self):
        ideal = bitype_ideal(make_params((2, 2), 4, 2))
        assert is_sortable(list(ideal.gens))

    def test_missing_middle(self):
        blocks = BlockStructure((2,))
        vectors = [Monomial(blocks, (2, 0)), Monomial(blocks, (0, 2))]
        assert not is_sortable(vectors)

    def test_singleton(self, b22):
        assert is_sortable([mono(b22, 1, 1, 0, 0)])

    def test_box_scan_matches_pair_scan(self):
        from itertools import product

        from bitype import ParameterRangeError

        for blocks in [(1, 1), (2, 1), (2, 2), (1, 2, 1)]:
            for s in (1, 2):
                for t in range(len(blocks), 2 * sum(blocks) + 1):
                    try:
                        params = make_params(blocks, t, s)
                    except ParameterRangeError:
                        continue
                    gens = list(bitype_ideal(params).gens)
                    assert (sortable_violation(params) is None) == is_sortable(gens), (
                        blocks,
                        t,
                        s,
                    )


def _first_half(c, rule):
    """Apply a per-entry split rule along c, tracking the prefix parity."""
    first = []
    odd = 0
    for ck in c:
        first.append(rule(ck, odd))
        odd ^= ck & 1
    return tuple(first)


def _first_violating_sum(gens, rule):
    """Brute force: the lexicographically first pair-sum g+h whose split leaves gens."""
    pool = set(gens)
    sums = {tuple(a + b for a, b in zip(g, h)) for i, g in enumerate(gens) for h in gens[i:]}
    for c in sorted(sums):
        first = _first_half(c, rule)
        second = tuple(ck - uk for ck, uk in zip(c, first))
        if first not in pool or second not in pool:
            return c
    return None


def _small_instances():
    """Every valid (blocks, t, s) with at most three blocks and N <= 5."""
    for n in (1, 2, 3):
        for blocks in product((1, 2, 3), repeat=n):
            if sum(blocks) > 5:
                continue
            for s in (1, 2, 3):
                for t in range(n, s * sum(blocks) + 1):
                    try:
                        yield make_params(blocks, t, s)
                    except ParameterRangeError:
                        continue


class TestSortabilitySearch:
    """The pair-sum search against a brute force over the builder's generator pairs."""

    @pytest.mark.parametrize(
        "rule,violating",
        [
            (lambda ck, odd: (ck + 1) // 2, 319),
            (lambda ck, odd: ck // 2, 319),
            # odd entries go whole to alternating sides: the first half often
            # keeps degree t, so only the entry-cap and empty-block checks
            # can see these violations
            (lambda ck, odd: ck // 2 if ck % 2 == 0 else (0 if odd else ck), 262),
        ],
        ids=["always-ceil", "always-floor", "odd-entries-whole"],
    )
    def test_mutated_split_caught_with_first_witness(self, monkeypatch, rule, violating):
        monkeypatch.setattr(kernels, "_entry_split", rule)
        instances = violations = 0
        for params in _small_instances():
            gens = [g.entries for g in bitype_ideal(params).gens]
            expected = _first_violating_sum(gens, rule)
            assert sortable_violation(params) == expected, params
            instances += 1
            violations += expected is not None
        assert (instances, violations) == (385, violating)

    def test_true_split_has_no_violation(self):
        for params in _small_instances():
            gens = [g.entries for g in bitype_ideal(params).gens]
            assert _first_violating_sum(gens, kernels._entry_split) is None
            assert sortable_violation(params) is None, params

    def test_true_split_is_the_interleave(self):
        for c in [(3, 0, 2, 5), (1, 1, 1, 1), (0, 4, 3, 3, 1)]:
            assert _first_half(c, kernels._entry_split) == _split(c)[0]


class TestRelations:
    def test_single_relation_for_the_square(self):
        pres = ToricPresentation(bitype_ideal(make_params((2, 2), 2, 2)))
        relations = sorting_relations(pres)
        assert len(relations) == 1
        rel = relations[0]
        assert {m.entries for m in rel.lhs} == {(0, 1, 1, 0), (1, 0, 0, 1)}
        assert {m.entries for m in rel.rhs} == {(1, 0, 1, 0), (0, 1, 0, 1)}

    def test_rhs_always_sorted(self):
        pres = ToricPresentation(bitype_ideal(make_params((2, 2), 11, 3)))
        for rel in sorting_relations(pres):
            assert is_sorted_pair(*rel.rhs)

    def test_relation_count_matches_fiber_count(self):
        # each degree-2 fiber holds exactly one sorted pair, so the unsorted
        # pairs count the independent quadratic binomials fiber by fiber
        pres = ToricPresentation(bitype_ideal(make_params((2, 2), 4, 2)))
        relations = sorting_relations(pres)
        fibers = fibers_of_degree(pres, 2)
        assert len(relations) == sum(len(v) - 1 for v in fibers.values())

    def test_unsortable_input_refused(self):
        blocks = BlockStructure((2,))
        from bitype import MonomialIdeal

        pres = ToricPresentation(
            MonomialIdeal.from_generators(
                blocks, [Monomial(blocks, (2, 0)), Monomial(blocks, (0, 2))]
            )
        )
        with pytest.raises(UnsortableError):
            sorting_relations(pres)


class TestFibers:
    def test_square_fiber(self, b22):
        pres = ToricPresentation(bitype_ideal(make_params((2, 2), 2, 2)))
        members = fiber(pres, 2, mono(b22, 1, 1, 1, 1))
        assert sorted(members) == [(0, 3), (1, 2)]

    def test_doubled_generator_in_own_fiber(self, b22):
        pres = ToricPresentation(bitype_ideal(make_params((2, 2), 2, 2)))
        g = pres.generators[0]
        doubled = Monomial(b22, tuple(2 * e for e in g.entries))
        assert (0, 0) in fiber(pres, 2, doubled)

    def test_unreachable_target_empty(self, b22):
        pres = ToricPresentation(bitype_ideal(make_params((2, 2), 2, 2)))
        assert fiber(pres, 2, mono(b22, 4, 0, 0, 0)) == []


class TestNormalForm:
    def test_sorted_multiset_is_fixed(self):
        pres = ToricPresentation(bitype_ideal(make_params((2, 2), 2, 2)))
        sorted_pair = (0, 3)  # x11*x21 with x12*x22
        assert normal_form(pres, sorted_pair) == sorted_pair

    def test_one_step(self):
        pres = ToricPresentation(bitype_ideal(make_params((2, 2), 2, 2)))
        assert normal_form(pres, (1, 2)) == (0, 3)

    def test_triple_fiber_unique_form(self, b22):
        pres = ToricPresentation(bitype_ideal(make_params((2, 2), 2, 2)))
        grouped = fibers_of_degree(pres, 3)
        target = (2, 1, 2, 1)
        forms = {normal_form(pres, m) for m in grouped[target]}
        assert len(forms) == 1


class TestEvidence:
    @pytest.mark.parametrize(
        "blocks,t,s",
        [((2, 2), 2, 2), ((2, 2), 4, 2), ((2, 2, 2), 3, 2), ((2, 2), 11, 3)],
    )
    def test_evidence_passes(self, blocks, t, s):
        pres = ToricPresentation(bitype_ideal(make_params(blocks, t, s)))
        evidence = quadratic_gb_evidence(pres)
        assert evidence.passed
        assert evidence.violations == []
        assert set(evidence.fibers_checked) == {2, 3}


CRITERION_7 = [((2, 2), 2, 2), ((2, 2), 4, 2), ((2, 2, 2), 3, 2), ((2, 2), 11, 3)]


class TestSortedIndices:
    @pytest.mark.parametrize("blocks,t,s", CRITERION_7)
    def test_matches_sort_pair(self, blocks, t, s):
        pres = ToricPresentation(bitype_ideal(make_params(blocks, t, s)))
        gens = pres.generators
        for i, j in product(range(len(gens)), repeat=2):
            first, second = sort_pair(gens[i], gens[j])
            expected = (pres.index_of[first.entries], pres.index_of[second.entries])
            assert pres.sorted_indices(i, j) == expected, (i, j)

    def test_unequal_degrees_refused(self, b22):
        ideal = MonomialIdeal.from_generators(b22, [mono(b22, 1, 0, 0, 0), mono(b22, 0, 1, 1, 0)])
        with pytest.raises(ParameterRangeError, match="sort needs equal degrees") as expected:
            sort_pair(*ideal.gens)
        with pytest.raises(ParameterRangeError) as got:
            ToricPresentation(ideal).sorted_indices(0, 1)
        assert str(got.value) == str(expected.value)

    def test_image_outside_the_set(self):
        blocks = BlockStructure((2,))
        pres = ToricPresentation(
            MonomialIdeal.from_generators(blocks, [Monomial(blocks, (2, 0)), Monomial(blocks, (0, 2))])
        )
        assert pres.sorted_indices(0, 1) is None


class TestEvidenceMutations:
    """The fiber checks fail when the sort is wrong; (2,2), t=2, s=2 throughout."""

    @pytest.fixture
    def pres(self):
        return ToricPresentation(bitype_ideal(make_params((2, 2), 2, 2)))

    def test_no_moves_gives_one_form_per_member(self, pres, monkeypatch):
        monkeypatch.setattr(ToricPresentation, "sorted_indices", lambda self, i, j: (i, j))
        evidence = quadratic_gb_evidence(pres)
        shared = [
            (d, list(target))
            for d in (2, 3)
            for target, members in sorted(fibers_of_degree(pres, d).items())
            if len(members) > 1
        ]
        assert shared
        assert [(v["degree"], v["target"]) for v in evidence.violations] == shared
        assert {v["kind"] for v in evidence.violations} == {"normal-form-mismatch"}
        assert not evidence.passed

    def test_two_cycle_is_nontermination(self, pres, monkeypatch):
        cycle = {(1, 2): (0, 3), (0, 3): (1, 2)}
        monkeypatch.setattr(
            ToricPresentation, "sorted_indices", lambda self, i, j: cycle.get((i, j), (i, j))
        )
        evidence = quadratic_gb_evidence(pres)
        kinds = {v["kind"] for v in evidence.violations}
        assert "nontermination" in kinds
        assert {"kind": "nontermination", "degree": 2, "target": [1, 1, 1, 1],
                "detail": "rewriting cycled at (1, 2) -> (0, 3)"} in evidence.violations
        assert not evidence.passed


def _reference_moves(pres, multiset):
    """Every multiset one sorting move away, pairs in position order."""
    for a, b in combinations(range(len(multiset)), 2):
        i, j = multiset[a], multiset[b]
        image = pres.sorted_indices(i, j)
        if image is None:
            raise UnsortableError("presentation is not sortable")
        if tuple(sorted(image)) != (i, j):
            rest = list(multiset)
            del rest[b]
            del rest[a]
            rest.extend(image)
            yield tuple(sorted(rest))


def _reference_normal_form(pres, multiset, cap):
    """Rewrite one multiset from scratch, taking the first move each step."""
    state = tuple(sorted(multiset))
    seen = {state}
    for _ in range(cap):
        nxt = next(_reference_moves(pres, state), None)
        if nxt is None:
            return state
        if nxt in seen:
            raise RewriteLimitError(f"rewriting cycled at {state} -> {nxt}")
        seen.add(nxt)
        state = nxt
    raise RewriteLimitError(f"rewriting exceeded {cap} steps from {tuple(sorted(multiset))}")


def reference_evidence(pres, max_degree=3, step_cap=None):
    """``quadratic_gb_evidence(...).to_dict()`` with every fiber member rewritten from scratch."""
    cap = DEFAULT_REWRITE_CAP if step_cap is None else step_cap
    n = len(pres.generators)
    relations = sum(
        tuple(sorted(pres.sorted_indices(i, j))) != (i, j) for i in range(n) for j in range(i, n)
    )
    checked, violations = {}, []
    for d in range(2, max_degree + 1):
        grouped = fibers_of_degree(pres, d)
        checked[str(d)] = len(grouped)
        for target, members in sorted(grouped.items()):
            try:
                forms = {_reference_normal_form(pres, m, cap) for m in members}
            except RewriteLimitError as exc:
                violations.append({"kind": "nontermination", "degree": d,
                                   "target": list(target), "detail": str(exc)})
                continue
            if len(forms) > 1:
                violations.append({"kind": "normal-form-mismatch", "degree": d,
                                   "target": list(target), "forms": sorted(map(list, forms))})
    return {"sortable": True, "relationCount": relations, "fibersChecked": checked,
            "violations": violations}


class TestEvidenceMatchesReference:
    """Recorded walks give the same document as rewriting every member from scratch."""

    @pytest.mark.parametrize("step_cap", [1, 2, 3, 4, 6, None])
    @pytest.mark.parametrize("blocks,t,s", CRITERION_7 + [((1, 3, 1), 5, 3), ((1, 2), 3, 2)])
    def test_same_document(self, blocks, t, s, step_cap):
        pres = ToricPresentation(bitype_ideal(make_params(blocks, t, s)))
        expected = reference_evidence(pres, step_cap=step_cap)
        assert quadratic_gb_evidence(pres, step_cap=step_cap).to_dict() == expected

    def test_cycle_reached_from_a_later_member(self, monkeypatch):
        # fiber (1, 2, 2, 4): (0, 0, 7) -> (0, 1, 6) is recorded as a finished
        # walk, (0, 1, 6) is then already known, and (0, 2, 5) enters the cycle
        pres = ToricPresentation(bitype_ideal(make_params((2, 2), 3, 2)))
        true_sort = ToricPresentation.sorted_indices
        cycle = {(0, 2): (1, 1), (1, 1): (0, 2)}
        monkeypatch.setattr(
            ToricPresentation, "sorted_indices",
            lambda self, i, j: cycle.get((i, j)) or true_sort(self, i, j),
        )
        members = fibers_of_degree(pres, 3)[(1, 2, 2, 4)]
        assert members == [(0, 0, 7), (0, 1, 6), (0, 2, 5), (1, 1, 5)]
        assert normal_form(pres, members[0]) == (0, 1, 6)
        evidence = quadratic_gb_evidence(pres)
        assert {"kind": "nontermination", "degree": 3, "target": [1, 2, 2, 4],
                "detail": "rewriting cycled at (1, 1, 5) -> (0, 2, 5)"} in evidence.violations
        assert evidence.to_dict() == reference_evidence(pres)


class TestEvidenceWork:
    """One evidence call sorts each generator pair once and moves each multiset once."""

    @pytest.fixture
    def pres(self):
        pres = ToricPresentation(bitype_ideal(make_params((2, 2), 4, 2)))
        assert len(pres.generators) == 17
        return pres

    def test_each_pair_sorted_once(self, pres, monkeypatch):
        calls = []
        true_sort = ToricPresentation.sorted_indices

        def counting(self, i, j):
            calls.append((i, j))
            return true_sort(self, i, j)

        monkeypatch.setattr(ToricPresentation, "sorted_indices", counting)
        assert quadratic_gb_evidence(pres).passed
        assert len(calls) <= 17 * 18 // 2 == 153

    def test_each_multiset_moved_once(self, pres, monkeypatch):
        states = []
        true_first_move = sorting._first_move

        def counting(moves, state):
            states.append(state)
            return true_first_move(moves, state)

        monkeypatch.setattr(sorting, "_first_move", counting)
        assert quadratic_gb_evidence(pres).passed
        assert len(states) <= sum(comb(17 + d - 1, d) for d in (2, 3))
        # a walk stays in its fiber and a recorded state is not moved again,
        # so each multiset is moved exactly once
        assert sorted(states) == sorted(
            m for d in (2, 3) for members in fibers_of_degree(pres, d).values() for m in members
        )
