"""Strong block graphs, walk enumeration, walk ideals, edge ideals."""

import inspect
from itertools import product

import pytest

from bitype import (
    BlockStructure,
    Monomial,
    MonomialIdeal,
    ParameterRangeError,
    bitype_ideal,
    make_params,
)
from bitype import graphs as graphs_module
from bitype.graphs import (
    LoopGraph,
    edge_ideal,
    generalized_graph_ideal,
    strong_block_graph,
    to_dot,
    walk_exponent_vectors,
)
from conftest import GOLDEN_EDGE_22, gen_set, monomials_refused


class TestStrongGraph:
    def test_two_blocks(self, b22):
        graph = strong_block_graph(b22)
        loops = [e for e in graph.edge_pairs() if e[0] == e[1]]
        crosses = [e for e in graph.edge_pairs() if e[0] != e[1]]
        assert len(loops) == 4 and len(crosses) == 4

    def test_three_blocks_all_mode(self, b222):
        graph = strong_block_graph(b222, "all")
        crosses = [e for e in graph.edge_pairs() if e[0] != e[1]]
        assert len(crosses) == 12

    def test_three_blocks_consecutive_mode(self, b222):
        graph = strong_block_graph(b222, "consecutive")
        crosses = [e for e in graph.edge_pairs() if e[0] != e[1]]
        assert len(crosses) == 8  # blocks 1-2 and 2-3 only

    def test_singletons(self, b11):
        graph = strong_block_graph(b11)
        assert len(graph.edge_pairs()) == 3  # two loops, one edge

    def test_dot_export(self, b11):
        dot = to_dot(strong_block_graph(b11))
        assert "x11 -- x21" in dot and "x11 -- x11" in dot


class TestWalks:
    def test_two_singleton_blocks_length_two(self, b11):
        vectors = walk_exponent_vectors(strong_block_graph(b11), 2)
        assert {v.entries for v in vectors} == {(2, 1), (1, 2)}

    def test_three_block_length_two(self, b222):
        vectors = walk_exponent_vectors(strong_block_graph(b222), 2)
        assert len(vectors) == 8

    def test_seventeen_walk_monomials(self, b22):
        vectors = walk_exponent_vectors(strong_block_graph(b22), 3)
        assert len(vectors) == 17

    def test_exponents_capped_and_degree_constant(self, b22):
        for length in (2, 3, 4):
            for v in walk_exponent_vectors(strong_block_graph(b22), length):
                assert v.total_degree == length + 1
                assert max(v.entries) <= 2

    def test_unspanned_walks_are_supersets(self, b222):
        spanned = {v.entries for v in walk_exponent_vectors(strong_block_graph(b222), 2)}
        literal = {
            v.entries
            for v in walk_exponent_vectors(strong_block_graph(b222), 2, span_blocks=False)
        }
        assert spanned < literal
        assert (2, 0, 1, 0, 0, 0) in literal - spanned  # loop walk missing block three

    def test_ordered_mode_restricts(self, b22):
        free = {v.entries for v in walk_exponent_vectors(strong_block_graph(b22), 3)}
        ordered = {
            v.entries for v in walk_exponent_vectors(strong_block_graph(b22), 3, ordered=True)
        }
        assert ordered <= free
        assert (1, 1, 1, 1) in free - ordered  # needs a block-alternating walk


def reference_walks(graph, length, ordered=False, span_blocks=True):
    """Walk multidegrees by brute force over every vertex sequence."""
    blocks = graph.blocks
    n = blocks.n_vars
    steps = set(graph.edge_pairs())
    found = set()
    for walk in product(range(n), repeat=length + 1):
        counts = tuple(walk.count(v) for v in range(n))
        if max(counts) > 2:
            continue
        pairs = list(zip(walk, walk[1:]))
        if not all((min(a, b), max(a, b)) in steps for a, b in pairs):
            continue
        if ordered and any(blocks.block_of(b) < blocks.block_of(a) for a, b in pairs):
            continue
        if span_blocks and len({blocks.block_of(v) for v in walk}) < blocks.n_blocks:
            continue
        found.add(counts)
    return sorted(found)


def walk_entries(walks, graph, length, ordered=False, span_blocks=True):
    return [v.entries for v in walks(graph, length, ordered=ordered, span_blocks=span_blocks)]


def loops_only(graph):
    return type(graph)(
        blocks=graph.blocks,
        edges=frozenset(e for e in graph.edges if len(e) == 1),
        adjacency=graph.adjacency,
    )


REFERENCE_SHAPES = [(1, 1), (2, 1), (1, 3), (2, 2), (1, 1, 1), (1, 2, 1)]


def assert_matches_reference(graph, lengths):
    for length in lengths:
        for ordered, span in product((False, True), repeat=2):
            assert walk_entries(walk_exponent_vectors, graph, length, ordered, span) == (
                reference_walks(graph, length, ordered, span)
            ), (length, ordered, span)


class TestWalkReference:
    @pytest.mark.parametrize("shape", REFERENCE_SHAPES, ids=str)
    @pytest.mark.parametrize("mode", ["all", "consecutive"])
    def test_agrees_with_brute_force(self, shape, mode):
        graph = strong_block_graph(BlockStructure(shape), mode)
        assert_matches_reference(graph, range(1, min(2 * sum(shape) - 1, 4) + 1))

    def test_loops_only_graph(self, b11):
        graph = loops_only(strong_block_graph(b11))
        assert_matches_reference(graph, (1, 2))
        assert walk_entries(walk_exponent_vectors, graph, 1, span_blocks=False) == [(0, 2), (2, 0)]

    def test_reads_edges_once(self, b222, monkeypatch):
        calls = []
        edge_pairs = LoopGraph.edge_pairs
        monkeypatch.setattr(LoopGraph, "edge_pairs", lambda g: calls.append(1) or edge_pairs(g))
        walk_exponent_vectors(strong_block_graph(b222), 3, ordered=True)
        assert len(calls) == 1


def walks_from(source: str):
    """``walk_exponent_vectors`` compiled from a version of the graphs module source."""
    namespace = {"__name__": "bitype.graphs", "__package__": "bitype"}
    exec(compile(source, graphs_module.__file__, "exec"), namespace)
    return namespace["walk_exponent_vectors"]


def mutant_walks(old: str, new: str):
    """``walk_exponent_vectors`` with one fragment of its source replaced."""
    source = inspect.getsource(graphs_module)
    assert source.count(old) == 1, old
    return walks_from(source.replace(old, new))


# name: (fragment of walk_exponent_vectors, its replacement, instance it breaks on)
WALK_MUTATIONS = {
    "third visit allowed": (
        "if counts[w] < 2", "if counts[w] < 3", ((1, 1), "all", 3, False, False)
    ),
    # only steps towards a higher index: (1,1,1,1) needs x21 -> x12
    "edges one way": ("moves[w].add(u)", "pass", ((2, 2), "all", 3, False, True)),
    # loops are dropped with the backward steps
    "strictly later blocks": (
        "block_of[w] >= block_of[v]", "block_of[w] > block_of[v]", ((1, 1), "all", 2, True, True)
    ),
    "span filter dropped": ("if span_blocks:", "if False:", ((2, 2, 2), "all", 2, False, True)),
}


class TestWalkMutations:
    """Each broken step rule disagrees with the brute-force reference."""

    @pytest.mark.parametrize("name", WALK_MUTATIONS)
    def test_mutant_disagrees(self, name):
        old, new, (shape, mode, length, ordered, span) = WALK_MUTATIONS[name]
        graph = strong_block_graph(BlockStructure(shape), mode)
        mutant = walk_entries(mutant_walks(old, new), graph, length, ordered, span)
        assert mutant != reference_walks(graph, length, ordered, span)

    def test_unmutated_source_agrees(self):
        walks = walks_from(inspect.getsource(graphs_module))
        for _, _, (shape, mode, length, ordered, span) in WALK_MUTATIONS.values():
            graph = strong_block_graph(BlockStructure(shape), mode)
            assert walk_entries(walks, graph, length, ordered, span) == (
                reference_walks(graph, length, ordered, span)
            )


class TestGraphIdeals:
    def test_three_block_identification(self, b222):
        walk = generalized_graph_ideal(strong_block_graph(b222), 3)
        assert walk == bitype_ideal(make_params((2, 2, 2), 3, 2))

    def test_degree_four_identification(self, b22):
        walk = generalized_graph_ideal(strong_block_graph(b22), 4)
        assert walk == bitype_ideal(make_params((2, 2), 4, 2))

    def test_two_singleton_blocks(self, b11):
        walk = generalized_graph_ideal(strong_block_graph(b11), 3)
        assert gen_set(walk) == {(2, 1), (1, 2)}

    def test_degree_below_three_rejected(self, b22):
        with pytest.raises(ParameterRangeError):
            generalized_graph_ideal(strong_block_graph(b22), 2)

    def test_identification_for_blocks_up_to_two(self):
        for m1, m2 in product((1, 2), repeat=2):
            blocks = BlockStructure((m1, m2))
            total = m1 + m2
            for t in range(3, 2 * total):
                walk = generalized_graph_ideal(strong_block_graph(blocks), t)
                assert walk == bitype_ideal(make_params((m1, m2), t, 2)), (m1, m2, t)

    def test_size_three_blocks_fall_short(self):
        # three same-block vertices cannot be separated by a single other
        # occurrence in any walk, so this multidegree is unreachable
        blocks = BlockStructure((3, 1))
        walk = generalized_graph_ideal(strong_block_graph(blocks), 4)
        direct = bitype_ideal(make_params((3, 1), 4, 2))
        assert gen_set(direct) - gen_set(walk) == {(1, 1, 1, 1)}

    def test_generators_are_already_canonical(self):
        # the builder skips minimalization; it must not need it.  Shapes with
        # more than six variables are left out to keep the suite fast.
        shapes = [
            shape
            for n in (1, 2, 3)
            for shape in product((1, 2, 3), repeat=n)
            if sum(shape) <= 6
        ]
        for shape in shapes:
            blocks = BlockStructure(shape)
            for mode in ("all", "consecutive"):
                graph = strong_block_graph(blocks, mode)
                for t in range(3, 2 * sum(shape) + 1):
                    for ordered, span in product((False, True), repeat=2):
                        ideal = generalized_graph_ideal(
                            graph, t, ordered=ordered, span_blocks=span
                        )
                        canonical = MonomialIdeal.from_generators(blocks, ideal.gens)
                        assert ideal == canonical, (shape, mode, t, ordered, span)

    def test_walk_ideal_always_inside_the_capped_ideal(self):
        # the shortfall is one-sided: every walk multidegree is a generator
        # of the capped ideal, never the other way around
        shapes = [(3, 1), (2, 3), (3, 3), (2, 2, 2), (1, 2, 3)]
        for shape in shapes:
            blocks = BlockStructure(shape)
            graph = strong_block_graph(blocks)
            for t in range(3, 2 * sum(shape)):
                walk = generalized_graph_ideal(graph, t)
                direct = bitype_ideal(make_params(shape, t, 2))
                assert gen_set(walk) <= gen_set(direct), (shape, t)


class TestEdgeIdeal:
    def test_golden_eight_generators(self, b22):
        assert gen_set(edge_ideal(strong_block_graph(b22))) == GOLDEN_EDGE_22

    def test_differs_from_degree_two_ideal(self, b22):
        assert edge_ideal(strong_block_graph(b22)) != bitype_ideal(make_params((2, 2), 2, 2))

    def test_builds_rows_without_validating(self):
        cases = []
        for shape in ((2, 2), (1, 2, 3), (3,)):
            blocks = BlockStructure(shape)
            for mode in ("all", "consecutive"):
                graph = strong_block_graph(blocks, mode)
                monomials = [
                    Monomial(blocks, tuple((k == u) + (k == w) for k in range(blocks.n_vars)))
                    for u, w in graph.edge_pairs()
                ]
                cases.append((graph, MonomialIdeal.from_generators(blocks, monomials)))
        with monomials_refused():
            for graph, expected in cases:
                assert edge_ideal(graph) == expected, graph
        assert gen_set(cases[0][1]) == GOLDEN_EDGE_22

    def test_loops_only(self, b11):
        assert gen_set(edge_ideal(loops_only(strong_block_graph(b11)))) == {(2, 0), (0, 2)}
