"""Strong block graphs, walk enumeration, walk ideals, edge ideals."""

from itertools import product

import pytest

from bitype import (
    BlockStructure,
    MonomialIdeal,
    ParameterRangeError,
    bitype_ideal,
    make_params,
)
from bitype.graphs import (
    edge_ideal,
    generalized_graph_ideal,
    strong_block_graph,
    to_dot,
    walk_exponent_vectors,
)
from conftest import GOLDEN_EDGE_22, gen_set


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

    def test_loops_only(self, b11):
        graph = strong_block_graph(b11)
        loops_only = type(graph)(
            blocks=graph.blocks,
            edges=frozenset(e for e in graph.edges if len(e) == 1),
            adjacency=graph.adjacency,
        )
        assert gen_set(edge_ideal(loops_only)) == {(2, 0), (0, 2)}
