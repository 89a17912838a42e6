"""Block graphs with loops, walk enumeration, and their monomial ideals.

The strong graph on a block structure has a loop at every vertex and is
complete between admissible block pairs: either all distinct pairs or only
consecutive ones.  There are no edges inside a block.

A walk of length L is a vertex sequence v_0..v_L where consecutive equal
vertices use the loop and consecutive distinct vertices use an edge; since
generators of walk ideals carry each variable with exponent at most two,
walks revisiting a vertex a third time are inadmissible.  The enumeration
reads the edges once into one move list per vertex, a loop being an edge
from a vertex to itself, so every step follows the same rule.  The walk ideal
of degree t is generated by the multidegrees of length t-1 walks.  By default
only walks whose vertex classes span every block are collected, which is
what the degree-capped block ideals require; literal enumeration without
that restriction is available via ``span_blocks=False``, and the nondecreasing
block-order variant via ``ordered=True``.
"""

from dataclasses import dataclass

from .core import BlockStructure, Monomial, MonomialIdeal, _minimal_rows
from .errors import ParameterRangeError

ADJACENCY_MODES = ("all", "consecutive")


@dataclass(frozen=True)
class LoopGraph:
    """Undirected graph on the flat variable set, loops as singleton pairs."""

    blocks: BlockStructure
    edges: frozenset[frozenset[int]]
    adjacency: str

    def edge_pairs(self) -> list[tuple[int, int]]:
        """Edges as sorted index pairs, loops as (v, v), in canonical order."""
        out = []
        for e in self.edges:
            vs = sorted(e)
            out.append((vs[0], vs[-1]))
        out.sort()
        return out


def strong_block_graph(blocks: BlockStructure, adjacency: str = "all") -> LoopGraph:
    """Loops everywhere, complete between admissible block pairs."""
    if adjacency not in ADJACENCY_MODES:
        raise ParameterRangeError(f"adjacency mode must be one of {ADJACENCY_MODES}")
    edges = set()
    for v in range(blocks.n_vars):
        edges.add(frozenset({v}))
    for i in range(blocks.n_blocks):
        for j in range(i + 1, blocks.n_blocks):
            if adjacency == "consecutive" and j != i + 1:
                continue
            for u in blocks.block_range(i):
                for w in blocks.block_range(j):
                    edges.add(frozenset({u, w}))
    return LoopGraph(blocks=blocks, edges=frozenset(edges), adjacency=adjacency)


def walk_exponent_vectors(
    graph: LoopGraph,
    length: int,
    ordered: bool = False,
    span_blocks: bool = True,
) -> list[Monomial]:
    """Multidegrees of all admissible walks with the given number of edges.

    Explores (occupancy, last vertex) states breadth-first, which keeps the
    enumeration polynomial in the state count rather than in the number of
    individual walks.  ``ordered`` restricts steps to nondecreasing block
    index; ``span_blocks`` keeps only walks that visit every block.
    """
    if length < 1:
        raise ParameterRangeError("walk length must be at least 1")
    blocks = graph.blocks
    n = blocks.n_vars
    block_of = [blocks.block_of(k) for k in range(n)]
    moves: list[set[int]] = [set() for _ in range(n)]
    for u, w in graph.edge_pairs():
        moves[u].add(w)
        moves[w].add(u)
    if ordered:
        moves = [{w for w in ws if block_of[w] >= block_of[v]} for v, ws in enumerate(moves)]

    frontier = {(tuple(int(k == v) for k in range(n)), v) for v in range(n)}
    for _ in range(length):
        frontier = {
            (counts[:w] + (counts[w] + 1,) + counts[w + 1 :], w)
            for counts, last in frontier
            for w in moves[last]
            if counts[w] < 2
        }

    found = {counts for counts, _ in frontier}
    if span_blocks:
        found = {
            c
            for c in found
            if all(any(c[k] for k in blocks.block_range(i)) for i in range(blocks.n_blocks))
        }
    return [Monomial(blocks, c) for c in sorted(found)]


def generalized_graph_ideal(
    graph: LoopGraph,
    t: int,
    ordered: bool = False,
    span_blocks: bool = True,
) -> MonomialIdeal:
    """The walk ideal of degree t >= 3: multidegrees of length t-1 walks."""
    if t < 3:
        raise ParameterRangeError("walk ideals start at degree 3; use edge_ideal for degree 2")
    vectors = walk_exponent_vectors(graph, t - 1, ordered=ordered, span_blocks=span_blocks)
    # distinct vectors of one degree in lexicographic order: already canonical
    return MonomialIdeal._from_rows(graph.blocks, [v.entries for v in vectors])


def edge_ideal(graph: LoopGraph) -> MonomialIdeal:
    """One degree-2 generator per edge or loop."""
    rows = []
    for u, w in graph.edge_pairs():
        entries = [0] * graph.blocks.n_vars
        entries[u] += 1
        entries[w] += 1
        rows.append(tuple(entries))
    return MonomialIdeal._from_rows(graph.blocks, _minimal_rows(rows))


def to_dot(graph: LoopGraph) -> str:
    """Graphviz form with loops as self-edges, deterministic order."""
    lines = ["graph blocks {"]
    for k in range(graph.blocks.n_vars):
        lines.append(f'  {graph.blocks.var_name(k)};')
    for u, w in graph.edge_pairs():
        lines.append(f"  {graph.blocks.var_name(u)} -- {graph.blocks.var_name(w)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
