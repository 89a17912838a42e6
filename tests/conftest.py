"""Shared fixtures: block structures and frozen golden generator sets.

The golden exponent sets are transcribed by hand from the worked examples
the construction must reproduce; variables are flattened block by block
(x11, x12, x21, x22, ...).
"""

import math

import pytest

from bitype import (
    BlockStructure,
    Monomial,
    MonomialIdeal,
    ParameterRangeError,
    bitype_ideal,
    make_params,
)
from bitype.graphs import generalized_graph_ideal, strong_block_graph


# L*_{2,2} on blocks (2,2): the four cross products.
GOLDEN_2_2 = {
    (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1),
}

# L*_{4,2} on blocks (2,2): seventeen generators.
GOLDEN_4_2 = {
    (2, 1, 1, 0), (2, 1, 0, 1), (1, 2, 1, 0), (1, 2, 0, 1),
    (1, 0, 2, 1), (0, 1, 2, 1), (1, 0, 1, 2), (0, 1, 1, 2),
    (2, 0, 2, 0), (2, 0, 1, 1), (2, 0, 0, 2), (0, 2, 2, 0),
    (0, 2, 0, 2), (0, 2, 1, 1), (1, 1, 2, 0), (1, 1, 0, 2),
    (1, 1, 1, 1),
}

# L*_{3,2} on blocks (2,2,2): one variable from each block.
GOLDEN_3_2_222 = {
    (1, 0, 1, 0, 1, 0), (1, 0, 1, 0, 0, 1), (1, 0, 0, 1, 1, 0), (1, 0, 0, 1, 0, 1),
    (0, 1, 1, 0, 1, 0), (0, 1, 1, 0, 0, 1), (0, 1, 0, 1, 1, 0), (0, 1, 0, 1, 0, 1),
}

# L*_{3,2} on blocks (2,2): twelve generators.
GOLDEN_3_2_22 = {
    (2, 0, 1, 0), (2, 0, 0, 1), (1, 1, 1, 0), (1, 1, 0, 1),
    (0, 2, 1, 0), (0, 2, 0, 1), (1, 0, 2, 0), (1, 0, 1, 1),
    (1, 0, 0, 2), (0, 1, 2, 0), (0, 1, 1, 1), (0, 1, 0, 2),
}

# L*_{11,3} on blocks (2,2): deficit one below the (3,3,3,3) corner.
GOLDEN_11_3 = {
    (3, 3, 3, 2), (3, 3, 2, 3), (3, 2, 3, 3), (2, 3, 3, 3),
}

# L*_{15,4} on blocks (2,2): deficit one below the (4,4,4,4) corner.
GOLDEN_15_4 = {
    (4, 4, 4, 3), (4, 4, 3, 4), (4, 3, 4, 4), (3, 4, 4, 4),
}

# Edge ideal of the strong graph on blocks (2,2): crosses plus squares.
GOLDEN_EDGE_22 = {
    (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1),
    (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2),
}


# Hand-built ideals that no adjacent swap of variables fixes.  The first
# is fixed by the cyclic shift, the second by reversal, and neither by any
# transposition.
ASYMMETRIC = [
    ((3,), [(2, 1, 0), (0, 2, 1), (1, 0, 2)]),
    ((4,), [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)]),
    ((2, 2), [(2, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 2), (1, 0, 0, 1)]),
    ((1, 2, 2), [(1, 1, 0, 0, 0), (0, 2, 1, 1, 0), (0, 0, 0, 1, 2), (1, 0, 1, 0, 1)]),
]


def asymmetric_ideals() -> list[MonomialIdeal]:
    out = []
    for sizes, gens in ASYMMETRIC:
        blocks = BlockStructure(sizes)
        out.append(MonomialIdeal.from_generators(blocks, [Monomial(blocks, g) for g in gens]))
    return out


def _compositions(total: int):
    """Every tuple of positive integers summing to ``total``."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def bitype_instances(n_vars: int, max_s: int = 3, box_cap: int = 4096):
    """Every bi-type ideal on ``n_vars`` variables with s <= max_s and lcm box within the cap."""
    for sizes in _compositions(n_vars):
        for s in range(1, max_s + 1):
            for t in range(1, s * n_vars + 1):
                try:
                    params = make_params(sizes, t, s)
                except ParameterRangeError:
                    continue
                ideal = bitype_ideal(params)
                if math.prod(b + 1 for b in ideal.lcm_of_generators().entries) <= box_cap:
                    yield ideal


def ordered_walk_ideals(n_vars: int):
    """The nonzero ordered walk ideals of degree 3..5 on ``n_vars`` variables."""
    for sizes in _compositions(n_vars):
        for mode in ("all", "consecutive"):
            graph = strong_block_graph(BlockStructure(sizes), mode)
            for t in range(3, 6):
                for span in (True, False):
                    ideal = generalized_graph_ideal(graph, t, ordered=True, span_blocks=span)
                    if not ideal.is_zero:
                        yield ideal


def gen_set(ideal: MonomialIdeal) -> set[tuple[int, ...]]:
    return {g.entries for g in ideal.gens}


def mono(blocks: BlockStructure, *entries: int) -> Monomial:
    return Monomial(blocks, tuple(entries))


@pytest.fixture
def b22() -> BlockStructure:
    return BlockStructure((2, 2))


@pytest.fixture
def b222() -> BlockStructure:
    return BlockStructure((2, 2, 2))


@pytest.fixture
def b11() -> BlockStructure:
    return BlockStructure((1, 1))
