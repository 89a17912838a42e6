"""Multigraded Betti numbers and regularity via simplicial homology.

For a monomial ideal I and a multidegree a, the Koszul complex at a has the
support of a as vertex set and the squarefree vectors w with a - w in I as
faces.  The rank of its reduced homology in dimension i-1 is the Betti
number of I in homological degree i and multidegree a; only multidegrees
below the lcm of the generators contribute.  Regularity of the quotient is
read off the coarse table as max(j - i) under the quotient normalization.

Ranks are computed exactly over the rationals (integer fraction-free
elimination); no floating point anywhere.
"""

import math
import os
from dataclasses import dataclass
from itertools import product

from .core import Monomial, MonomialIdeal
from .errors import ParameterRangeError, SizeGuardError
from . import kernels

DEFAULT_BOX_CAP = int(os.environ.get("BITYPE_MAX_BOX", "4096"))


@dataclass(frozen=True)
class KoszulComplex:
    """Faces of the Koszul complex at one multidegree, stored by facets.

    ``vertices`` are flat variable indices (the support of the multidegree);
    ``facets`` are maximal face bitmasks over those indices.  The face
    family is the downward closure of the facets, so subset-closedness
    holds by construction.  An empty facet list is the void complex.
    """

    vertices: tuple[int, ...]
    facets: tuple[int, ...]

    def faces_by_dim(self) -> list[list[int]]:
        """All faces grouped by dimension, from the empty face upward."""
        seen: set[int] = set()
        for facet in self.facets:
            sub = facet
            while True:
                seen.add(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & facet
        if not seen:
            return []
        top = max(bin(f).count("1") for f in seen)
        grouped: list[list[int]] = [[] for _ in range(top + 1)]
        for f in seen:
            grouped[bin(f).count("1")].append(f)
        for bucket in grouped:
            bucket.sort()
        return grouped

    def euler_characteristic_reduced(self) -> int:
        """Alternating face count including the empty face with sign -1."""
        total = 0
        for size, bucket in enumerate(self.faces_by_dim()):
            total += len(bucket) if size % 2 else -len(bucket)
        return total


def _complex_at(entries: tuple[int, ...], masks: list[int]) -> KoszulComplex:
    # keep only maximal masks; the rest are their subsets
    maximal: list[int] = []
    for m in sorted(set(masks), key=lambda x: (-bin(x).count("1"), x)):
        if not any(m | f == f for f in maximal):
            maximal.append(m)
    maximal.sort()
    return KoszulComplex(
        vertices=tuple(k for k, e in enumerate(entries) if e), facets=tuple(maximal)
    )


def upper_koszul(ideal: MonomialIdeal, a: Monomial) -> KoszulComplex:
    """The Koszul complex of the ideal at multidegree a."""
    if a.blocks != ideal.blocks:
        raise ParameterRangeError("multidegree belongs to a different block structure")
    return _complex_at(a.entries, ideal._table.deficit_masks(a.entries))


def reduced_homology_ranks(complex_: KoszulComplex) -> dict[int, int]:
    """Reduced rational homology ranks by dimension, -1 upward.

    Boundary ranks come from exact elimination; the empty complex (only the
    empty face) has rank one in dimension -1, the void complex has none.
    """
    grouped = complex_.faces_by_dim()
    if not grouped:
        return {}
    index_of = [{f: i for i, f in enumerate(bucket)} for bucket in grouped]
    top = len(grouped) - 1
    # boundary_rank[d] = rank of the map from (d)-faces to (d-1)-faces,
    # with d counted by vertex count here (0 = empty face)
    boundary_rank = [0] * (top + 2)
    for size in range(1, top + 1):
        rows = []
        lower = index_of[size - 1]
        width = len(grouped[size - 1])
        for face in grouped[size]:
            row = [0] * width
            bits = [b for b in range(face.bit_length()) if (face >> b) & 1]
            for pos, b in enumerate(bits):
                row[lower[face ^ (1 << b)]] = -1 if pos % 2 else 1
            rows.append(row)
        # rank of the transpose equals the rank; rows are the higher faces
        boundary_rank[size] = kernels.rank_int_rows(rows) if rows and width else 0
    ranks = {}
    for size in range(len(grouped)):
        ranks[size - 1] = len(grouped[size]) - boundary_rank[size] - boundary_rank[size + 1]
    return ranks


@dataclass(frozen=True)
class BettiTable:
    """Multigraded Betti numbers of a monomial ideal.

    ``entries`` maps (homological index i, multidegree) to a rank, ideal
    normalization; the quotient's table is the same data shifted by one in
    i with a single extra unit in position (0, 0).
    """

    ideal: MonomialIdeal
    entries: dict[tuple[int, tuple[int, ...]], int]

    def coarse(self) -> dict[tuple[int, int], int]:
        """Sum the fine table to (i, total degree j)."""
        out: dict[tuple[int, int], int] = {}
        for (i, a), rank in self.entries.items():
            key = (i, sum(a))
            out[key] = out.get(key, 0) + rank
        return out

    def quotient_coarse(self) -> dict[tuple[int, int], int]:
        """The quotient's coarse table: the ideal's shifted by one, plus (0, 0)."""
        out = {(0, 0): 1}
        for (i, j), rank in self.coarse().items():
            out[(i + 1, j)] = rank
        return out

    def quotient_regularity(self) -> int:
        """max(j - i) over the quotient's nonzero coarse Betti numbers."""
        return max(j - i for (i, j), rank in self.quotient_coarse().items() if rank)

    def total_by_index(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for (i, _), rank in self.entries.items():
            out[i] = out.get(i, 0) + rank
        return out

    def to_dict(self) -> dict:
        fine = [
            {"i": i, "multidegree": list(a), "rank": rank}
            for (i, a), rank in sorted(self.entries.items())
        ]
        coarse = [
            {"i": i, "j": j, "rank": rank}
            for (i, j), rank in sorted(self.coarse().items())
        ]
        return {"convention": "ideal", "fine": fine, "coarse": coarse}


def _betti_at(ideal: MonomialIdeal, a: tuple[int, ...]) -> list[tuple[int, tuple[int, ...], int]]:
    masks = ideal._table.deficit_masks(a)
    if not masks:
        return []
    cx = _complex_at(a, masks)
    out = []
    for dim, rank in sorted(reduced_homology_ranks(cx).items()):
        if rank:
            out.append((dim + 1, a, rank))
    return out


def betti_table(ideal: MonomialIdeal, box_cap: int | None = None, jobs: int = 1) -> BettiTable:
    """Betti numbers of the ideal over the whole lcm box.

    The per-multidegree computations are independent; with jobs > 1 they
    run on a thread pool, and the table is assembled in box order either
    way so results are deterministic.
    """
    if ideal.is_zero or ideal.is_unit:
        raise ParameterRangeError("Betti oracle needs a nonzero, proper ideal")
    cap = DEFAULT_BOX_CAP if box_cap is None else box_cap
    bounds = ideal.lcm_of_generators().entries
    size = math.prod(b + 1 for b in bounds)
    if size > cap:
        raise SizeGuardError(f"multidegree box of size {size} exceeds cap {cap}")
    box = product(*(range(b + 1) for b in bounds))
    entries: dict[tuple[int, tuple[int, ...]], int] = {}
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            chunks = pool.map(lambda a: _betti_at(ideal, a), box)
            for chunk in chunks:
                for i, a, rank in chunk:
                    entries[(i, a)] = rank
    else:
        for a in box:
            for i, a_, rank in _betti_at(ideal, a):
                entries[(i, a_)] = rank
    return BettiTable(ideal=ideal, entries=entries)


def regularity_oracle(ideal: MonomialIdeal, box_cap: int | None = None, jobs: int = 1) -> int:
    """Quotient regularity from the homology-derived Betti table."""
    return betti_table(ideal, box_cap, jobs).quotient_regularity()
