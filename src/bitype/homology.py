"""Multigraded Betti numbers and regularity via simplicial homology.

For a monomial ideal I and a multidegree a, the Koszul complex at a has the
support of a as vertex set and the squarefree vectors w with a - w in I as
faces.  The rank of its reduced homology in dimension i-1 is the Betti
number of I in homological degree i and multidegree a; only multidegrees
below the lcm of the generators contribute, and the oracle computes one
multidegree per orbit of the ideal's variable symmetry.  Regularity of the
quotient is read off the coarse table as max(j - i) under the quotient
normalization.

Homology is taken relative to the closed star of one vertex v, the apex:
the faces lying in some facet that contains v.  The star is a cone on v
(adding v to a face of the star gives a face of the star), so its reduced
homology vanishes in every dimension.  In the long exact sequence of the
pair, H~_d(star) -> H~_d(K) -> H_d(K, star) -> H~_(d-1)(star), both outer
terms are zero, so H~_d(K) = H_d(K, star v).  The relative chains are the
faces in no facet containing v, so only subsets of the facets missing v
are enumerated and eliminated; a cone has no relative chains at all.

Ranks are computed exactly over the rationals (integer fraction-free
elimination); no floating point anywhere.
"""

from dataclasses import dataclass

from .core import (
    Monomial,
    MonomialIdeal,
    arrangements,
    guard_cap,
    run_representatives,
    symmetric_runs,
)
from .errors import ParameterRangeError
from . import kernels

DEFAULT_BOX_CAP = 4096


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


def _boundary_rows(upper: list[int], lower: list[int]) -> list[list[int]]:
    """Boundary matrix from ``upper`` to ``lower`` faces; terms outside ``lower`` are dropped."""
    index = {f: i for i, f in enumerate(lower)}
    width = len(index)
    rows = []
    for face in upper:
        row = [0] * width
        bits = [b for b in range(face.bit_length()) if (face >> b) & 1]
        for pos, b in enumerate(bits):
            col = index.get(face ^ (1 << b))
            if col is not None:
                row[col] = -1 if pos % 2 else 1
        rows.append(row)
    return rows


def _apex(facets: tuple[int, ...]) -> int:
    """The vertex lying in the most facets, the lowest index on ties."""
    counts: dict[int, int] = {}
    for facet in facets:
        for b in range(facet.bit_length()):
            if (facet >> b) & 1:
                counts[b] = counts.get(b, 0) + 1
    return min(counts, key=lambda b: (-counts[b], b))


def _relative_faces(facets: tuple[int, ...], apex: int, top: int) -> list[list[int]]:
    """The faces outside the apex's closed star, grouped by vertex count 0..top.

    Each lies in a facet missing the apex and in no facet containing it;
    the empty face lies in the star.
    """
    star = [f for f in facets if (f >> apex) & 1]
    grouped: list[set[int]] = [set() for _ in range(top + 1)]
    for facet in facets:
        if (facet >> apex) & 1:
            continue
        sub = facet
        while sub:
            size = bin(sub).count("1")
            if sub not in grouped[size] and not any(sub | g == g for g in star):
                grouped[size].add(sub)
            sub = (sub - 1) & facet
    return [sorted(bucket) for bucket in grouped]


def reduced_homology_ranks(complex_: KoszulComplex) -> dict[int, int]:
    """Reduced rational homology ranks by dimension, -1 upward.

    The keys run from -1 to the top face dimension, zeros included; the
    empty complex (only the empty face) has rank one in dimension -1, the
    void complex has no keys.  Ranks are those of the complex relative to
    the apex's closed star (see the module docstring): a face missing the
    apex is a relative chain unless adding the apex keeps it a face, and
    its boundary terms inside the star vanish in the quotient.  The result
    does not depend on the vertex chosen.
    """
    facets = complex_.facets
    if not facets:
        return {}
    top = max(bin(f).count("1") for f in facets)
    ranks = dict.fromkeys(range(-1, top), 0)
    if top == 0:
        ranks[-1] = 1
        return ranks
    faces = _relative_faces(facets, _apex(facets), top)
    # boundary_rank[size] = rank of the relative map from size- to (size-1)-vertex faces
    boundary_rank = [0] * (top + 2)
    for size in range(2, top + 1):
        if faces[size] and faces[size - 1]:
            boundary_rank[size] = kernels.rank_int_rows(
                _boundary_rows(faces[size], faces[size - 1])
            )
    for size in range(1, top + 1):
        ranks[size - 1] = len(faces[size]) - boundary_rank[size] - boundary_rank[size + 1]
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


def _betti_at(ideal: MonomialIdeal, a: tuple[int, ...]) -> list[tuple[int, int]]:
    """The nonzero (homological index, rank) pairs at multidegree a, by index."""
    masks = ideal._table.deficit_masks(a)
    if not masks:
        return []
    cx = _complex_at(a, masks)
    return [(dim + 1, rank) for dim, rank in sorted(reduced_homology_ranks(cx).items()) if rank]


def betti_table(ideal: MonomialIdeal, box_cap: int | None = None) -> BettiTable:
    """Betti numbers of the ideal over the whole lcm box.

    Permuting the variables of a symmetric run (:func:`core.symmetric_runs`)
    fixes the ideal, so the Betti numbers at the permuted multidegree are
    those at the original one.  Only the run representatives (entries non-increasing within
    each run) are computed, and each nonzero one is copied to every distinct
    arrangement.  Entries are inserted in box order, sorted by (multidegree,
    i), so the table is the one a visit of every box point gives.  An ideal
    without symmetry has runs of length one and visits every point.
    """
    if ideal.is_zero or ideal.is_unit:
        raise ParameterRangeError("Betti oracle needs a nonzero, proper ideal")
    cap = guard_cap(box_cap, "BITYPE_MAX_BOX", DEFAULT_BOX_CAP)
    bounds = ideal.lcm_box(cap, "multidegree")
    runs = symmetric_runs(ideal)
    found = []
    for a in run_representatives(bounds, runs):
        ranks = _betti_at(ideal, a)
        if ranks:
            for image in arrangements(a, runs):
                found.extend((image, i, rank) for i, rank in ranks)
    found.sort()
    return BettiTable(ideal=ideal, entries={(i, a): rank for a, i, rank in found})


def regularity_oracle(ideal: MonomialIdeal, box_cap: int | None = None) -> int:
    """Quotient regularity from the homology-derived Betti table."""
    return betti_table(ideal, box_cap).quotient_regularity()
