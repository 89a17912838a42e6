"""Vertex covers, cover number, dimension and unmixedness.

A vertex cover of a monomial ideal is a variable set meeting every minimal
generator; the cover number h is the least cardinality of a cover.  For the
quotient by a bi-type ideal the closed forms are dim = N - min(m_i) in the
low-degree regime and N - 1 in the top regime t = s*N - r, r = 1..s-1; the
oracle route is the minimal vertex covers, subsets walked by size, and
dim = N - h.
"""

from itertools import combinations, compress

from .builders import IdealParameters
from .core import MonomialIdeal, guard_cap
from .errors import ParameterRangeError, SizeGuardError

DEFAULT_COVER_VARS = 20


def _support_masks(ideal: MonomialIdeal) -> list[int]:
    """Inclusion-minimal generator supports; covering only depends on these."""
    bits = [1 << k for k in range(ideal.blocks.n_vars)]
    raw = {sum(compress(bits, row)) for row in ideal.rows}
    minimal = []
    for m in sorted(raw, key=int.bit_count):
        if not any(k & m == k for k in minimal):
            minimal.append(m)
    return minimal


def is_vertex_cover(ideal: MonomialIdeal, indices) -> bool:
    """Every generator has a positive exponent at some index of the set."""
    w = 0
    for k in indices:
        w |= 1 << k
    return all(m & w for m in _support_masks(ideal))


def minimal_vertex_covers(ideal: MonomialIdeal, max_vars: int | None = None) -> list[frozenset[int]]:
    """All inclusion-minimal vertex covers, ordered by size, then as sorted tuples.

    Walks the subsets of the union of generator supports by size, each size
    in lexicographic order, and keeps a cover unless it contains a cover
    kept before it.  That test is exact: a cover that properly contains a
    cover contains a minimal one of smaller size, which was kept earlier,
    and a kept cover never contains another of its own size.
    """
    if ideal.is_zero or ideal.is_unit:
        raise ParameterRangeError("vertex covers need a nonzero, proper ideal")
    cap = guard_cap(max_vars, "BITYPE_MAX_COVER_VARS", DEFAULT_COVER_VARS)
    masks = _support_masks(ideal)
    union = 0
    for m in masks:
        union |= m
    verts = [k for k in range(ideal.blocks.n_vars) if (union >> k) & 1]
    if len(verts) > cap:
        raise SizeGuardError(
            f"{len(verts)} support variables exceed the enumeration cap {cap}"
        )
    bits = [1 << k for k in verts]
    kept: list[int] = []
    for size in range(1, len(bits) + 1):
        for sub in combinations(bits, size):
            w = sum(sub)
            if all(m & w for m in masks) and not any(c & w == c for c in kept):
                kept.append(w)
    return [frozenset(k for k in range(w.bit_length()) if (w >> k) & 1) for w in kept]


def cover_number(ideal: MonomialIdeal, max_vars: int | None = None) -> int:
    return min(len(w) for w in minimal_vertex_covers(ideal, max_vars))


def dim_oracle(ideal: MonomialIdeal, max_vars: int | None = None) -> int:
    """dim of the quotient = number of variables minus the cover number."""
    return dim_from_covers(ideal, minimal_vertex_covers(ideal, max_vars))


def dim_from_covers(ideal: MonomialIdeal, found: list[frozenset[int]]) -> int:
    """:func:`dim_oracle` read off the ideal's minimal vertex covers."""
    return ideal.blocks.n_vars - min(len(w) for w in found)


def is_unmixed(ideal: MonomialIdeal, max_vars: int | None = None) -> bool:
    """True when all minimal vertex covers share one cardinality."""
    return unmixed_from_covers(minimal_vertex_covers(ideal, max_vars))


def unmixed_from_covers(found: list[frozenset[int]]) -> bool:
    """:func:`is_unmixed` read off the ideal's minimal vertex covers."""
    return len({len(w) for w in found}) == 1


def range_case(params: IdealParameters) -> str:
    """Classify t against the two closed-form regimes: 'a' low, 'b' top.

    Case (b) is t = s*N - r for r = 1..s-1; case (a) is 2 <= t <= s*N - s,
    read strictly below every case-(b) value so the two are disjoint and
    exhaustive on [2, s*N - 1].
    """
    big_n, s, t = params.blocks.n_vars, params.s, params.t
    if s >= 2 and s * big_n - (s - 1) <= t <= s * big_n - 1:
        return "b"
    if 2 <= t <= s * big_n - s:
        return "a"
    raise ParameterRangeError(
        f"t={t} outside both regimes for s={s}, N={big_n}"
    )


def dim_formula(params: IdealParameters) -> int:
    sizes = params.blocks.block_sizes
    big_n = params.blocks.n_vars
    if range_case(params) == "a":
        return big_n - min(sizes)
    return big_n - 1


def unmixed_formula(params: IdealParameters) -> bool:
    sizes = params.blocks.block_sizes
    if range_case(params) == "a":
        return len(set(sizes)) == 1
    return True


def regularity_formula(params: IdealParameters) -> int:
    """Regularity of the quotient: one below the generating degree."""
    return params.t - 1
