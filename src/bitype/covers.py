"""Vertex covers, cover number, dimension and unmixedness.

A vertex cover of a monomial ideal is a variable set meeting every minimal
generator; the cover number h is the least cardinality of a cover.  For the
quotient by a bi-type ideal the closed forms are dim = N - min(m_i) in the
low-degree regime and N - 1 in the top regime t = s*N - r, r = 1..s-1; the
oracle route is the minimal vertex covers and dim = N - h.  Covering is read
off one bitset per variable, of the generator rows that are zero there: a
set covers exactly when the AND of its variables' bitsets is 0.  The
minimal covers come from a depth-first walk over variable subsets that
stops extending a set once it covers.
"""

from operator import itemgetter

from .builders import IdealParameters
from .core import MonomialIdeal, _integral, guard_cap
from .errors import ParameterRangeError, SizeGuardError

DEFAULT_COVER_VARS = 20

# byte 0 -> "1", any other byte -> "0": a column of entries becomes the
# binary digits of its zero-row bitset
_ZERO_IS_ONE = b"1" + b"0" * 255


def _zero_rows(ideal: MonomialIdeal) -> list[int]:
    """Per variable, the bitset of the generator rows that are zero there.

    Columns are read one at a time: a transpose of all rows at once raises
    the peak memory of a wide ideal for no gain in speed.
    """
    rows, n_vars = ideal.rows, ideal.blocks.n_vars
    if not rows:
        return [0] * n_vars
    zero = []
    for k in range(n_vars):
        try:
            column = bytes(map(itemgetter(k), rows))
        except ValueError:  # an entry above 255: only zero or not matters
            column = bytes(map(bool, map(itemgetter(k), rows)))
        zero.append(int(column.translate(_ZERO_IS_ONE), 2))
    return zero


def is_vertex_cover(ideal: MonomialIdeal, indices) -> bool:
    """Every generator has a positive exponent at some index of the set.

    An index that is not an integer in 0..N-1 is a ParameterRangeError.
    """
    indices = tuple(indices)
    if not all(type(k) is int for k in indices):
        indices = _integral(indices, "variable index")
    zero = _zero_rows(ideal)
    left = (1 << len(ideal.rows)) - 1
    for k in indices:
        if not 0 <= k < len(zero):
            raise ParameterRangeError(
                f"variable index {k} outside 0..{len(zero) - 1}"
            )
        left &= zero[k]
    return not left


def _walk(zero, bits, table, path, found, start, mask, left) -> None:
    """Extend the non-cover ``mask`` by each vertex from ``start`` on.

    ``left`` is the bitset of the rows ``mask`` has not hit and ``path`` the
    bits of its vertices; ``table`` marks the non-covers found so far.
    Vertices are tried from the last one down, so a reached cover minus any
    vertex of ``mask`` was settled in ``table`` before the cover is reached.
    """
    last = len(zero) - 1
    for i in range(last, start - 1, -1):
        m = mask | bits[i]
        rest = left & zero[i]
        if rest:
            table[m] = 1
            if i < last:
                path.append(bits[i])
                _walk(zero, bits, table, path, found, i + 1, m, rest)
                path.pop()
        else:
            for b in path:
                if not table[m ^ b]:
                    break
            else:
                found.append(m)


def minimal_vertex_covers(ideal: MonomialIdeal, max_vars: int | None = None) -> list[frozenset[int]]:
    """All inclusion-minimal vertex covers, ordered by size, then as sorted tuples.

    Walks the subsets of the V support variables depth first, extending a
    set only by vertices of larger index and carrying the bitset of the
    rows it has not hit; a set that hits every row is a cover and is not
    extended.  This is exact: every non-cover is visited, because its
    prefixes are non-covers, and every unvisited set contains a cover.  So
    a table of 2^V bytes, one per subset, that marks each visited non-cover
    records exactly which sets cover, and a reached cover is minimal when
    removing any one vertex gives a non-cover.  The cap on V also bounds
    that table: 1 MB at the default of 20.
    """
    if ideal.is_zero or ideal.is_unit:
        raise ParameterRangeError("vertex covers need a nonzero, proper ideal")
    cap = guard_cap(max_vars, "BITYPE_MAX_COVER_VARS", DEFAULT_COVER_VARS)
    zero = _zero_rows(ideal)
    full = (1 << len(ideal.rows)) - 1
    verts = [k for k, z in enumerate(zero) if z != full]
    if len(verts) > cap:
        raise SizeGuardError(
            f"{len(verts)} support variables exceed the enumeration cap {cap}"
        )
    bits = [1 << i for i in range(len(verts))]
    try:
        table = bytearray(1 << len(verts))
    except (MemoryError, OverflowError):  # only reachable with a raised cap
        raise SizeGuardError(
            f"the table of 2^{len(verts)} bytes for {len(verts)} support "
            "variables does not fit in memory"
        ) from None
    table[0] = 1
    found: list[int] = []
    _walk([zero[k] for k in verts], bits, table, [], found, 0, 0, full)
    covers = [[k for k, b in zip(verts, bits) if m & b] for m in found]
    covers.sort(key=lambda c: (len(c), c))
    return [frozenset(c) for c in covers]


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
