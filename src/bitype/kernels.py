"""The hot inner loops: generator-table scans, exact ranks, the sortability search.

A generator table keeps the rows it is given, int tuples of ``width``
nonnegative entries.  Beside them it keeps, per coordinate ``k``, two lists
of row bitsets (bit ``r`` stands for row ``r``):

* ``le[k][v]``: the rows with ``row[k] <= v``, for ``v`` below the column
  maximum (at or above it every row qualifies);
* ``eq[k][v]``: the rows with ``row[k] == v``, for ``v`` up to the column
  maximum.

The rows dividing a vector are then an AND of one bitset per coordinate,
so a scan costs ``width`` big-int operations instead of a loop over every
row.  Each scan returns what a loop over the rows in order returns,
including the order of its output; ``tests/test_kernels.py`` holds every
scan to that row loop.  :meth:`GenTable.ass_scan` is on no oracle's path:
the colon oracle calls :meth:`GenTable.colon_prime_mask` once per symmetry
orbit, and the full-box scan is the unreduced reference that oracle is
tested against.

Exponent vectors are plain int tuples, variable subsets are bitmasks over
flat variable indices, and boxes are enumerated in lexicographic order
(last coordinate fastest).
"""

from itertools import product


class GenTable:
    """Scan-oriented view of a minimal generating set."""

    __slots__ = ("width", "rows", "_full", "_top", "_le", "_eq")

    def __init__(self, rows):
        self.width = len(rows[0]) if rows else 0
        self.rows = rows
        self._full = (1 << len(rows)) - 1
        self._top = []
        self._le = []
        self._eq = []
        for k in range(self.width):
            top = max(row[k] for row in rows)
            eq = [0] * (top + 1)
            for r, row in enumerate(rows):
                eq[row[k]] |= 1 << r
            le = []
            below = 0
            for hit in eq[:top]:
                below |= hit
                le.append(below)
            self._top.append(top)
            self._le.append(le)
            self._eq.append(eq)

    def _dividing(self, a) -> int:
        """Bitset of the rows dividing ``a`` componentwise."""
        rows = self._full
        for le, top, v in zip(self._le, self._top, a):
            if v < top:
                rows &= le[v]
                if not rows:
                    break
        return rows

    def contains(self, f) -> bool:
        """True iff some row divides f componentwise."""
        return self._dividing(f) != 0

    def deficit_masks(self, a) -> list[int]:
        """For each row dividing ``a``: bitmask of positions where a exceeds it.

        These masks are the facet candidates of the multigraded Koszul complex
        at ``a``, in row order; an empty list means ``a`` is not in the ideal.
        """
        rows = self._dividing(a)
        out = []
        while rows:
            low = rows & -rows
            row = self.rows[low.bit_length() - 1]
            mask = 0
            for k, v in enumerate(a):
                if v > row[k]:
                    mask |= 1 << k
            out.append(mask)
            rows ^= low
        return out

    def colon_prime_mask(self, f) -> int:
        """Bitmask F when the colon by ``f`` equals the prime on F, else -1.

        The colon I : f is that prime exactly when f is outside the ideal,
        every variable of F pushes f in (some row exceeds f at that position
        only, by exactly one), and every row exceeds f somewhere on F.  With
        ``L_k`` the rows not exceeding f at k: f is outside the ideal when the
        AND of all ``L_k`` is empty, k is in F when ``eq[k][f_k + 1]`` meets
        the AND of the ``L_j`` for j before k and for j after k, and every row
        exceeds f on F when the AND of ``L_k`` over F is empty.
        """
        full = self._full
        fits = [le[v] if v < top else full for le, top, v in zip(self._le, self._top, f)]
        prefix = []
        rows = full
        for fit in fits:
            prefix.append(rows)
            rows &= fit
        if rows:
            return -1  # f lies in the ideal; colon is the unit ideal
        mask = 0
        suffix = full
        unhit = full
        for k in range(self.width - 1, -1, -1):
            v = f[k] + 1
            if v <= self._top[k] and self._eq[k][v] & prefix[k] & suffix:
                mask |= 1 << k
                unhit &= fits[k]
            suffix &= fits[k]
        if mask == 0 or unhit:
            return -1
        return mask

    def ass_scan(self, bounds) -> dict[int, tuple[int, ...]]:
        """Exhaustive colon search over the box 0 <= f <= bounds.

        Returns prime-support bitmask -> first witness (lexicographic order).
        The unreduced reference for ``assoc.associated_primes_oracle``.
        """
        found: dict[int, tuple[int, ...]] = {}
        for f in product(*(range(b + 1) for b in bounds)):
            mask = self.colon_prime_mask(f)
            if mask >= 0 and mask not in found:
                found[mask] = f
        return found


def implementation_name() -> str:
    """Always ``"pure"``: the kernels have one implementation.

    Kept because the benchmark harness in ``perfbench/`` records this name
    with every result.
    """
    return "pure"


def make_table(rows) -> GenTable:
    """Generator table over ``rows``, kept as given: contains / deficit_masks / colon_prime_mask / ass_scan."""
    return GenTable(rows)


def rank_int_rows(rows) -> int:
    """Exact rank of an integer matrix via fraction-free elimination.

    Intermediates are Python ints, so no entry size overflows.
    """
    m = [list(r) for r in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    rank = 0
    prev = 1
    for col in range(n_cols):
        piv = None
        for r in range(rank, n_rows):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, n_rows):
            row = m[r]
            factor = row[col]
            top = m[rank]
            for j in range(col + 1, n_cols):
                row[j] = (row[j] * p - factor * top[j]) // prev
            row[col] = 0
        prev = p
        rank += 1
        if rank == n_rows:
            break
    return rank


def _entry_split(ck, odd):
    """First-half share of c_k under the interleave, given the prefix parity.

    The merged occurrences are dealt alternately, so a variable whose
    occurrences start on an odd slot gives the first half the extra one.
    """
    return ck // 2 if odd else (ck + 1) // 2


def sortable_box_scan(block_sizes, t, s):
    """First pair-sum whose interleave split leaves the generator set, or None.

    The sort of a pair depends only on its exponent sum, so closure under
    sorting is decided over the candidate sums c: degree 2t, entries <= 2s,
    and decomposable into two generators.  The sums are walked depth-first
    in lexicographic order (last coordinate fastest), carrying only what
    decides the leaves below:

    * the remaining degree (it starts at 2t, so its parity is that of the
      prefix sum);
    * for the current block, its partial c-sum, the partial first-half sum,
      and the partial upper bound sum_k min(s, c_k) on a summand's block
      degree (the lower bound sum_k max(0, c_k - s) is the c-sum minus it);
    * for finished blocks, the summed bounds ``tot_lo`` and ``tot_hi`` on a
      summand's degree, pruned as soon as t falls outside them;
    * ``bad``: some split entry exceeds s, or some block split is empty or
      full;
    * the degree of the first half so far.

    A leaf violates closure iff it is a pair-sum and its first half is not
    a generator: ``bad`` is set or that degree is not t.  Search states
    proven violation-free are remembered for the rest of the call; states
    holding a violation end the search at once, so the witness returned is
    the lexicographically first violating sum.
    """
    sizes = tuple(block_sizes)
    n = sum(sizes)
    is_end = [False] * n
    # per variable: the fewest blocks and the largest summand degree still
    # to come after the block it closes
    blocks_after = [0] * n
    hi_after = [0] * n
    acc = 0
    for i, m in enumerate(sizes):
        acc += m
        is_end[acc - 1] = True
        blocks_after[acc - 1] = len(sizes) - i - 1
        hi_after[acc - 1] = s * sum(sizes[i + 1:])
    cap = 2 * s
    split = _entry_split
    c = [0] * n
    clean = set()

    def rec(k, rem, cb, ub, hi, tot_lo, tot_hi, bad, udeg):
        if k == n:
            return tuple(c) if bad or udeg != t else None
        key = (k, rem, cb, ub, hi, tot_lo, tot_hi, bad, udeg)
        if key in clean:
            return None
        odd = rem & 1
        tail = cap * (n - k - 1)
        lo_v = rem - tail if rem > tail else 0
        hi_v = cap if cap < rem else rem
        for v in range(lo_v, hi_v + 1):
            c[k] = v
            u = split(v, odd)
            nbad = bad or u > s or v - u > s
            ncb = cb + v
            nub = ub + u
            nhi = hi + (v if v < s else s)
            if is_end[k]:
                lo_i = ncb - nhi
                if lo_i < 1:
                    lo_i = 1
                hi_i = ncb - 1 if ncb - 1 < nhi else nhi
                if lo_i > hi_i:
                    continue
                ntot_lo = tot_lo + lo_i
                ntot_hi = tot_hi + hi_i
                if ntot_lo + blocks_after[k] > t or ntot_hi + hi_after[k] < t:
                    continue
                found = rec(
                    k + 1, rem - v, 0, 0, 0, ntot_lo,
                    ntot_hi if ntot_hi < t else t,
                    nbad or nub == 0 or nub == ncb, udeg + u,
                )
            else:
                found = rec(k + 1, rem - v, ncb, nub, nhi, tot_lo, tot_hi, nbad, udeg + u)
            if found is not None:
                return found
        clean.add(key)
        return None

    try:
        return rec(0, 2 * t, 0, 0, 0, 0, 0, False, 0)
    finally:
        # rec refers to itself through its closure; breaking that cycle
        # frees the memo now instead of at the next full collection
        del rec
