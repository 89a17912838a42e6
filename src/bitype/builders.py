"""Construction of Veronese-type and generalized Veronese bi-type ideals.

A Veronese-type ideal on one block collects all monomials of a fixed degree
with every exponent capped.  The generalized bi-type ideal of degree t with
cap s is the sum, over compositions (q_1..q_n) of t with q_i >= 1, of
products of per-block Veronese-type ideals of degrees q_i.  Equivalently it
is generated by all degree-t monomials with entries <= s that touch every
block; the direct characterization is the production path and the literal
composition sum is kept as a cross-check oracle.

The production builder walks the flat variables depth first and only takes
values that still complete to a generator.  What completes a row from the
first variable of a block on depends only on that variable and the degree
left, so each such block tail is built once and shared.  Its rows come out
distinct, of degree t and in lexicographic order -- the canonical minimal
generating set -- and are stored without minimalizing or validating them
again.  Its first descent recurses once per variable, so about a thousand
variables reach Python's recursion limit.
"""

from dataclasses import dataclass

from .core import BlockStructure, MonomialIdeal, _integral, _minimal_rows
from .errors import ParameterRangeError


@dataclass(frozen=True)
class IdealParameters:
    """Validated (blocks, t, s) triple for the bi-type construction.

    Requires s <= t (standing hypothesis), t >= n (every block contributes
    degree at least one) and t <= s*N (otherwise no generator exists).
    Out-of-range parameters are rejected rather than mapped to the zero
    ideal so that grid sweeps cannot silently go empty.
    """

    blocks: BlockStructure
    t: int
    s: int

    def __post_init__(self):
        for name in ("t", "s"):
            if type(value := getattr(self, name)) is not int:
                object.__setattr__(self, name, _integral((value,), name)[0])
        n, big_n = self.blocks.n_blocks, self.blocks.n_vars
        if self.s < 1 or self.t < 1:
            raise ParameterRangeError(f"t and s must be positive, got t={self.t}, s={self.s}")
        if self.s > self.t:
            raise ParameterRangeError(f"cap s={self.s} must not exceed degree t={self.t}")
        if self.t < n:
            raise ParameterRangeError(f"degree t={self.t} below block count n={n}")
        if self.t > self.s * big_n:
            raise ParameterRangeError(
                f"degree t={self.t} exceeds s*N={self.s * big_n}; no generator exists"
            )

    @property
    def deficit(self) -> int:
        """r = s*N - t, the slack below the maximal possible degree."""
        return self.s * self.blocks.n_vars - self.t


def _bounded_compositions(total: int, bounds: list[int]):
    """All tuples 0 <= c_k <= bounds[k] with sum(c) == total, lexicographic."""
    n = len(bounds)
    out: list[int] = [0] * n
    tails = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        tails[k] = tails[k + 1] + bounds[k]

    def rec(k, rem):
        if k == n:
            if rem == 0:
                yield tuple(out)
            return
        lo = max(0, rem - tails[k + 1])
        hi = min(bounds[k], rem)
        for v in range(lo, hi + 1):
            out[k] = v
            yield from rec(k + 1, rem - v)
        out[k] = 0

    yield from rec(0, total)


def veronese_type_ideal(blocks: BlockStructure, block_index: int, degree: int, cap: int) -> MonomialIdeal:
    """All monomials of the given degree supported on one block, entries <= cap.

    With degree <= cap this is the full Veronese slice of the block; with
    cap 1 it is the squarefree one.
    """
    if not (0 <= block_index < blocks.n_blocks):
        raise ParameterRangeError(f"block index {block_index} out of range")
    m = blocks.block_sizes[block_index]
    if not (1 <= degree <= cap * m):
        raise ParameterRangeError(
            f"degree {degree} not in [1, {cap * m}] for block of size {m} with cap {cap}"
        )
    offset = blocks.offsets[block_index]
    big_n = blocks.n_vars
    head, tail = (0,) * offset, (0,) * (big_n - offset - m)
    rows = [head + comp + tail for comp in _bounded_compositions(degree, [cap] * m)]
    # distinct vectors of one degree in lexicographic order: already canonical
    return MonomialIdeal._from_rows(blocks, rows)


def bitype_ideal(params: IdealParameters) -> MonomialIdeal:
    """Direct characterization: degree t, entries <= s, every block touched.

    A depth-first recursion over the flat variables in index order picks
    each entry from the values that still complete to a generator: at least
    the degree that the later variables cannot hold at cap s, at least 1 at
    the last variable of a block nothing has touched yet, at most s, and at
    most what leaves one degree for each later block.  The last variable
    takes the degree that remains.  Every branch therefore ends in a
    generator.  The rows are distinct, all of degree t, and come out in
    lexicographic order, so they already are the canonical minimal
    generating set: nothing is minimalized, sorted or validated again.

    No block is touched yet at a block's first variable, so the completions
    from there depend only on that variable and the degree left.  They are
    built once into a memo keyed on that pair, and each row is a head
    within one block plus a memoized tail.  The helpers are module functions
    that get the plan and the memo as arguments, not closures that call
    each other, so a build leaves no reference cycle for the collector.

    The first descent is one frame deep per variable, so a block structure
    with about as many variables as the recursion limit raises
    RecursionError (the CLI reports it as a guard).
    """
    blocks, t, s = params.blocks, params.t, params.s
    last = blocks.n_vars - 1
    room = [s * (last - k) for k in range(last + 1)]  # what the later variables hold
    later, ends = [], []  # blocks after k's block; whether k ends its block
    for i, m in enumerate(blocks.block_sizes):
        later += [blocks.n_blocks - 1 - i] * m
        ends += [False] * (m - 1) + [True]
    plan = (s, last, room, later, ends)
    return MonomialIdeal._from_rows(blocks, _block_tails(plan, {}, 0, t))


def _block_tails(plan, memo, k, rem):
    """The completions from the first variable k of a block, with degree rem left."""
    key = (k, rem)
    tails = memo.get(key)
    if tails is None:
        tails = memo[key] = []
        _complete(plan, memo, k, rem, False, (), tails)
    return tails


def _complete(plan, memo, k, rem, touched, prefix, out):
    """Append to ``out`` each completion of ``prefix``, which ends before variable k."""
    s, last, room, later, ends = plan
    if k == last:
        out.append(prefix + (rem,))
        return
    lo = rem - room[k]
    if lo < 1 and ends[k] and not touched:
        lo = 1
    hi = min(s, rem - later[k])
    for v in range(max(lo, 0), hi + 1):
        head = prefix + (v,)
        if ends[k]:
            out += [head + tail for tail in _block_tails(plan, memo, k + 1, rem - v)]
        else:
            _complete(plan, memo, k + 1, rem - v, touched or v > 0, head, out)


def bitype_ideal_by_compositions(params: IdealParameters) -> MonomialIdeal:
    """Literal construction: sum over compositions of products of block slices.

    Kept as an internal oracle for :func:`bitype_ideal`.  Blocks live in
    disjoint variables, so each product of per-block Veronese slices is the
    cartesian concatenation of their exponent vectors; the sum over
    compositions is minimalized once at the end.  Compositions with an
    unreachable per-block degree contribute nothing and are skipped.
    """
    blocks, t, s = params.blocks, params.t, params.s
    n = blocks.n_blocks
    per_block_max = [s * m for m in blocks.block_sizes]
    slices: dict[tuple[int, int], list[tuple[int, ...]]] = {}

    def block_slice(i: int, q: int) -> list[tuple[int, ...]]:
        if (i, q) not in slices:
            slices[(i, q)] = list(_bounded_compositions(q, [s] * blocks.block_sizes[i]))
        return slices[(i, q)]

    collected: set[tuple[int, ...]] = set()
    for q in _bounded_compositions(t, per_block_max):
        if any(qi < 1 for qi in q):
            continue
        partial: list[tuple[int, ...]] = [()]
        for i in range(n):
            partial = [head + tail for head in partial for tail in block_slice(i, q[i])]
        collected.update(partial)
    return MonomialIdeal._from_rows(blocks, _minimal_rows(collected))


def make_params(block_sizes, t: int, s: int) -> IdealParameters:
    """Convenience constructor from raw block sizes."""
    return IdealParameters(BlockStructure(tuple(block_sizes)), t, s)
