"""The sort operator, sortability, sorting relations, and fiber rewriting.

Two exponent vectors of equal degree t are sorted by merging their 2t
variable occurrences in nondecreasing variable order and dealing them back
out alternately: odd slots to the first vector, even slots to the second.
A generator set is sortable when it is closed under this operator.

The toric side: indeterminates t_1..t_p map onto the generators, and the
kernel of that map pairs multisets of generators with equal exponent sums
(fibers).  Each unsorted pair contributes the quadratic relation sending it
to its sorted image.  Evidence that these quadratic relations define the
kernel is gathered per fiber: directed rewriting terminates and reaches a
unique normal form, which also makes the fiber connected under single
sorting moves.  Fibers and rewriting work on generator indices and entry
tuples; no Monomial is built along the way.

Generator pairs are sorted by one rule, :func:`_pair_move`, as the caller
walks them; only the evidence keeps the moves, as a table.  The evidence
does each piece of work once.  Every generator pair is sorted once, and
every multiset of a fiber is moved once: a walk that reaches a state
recorded by an earlier walk of the fiber stops there.  The rewrite rule is
deterministic, so the recorded form and distance are exactly where and how
far the walk would have gone on, and a state on a cycle is never recorded,
so the documents match rewriting every member from scratch (see
:func:`_check_fiber`).
"""

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, combinations_with_replacement
from operator import add

from .builders import IdealParameters
from .core import Monomial, MonomialIdeal, _require_same_structure, guard_cap
from .errors import ParameterRangeError, RewriteLimitError, SizeGuardError, UnsortableError
from . import kernels

DEFAULT_REWRITE_CAP = 10000
DEFAULT_PAIR_CAP = 4000000


def sort_pair(u: Monomial, v: Monomial) -> tuple[Monomial, Monomial]:
    """Merge-and-interleave the pair; depends only on the exponent sum."""
    _require_same_structure(u, v)
    _require_equal_degrees(u.total_degree, v.total_degree)
    first, second = _split(tuple(map(add, u.entries, v.entries)))
    return Monomial(u.blocks, first), Monomial(u.blocks, second)


def _require_equal_degrees(du: int, dv: int) -> None:
    if du != dv:
        raise ParameterRangeError(f"sort needs equal degrees, got {du} and {dv}")


def _split(c: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    u = []
    prefix = 0
    for ck in c:
        u.append((ck + 1) // 2 if prefix % 2 == 0 else ck // 2)
        prefix += ck
    return tuple(u), tuple(ck - uk for ck, uk in zip(c, u))


def is_sorted_pair(u: Monomial, v: Monomial) -> bool:
    return sort_pair(u, v) == (u, v)


def is_sortable(vectors) -> bool:
    """Closure of a finite same-degree set under the sort operator.

    Scans unordered pairs, deduplicating by exponent sum since the sorted
    image depends only on that sum.  Intended for desk-size sets; the grid
    sweep uses :func:`sortable_violation`, which searches the candidate
    sums directly.
    """
    vs = [m.entries for m in vectors]
    if not vs:
        return True
    pool = set(vs)
    seen_sums: set[tuple[int, ...]] = set()
    for i in range(len(vs)):
        for j in range(i, len(vs)):
            c = tuple(a + b for a, b in zip(vs[i], vs[j]))
            if c in seen_sums:
                continue
            seen_sums.add(c)
            first, second = _split(c)
            if first not in pool or second not in pool:
                return False
    return True


def sortable_violation(params: IdealParameters):
    """First closure violation for the full bi-type generator set, or None.

    Exact and equivalent to running :func:`is_sortable` on all generators:
    the sort of a pair is a function of its exponent sum, so a memoized
    depth-first search walks the candidate sums in lexicographic order,
    instead of the quadratically many pairs, and returns the first sum
    whose sorted image leaves the set.
    """
    return kernels.sortable_box_scan(params.blocks.block_sizes, params.t, params.s)


@dataclass(frozen=True)
class SortingRelation:
    """Quadratic binomial identifying an unsorted pair with its sorted image."""

    lhs: tuple[Monomial, Monomial]
    rhs: tuple[Monomial, Monomial]


@dataclass(frozen=True)
class ToricPresentation:
    """Indeterminate-to-generator bookkeeping for one monomial ideal."""

    ideal: MonomialIdeal
    entries: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    index_of: dict[tuple[int, ...], int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", self.ideal.rows)
        object.__setattr__(self, "index_of", {e: i for i, e in enumerate(self.entries)})

    @property
    def generators(self) -> tuple[Monomial, ...]:
        return self.ideal.gens

    def sorted_indices(self, i: int, j: int) -> tuple[int, int] | None:
        """Generator indices of the sorted image of (g_i, g_j); None if it leaves the set.

        The same image as :func:`sort_pair`, split straight from the entry sum.
        """
        u, v = self.entries[i], self.entries[j]
        _require_equal_degrees(sum(u), sum(v))
        first, second = _split(tuple(map(add, u, v)))
        a = self.index_of.get(first)
        b = self.index_of.get(second)
        if a is None or b is None:
            return None
        return a, b


def sorting_relations(pres: ToricPresentation, pair_cap: int | None = None) -> list[SortingRelation]:
    """One relation per unsorted unordered pair of generators, in canonical order."""
    gens = pres.generators
    return [
        SortingRelation(lhs=(gens[i], gens[j]), rhs=(gens[a], gens[b]))
        for (i, j), (a, b) in _unsorted_pairs(pres, pair_cap)
    ]


def _unsorted_pairs(pres: ToricPresentation, pair_cap: int | None = None) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
    """Unsorted pairs i <= j of generator indices with their sorted images, in pair order.

    The pair guard trips on the call.  :func:`_pair_move` then sorts each
    pair as the caller iterates; only the evidence keeps the moves as a table.
    """
    count = len(pres.entries)
    cap = guard_cap(pair_cap, "BITYPE_MAX_SORT_PAIRS", DEFAULT_PAIR_CAP)
    n_pairs = count * (count + 1) // 2
    if n_pairs > cap:
        raise SizeGuardError(f"{n_pairs} generator pairs exceed the cap {cap}")
    return (
        (pair, image)
        for pair in combinations_with_replacement(range(count), 2)
        if (image := _pair_move(pres, pair)) is not None
    )


def fibers_of_degree(pres: ToricPresentation, d: int, multiset_cap: int = 200000) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Group all degree-d generator multisets by their exponent sum."""
    if d < 1:
        raise ParameterRangeError("fiber degree must be positive")
    entries = pres.entries
    total = 1
    for k in range(d):
        total = total * (len(entries) + k) // (k + 1)
    if total > multiset_cap:
        raise SizeGuardError(f"{total} degree-{d} multisets exceed the cap {multiset_cap}")
    # each degree-d sum is a degree-(d-1) sum plus one entry tuple; extending
    # every multiset by indices from its last one on keeps the lexicographic
    # (combinations_with_replacement) order
    layer = [((i,), e) for i, e in enumerate(entries)]
    for _ in range(d - 1):
        layer = [
            (combo + (j,), tuple(map(add, target, entries[j])))
            for combo, target in layer
            for j in range(combo[-1], len(entries))
        ]
    fibers: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for combo, target in layer:
        fibers.setdefault(target, []).append(combo)
    return fibers


def fiber(pres: ToricPresentation, d: int, target: Monomial) -> list[tuple[int, ...]]:
    """All multisets of d generators whose exponent sum is the target."""
    return fibers_of_degree(pres, d).get(target.entries, [])


def normal_form(
    pres: ToricPresentation, multiset, step_cap: int | None = None
) -> tuple[int, ...]:
    """Fixed point of directed sorting rewrites, deterministic rule order.

    Raises RewriteLimitError on a cycle or when the step cap trips; callers
    collecting evidence treat that as a falsifying instance, never as a
    truncation.
    """
    cap = guard_cap(step_cap, "BITYPE_MAX_REWRITE_STEPS", DEFAULT_REWRITE_CAP)
    return _rewrite(partial(_pair_move, pres), tuple(sorted(multiset)), cap, {})


def _pair_move(pres: ToricPresentation, pair: tuple[int, int]) -> tuple[int, int] | None:
    """Sorted image of the pair i <= j, None if it is sorted; UnsortableError if it leaves the set."""
    image = pres.sorted_indices(*pair)
    if image is None:
        u, v = (Monomial(pres.ideal.blocks, pres.entries[k]).pretty() for k in pair)
        raise UnsortableError(f"sorted image of ({u}, {v}) leaves the set")
    return None if tuple(sorted(image)) == pair else image


def _first_move(moves, state: tuple[int, ...]) -> tuple[int, ...] | None:
    """The state after sorting its first unsorted pair, in position order; None at a form.

    ``moves((i, j))`` is the sorted image of the pair i <= j, or None when
    the pair is sorted.
    """
    for a, b in combinations(range(len(state)), 2):
        image = moves((state[a], state[b]))
        if image is not None:
            rest = list(state)
            del rest[b]
            del rest[a]
            rest.extend(image)
            return tuple(sorted(rest))
    return None


def _rewrite(moves, start: tuple[int, ...], cap: int, known: dict) -> tuple[int, ...]:
    """Normal form of the sorted multiset start, within cap rewrite steps.

    ``known`` maps each state whose walk has finished to its normal form and
    its step count to that form.  The walk stops at the first known state
    and then records every state it passed.  The cap applies to the whole
    path, including the known part, so a walk trips it exactly when a walk
    from scratch would.
    """
    path: dict[tuple[int, ...], None] = {}  # insertion order is walk order
    state = start
    while state not in known:
        if len(path) == cap:
            raise RewriteLimitError(f"rewriting exceeded {cap} steps from {start}")
        nxt = _first_move(moves, state)
        if nxt is None:
            known[state] = (state, 0)
            break
        path[state] = None
        if nxt in path:
            raise RewriteLimitError(f"rewriting cycled at {state} -> {nxt}")
        state = nxt
    form, distance = known[state]
    steps = len(path) + distance
    if steps >= cap:
        raise RewriteLimitError(f"rewriting exceeded {cap} steps from {start}")
    for k, passed in enumerate(path):
        known[passed] = (form, steps - k)
    return form


@dataclass
class GBEvidence:
    """Per-fiber results backing the quadratic Groebner basis claim."""

    relation_count: int
    fibers_checked: dict[int, int]
    violations: list[dict]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "relationCount": self.relation_count,
            "fibersChecked": {str(d): n for d, n in sorted(self.fibers_checked.items())},
            "violations": self.violations,
        }


def _check_fiber(moves, degree, target, members, step_cap):
    """Termination and a unique normal form for a single fiber.

    Each member is rewritten once.  The rewrite rule is deterministic, so a
    state's walk is the same whichever member reaches it: a walk that meets
    a state recorded by an earlier walk of the fiber continues along the
    recorded path and ends at the recorded form, after the recorded number
    of steps.  Only finished walks are recorded, so a state on a cycle never
    is, and a walk into a cycle reports it at the same step as a walk from
    scratch.

    Connectivity needs no pass of its own.  Rewriting takes each member to
    its form by single sorting moves, and a move keeps the exponent sum, so
    every step stays inside the fiber.  When all members share one form,
    each is joined to that form by moves within the fiber, so the fiber is
    connected.
    """
    known: dict = {}
    forms = set()
    for m in members:
        try:
            forms.add(_rewrite(moves, m, step_cap, known))
        except RewriteLimitError as exc:
            return [
                {"kind": "nontermination", "degree": degree, "target": list(target),
                 "detail": str(exc)}
            ]
    if len(forms) > 1:
        return [
            {"kind": "normal-form-mismatch", "degree": degree, "target": list(target),
             "forms": sorted(map(list, forms))}
        ]
    return []


def quadratic_gb_evidence(
    pres: ToricPresentation,
    max_degree: int = 3,
    step_cap: int | None = None,
    pair_cap: int | None = None,
) -> GBEvidence:
    """Fiber-by-fiber evidence that sorting relations define the kernel.

    For every fiber in degrees 2..max_degree: (i) rewriting terminates
    within the cap, and (ii) directed rewriting reaches one normal form from
    every member.  Together these make the fiber connected under single
    sorting moves, so connectivity is not checked separately (see
    :func:`_check_fiber`).  Fibers are checked one at a time, in degree
    order and then by target.  Violations are data, not exceptions.  Each
    generator pair is sorted once, for the relation count and the moves
    alike; ``pair_cap`` bounds that walk as it bounds :func:`sorting_relations`.
    """
    moves = dict(_unsorted_pairs(pres, pair_cap))  # raises UnsortableError on bad input
    step_cap = guard_cap(step_cap, "BITYPE_MAX_REWRITE_STEPS", DEFAULT_REWRITE_CAP)
    # every degree is grouped before any check, so a multiset guard trips first
    fibers = {d: fibers_of_degree(pres, d) for d in range(2, max_degree + 1)}
    violations: list[dict] = []
    for d, grouped in fibers.items():
        for target, members in sorted(grouped.items()):
            violations.extend(_check_fiber(moves.get, d, target, members, step_cap))
    return GBEvidence(
        relation_count=len(moves),
        fibers_checked={d: len(grouped) for d, grouped in fibers.items()},
        violations=violations,
    )
