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
"""

from dataclasses import dataclass, field
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
        entries = tuple(g.entries for g in self.ideal.gens)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "index_of", {e: i for i, e in enumerate(entries)})

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
    cap = guard_cap(pair_cap, "BITYPE_MAX_SORT_PAIRS", DEFAULT_PAIR_CAP)
    n_pairs = len(gens) * (len(gens) + 1) // 2
    if n_pairs > cap:
        raise SizeGuardError(f"{n_pairs} generator pairs exceed the cap {cap}")
    out = []
    for i in range(len(gens)):
        for j in range(i, len(gens)):
            image = pres.sorted_indices(i, j)
            if image is None:
                raise UnsortableError(
                    f"sorted image of ({gens[i].pretty()}, {gens[j].pretty()}) leaves the set"
                )
            if tuple(sorted(image)) != (i, j):
                out.append(
                    SortingRelation(lhs=(gens[i], gens[j]), rhs=(gens[image[0]], gens[image[1]]))
                )
    return out


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
    fibers: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for combo in combinations_with_replacement(range(len(entries)), d):
        target = tuple(map(sum, zip(*(entries[idx] for idx in combo))))
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
    state = tuple(sorted(multiset))
    seen = {state}
    for _ in range(cap):
        nxt = next(_single_moves(pres, state), None)
        if nxt is None:
            return state
        if nxt in seen:
            raise RewriteLimitError(f"rewriting cycled at {state} -> {nxt}")
        seen.add(nxt)
        state = nxt
    raise RewriteLimitError(f"rewriting exceeded {cap} steps from {tuple(sorted(multiset))}")


def _single_moves(pres: ToricPresentation, multiset: tuple[int, ...]):
    """All multisets reachable by sorting one pair inside the multiset."""
    for a, b in combinations(range(len(multiset)), 2):
        i, j = multiset[a], multiset[b]
        image = pres.sorted_indices(i, j)
        if image is None:
            raise UnsortableError("presentation is not sortable")
        if tuple(sorted(image)) != (i, j):  # i <= j in a sorted multiset
            rest = list(multiset)
            del rest[b]
            del rest[a]
            rest.extend(image)
            yield tuple(sorted(rest))


@dataclass
class GBEvidence:
    """Per-fiber results backing the quadratic Groebner basis claim."""

    sortable: bool
    relation_count: int
    fibers_checked: dict[int, int]
    violations: list[dict]

    @property
    def passed(self) -> bool:
        return self.sortable and not self.violations

    def to_dict(self) -> dict:
        return {
            "sortable": self.sortable,
            "relationCount": self.relation_count,
            "fibersChecked": {str(d): n for d, n in sorted(self.fibers_checked.items())},
            "violations": self.violations,
        }


def _check_fiber(pres, degree, target, members, step_cap):
    """Termination and a unique normal form for a single fiber.

    Connectivity needs no pass of its own.  :func:`normal_form` takes each
    member to its form by single sorting moves, and a move keeps the
    exponent sum, so every step stays inside the fiber.  When all members
    share one form, each is joined to that form by moves within the fiber,
    so the fiber is connected.
    """
    forms = set()
    for m in members:
        try:
            forms.add(normal_form(pres, m, step_cap))
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
) -> GBEvidence:
    """Fiber-by-fiber evidence that sorting relations define the kernel.

    For every fiber in degrees 2..max_degree: (i) rewriting terminates
    within the cap, and (ii) directed rewriting reaches one normal form from
    every member.  Together these make the fiber connected under single
    sorting moves, so connectivity is not checked separately (see
    :func:`_check_fiber`).  Fibers are checked one at a time, in degree
    order and then by target.  Violations are data, not exceptions.
    """
    relations = sorting_relations(pres)  # raises UnsortableError on bad input
    step_cap = guard_cap(step_cap, "BITYPE_MAX_REWRITE_STEPS", DEFAULT_REWRITE_CAP)
    # every degree is grouped before any check, so a multiset guard trips first
    fibers = {d: fibers_of_degree(pres, d) for d in range(2, max_degree + 1)}
    violations: list[dict] = []
    for d, grouped in fibers.items():
        for target, members in sorted(grouped.items()):
            violations.extend(_check_fiber(pres, d, target, members, step_cap))
    return GBEvidence(
        sortable=True,
        relation_count=len(relations),
        fibers_checked={d: len(grouped) for d, grouped in fibers.items()},
        violations=violations,
    )
