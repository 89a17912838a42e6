"""The sort operator, sortability, sorting relations, and fiber rewriting.

Two exponent vectors of equal degree t are sorted by merging their 2t
variable occurrences in nondecreasing variable order and dealing them back
out alternately: odd slots to the first vector, even slots to the second.
A generator set is sortable when it is closed under this operator.

The toric side: indeterminates t_1..t_p map onto the generators, and the
kernel of that map pairs multisets of generators with equal exponent sums
(fibers).  Each unsorted pair contributes the quadratic relation sending it
to its sorted image.  Evidence that these quadratic relations define the
kernel is gathered per fiber: connectivity under single sorting moves and
a unique normal form under directed rewriting.
"""

import os
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement

from .builders import IdealParameters
from .core import Monomial, MonomialIdeal, _require_same_structure
from .errors import ParameterRangeError, RewriteLimitError, SizeGuardError, UnsortableError
from . import kernels

DEFAULT_REWRITE_CAP = int(os.environ.get("BITYPE_MAX_REWRITE_STEPS", "10000"))
DEFAULT_PAIR_CAP = int(os.environ.get("BITYPE_MAX_SORT_PAIRS", "4000000"))


def sort_pair(u: Monomial, v: Monomial) -> tuple[Monomial, Monomial]:
    """Merge-and-interleave the pair; depends only on the exponent sum."""
    _require_same_structure(u, v)
    if u.total_degree != v.total_degree:
        raise ParameterRangeError(
            f"sort needs equal degrees, got {u.total_degree} and {v.total_degree}"
        )
    first, second = _split(tuple(a + b for a, b in zip(u.entries, v.entries)))
    return Monomial(u.blocks, first), Monomial(u.blocks, second)


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
    index_of: dict[tuple[int, ...], int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self,
            "index_of",
            {g.entries: i for i, g in enumerate(self.ideal.gens)},
        )

    @property
    def generators(self) -> tuple[Monomial, ...]:
        return self.ideal.gens

    def sorted_indices(self, i: int, j: int) -> tuple[int, int] | None:
        """Generator indices of the sorted image of (g_i, g_j); None if it leaves the set."""
        first, second = sort_pair(self.generators[i], self.generators[j])
        a = self.index_of.get(first.entries)
        b = self.index_of.get(second.entries)
        if a is None or b is None:
            return None
        return a, b


def sorting_relations(pres: ToricPresentation, pair_cap: int | None = None) -> list[SortingRelation]:
    """One relation per unsorted unordered pair of generators, in canonical order."""
    gens = pres.generators
    cap = DEFAULT_PAIR_CAP if pair_cap is None else pair_cap
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
    gens = pres.generators
    total = 1
    for k in range(d):
        total = total * (len(gens) + k) // (k + 1)
    if total > multiset_cap:
        raise SizeGuardError(f"{total} degree-{d} multisets exceed the cap {multiset_cap}")
    width = pres.ideal.blocks.n_vars
    fibers: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for combo in combinations_with_replacement(range(len(gens)), d):
        target = [0] * width
        for idx in combo:
            for k, e in enumerate(gens[idx].entries):
                target[k] += e
        fibers.setdefault(tuple(target), []).append(combo)
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
    cap = DEFAULT_REWRITE_CAP if step_cap is None else step_cap
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


class _UnionFind:
    def __init__(self, items):
        self.parent = {item: item for item in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _single_moves(pres: ToricPresentation, multiset: tuple[int, ...]):
    """All multisets reachable by sorting one pair inside the multiset."""
    for a, b in combinations(range(len(multiset)), 2):
        i, j = multiset[a], multiset[b]
        image = pres.sorted_indices(i, j)
        if image is None:
            raise UnsortableError("presentation is not sortable")
        if tuple(sorted(image)) != tuple(sorted((i, j))):
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
    """Connectivity, confluence and termination for a single fiber."""
    violations = []
    if len(members) > 1:
        uf = _UnionFind(members)
        member_set = set(members)
        for m in members:
            for nxt in _single_moves(pres, m):
                if nxt in member_set:
                    uf.union(m, nxt)
        roots = {uf.find(m) for m in members}
        if len(roots) > 1:
            violations.append(
                {"kind": "disconnected-fiber", "degree": degree, "target": list(target),
                 "components": len(roots)}
            )
    forms = set()
    for m in members:
        try:
            forms.add(normal_form(pres, m, step_cap))
        except RewriteLimitError as exc:
            violations.append(
                {"kind": "nontermination", "degree": degree, "target": list(target),
                 "detail": str(exc)}
            )
            return violations
    if len(forms) > 1:
        violations.append(
            {"kind": "normal-form-mismatch", "degree": degree, "target": list(target),
             "forms": sorted(map(list, forms))}
        )
    return violations


def quadratic_gb_evidence(
    pres: ToricPresentation,
    max_degree: int = 3,
    step_cap: int | None = None,
) -> GBEvidence:
    """Fiber-by-fiber evidence that sorting relations define the kernel.

    For every fiber in degrees 2..max_degree: (i) the fiber is connected
    under single sorting moves, (ii) directed rewriting reaches one normal
    form from every member, (iii) rewriting terminates within the cap.
    Fibers are checked one at a time, in degree order and then by target.
    Violations are data, not exceptions.
    """
    relations = sorting_relations(pres)  # raises UnsortableError on bad input
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
