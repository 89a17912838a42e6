"""Associated primes of bi-type ideals: closed form, witnesses, colon oracle.

For t = s*N - r with r in 1..s-1 the associated primes of the quotient are
exactly the monomial primes on at most r+1 variables.  Each such support F
has an explicit witness monomial of degree t-1 (cap s off F, capped
remainder on F) whose colon recovers the prime.  The oracle route ignores
the closed form entirely: it finds the colon of the ideal by every monomial
below the generator lcm and keeps the monomial primes that appear.  It
colons one point per orbit of the permutations that fix the ideal's
symmetric runs of variables, and colons every other point of an orbit
only when that representative's colon is prime.
"""

from itertools import combinations

from .builders import IdealParameters, bitype_ideal
from .core import (
    Monomial,
    MonomialIdeal,
    PrimeSupport,
    arrangements,
    guard_cap,
    run_representatives,
    symmetric_runs,
)
from .errors import ParameterRangeError

DEFAULT_WITNESS_BOX = 1 << 20


def _max_support(params: IdealParameters) -> int:
    r = params.deficit
    if not (1 <= r <= params.s - 1):
        raise ParameterRangeError(
            f"deficit r={r} outside 1..s-1 (s={params.s}); no closed form applies"
        )
    return r + 1


def associated_primes_formula(params: IdealParameters) -> list[PrimeSupport]:
    """All nonempty supports of size at most r+1, r = s*N - t."""
    bound = _max_support(params)
    blocks = params.blocks
    out = []
    for size in range(1, min(bound, blocks.n_vars) + 1):
        for combo in combinations(range(blocks.n_vars), size):
            out.append(PrimeSupport(blocks, frozenset(combo)))
    return out


def witness_monomial(params: IdealParameters, support: PrimeSupport) -> Monomial:
    """Degree t-1 monomial whose colon against the ideal is the given prime.

    Entries are s off the support; on the support the remaining degree is
    distributed greedily in canonical index order, capped at s-1.
    """
    bound = _max_support(params)
    if support.blocks != params.blocks:
        raise ParameterRangeError("support belongs to a different block structure")
    if len(support.indices) > bound:
        raise ParameterRangeError(
            f"support size {len(support.indices)} exceeds r+1={bound}"
        )
    blocks, t, s = params.blocks, params.t, params.s
    entries = [s] * blocks.n_vars
    rem = t - 1 - s * (blocks.n_vars - len(support.indices))
    for k in support.sorted_indices():
        d = min(s - 1, rem)
        entries[k] = d
        rem -= d
    if rem != 0:
        raise ParameterRangeError("witness degree cannot be realized")
    return Monomial(blocks, tuple(entries))


def associated_primes_oracle(
    ideal: MonomialIdeal, box_cap: int | None = None
) -> dict[PrimeSupport, Monomial]:
    """Exhaustive colon search; maps each prime found to its first witness.

    Candidates run over the box below the lcm of the generators, which is
    the standard completeness bound for associated primes of a monomial
    ideal.  Permuting the variables of a symmetric run
    (:func:`core.symmetric_runs`) fixes the ideal, so the colon by a
    permuted monomial is the permuted colon, and an orbit holds a prime
    colon only if its representative (entries non-increasing within each
    run) does.  The search therefore colons each representative, and then
    every other distinct arrangement of those whose colon is prime, so no
    point is coloned twice.  Each prime and witness reported is thus a
    colon actually computed.  Witnesses are the lexicographically first
    monomials achieving each prime, as a scan of the whole box finds them.
    """
    if ideal.is_zero or ideal.is_unit:
        raise ParameterRangeError("associated primes need a nonzero, proper ideal")
    cap = guard_cap(box_cap, "BITYPE_MAX_WITNESS_BOX", DEFAULT_WITNESS_BOX)
    bounds = ideal.lcm_box(cap, "witness")
    runs = symmetric_runs(ideal)
    table = ideal._table
    raw: dict[int, tuple[int, ...]] = {}
    for f in run_representatives(bounds, runs):
        hit = table.colon_prime_mask(f)
        if hit < 0:
            continue
        for image in arrangements(f, runs):
            mask = hit if image == f else table.colon_prime_mask(image)
            if mask >= 0 and (mask not in raw or image < raw[mask]):
                raw[mask] = image
    out: dict[PrimeSupport, Monomial] = {}
    for mask in sorted(raw, key=lambda m: (m.bit_count(), _mask_bits(m))):
        support = PrimeSupport(ideal.blocks, frozenset(_mask_bits(mask)))
        out[support] = Monomial(ideal.blocks, raw[mask])
    return out


def _mask_bits(mask: int) -> tuple[int, ...]:
    return tuple(k for k in range(mask.bit_length()) if (mask >> k) & 1)


def minimal_supports(supports) -> list[PrimeSupport]:
    """Inclusion-minimal elements; these are the minimal primes."""
    items = sorted(supports, key=lambda p: (len(p.indices), p.sorted_indices()))
    kept: list[PrimeSupport] = []
    for cand in items:
        if not any(k.indices <= cand.indices for k in kept):
            kept.append(cand)
    return kept


def formula_matches_oracle(params: IdealParameters, box_cap: int | None = None) -> bool:
    """Set equality of the closed form and the colon search."""
    formula = {p.indices for p in associated_primes_formula(params)}
    oracle = {p.indices for p in associated_primes_oracle(bitype_ideal(params), box_cap)}
    return formula == oracle
