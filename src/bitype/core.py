"""Monomials and monomial ideals over a block-partitioned polynomial ring.

The ring has variables x_{ij} grouped into blocks: block i carries m_i
variables, and a monomial is stored as its flat exponent vector of length
N = sum(m_i).  Ideals are kept as their unique minimal (antichain) generating
set in a canonical order -- lexicographic on the flat exponent entries -- so
that equality, hashing, JSON output and golden-file diffs are deterministic.

All values are immutable after construction and all operations are pure.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .errors import ParameterRangeError, SizeGuardError, StructureError
from . import kernels


@dataclass(frozen=True)
class BlockStructure:
    """A partition of the variable set into n blocks of sizes m_1..m_n."""

    block_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(m) for m in self.block_sizes)
        object.__setattr__(self, "block_sizes", sizes)
        if not sizes or any(m < 1 for m in sizes):
            raise ParameterRangeError(f"block sizes must be positive, got {sizes}")

    @cached_property
    def n_blocks(self) -> int:
        return len(self.block_sizes)

    @cached_property
    def n_vars(self) -> int:
        return sum(self.block_sizes)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for m in self.block_sizes:
            out.append(acc)
            acc += m
        return tuple(out)

    def block_of(self, k: int) -> int:
        """Block index (0-based) of flat variable index k."""
        if not 0 <= k < self.n_vars:
            raise IndexError(k)
        for i in range(self.n_blocks - 1, -1, -1):
            if k >= self.offsets[i]:
                return i
        raise IndexError(k)

    def block_range(self, i: int) -> range:
        return range(self.offsets[i], self.offsets[i] + self.block_sizes[i])

    def flat_index(self, i: int, j: int) -> int:
        """Flat index of variable (block i, position j), both 0-based."""
        if not (0 <= i < self.n_blocks and 0 <= j < self.block_sizes[i]):
            raise IndexError((i, j))
        return self.offsets[i] + j

    def var_name(self, k: int) -> str:
        i = self.block_of(k)
        return f"x{i + 1}{k - self.offsets[i] + 1}"


def _require_same_structure(a, b):
    if a.blocks != b.blocks:
        raise StructureError(
            f"mismatched block structures {a.blocks.block_sizes} vs {b.blocks.block_sizes}"
        )


@dataclass(frozen=True)
class Monomial:
    """A monomial as a nonnegative integer exponent vector."""

    blocks: BlockStructure
    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(int(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) != self.blocks.n_vars:
            raise StructureError(
                f"expected {self.blocks.n_vars} exponents, got {len(entries)}"
            )
        if any(e < 0 for e in entries):
            raise ParameterRangeError(f"negative exponent in {entries}")

    @classmethod
    def unit(cls, blocks: BlockStructure) -> "Monomial":
        return cls(blocks, (0,) * blocks.n_vars)

    @property
    def total_degree(self) -> int:
        return sum(self.entries)

    def block_degree(self, i: int) -> int:
        return sum(self.entries[k] for k in self.blocks.block_range(i))

    def support(self) -> tuple[int, ...]:
        return tuple(k for k, e in enumerate(self.entries) if e > 0)

    def divides(self, other: "Monomial") -> bool:
        """Componentwise comparison: self | other."""
        _require_same_structure(self, other)
        return all(a <= b for a, b in zip(self.entries, other.entries))

    def lcm(self, other: "Monomial") -> "Monomial":
        _require_same_structure(self, other)
        return Monomial(
            self.blocks, tuple(max(a, b) for a, b in zip(self.entries, other.entries))
        )

    def __mul__(self, other: "Monomial") -> "Monomial":
        _require_same_structure(self, other)
        return Monomial(
            self.blocks, tuple(a + b for a, b in zip(self.entries, other.entries))
        )

    def pretty(self) -> str:
        """Readable form like ``x11^2*x12``; the unit monomial prints as ``1``."""
        parts = []
        for k, e in enumerate(self.entries):
            if e == 1:
                parts.append(self.blocks.var_name(k))
            elif e > 1:
                parts.append(f"{self.blocks.var_name(k)}^{e}")
        return "*".join(parts) if parts else "1"

    def __repr__(self):
        return f"Monomial({self.pretty()})"


@dataclass(frozen=True)
class PrimeSupport:
    """A monomial prime: the ideal generated by the variables in ``indices``."""

    blocks: BlockStructure
    indices: frozenset[int]

    def __post_init__(self):
        idx = frozenset(int(k) for k in self.indices)
        object.__setattr__(self, "indices", idx)
        if not idx or not all(0 <= k < self.blocks.n_vars for k in idx):
            raise ParameterRangeError(f"support must be a nonempty subset, got {set(idx)}")

    def sorted_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.indices))

    def names(self) -> tuple[str, ...]:
        return tuple(self.blocks.var_name(k) for k in self.sorted_indices())

    def __repr__(self):
        return f"PrimeSupport({', '.join(self.names())})"


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal, stored as its minimal generators in canonical order.

    The empty generator list is the zero ideal; the single all-zero vector is
    the unit ideal.  Use :meth:`from_generators` unless the input is already
    a canonically sorted antichain.
    """

    blocks: BlockStructure
    gens: tuple[Monomial, ...]

    @classmethod
    def from_generators(cls, blocks: BlockStructure, gens) -> "MonomialIdeal":
        """Minimalize: dedupe, drop multiples, sort canonically."""
        vs = set()
        for g in gens:
            if g.blocks != blocks:
                raise StructureError("generator has a different block structure")
            vs.add(g.entries)
        # A strict divisor has strictly smaller degree (equal-degree distinct
        # vectors never divide), so only earlier degree layers need scanning.
        kept: list[tuple[int, ...]] = []
        lower: list[tuple[int, ...]] = []
        prev_degree = None
        for v in sorted(vs, key=lambda e: (sum(e), e)):
            degree = sum(v)
            if degree != prev_degree:
                lower = list(kept)
                prev_degree = degree
            if not any(all(a <= b for a, b in zip(k, v)) for k in lower):
                kept.append(v)
        kept.sort()
        return cls(blocks, tuple(Monomial(blocks, v) for v in kept))

    @classmethod
    def zero(cls, blocks: BlockStructure) -> "MonomialIdeal":
        return cls(blocks, ())

    @classmethod
    def unit_ideal(cls, blocks: BlockStructure) -> "MonomialIdeal":
        return cls(blocks, (Monomial.unit(blocks),))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].total_degree == 0

    def __len__(self):
        return len(self.gens)

    @cached_property
    def _table(self):
        flat = tuple(chain.from_iterable(g.entries for g in self.gens))
        return kernels.make_table(flat, len(self.gens), self.blocks.n_vars)

    def contains(self, f: Monomial) -> bool:
        """Ideal membership: some minimal generator divides f."""
        _require_same_structure(self, f)
        return self._table.contains(f.entries)

    def colon(self, f: Monomial) -> "MonomialIdeal":
        """The colon ideal by a monomial: generated by g / gcd(g, f)."""
        _require_same_structure(self, f)
        quots = [
            Monomial(
                self.blocks,
                tuple(a - min(a, b) for a, b in zip(g.entries, f.entries)),
            )
            for g in self.gens
        ]
        return MonomialIdeal.from_generators(self.blocks, quots)

    def lcm_of_generators(self) -> Monomial:
        if self.is_zero:
            return Monomial.unit(self.blocks)
        columns = zip(*(g.entries for g in self.gens))
        return Monomial(self.blocks, tuple(map(max, columns)))

    def lcm_box(self, cap: int, name: str) -> tuple[int, ...]:
        """The lcm's entries, once the box of multidegrees below it fits the cap."""
        bounds = self.lcm_of_generators().entries
        size = math.prod(b + 1 for b in bounds)
        if size > cap:
            raise SizeGuardError(f"{name} box of size {size} exceeds cap {cap}")
        return bounds

    def as_prime_support(self) -> PrimeSupport | None:
        """The PrimeSupport if every generator is a single variable, else None."""
        if self.is_zero or self.is_unit:
            return None
        idx = []
        for g in self.gens:
            if g.total_degree != 1:
                return None
            idx.append(g.support()[0])
        return PrimeSupport(self.blocks, frozenset(idx))

    def to_dict(self) -> dict:
        return {
            "blocks": list(self.blocks.block_sizes),
            "gens": [list(g.entries) for g in self.gens],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MonomialIdeal":
        blocks = BlockStructure(tuple(data["blocks"]))
        gens = [Monomial(blocks, tuple(e)) for e in data["gens"]]
        return cls.from_generators(blocks, gens)

    def pretty_gens(self) -> list[str]:
        return [g.pretty() for g in self.gens]

    def __repr__(self):
        if self.is_zero:
            return "MonomialIdeal(0)"
        return f"MonomialIdeal({', '.join(self.pretty_gens())})"


def minimalize(blocks: BlockStructure, gens) -> MonomialIdeal:
    """Functional alias for :meth:`MonomialIdeal.from_generators`."""
    return MonomialIdeal.from_generators(blocks, gens)


def ideal_sum(left: MonomialIdeal, right: MonomialIdeal) -> MonomialIdeal:
    _require_same_structure(left, right)
    return MonomialIdeal.from_generators(left.blocks, left.gens + right.gens)


def ideal_product(left: MonomialIdeal, right: MonomialIdeal) -> MonomialIdeal:
    _require_same_structure(left, right)
    prods = [g * h for g in left.gens for h in right.gens]
    return MonomialIdeal.from_generators(left.blocks, prods)
