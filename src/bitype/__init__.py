"""Exact combinatorics for generalized Veronese bi-type monomial ideals.

The library constructs degree-capped block monomial ideals and checks their
closed-form invariants (dimension, unmixedness, regularity, associated
primes, sortability) against independent brute-force oracles: cover
enumeration, colon-ideal search, multigraded simplicial homology, and
toric-fiber rewriting.  Everything is exact integer arithmetic.
"""

from .builders import (
    IdealParameters,
    bitype_ideal,
    bitype_ideal_by_compositions,
    make_params,
    veronese_type_ideal,
)
from .core import (
    BlockStructure,
    Monomial,
    MonomialIdeal,
    PrimeSupport,
    ideal_product,
    ideal_sum,
    minimalize,
)
from .errors import (
    BitypeError,
    ParameterRangeError,
    RewriteLimitError,
    SizeGuardError,
    StructureError,
    UnsortableError,
)

__version__ = "0.1.0"

__all__ = [
    "BitypeError",
    "BlockStructure",
    "IdealParameters",
    "Monomial",
    "MonomialIdeal",
    "ParameterRangeError",
    "PrimeSupport",
    "RewriteLimitError",
    "SizeGuardError",
    "StructureError",
    "UnsortableError",
    "bitype_ideal",
    "bitype_ideal_by_compositions",
    "ideal_product",
    "ideal_sum",
    "make_params",
    "minimalize",
    "veronese_type_ideal",
]
