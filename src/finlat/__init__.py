"""Decision procedures and exhaustive verification for finite bounded lattices.

The package computes congruence lattices, ideals and filters with
prime/maximal classification, balance and complementation predicates,
and the constructions tying them together, and it can enumerate every
bounded lattice up to size 10 (one representative per isomorphism
class) to verify those relationships exhaustively.
"""

from types import ModuleType as _Module

from .congruences import (
    Congruence,
    Partition,
    all_congruences,
    generated_congruence,
    is_balanced_congruence,
    is_congruence,
    join_congruences,
    meet_congruences,
    principal_congruence,
    principal_table,
)
from .core import (
    EmptySet,
    FiniteLattice,
    LatticeError,
    LatticeHomomorphism,
    NotACongruence,
    NotALattice,
    NotAPartialOrder,
    NotBounded,
    OwnerMismatch,
    ParseError,
    SizeMismatch,
    UnknownName,
    canonical_form,
    dual,
    format_latt,
    from_leq_matrix,
    is_homomorphism,
    is_isomorphic,
    is_surjective,
    lattice_from_canonical,
    parse_latt,
    product,
    quotient,
    relabel,
    standard_lattice,
)
from .enumeration import (
    MAX_SIZE,
    EnumerationStats,
    SEARCH_PREDICATES,
    SearchWitness,
    SizeOutOfRange,
    UnknownPredicate,
    census,
    enumerate_lattices,
    search_counterexample,
    write_latt_files,
)
from .ideals import (
    ElementSet,
    NotAFilter,
    NotAnIdeal,
    NotPrime,
    annihilator_filter,
    annihilator_ideal,
    enumerate_filters,
    enumerate_ideals,
    filter_generated_by,
    ideal_generated_by,
    is_filter,
    is_ideal,
    is_maximal_filter,
    is_maximal_ideal,
    is_prime_filter,
    is_prime_ideal,
    prime_ideal_congruence,
)
from .properties import (
    HasComplement,
    HomomorphismCheckFailed,
    NonComplementedWitness,
    NotDLattice,
    NotNestedPrimes,
    PropertyReport,
    ReportCounts,
    ReportWitnesses,
    SevenConditions,
    TheoremVerdict,
    classify,
    complements_of,
    is_balanced,
    is_complemented,
    is_d_lattice,
    is_d_lattice_definition,
    is_d_lattice_maximal_prime,
    is_distributive,
    seven_conditions,
    three_chain_quotient_from_nested_primes,
    verify_theorem,
    witness_from_noncomplemented,
)

__version__ = "0.1.0"

# every public name imported above; the submodules bound here on import are left out
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _Module)
)
