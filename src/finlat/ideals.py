"""Ideals, filters, annihilator sets, and the prime-ideal congruence.

An ideal is a nonempty downward-closed join-closed subset; a filter is
the dual.  In a finite lattice every ideal is a principal down-set (a
nonempty join-closed set has a greatest element), which keeps
enumeration linear.  Every other fact is read off one fold of join or
meet over a set's members (``core._fold``): a set is an ideal iff it is
the down-set of its join; the ideal generated by S is the down-set of
the join of S; an ideal is maximal iff its join is a coatom; and a
proper ideal ↓g is prime iff the meet of its complement lies outside
it.  Filters are the duals.  Each test is linear in the lattice size.
Sets are bitmasks wrapped in :class:`ElementSet` so reports can print
them uniformly; the verdict path reads the bare masks of
``_maximal_and_prime`` and wraps none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .congruences import Congruence, Partition, is_congruence
from .core import (
    EmptySet,
    FiniteLattice,
    LatticeError,
    NotACongruence,
    SizeMismatch,
    _element,
    _fold,
    _size,
)


_Masks = tuple[int, ...]
_Table = tuple[tuple[int, ...], ...]


class NotAnIdeal(LatticeError):
    """The given set fails the ideal axioms."""


class NotAFilter(LatticeError):
    """The given set fails the filter axioms."""


class NotPrime(LatticeError):
    """A prime ideal (or filter) was required."""


@dataclass(frozen=True, order=True)
class ElementSet:
    """A subset of the elements of a lattice of the given size.

    Ordering is (cardinality, bitmask), the contract order for ideal
    and filter enumerations.  The size is checked as ``core._size``
    does.  The mask, and each element passed to ``from_iterable`` or
    ``with_element``, is checked as ``core._element`` does: the mask as
    one of the 2**size subsets.
    """

    sort_key: tuple[int, int]
    size: int
    mask: int

    def __init__(self, size: int, mask: int) -> None:
        _element(mask, 1 << _size(size), "mask")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "sort_key", _by_size(mask))

    @staticmethod
    def from_iterable(size: int, items: Iterable[int]) -> "ElementSet":
        mask = 0
        for e in items:
            mask |= 1 << _element(e, size)
        return ElementSet(size, mask)

    @staticmethod
    def full(size: int) -> "ElementSet":
        return ElementSet(size, (1 << _size(size)) - 1)

    def members(self) -> tuple[int, ...]:
        return tuple(e for e in range(self.size) if self.mask >> e & 1)

    def complement(self) -> "ElementSet":
        return ElementSet(self.size, ~self.mask & (1 << self.size) - 1)

    def with_element(self, e: int) -> "ElementSet":
        return ElementSet(self.size, self.mask | 1 << _element(e, self.size))

    def isdisjoint(self, other: "ElementSet") -> bool:
        return self.mask & other.mask == 0

    def issubset(self, other: "ElementSet") -> bool:
        return self.mask & ~other.mask == 0

    def __contains__(self, e: int) -> bool:
        return type(e) is int and 0 <= e < self.size and self.mask >> e & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.members())) + "}"

    def __repr__(self) -> str:
        return f"ElementSet(size={self.size}, members={self})"


def _require_sized(lattice: FiniteLattice, subset: ElementSet) -> None:
    if subset.size != lattice.size:
        raise SizeMismatch("set sized for a different lattice")


def _is_principal(lattice: FiniteLattice, subset: ElementSet, masks: _Masks, table: _Table) -> bool:
    """Nonempty, and one side's principal set of its fold under the side's operation."""
    _require_sized(lattice, subset)
    return subset.mask != 0 and masks[_fold(table, subset.mask)] == subset.mask


def is_ideal(lattice: FiniteLattice, subset: ElementSet) -> bool:
    """Nonempty, downward closed, and closed under binary join: the down-set of its join."""
    return _is_principal(lattice, subset, lattice.down_masks, lattice.join)


def is_filter(lattice: FiniteLattice, subset: ElementSet) -> bool:
    """Nonempty, upward closed, and closed under binary meet: the up-set of its meet."""
    return _is_principal(lattice, subset, lattice.up_masks, lattice.meet)


def _by_size(mask: int) -> tuple[int, int]:
    """The (cardinality, bitmask) key that orders :class:`ElementSet`."""
    return (mask.bit_count(), mask)


def enumerate_ideals(lattice: FiniteLattice) -> list[ElementSet]:
    """All ideals, sorted by (size, bitmask), the improper one included.

    Each ideal of a finite lattice is the down-set of its greatest
    element, so the principal down-sets are already all of them.
    """
    n = lattice.size
    return [ElementSet(n, mask) for mask in sorted(lattice.down_masks, key=_by_size)]


def enumerate_filters(lattice: FiniteLattice) -> list[ElementSet]:
    """All filters, sorted by (size, bitmask); dual to ideals."""
    n = lattice.size
    return [ElementSet(n, mask) for mask in sorted(lattice.up_masks, key=_by_size)]


def _is_prime(lattice: FiniteLattice, mask: int, other: _Table) -> bool:
    """A principal set: proper, with the other side's fold of its complement outside it.

    The complement of an ideal ↓g is an up-set, so the meets of its
    members all lie above the meet m of the whole complement; they all
    avoid ↓g iff m does.  Filters are dual.
    """
    outside = ~mask & (1 << lattice.size) - 1
    return outside != 0 and not mask >> _fold(other, outside) & 1


def is_prime_ideal(lattice: FiniteLattice, ideal: ElementSet) -> bool:
    """Proper, and x∧y inside implies x or y inside.

    Equivalently the complement is closed under meet, which is the shape
    the two-block congruence construction needs.
    """
    if not is_ideal(lattice, ideal):
        raise NotAnIdeal(f"{ideal} is not an ideal")
    return _is_prime(lattice, ideal.mask, lattice.meet)


def is_prime_filter(lattice: FiniteLattice, filt: ElementSet) -> bool:
    """Proper, and x∨y inside implies x or y inside."""
    if not is_filter(lattice, filt):
        raise NotAFilter(f"{filt} is not a filter")
    return _is_prime(lattice, filt.mask, lattice.join)


def is_maximal_ideal(lattice: FiniteLattice, ideal: ElementSet) -> bool:
    """Proper and not strictly contained in another proper ideal.

    The ideal is the down-set of its join g, and ↓g ⊊ ↓h exactly when
    g < h, so it is maximal iff g is a coatom: the up-set of g is
    {g, top}.
    """
    if not is_ideal(lattice, ideal):
        raise NotAnIdeal(f"{ideal} is not an ideal")
    return lattice.up_masks[_fold(lattice.join, ideal.mask)].bit_count() == 2


def is_maximal_filter(lattice: FiniteLattice, filt: ElementSet) -> bool:
    """Proper and not strictly contained in another proper filter.

    Dually, the filter is the up-set of its meet, which must be an atom.
    """
    if not is_filter(lattice, filt):
        raise NotAFilter(f"{filt} is not a filter")
    return lattice.down_masks[_fold(lattice.meet, filt.mask)].bit_count() == 2


def _maximal_and_prime(lattice: FiniteLattice) -> tuple[tuple[list[int], list[int]], ...]:
    """(maximal, prime) masks of the ideals, then of the filters, in enumeration order.

    The maximal ideals are ↓c for the coatoms c and the maximal filters
    ↑a for the atoms a.  Principal sets need no re-validation before
    the primality test.  The masks are sorted as their :class:`ElementSet`
    would be, by (cardinality, bitmask); no set is wrapped.
    """
    n = lattice.size
    sides = (
        (lattice.down_masks, lattice.up_masks, lattice.meet),
        (lattice.up_masks, lattice.down_masks, lattice.join),
    )
    return tuple(
        (
            sorted((masks[g] for g in range(n) if other_masks[g].bit_count() == 2), key=_by_size),
            [mask for mask in sorted(masks, key=_by_size) if _is_prime(lattice, mask, other)],
        )
        for masks, other_masks, other in sides
    )


def ideal_generated_by(lattice: FiniteLattice, subset: ElementSet | Iterable[int]) -> ElementSet:
    """Least ideal containing the set: the down-set of its join."""
    return _generated(lattice, subset, lattice.join, lattice.down_masks)


def filter_generated_by(lattice: FiniteLattice, subset: ElementSet | Iterable[int]) -> ElementSet:
    """Least filter containing the set: the up-set of its meet."""
    return _generated(lattice, subset, lattice.meet, lattice.up_masks)


def _generated(
    lattice: FiniteLattice,
    subset: ElementSet | Iterable[int],
    table: _Table,
    masks: _Masks,
) -> ElementSet:
    n = lattice.size
    if isinstance(subset, ElementSet):
        _require_sized(lattice, subset)
        mask = subset.mask
    else:
        mask = ElementSet.from_iterable(n, subset).mask
    if mask == 0:
        raise EmptySet("generating set is empty")
    return ElementSet(n, masks[_fold(table, mask)])


def _annihilator(lattice: FiniteLattice, a: int, table: _Table, bound: int) -> ElementSet:
    row = table[_element(a, lattice.size)]
    return ElementSet.from_iterable(
        lattice.size, (x for x in lattice.elements() if row[x] == bound)
    )


def annihilator_filter(lattice: FiniteLattice, a: int) -> ElementSet:
    """The literal set {x : x∨a = top}; no closure is applied."""
    return _annihilator(lattice, a, lattice.join, lattice.top)


def annihilator_ideal(lattice: FiniteLattice, a: int) -> ElementSet:
    """The literal set {x : x∧a = bottom}; no closure is applied."""
    return _annihilator(lattice, a, lattice.meet, lattice.bottom)


def prime_ideal_congruence(lattice: FiniteLattice, ideal: ElementSet) -> Congruence:
    """The two-block congruence with classes I and L∖I, for prime I.

    Compatibility is re-verified by the definition before returning (see
    :func:`is_congruence`); primality is exactly what makes the
    complement meet-closed and hence the partition compatible.
    """
    if not is_prime_ideal(lattice, ideal):
        raise NotPrime(f"{ideal} is not a prime ideal")
    partition = Partition.from_labels([0 if e in ideal else 1 for e in range(lattice.size)])
    if not is_congruence(lattice, partition):
        raise NotACongruence("two-block partition failed the compatibility scan")
    return Congruence(lattice, partition)
