"""Ideals, filters, annihilator sets, and the prime-ideal congruence.

An ideal is a nonempty downward-closed join-closed subset; a filter is
the dual.  In a finite lattice every ideal is a principal down-set (a
nonempty join-closed set has a greatest element), which keeps
enumeration linear and reduces maximality to a coatom (or atom) test.
Sets are bitmasks wrapped in :class:`ElementSet` so reports can print
them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .congruences import Congruence, Partition, is_congruence
from .core import EmptySet, FiniteLattice, LatticeError, NotACongruence, SizeMismatch


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
    and filter enumerations.
    """

    sort_key: tuple[int, int]
    size: int
    mask: int

    def __init__(self, size: int, mask: int) -> None:
        if mask < 0 or mask >> size:
            raise SizeMismatch(f"mask {mask:#x} does not fit in {size} elements")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "sort_key", (mask.bit_count(), mask))

    @staticmethod
    def from_iterable(size: int, items: Iterable[int]) -> "ElementSet":
        mask = 0
        for e in items:
            if not 0 <= e < size:
                raise SizeMismatch(f"element {e} outside [0, {size})")
            mask |= 1 << e
        return ElementSet(size, mask)

    @staticmethod
    def full(size: int) -> "ElementSet":
        return ElementSet(size, (1 << size) - 1)

    def members(self) -> tuple[int, ...]:
        return tuple(e for e in range(self.size) if self.mask >> e & 1)

    def complement(self) -> "ElementSet":
        return ElementSet(self.size, ~self.mask & (1 << self.size) - 1)

    def with_element(self, e: int) -> "ElementSet":
        if not 0 <= e < self.size:
            raise SizeMismatch(f"element {e} outside [0, {self.size})")
        return ElementSet(self.size, self.mask | 1 << e)

    def isdisjoint(self, other: "ElementSet") -> bool:
        return self.mask & other.mask == 0

    def issubset(self, other: "ElementSet") -> bool:
        return self.mask & ~other.mask == 0

    def __contains__(self, e: int) -> bool:
        return 0 <= e < self.size and self.mask >> e & 1 == 1

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


def _is_closed(lattice: FiniteLattice, subset: ElementSet, masks: _Masks, table: _Table) -> bool:
    """Nonempty, closed under one side's principal sets and its operation."""
    _require_sized(lattice, subset)
    if subset.mask == 0:
        return False
    members = subset.members()
    if any(masks[x] & ~subset.mask for x in members):
        return False
    return all(table[x][y] in subset for x in members for y in members)


def is_ideal(lattice: FiniteLattice, subset: ElementSet) -> bool:
    """Nonempty, downward closed, and closed under binary join."""
    return _is_closed(lattice, subset, lattice.down_masks, lattice.join)


def is_filter(lattice: FiniteLattice, subset: ElementSet) -> bool:
    """Nonempty, upward closed, and closed under binary meet."""
    return _is_closed(lattice, subset, lattice.up_masks, lattice.meet)


def enumerate_ideals(lattice: FiniteLattice) -> list[ElementSet]:
    """All ideals, sorted by (size, bitmask), the improper one included.

    Each ideal of a finite lattice is the down-set of its greatest
    element, so the principal down-sets are already all of them.
    """
    n = lattice.size
    return sorted(ElementSet(n, lattice.down_masks[a]) for a in range(n))


def enumerate_filters(lattice: FiniteLattice) -> list[ElementSet]:
    """All filters, sorted by (size, bitmask); dual to ideals."""
    n = lattice.size
    return sorted(ElementSet(n, lattice.up_masks[a]) for a in range(n))


def _is_prime(lattice: FiniteLattice, subset: ElementSet, other: _Table) -> bool:
    """Proper, with the complement closed under the other side's operation."""
    if subset.mask == (1 << lattice.size) - 1:
        return False
    outside = subset.complement().members()
    return all(other[x][y] not in subset for x in outside for y in outside)


def is_prime_ideal(lattice: FiniteLattice, ideal: ElementSet) -> bool:
    """Proper, and x∧y inside implies x or y inside.

    Equivalently the complement is closed under meet, which is the shape
    the two-block congruence construction needs.
    """
    if not is_ideal(lattice, ideal):
        raise NotAnIdeal(f"{ideal} is not an ideal")
    return _is_prime(lattice, ideal, lattice.meet)


def is_prime_filter(lattice: FiniteLattice, filt: ElementSet) -> bool:
    """Proper, and x∨y inside implies x or y inside."""
    if not is_filter(lattice, filt):
        raise NotAFilter(f"{filt} is not a filter")
    return _is_prime(lattice, filt, lattice.join)


def is_maximal_ideal(lattice: FiniteLattice, ideal: ElementSet) -> bool:
    """Proper and not strictly contained in another proper ideal.

    The ideal is the down-set of its greatest element g, and ↓g ⊊ ↓h
    exactly when g < h, so it is maximal iff g is a coatom: the up-set
    of g is {g, top}.
    """
    if not is_ideal(lattice, ideal):
        raise NotAnIdeal(f"{ideal} is not an ideal")
    g = next(x for x in ideal if lattice.down_masks[x] == ideal.mask)
    return lattice.up_masks[g].bit_count() == 2


def is_maximal_filter(lattice: FiniteLattice, filt: ElementSet) -> bool:
    """Proper and not strictly contained in another proper filter.

    Dually, the filter is the up-set of its least element, which must
    be an atom.
    """
    if not is_filter(lattice, filt):
        raise NotAFilter(f"{filt} is not a filter")
    a = next(x for x in filt if lattice.up_masks[x] == filt.mask)
    return lattice.down_masks[a].bit_count() == 2


def _maximal_and_prime(lattice: FiniteLattice) -> tuple[tuple[list[ElementSet], ...], ...]:
    """(maximal, prime) sets of the ideals, then of the filters, in enumeration order.

    The maximal ideals are ↓c for the coatoms c and the maximal filters
    ↑a for the atoms a.  Principal sets need no re-validation before
    the primality test.
    """
    n = lattice.size
    sides = (
        (enumerate_ideals, lattice.down_masks, lattice.up_masks, lattice.meet),
        (enumerate_filters, lattice.up_masks, lattice.down_masks, lattice.join),
    )
    return tuple(
        (
            sorted(ElementSet(n, masks[g]) for g in range(n) if other_masks[g].bit_count() == 2),
            [s for s in principal(lattice) if _is_prime(lattice, s, other)],
        )
        for principal, masks, other_masks, other in sides
    )


def ideal_generated_by(lattice: FiniteLattice, subset: ElementSet | Iterable[int]) -> ElementSet:
    """Least ideal containing the set: join-close, down-close, repeat."""
    return _generated(lattice, subset, lattice.join, lattice.down_masks)


def filter_generated_by(lattice: FiniteLattice, subset: ElementSet | Iterable[int]) -> ElementSet:
    """Least filter containing the set: meet-close, up-close, repeat."""
    return _generated(lattice, subset, lattice.meet, lattice.up_masks)


def _generated(
    lattice: FiniteLattice,
    subset: ElementSet | Iterable[int],
    table: _Table,
    closure_masks: _Masks,
) -> ElementSet:
    n = lattice.size
    if isinstance(subset, ElementSet):
        _require_sized(lattice, subset)
        mask = subset.mask
    else:
        mask = ElementSet.from_iterable(n, subset).mask
    if mask == 0:
        raise EmptySet("generating set is empty")
    while True:
        new = mask
        members = [e for e in range(n) if mask >> e & 1]
        for x in members:
            new |= closure_masks[x]
            for y in members:
                new |= 1 << table[x][y]
        if new == mask:
            return ElementSet(n, mask)
        mask = new


def _annihilator(lattice: FiniteLattice, a: int, table: _Table, bound: int) -> ElementSet:
    if not 0 <= a < lattice.size:
        raise SizeMismatch(f"element {a} outside [0, {lattice.size})")
    row = table[a]
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

    Compatibility is re-verified before returning; primality is exactly
    what makes the complement meet-closed and hence the partition
    compatible.
    """
    if not is_prime_ideal(lattice, ideal):
        raise NotPrime(f"{ideal} is not a prime ideal")
    labels = [0 if e in ideal else 1 for e in range(lattice.size)]
    partition = Partition.from_labels(labels)
    if not is_congruence(lattice, partition):
        raise NotACongruence("two-block partition failed the compatibility scan")
    return Congruence(lattice, partition)
