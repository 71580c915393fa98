"""Isomorph-free generation of all bounded lattices up to size 10.

Elements are placed one at a time along a fixed linear extension
(bottom first, top last), choosing for each new element the down-set it
will sit above.  Three prunes keep the tree small:

- Candidate down-sets must be at least as large as the previous
  element's.  Sorting any lattice by down-set size is a linear
  extension.
- When the two down-sets are equally large, the new element's strict
  down-mask must be at least the previous element's, as integers.
  Elements of equal down-set size are pairwise incomparable, and their
  strict down-sets lie entirely in earlier size blocks, so sorting each
  equal-size block of a size-sorted labeling by strict mask, one block
  at a time from the bottom, changes no mask already sorted.  One such
  labeling therefore survives per isomorphism class.
- Every new pair of elements must already have a greatest common lower
  bound.  Later elements can never repair a missing meet, and a finite
  meet-semilattice with a top is a lattice.

A fourth prune runs on each finished placement, once its up-masks are
known, before the canonical form: down-twins (elements with the same
strict down-set) that are adjacent must be ordered by the key
(|up-set|, sorted down-set sizes of the up-set's members).  Equal
strict masks occur only inside one equal-size block, and there they
are adjacent, so the argument above holds with each block sorted by
(strict mask, key) instead of strict mask alone: the key is an
isomorphism invariant, so relabelling later blocks changes no key
already sorted.  At size 10 this leaves 6,402 of the 47,533
placements for the canonical form (93,981 with the size prune alone)
to find 5,994 classes.

Survivors are deduplicated by canonical form, which is also the
emission order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .congruences import is_balanced
from .core import (
    FiniteLattice,
    LatticeError,
    _bits,
    _canonical_from_up_masks,
    format_latt,
    lattice_from_canonical,
)
from .properties import (
    PropertyReport,
    classify,
    is_complemented,
    is_d_lattice,
    is_d_lattice_definition,
    is_d_lattice_maximal_prime,
    seven_conditions,
)

MAX_SIZE = 10


class SizeOutOfRange(LatticeError):
    """Requested size is outside 1..10."""


class UnknownPredicate(LatticeError):
    """Search predicate name is not in the registry."""


@dataclass(frozen=True)
class EnumerationStats:
    """Per-size census row.

    ``balanced_count`` and ``complemented_count`` are counts among the
    d-lattices of that size, so balanced iff complemented is directly
    checkable as balanced_count == complemented_count row by row.
    """

    size: int
    lattice_count: int
    d_lattice_count: int
    balanced_count: int
    complemented_count: int
    elapsed: float

    def to_dict(self) -> dict[str, object]:
        return {
            "balanced_count": self.balanced_count,
            "complemented_count": self.complemented_count,
            "d_lattice_count": self.d_lattice_count,
            "elapsed": self.elapsed,
            "lattice_count": self.lattice_count,
            "size": self.size,
        }


@dataclass(frozen=True)
class SearchWitness:
    """One lattice satisfying a search predicate, with its full report."""

    lattice: FiniteLattice
    report: PropertyReport


def _require_size(n: int) -> None:
    if not 1 <= n <= MAX_SIZE:
        raise SizeOutOfRange(f"size {n} outside 1..{MAX_SIZE}")


def _generate_down_masks(n: int) -> Iterator[tuple[int, ...]]:
    """All placements of n elements as down-set masks, bottom 0 to top n-1.

    down[k] holds bit j iff j <= k; masks only ever reference earlier
    indices, the element count per mask is non-decreasing, equal counts
    have non-decreasing strict masks (``down[k]`` without bit k), and
    every pair of placed elements has a greatest common lower bound.
    """
    if n == 1:
        yield (1,)
        return
    down = [0] * n
    down[0] = 1

    def place(k: int) -> Iterator[tuple[int, ...]]:
        if k == n - 1:
            down[k] = (1 << n) - 1
            yield tuple(down)
            return
        previous = down[k - 1] & ~(1 << (k - 1))
        least = previous.bit_count()
        for strict in range(1, 1 << k, 2):
            size = strict.bit_count()
            if size < least or size == least and strict < previous:
                continue
            rest = strict
            closed = True
            while rest:
                j = (rest & -rest).bit_length() - 1
                if down[j] & ~strict:
                    closed = False
                    break
                rest &= rest - 1
            if not closed:
                continue
            mine = strict | 1 << k
            meets_exist = True
            for j in range(k):
                common = down[j] & mine
                greatest = common.bit_length() - 1
                if common & ~down[greatest]:
                    meets_exist = False
                    break
            if not meets_exist:
                continue
            down[k] = mine
            yield from place(k + 1)
        return

    yield from place(1)


def _twins_in_order(n: int, up: Sequence[int], down: Sequence[int]) -> bool:
    """Whether every two adjacent down-twins are ordered by their key.

    Down-twins share their strict down-set; adjacent elements j and
    j + 1 are down-twins exactly when their down-masks differ in bits j
    and j + 1 only.  The key of e is (|up-set of e|, the sorted down-set
    sizes of its members); a placement lists elements by down-set size,
    so the sizes read in index order are already sorted.
    """
    sizes = [mask.bit_count() for mask in down]
    for j in range(1, n - 2):
        if down[j] ^ down[j + 1] == 3 << j:
            first, second = _bits(up[j]), _bits(up[j + 1])
            if (len(first), [sizes[x] for x in first]) > (len(second), [sizes[x] for x in second]):
                return False
    return True


_FORMS_CACHE: dict[int, tuple[bytes, ...]] = {}


def _canonical_forms(n: int) -> tuple[bytes, ...]:
    """Sorted canonical forms of all isomorphism classes of size n."""
    cached = _FORMS_CACHE.get(n)
    if cached is not None:
        return cached
    forms: set[bytes] = set()
    for down in _generate_down_masks(n):
        up = [0] * n
        for i, mask in enumerate(down):
            for j in _bits(mask):
                up[j] |= 1 << i
        if _twins_in_order(n, up, down):
            forms.add(_canonical_from_up_masks(n, up, down))
    result = tuple(sorted(forms))
    _FORMS_CACHE[n] = result
    return result


def enumerate_lattices(n: int) -> Iterator[FiniteLattice]:
    """One validated representative per isomorphism class, canonical order."""
    _require_size(n)
    for form in _canonical_forms(n):
        yield lattice_from_canonical(form)


def census(max_n: int) -> list[EnumerationStats]:
    """Counts per size up to max_n; see EnumerationStats for the columns."""
    _require_size(max_n)
    rows = []
    for n in range(1, max_n + 1):
        start = time.perf_counter()
        total = d_count = balanced_d = complemented_d = 0
        for lattice in enumerate_lattices(n):
            total += 1
            if not is_d_lattice(lattice):
                continue
            d_count += 1
            if is_balanced(lattice):
                balanced_d += 1
            if is_complemented(lattice):
                complemented_d += 1
        rows.append(
            EnumerationStats(
                size=n,
                lattice_count=total,
                d_lattice_count=d_count,
                balanced_count=balanced_d,
                complemented_count=complemented_d,
                elapsed=time.perf_counter() - start,
            )
        )
    return rows


def _want_balanced_not_complemented_d(lattice: FiniteLattice) -> bool:
    return (
        is_d_lattice(lattice)
        and is_balanced(lattice)
        and not is_complemented(lattice)
    )


def _want_complemented_not_balanced(lattice: FiniteLattice) -> bool:
    return is_complemented(lattice) and not is_balanced(lattice)


def _want_definition_mismatch(lattice: FiniteLattice) -> bool:
    return is_d_lattice_definition(lattice) != is_d_lattice_maximal_prime(lattice)


def _want_seven_split(lattice: FiniteLattice) -> bool:
    return is_d_lattice(lattice) and not seven_conditions(lattice).all_equal()


SEARCH_PREDICATES: dict[str, Callable[[FiniteLattice], bool]] = {
    "balanced-not-complemented-d": _want_balanced_not_complemented_d,
    "complemented-not-balanced": _want_complemented_not_balanced,
    "dlattice-characterizations-disagree": _want_definition_mismatch,
    "seven-conditions-split": _want_seven_split,
}


def search_counterexample(predicate: str, max_n: int) -> list[SearchWitness]:
    """Scan every lattice of size <= max_n for the named condition.

    All four registered predicates encode statements the verified
    theorems say are impossible, so nonempty output is a finding.
    """
    try:
        want = SEARCH_PREDICATES[predicate]
    except KeyError:
        known = ", ".join(sorted(SEARCH_PREDICATES))
        raise UnknownPredicate(f"unknown predicate {predicate!r} (known: {known})") from None
    _require_size(max_n)
    witnesses = []
    for n in range(1, max_n + 1):
        for lattice in enumerate_lattices(n):
            if want(lattice):
                witnesses.append(SearchWitness(lattice, classify(lattice)))
    return witnesses


def write_latt_files(n: int, directory: Path | str) -> list[Path]:
    """Persist every size-n representative as lat_<n>_<index>.latt.

    The size is checked before the directory is created.
    """
    _require_size(n)
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    written = []
    for index, lattice in enumerate(enumerate_lattices(n)):
        path = target / f"lat_{n}_{index}.latt"
        path.write_text(format_latt(lattice), encoding="ascii")
        written.append(path)
    return written
