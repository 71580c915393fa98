"""Isomorph-free generation of all bounded lattices up to size 10.

Elements are placed one at a time along a fixed linear extension
(bottom first, top last), choosing for each new element the down-set it
will sit above.  The candidates are the down-sets of the elements
already placed, kept as a list: placing k above S adds I | {k} for
every listed I that contains S.  Three prunes keep the tree small:

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
  meet-semilattice with a top is a lattice.  So a listed down-set is
  dropped from the list the first time it meets a placed element in a
  non-principal set, and never tested again: for i < k, the down-set
  of i meets T | {k} where it meets T, so no later T | {k} can repair
  it either.

A fourth prune runs on each finished placement, read from its
down-masks before they are transposed to up-masks for the canonical
form: down-twins (elements with the same strict down-set) that are
adjacent must be ordered by the key (|up-set|, sorted down-set sizes
of the up-set's members).  Equal strict masks occur only inside one
equal-size block, and there they are adjacent, so the argument above
holds with each block sorted by (strict mask, key) instead of strict
mask alone: the key is an isomorphism invariant, so relabelling later
blocks changes no key already sorted.  At size 10 this leaves 6,402 of
the 47,533 placements to transpose and canonicalize (93,981 with the
size prune alone) to find 5,994 classes.

Survivors are deduplicated by canonical form, which is also the
emission order.  Nothing is cached: each call enumerates afresh, and a
caller that reuses the classes keeps them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .core import (
    FiniteLattice,
    LatticeError,
    _bits,
    _canonical_from_up_masks,
    format_latt,
    lattice_from_canonical,
)
from .properties import PropertyReport, _Facts, _Result, is_d_lattice_definition

MAX_SIZE = 10


class SizeOutOfRange(LatticeError):
    """Requested size is outside 1..10."""


class UnknownPredicate(LatticeError):
    """Search predicate name is not in the registry."""


@dataclass(frozen=True)
class EnumerationStats(_Result):
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

    Element k's strict down-set is taken from ``downsets``, the
    nonempty down-sets of the elements placed before it that meet each
    of those elements in a principal down-set, so every listed set is
    admissible.  Placing k above S keeps the listed d whose d & S is
    principal and adds I | {k} for every listed I that contains S:
    those are the down-sets that hold k, since k is maximal among
    0..k, and they meet k in S | {k} and each earlier element as I
    does.  A set dropped stays dropped, since for i < k the down-set of
    i meets T | {k} where it meets T.
    """
    down = [0] * n
    down[0] = 1
    down[-1] = (1 << n) - 1
    if n <= 2:
        yield tuple(down)
        return

    def place(k: int, downsets: list[int]) -> Iterator[tuple[int, ...]]:
        previous = down[k - 1] & ~(1 << (k - 1))
        least = previous.bit_count()
        for strict in downsets:
            size = strict.bit_count()
            if size < least or size == least and strict < previous:
                continue
            down[k] = strict | 1 << k
            if k == n - 2:
                yield tuple(down)
                continue
            kept = [d for d in downsets if (d & strict) & ~down[(d & strict).bit_length() - 1] == 0]
            holding_k = [d | 1 << k for d in downsets if d & strict == strict]
            yield from place(k + 1, kept + holding_k)

    yield from place(1, [1])


def _twins_in_order(n: int, down: Sequence[int]) -> bool:
    """Whether every two adjacent down-twins are ordered by their key.

    Down-twins share their strict down-set; adjacent elements j and
    j + 1 are down-twins exactly when their down-masks differ in bits j
    and j + 1 only.  The key of e is (|up-set of e|, the sorted down-set
    sizes of its members), read from the down-masks: the up-set of e is
    the i >= e with bit e in down[i].  A placement lists elements by
    down-set size, so the sizes read in index order are already sorted.
    """
    for j in range(1, n - 2):
        if down[j] ^ down[j + 1] == 3 << j:
            first = [mask.bit_count() for mask in down[j:] if mask >> j & 1]
            second = [mask.bit_count() for mask in down[j + 1 :] if mask >> j + 1 & 1]
            if (len(first), first) > (len(second), second):
                return False
    return True


def _canonical_forms(n: int) -> tuple[bytes, ...]:
    """Sorted canonical forms of all isomorphism classes of size n.

    The down-twin prune reads the down-masks, so only its survivors are
    transposed to up-masks for the canonical form.
    """
    forms: set[bytes] = set()
    for down in _generate_down_masks(n):
        if not _twins_in_order(n, down):
            continue
        up = [0] * n
        for i, mask in enumerate(down):
            for j in _bits(mask):
                up[j] |= 1 << i
        forms.add(_canonical_from_up_masks(n, up, down))
    return tuple(sorted(forms))


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
        for total, lattice in enumerate(enumerate_lattices(n), 1):
            facts = _Facts(lattice)
            if facts.d_lattice:
                d_count += 1
                balanced_d += facts.unbalanced is None
                complemented_d += facts.complementless is None
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


SEARCH_PREDICATES: dict[str, Callable[[_Facts], bool]] = {
    "balanced-not-complemented-d": lambda facts: (
        facts.d_lattice and facts.complementless is not None and facts.unbalanced is None
    ),
    "complemented-not-balanced": lambda facts: (
        facts.complementless is None and facts.unbalanced is not None
    ),
    "dlattice-characterizations-disagree": lambda facts: (
        is_d_lattice_definition(facts.lattice) != facts.d_lattice
    ),
    "seven-conditions-split": lambda facts: facts.d_lattice and not facts.seven.all_equal(),
}


def search_counterexample(predicate: str, max_n: int) -> list[SearchWitness]:
    """Scan every lattice of size <= max_n for the named condition.

    All four registered predicates encode statements the verified
    theorems say are impossible, so nonempty output is a finding.  Each
    predicate reads the record of one lattice's facts, and the witness
    report reads the same record.
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
            facts = _Facts(lattice)
            if want(facts):
                witnesses.append(SearchWitness(lattice, facts.report()))
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
