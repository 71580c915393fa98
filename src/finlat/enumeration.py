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

A fourth prune runs at each leaf of the placement tree: down-twins
(elements with the same strict down-set) that are adjacent must be
ordered by the key (|up-set|, sorted down-set sizes of the up-set's
members).  Equal strict masks occur only inside one equal-size block,
and there they are adjacent, so the argument above holds with each
block sorted by (strict mask, key) instead of strict mask alone: the
key is an isomorphism invariant, so relabelling later blocks changes no
key already sorted.  The key needs the up-sets, so they are carried
through the recursion: placing an element sets its bit in the up-set of
each element below it, and taking it back clears the bit.  A twin pair
is recorded as it is placed, since k is a twin of k - 1 exactly when
their strict masks are equal.  The last free element is the exception:
its candidates are judged before its bit is set anywhere.  A recorded
pair's verdict depends on the candidate only through two of its bits,
and on its size when the twins' up-sets tie, so each leaf parent turns
its pairs into three masks of out-of-order pairs, and a candidate costs
three mask tests; only the tied pairs run the list comparison (1,544 of
the 47,533 leaves at size 10).  A survivor sets its bit and copies the
up-sets out.  Only survivors leave the recursion, with their up-sets,
ready for the canonical form: 7,848 over sizes 1 to 10, 6,402 of the
47,533 placements at size 10 (93,981 with the size prune alone), to find
5,994 classes.

The classes are rebuilt from their canonical forms by
``lattice_from_canonical``, which hands each form's body, the order's
0/1 text, to the order checker that every construction runs; the meet
and join tables are left to their first read, so counting or writing
out the classes derives none.

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
    MAX_SIZE,
    FiniteLattice,
    LatticeError,
    _bits,
    _canonical_from_up_masks,
    format_latt,
    lattice_from_canonical,
)
from .properties import PropertyReport, _Facts, _Result, is_d_lattice_definition


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
    if type(n) is not int:  # bool is a type of its own here
        raise ValueError(f"size {n!r} is not an integer")
    if not 1 <= n <= MAX_SIZE:
        raise SizeOutOfRange(f"size {n} outside 1..{MAX_SIZE}")


def _placements(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The surviving placements of n elements as (down-masks, up-masks).

    Elements run from bottom 0 to top n-1, and down[k] holds bit j iff
    j <= k, up[j] bit k likewise.  Masks only ever reference earlier
    indices, the element count per mask is non-decreasing, equal counts
    have non-decreasing strict masks (``down[k]`` without bit k), every
    pair of placed elements has a greatest common lower bound, and
    adjacent down-twins are in key order (``_twins_in_order``).

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
    top = 1 << n - 1
    up = [1 << i | top for i in range(n)]
    if n <= 2:
        yield tuple(down), tuple(up)
        return
    yield from _place(down, up, 1, [1], ())


def _place(
    down: list[int], up: list[int], k: int, downsets: list[int], twins: tuple[int, ...]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Place elements k..n-2 of ``_placements``, yielding each survivor.

    Placing k sets bit k in the up-mask of every element below it and
    clears it again before the next candidate, so ``up`` is the
    transpose of ``down`` over the placed elements.  k is a down-twin of
    k - 1 exactly when its strict mask equals the previous one;
    ``twins`` lists the lower twin j of each such adjacent pair
    (j, j + 1) placed so far.  The last free element, k = n-2, is placed
    by ``_leaves``.

    A module-level function, not a closure: a recursive closure refers
    to itself through its cell and is left for the cycle collector.
    """
    previous = down[k - 1] & ~(1 << (k - 1))
    least = previous.bit_count()
    candidates = [
        s for s in downsets if (size := s.bit_count()) > least or size == least and s >= previous
    ]
    if k == len(down) - 2:
        yield from _leaves(down, up, candidates, twins)
        return
    bit = 1 << k
    for strict in candidates:
        down[k] = strict | bit
        below = _bits(strict)
        for i in below:
            up[i] |= bit
        kept = [d for d in downsets if (m := d & strict) & ~down[m.bit_length() - 1] == 0]
        holding_k = [d | bit for d in downsets if d & strict == strict]
        placed = twins + (k - 1,) if strict == previous else twins
        yield from _place(down, up, k + 1, kept + holding_k, placed)
        for i in below:
            up[i] ^= bit


def _leaves(
    down: list[int], up: list[int], candidates: list[int], twins: tuple[int, ...]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Place the last free element k = n-2 above each candidate strict mask.

    The twin order is checked before bit k is set anywhere, so only a
    survivor touches ``up``: it sets the bits, is copied out and clears
    them.  The verdict of a recorded pair (j, j + 1) depends on a
    candidate ``strict`` only through its bits j and j + 1, and, when
    the two up-sets tie in size once k is added, on ``|strict|``.  So
    the verdicts are computed once per call, as masks over j:

    - ``same``: out of order when ``strict`` holds both twins or
      neither, since k then joins both up-sets or neither, at the same
      place in index order (``_twins_in_order`` with ``strict`` 0);
    - ``low``: out of order when ``strict`` holds j only, so that the
      up-set of j outgrows that of j + 1;
    - ``high``: likewise when ``strict`` holds j + 1 only.

    A candidate costs three mask tests; the pairs whose up-sets tie in
    size once k joins one of them (``low_tie``, ``high_tie``) still run
    ``_twins_in_order`` with the candidate.  The pair (k - 1, k) that a
    candidate equal to the previous strict mask would record needs no
    check: both up-sets are {twin, top}.
    """
    k = len(down) - 2
    bit = 1 << k
    same = low = high = low_tie = high_tie = 0
    for j in twins:
        gap = up[j].bit_count() - up[j + 1].bit_count()
        same |= (gap > 0 or gap == 0 and not _twins_in_order(down, up, (j,), 0)) << j
        low |= (gap >= 0) << j
        low_tie |= (gap == -1) << j
        high |= (gap > 1) << j
        high_tie |= (gap == 1) << j
    for strict in candidates:
        shifted = strict >> 1
        only_low, only_high = strict & ~shifted, shifted & ~strict
        if same & ~(strict ^ shifted) or low & only_low or high & only_high:
            continue
        down[k] = strict | bit
        tied = low_tie & only_low | high_tie & only_high
        if tied and not _twins_in_order(down, up, _bits(tied), strict):
            continue
        below = _bits(strict)
        for i in below:
            up[i] |= bit
        yield tuple(down), tuple(up)
        for i in below:
            up[i] ^= bit


def _twins_in_order(
    down: Sequence[int], up: Sequence[int], twins: Sequence[int], strict: int
) -> bool:
    """Whether each listed pair of down-twins (j, j + 1) is in key order.

    The key of e is (|up-set of e|, the down-set sizes of its members
    in index order).  A placement lists elements by down-set size, so
    the sizes read in index order are already sorted.  Twins are
    incomparable and equally large, so each list of sizes leaves out
    the twin itself, the lowest member of its up-set; the lists are
    built only when both twins lie below equally many elements.

    ``up`` lacks the bit of the last free element k = n-2, which sits
    above ``strict``: bit k is counted in the up-set of each member of
    ``strict`` without being set.
    """
    k = len(down) - 2
    for j in twins:
        first = up[j] | (strict >> j & 1) << k
        second = up[j + 1] | (strict >> j + 1 & 1) << k
        if first.bit_count() != second.bit_count():
            if first.bit_count() > second.bit_count():
                return False
        elif [down[i].bit_count() for i in _bits(first)[1:]] > [
            down[i].bit_count() for i in _bits(second)[1:]
        ]:
            return False
    return True


def _canonical_forms(n: int) -> tuple[bytes, ...]:
    """Sorted canonical forms of all isomorphism classes of size n."""
    return tuple(sorted({_canonical_from_up_masks(n, up, down) for down, up in _placements(n)}))


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
