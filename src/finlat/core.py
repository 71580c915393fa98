"""Finite bounded lattices as explicit order and operation tables.

Elements of a lattice of size n are the dense integers 0..n-1.  The
partial order is an explicit boolean matrix, validated at construction.
Every order, whether given as a matrix, as LATT text or as a canonical
form, is first written as its n*n bytes of ``0`` and ``1`` and checked
from those bytes by one checker, so the three routes give the same
lattice or the same error.  Binary meet and join tables are derived on
their first read and kept, so every algorithm layered on top is a table
lookup, and a lattice whose tables are never read (a class that
enumeration rebuilds and only counts or writes out) never pays for
them.  Bottom and top are discovered by validation, not fixed by index:
input files may label elements freely, while :func:`canonical_form`
renumbers so that bottom is 0 and top is n-1.

Orders of at most ``MAX_SIZE`` elements, the enumerated range, share
equal rows across lattices.  The caches ``_row``, ``_mask``, ``_bits``
and ``_row_text`` have no bound of their own: a key of at most
``MAX_SIZE`` elements takes at most 2**(MAX_SIZE + 1) values.  The meet
and join rows take far more, so their intern ``_shared`` is cleared at
a capacity.  Longer orders are read past the caches, so nothing they
hand in outlives them.  Every element argument is checked by
``_element``: a value that is not an ``int`` (a bool is not one) raises
:class:`ValueError`, one outside 0..n-1 :class:`SizeMismatch`.

All values are immutable and safe to share across threads; two threads
that read a lattice's tables first at the same time may both derive
them, and both get equal tables.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import cache, reduce
from operator import and_, itemgetter, or_, xor
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .congruences import Congruence


class LatticeError(Exception):
    """Base class of the package's errors about lattices and their parts.

    A failed check on an order, a lattice, a set of elements, a
    congruence, a size, a search predicate or a LATT file raises a
    subclass, and the CLI maps each to exit code 2.  Malformed arguments
    raise :class:`ValueError` instead: an element, mask or size argument
    that is not an ``int`` (a bool is not one), a ``standard_lattice``
    size parameter below 1, a ``relabel`` argument that is not a
    permutation of ``int`` elements, a malformed
    ``lattice_from_canonical`` form, an empty or non-square
    ``FiniteLattice`` matrix or one with a ``str`` or ``bytes`` cell or
    row, and ``Partition`` blocks that overlap or miss an element or
    labels that are not integers or not normalized.  An ``int`` element
    or mask out of range raises :class:`SizeMismatch`, and an ``int``
    size out of range ``SizeOutOfRange``.
    """


class NotAPartialOrder(LatticeError):
    """The order matrix violates reflexivity, antisymmetry or transitivity."""


class NotALattice(LatticeError):
    """Some pair of elements has no unique meet or join."""


class NotBounded(LatticeError):
    """The order has no unique least or greatest element."""


class UnknownName(LatticeError):
    """Requested catalog lattice does not exist."""


class NotACongruence(LatticeError):
    """A partition is not compatible with meet and join."""


class OwnerMismatch(LatticeError):
    """Operands belong to two different lattices."""


class SizeMismatch(LatticeError):
    """A partition, element set, element or mask does not fit the lattice's size."""


class EmptySet(LatticeError):
    """An operation that needs a nonempty set of elements got an empty one."""


class ParseError(LatticeError):
    """Malformed LATT input.  Carries the 1-based offending line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(message)
        self.line = line


def _element(value: object, size: int, what: str = "element") -> int:
    """``value``, checked as one of 0..size-1.

    A value that is not an ``int`` (a bool is not one) raises
    :class:`ValueError` before it can index anything, and one out of
    range :class:`SizeMismatch`.  A mask of n elements is checked as
    one of the 2**n subsets.
    """
    if type(value) is not int:
        raise ValueError(f"{what} {value!r} is not an integer")
    if not 0 <= value < size:
        raise SizeMismatch(f"{what} {value} outside [0, {size})")
    return value


@dataclass(frozen=True, slots=True)
class FiniteLattice:
    """A bounded lattice on elements 0..size-1 with its operation tables.

    Constructed from the order matrix alone: ``FiniteLattice(leq)``
    derives every other field from it and raises
    :class:`NotAPartialOrder`, :class:`NotBounded` or
    :class:`NotALattice` as soon as the corresponding stage fails, so
    no instance holds tables that disagree with its order.
    ``__post_init__`` checks only that the matrix is square and that no
    cell or row is a ``str`` or ``bytes`` (``bool("0")`` is True, and a
    ``bytes`` row's cells are its digits' codes, so text would be
    misread), then writes it as n*n bytes of ``0`` and ``1``, one
    ``bool()`` per cell, and hands them to ``_check_order``, the one
    checker that :func:`lattice_from_canonical` and :func:`parse_latt`
    call too.  It reads the ``leq`` rows and both masks off those bytes
    and runs the stages, each one pass over the whole order: reflexivity
    with antisymmetry (each ``up[i] & down[i]`` is bit i alone), then
    the meet test, one set-containment test that every
    ``down[i] & down[j]`` is some ``down[m]``.  On a reflexive
    antisymmetric relation that test proves transitivity: for j <= i,
    the set ``down[i] & down[j]`` is some ``down[m]``; it holds j, so
    j <= m, and lies inside ``down[j]``, so m <= j; thus m = j and
    ``down[j]`` lies inside ``down[i]``.  So when it passes only the
    bounds are left, counted as full masks.
    When it fails, the transitivity pass (the up-sets above each element
    join to its own) runs, then the bounds, then
    :func:`_meet_join_tables`, which names the first pair with no meet
    or join: an order fails at the first of the stages reflexivity and
    antisymmetry, transitivity, bounds, meets and joins.  Only a failed
    pass rescans element by element, so the error names the same first
    failure, with the same type and message, as a full scan.  ``meet``
    and ``join`` are built together by :func:`_meet_join_tables` on the
    first read of either.

    The fields are slots: an instance has no ``__dict__`` (96 bytes on
    CPython 3.11), and every assignment raises.  ``_check_order`` fills
    the order's fields, and ``__getattr__``, called only while a slot is
    empty, fills the two tables, both with ``object.__setattr__``.

    ``leq[i][j]`` is the bool True iff i <= j, that is, iff the given
    cell is true.  ``down_masks[i]`` has bit j set iff j <= i,
    ``up_masks[i]`` has bit j set iff i <= j; they exist only to make
    subset arithmetic cheap.  The rows of ``meet`` and ``join`` are
    immutable tuples.  On lattices of at most ``MAX_SIZE`` elements the
    ``leq``, ``meet`` and ``join`` rows are shared with equal rows of
    other lattices, so holding many small lattices costs little more
    than their distinct rows.  Equality and hashing read every field,
    the tables included.
    """

    size: int = field(init=False)
    leq: tuple[tuple[bool, ...], ...]
    meet: tuple[tuple[int, ...], ...] = field(init=False)
    join: tuple[tuple[int, ...], ...] = field(init=False)
    bottom: int = field(init=False)
    top: int = field(init=False)
    down_masks: tuple[int, ...] = field(init=False)
    up_masks: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        matrix = self.leq
        n = len(matrix)
        if n < 1 or any(map(n.__ne__, map(len, matrix))):
            raise ValueError(_NOT_SQUARE)
        kinds = set(map(type, matrix)) | set(map(type, itertools.chain.from_iterable(matrix)))
        if any(issubclass(kind, (str, bytes)) for kind in kinds):
            # bool("0") is True, so a text cell would be read as a 1, and
            # the cells of a bytes row are the nonzero codes of its digits
            for k, cell in enumerate(itertools.chain.from_iterable(matrix)):
                if isinstance(cell, (str, bytes)):
                    where, kind = (k // n, k % n), type(cell).__name__
                    raise ValueError(f"order matrix cell {where} is {kind}, not bool or int")
            i = next(i for i, row in enumerate(matrix) if isinstance(row, bytes))
            raise ValueError(f"order matrix row {i} is bytes, not a row of bool or int cells")
        cells = bytes(map(bool, itertools.chain.from_iterable(matrix)))
        _check_order(self, n, cells.translate(_DIGITS))

    def __getattr__(self, name: str) -> tuple[tuple[int, ...], ...]:
        # called only for empty slots and unknown names: the tables before their first read
        if name not in ("meet", "join"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        meet, join = _meet_join_tables(self.down_masks, self.up_masks)
        object.__setattr__(self, "meet", meet)
        object.__setattr__(self, "join", join)
        return meet if name == "meet" else join

    def elements(self) -> range:
        return range(self.size)

    def __repr__(self) -> str:
        return f"FiniteLattice(size={self.size}, bottom={self.bottom}, top={self.top})"


_NOT_SQUARE = "order matrix must be square with n >= 1"
_DIGITS = bytes.maketrans(b"\0\1", b"01")  # a cell's bool as its order-text byte


def _check_order(lattice: FiniteLattice, n: int, body: bytes) -> None:
    """Validate the order written as ``body``, and fill ``lattice``'s fields.

    ``body`` is n*n bytes, each ``0`` or ``1``: row i is
    ``body[i*n : (i+1)*n]``, and byte j of it is 1 iff i <= j.  It is the
    one form every order is checked from.  The ``leq`` rows and up-set
    masks are read from the n row strings, and the down-set masks from
    the n column strings ``body[j::n]``, so the three views cannot
    disagree.  For orders of at most ``MAX_SIZE`` elements they come
    from the caches ``_row`` and ``_mask``, so equal rows of different
    lattices are one tuple.  Raises
    :class:`NotAPartialOrder`, :class:`NotBounded` or
    :class:`NotALattice` at the first failing stage, as described on
    :class:`FiniteLattice`, and fills the fields only when every stage
    passes.
    """
    row, mask = (_row, _mask) if n <= MAX_SIZE else (_row.__wrapped__, _mask.__wrapped__)
    rows = [body[i : i + n] for i in range(0, n * n, n)]
    leq = tuple(map(row, rows))
    up = tuple(map(mask, rows))
    down = tuple(mask(body[j::n]) for j in range(n))
    bits = [1 << j for j in range(n)]
    # each stage is one pass over the whole order; only a failed pass
    # rescans element by element, to name the first failure
    if list(map(and_, up, down)) != bits:
        for i in range(n):
            if not up[i] >> i & 1:
                raise NotAPartialOrder(f"reflexivity fails at {i}")
            both = (up[i] & down[i]) >> (i + 1)
            if both:
                j = i + (both & -both).bit_length()
                raise NotAPartialOrder(f"antisymmetry fails at ({i}, {j})")
    # every pair has a meet iff each down[x] & down[y] is some element's
    # down-set; a bounded finite meet-semilattice is a lattice, so joins
    # exist.  Passed, it also proves transitivity (see FiniteLattice), so
    # only a failed test runs the transitivity pass
    has_meets = set(down).issuperset(itertools.starmap(and_, itertools.combinations(down, 2)))
    if not has_meets:
        # transitive iff the up-sets of the elements above each i (i
        # among them, by reflexivity) join to up[i]
        above = map(itertools.compress, itertools.repeat(up), leq)
        if tuple(map(reduce, itertools.repeat(or_), above)) != up:
            for i in range(n):
                for j in itertools.compress(range(n), leq[i]):
                    if up[j] & ~up[i]:
                        k = (up[j] & ~up[i]).bit_length() - 1
                        raise NotAPartialOrder(f"transitivity fails at ({i}, {j}, {k})")
    full = (1 << n) - 1
    if up.count(full) != 1 or down.count(full) != 1:
        raise NotBounded("order has no unique bottom or top element")
    if not has_meets:
        _meet_join_tables(down, up)  # raises at the first failing pair
    set_field = object.__setattr__  # the fields are frozen slots
    set_field(lattice, "size", n)
    set_field(lattice, "leq", leq)
    set_field(lattice, "bottom", up.index(full))
    set_field(lattice, "top", down.index(full))
    set_field(lattice, "down_masks", down)
    set_field(lattice, "up_masks", up)


@dataclass(frozen=True)
class LatticeHomomorphism:
    """A map between lattices preserving meet, join, bottom and top."""

    source: FiniteLattice
    target: FiniteLattice
    map: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.map[x]


def is_homomorphism(hom: LatticeHomomorphism) -> bool:
    """Full-table check of the homomorphism laws, bounds included.

    A map of the wrong length, or with an entry that is not an ``int``
    (a bool is not one) of the target, is no homomorphism.
    """
    src, dst, f = hom.source, hom.target, hom.map
    if len(f) != src.size or any(type(v) is not int or not 0 <= v < dst.size for v in f):
        return False
    if f[src.bottom] != dst.bottom or f[src.top] != dst.top:
        return False
    for x in range(src.size):
        for y in range(src.size):
            if f[src.meet[x][y]] != dst.meet[f[x]][f[y]]:
                return False
            if f[src.join[x][y]] != dst.join[f[x]][f[y]]:
                return False
    return True


def is_surjective(hom: LatticeHomomorphism) -> bool:
    return len(set(hom.map)) == hom.target.size


def _meet_join_tables(
    down: Sequence[int], up: Sequence[int]
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Meet and join tables of a bounded order, read off its masks.

    The common lower bounds of x and y are ``down[x] & down[y]``, and
    their meet is the element whose own down-set is exactly that set;
    down-sets are distinct by antisymmetry, so a mask-to-element lookup
    finds it or shows that there is none.  Joins are read the same way
    from the up-sets.  A comparable pair needs no lookup: the lower one
    is the meet and the upper one the join.  Pairs are visited with
    y > x in row-major order, which is where a missing bound is first
    met in a full row-major scan, since the diagonal never fails and the
    tables are symmetric.

    Every row is an immutable tuple.  Rows of at most ``MAX_SIZE``
    elements are shared with equal rows of other lattices, through the
    intern ``_shared``; longer ones are kept only by their lattice.
    """
    n = len(down)
    meet_of = {mask: e for e, mask in enumerate(down)}.get
    join_of = {mask: e for e, mask in enumerate(up)}.get
    meet = [[x] * n for x in range(n)]
    join = [[x] * n for x in range(n)]
    for x in range(n):
        below, above, meet_row, join_row = down[x], up[x], meet[x], join[x]
        for y in range(x + 1, n):
            common = below & down[y]
            if common == below:
                m, j = x, y
            elif common == down[y]:
                m, j = y, x
            else:
                m = meet_of(common)
                if m is None:
                    raise NotALattice(f"elements ({x}, {y}) have no meet")
                j = join_of(above & up[y])
                if j is None:
                    raise NotALattice(f"elements ({x}, {y}) have no join")
            meet_row[y] = meet[y][x] = m
            join_row[y] = join[y][x] = j
    if n <= MAX_SIZE:
        return _shared(meet), _shared(join)
    return tuple(map(tuple, meet)), tuple(map(tuple, join))


# The largest size enumerated, and the longest row the caches take: rows
# repeat across the enumerated classes, and longer ones seldom repeat.
MAX_SIZE = 10
_SHARED_ROWS: dict[tuple[int, ...], tuple[int, ...]] = {}
_SHARED_CAPACITY = 1 << 12


def _shared(table: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """A meet or join table as tuples, each the first equal row interned.

    Equal rows of different lattices become one tuple object: the
    143,836 rows of the 7,372 classes of size at most 10 hold 10,645
    distinct values.  The intern is a plain dict, ``_SHARED_ROWS``, that
    maps a row to itself, with no bookkeeping per entry.  Rows of
    ``MAX_SIZE`` elements take too many values to keep them all, so it
    is emptied before a table would take it past ``_SHARED_CAPACITY``
    rows; a row dropped by the clear only stops being shared.  Only
    tables of at most ``MAX_SIZE`` elements are passed in.
    """
    if len(_SHARED_ROWS) + len(table) > _SHARED_CAPACITY:
        _SHARED_ROWS.clear()
    intern = _SHARED_ROWS.setdefault
    return tuple([intern(row, row) for row in map(tuple, table)])


def _fold(table: Sequence[Sequence[int]], mask: int) -> int:
    """The meet (or join) of the members of a nonempty mask, by its table.

    A plain bit loop from the lowest member, which is folded with itself
    first (both operations are idempotent); the cached ``_bits`` would
    fill with masks of large sets that are read once.
    """
    acc = (mask & -mask).bit_length() - 1
    while mask:
        low = mask & -mask
        acc = table[acc][low.bit_length() - 1]
        mask ^= low
    return acc


def from_leq_matrix(matrix: Sequence[Sequence[object]]) -> FiniteLattice:
    """Build a validated bounded lattice from an n-by-n order matrix.

    Raises :class:`NotAPartialOrder`, :class:`NotBounded` or
    :class:`NotALattice` as soon as the corresponding stage fails.
    """
    return FiniteLattice(matrix)


# ---------------------------------------------------------------------------
# Catalog of standard bounded lattices
# ---------------------------------------------------------------------------

CATALOG_NAMES = ("chain", "boolean", "n5", "m3")


@cache
def _build_standard(name: str, parameter: int | None) -> FiniteLattice:
    if name == "chain":
        k = parameter or 0
        return from_leq_matrix([[i <= j for j in range(k)] for i in range(k)])
    if name == "boolean":
        k = parameter or 0
        m = 1 << k
        return from_leq_matrix([[i & j == i for j in range(m)] for i in range(m)])
    if name == "n5":
        # 0 < 1 < 2 < 4 and 0 < 3 < 4; the pentagon.
        rows = [
            [1, 1, 1, 1, 1],
            [0, 1, 1, 0, 1],
            [0, 0, 1, 0, 1],
            [0, 0, 0, 1, 1],
            [0, 0, 0, 0, 1],
        ]
        return from_leq_matrix(rows)
    # m3: bottom 0, three pairwise-incomparable atoms 1, 2, 3, top 4.
    rows = [
        [1, 1, 1, 1, 1],
        [0, 1, 0, 0, 1],
        [0, 0, 1, 0, 1],
        [0, 0, 0, 1, 1],
        [0, 0, 0, 0, 1],
    ]
    return from_leq_matrix(rows)


def standard_lattice(name: str, parameter: int | None = None) -> FiniteLattice:
    """A named catalog lattice: chain(k), boolean(k), n5 or m3.

    k is an ``int`` >= 1; any other size, a bool included, raises
    :class:`ValueError`.  Repeated calls with the same arguments return
    the same object, so congruences computed against one call remain
    usable with another.
    """
    if name in ("n5", "m3"):
        if parameter is not None:
            raise ValueError(f"{name} takes no size parameter")
        return _build_standard(name, None)
    if name in ("chain", "boolean"):
        if parameter is None:
            raise ValueError(f"{name} needs a size parameter")
        if type(parameter) is not int:  # bool is a type of its own here
            raise ValueError(f"size parameter {parameter!r} is not an integer")
        if parameter < 1:
            raise ValueError("size parameter must be >= 1")
        return _build_standard(name, parameter)
    raise UnknownName(f"unknown catalog lattice {name!r}")


def product(first: FiniteLattice, second: FiniteLattice) -> FiniteLattice:
    """Direct product with componentwise order on pairs (x, y) -> x*|L2|+y."""
    n1, n2 = first.size, second.size
    leq1, leq2 = first.leq, second.leq
    rows = [
        [leq1[x1][x2] and leq2[y1][y2] for x2 in range(n1) for y2 in range(n2)]
        for x1 in range(n1)
        for y1 in range(n2)
    ]
    return from_leq_matrix(rows)


def dual(lattice: FiniteLattice) -> FiniteLattice:
    """The order-dual: transpose the order, swapping meet with join."""
    return from_leq_matrix(tuple(zip(*lattice.leq)))


# ---------------------------------------------------------------------------
# Canonical form (isomorph rejection)
# ---------------------------------------------------------------------------


@cache
def _bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of ``mask``, lowest first.

    Cached: enumeration up to size 10 asks about at most 2**10 distinct
    masks, about 256,000 times in all.  Only masks of orders of at most
    ``MAX_SIZE`` elements are passed in, which bounds the cache at
    2**MAX_SIZE keys; longer ones go to the uncached ``_bits.__wrapped__``,
    so their index tuples go with their lattice.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _refine_colors(n: int, up: Sequence[int], down: Sequence[int], groups: int) -> list[int]:
    """Iteratively refined element classes, invariant under isomorphism.

    The initial class of an element is the rank of its down-set size, so
    bottom always lands in the first class and top in the last; each
    round re-ranks by (old class, sorted classes strictly below, sorted
    classes strictly above) until no class splits.  Classes only ever
    split, and the relative order of old classes is preserved, so an
    element alone in its class keeps its rank whatever follows the
    class in its signature: it gets the signature ``(class,)`` and its
    neighbours are not read.

    Twins, elements with the same strict down-set and strict up-set,
    always share a class, and a class made of one twin group cannot
    split.  So the rounds stop as soon as there are as many classes as
    twin groups (``groups``, counted by the caller), without the round
    that would find no split; with no twins, that is a discrete
    colouring.  The strict neighbour lists are read off the masks once
    per call, not per round.
    """
    own = [1 << i for i in range(n)]
    bits = _bits if n <= MAX_SIZE else _bits.__wrapped__
    below = list(map(bits, map(xor, down, own)))
    above = list(map(bits, map(xor, up, own)))
    sizes = list(map(int.bit_count, down))
    rank = {v: r for r, v in enumerate(sorted(set(sizes)))}
    color = list(map(rank.__getitem__, sizes))
    classes = len(rank)
    while classes < groups:
        hue = color.__getitem__
        members = [0] * classes
        for c in color:
            members[c] += 1
        sigs = [
            (c,)
            if members[c] == 1
            else (c, tuple(sorted(map(hue, below[i]))), tuple(sorted(map(hue, above[i]))))
            for i, c in enumerate(color)
        ]
        order = {s: r for r, s in enumerate(sorted(set(sigs)))}
        if len(order) <= classes:  # no class split; they never merge
            break
        color = [order[s] for s in sigs]
        classes = len(order)
    return color


def _arrangements(groups: list[list[int]]) -> Iterator[tuple[int, ...]]:
    """Every sequence that takes each group's members in pop order.

    A module-level function, not a closure: a recursive closure refers
    to itself through its cell and is left for the cycle collector.
    """
    if not any(groups):
        yield ()
    for group in groups:
        if group:
            e = group.pop()
            for rest in _arrangements(groups):
                yield (e, *rest)
            group.append(e)


def _canonical_from_up_masks(n: int, up: Sequence[int], down: Sequence[int]) -> bytes:
    """Canonical encoding of an order given as up-set bitmask rows.

    Minimizes the row-major 0/1 matrix string over all relabelings that
    respect the refined classes (bottom forced to 0, top to n-1).  The
    class restriction prunes the permutation space without affecting
    canonicity because the classes are themselves isomorphism-invariant.
    Twins share their strict down-set and strict up-set, so exchanging
    two of them is an automorphism and leaves the relabelled matrix
    unchanged.  They are exactly the elements comparable with the same
    others, so their key is the one mask ``down[e] ^ up[e]`` (two such
    elements are incomparable, so nothing lies below one and above the
    other); the keys are derived once per call, their count is the
    refinement's stopping point, and they group the twins for the
    search, in which each
    arrangement of a class's twin groups (a multiset permutation) is
    tried once, with a group's twins filling its positions in one fixed
    order.  A labeling is compared as a tuple of permuted row tuples,
    which orders like the byte string because every row has length n;
    only the least one is encoded.  When every class is one twin group
    (7,065 of the 7,847 placements of sizes 2 to 10), the elements
    sorted by class are the one labeling, and no search runs.  ``down``
    holds the matching down-set rows, which the class refinement reads.

    The search is factorial in the size of a class whose members have
    no twins: the classes of ``boolean(k)`` are its ranks, so
    ``boolean(4)`` tries 4!·6!·4! labelings and ``boolean(5)`` about
    10^17, and does not return.
    """
    if n == 1:
        return b"1:1"
    keys = list(map(xor, down, up))
    groups = len(set(keys))
    color = _refine_colors(n, up, down, groups)
    text = _row_text if n <= MAX_SIZE else _row_text.__wrapped__
    rows = [text(n, mask) for mask in up]
    classes = max(color) + 1
    if groups == classes:
        pick = itemgetter(*sorted(range(n), key=color.__getitem__))
        best = tuple(map(pick, pick(rows)))
    else:
        twins: dict[int, list[int]] = {}
        for e, key in enumerate(keys):
            twins.setdefault(key, []).append(e)
        grouped: list[list[list[int]]] = [[] for _ in range(classes)]
        for group in twins.values():
            grouped[color[group[0]]].append(group)
        choices = [list(_arrangements(groups)) for groups in grouped]
        orders = (itertools.chain.from_iterable(chosen) for chosen in itertools.product(*choices))
        best = min(tuple(map(pick, pick(rows))) for pick in itertools.starmap(itemgetter, orders))
    return f"{n}:".encode() + b"".join(map(bytes, best))


@cache
def _row_text(n: int, mask: int) -> bytes:
    """One up-set mask as its order-matrix row, column 0 first.

    Cached: the 7,848 placements canonicalized at sizes up to 10 have
    76,599 rows, of which 308 are distinct.  Only rows of at most
    ``MAX_SIZE`` elements are passed in; longer ones are read by the
    uncached ``_row_text.__wrapped__``, as for ``_bits``.
    """
    return format(mask, f"0{n}b")[::-1].encode()


def canonical_form(lattice: FiniteLattice) -> bytes:
    """Canonical byte string: equal for two lattices iff they are isomorphic.

    The encoding renumbers elements so bottom is 0 and top is n-1 and is
    byte-identical across relabelings of the input.  The search behind
    it is factorial on wide colour classes with no twins (see
    :func:`_canonical_from_up_masks`): ``boolean(5)`` does not return.
    """
    return _canonical_from_up_masks(lattice.size, lattice.up_masks, lattice.down_masks)


@cache
def _row(encoded: bytes) -> tuple[bool, ...]:
    """One order-matrix row, read from its ``0``/``1`` bytes.

    Cached, so equal rows of different lattices are one tuple:
    the 7,372 classes of size at most 10 have 71,918 rows, of which 335
    are distinct.  Only rows of at most ``MAX_SIZE`` elements are passed
    in; longer ones are read by the uncached ``_row.__wrapped__``, as for
    ``_bits``.
    """
    return tuple(map((0x31).__eq__, encoded))


@cache
def _mask(encoded: bytes) -> int:
    """The mask of a row or column of an order's text: bit j is byte j.

    Cached like ``_row``, under the same length bound: the rows and
    columns of the 7,372 classes of size at most 10 hold 729 distinct
    strings.
    """
    return int(encoded[::-1], 2)


def lattice_from_canonical(form: bytes) -> FiniteLattice:
    """Rebuild the (validated) lattice encoded by a canonical form.

    The form is ``n:`` in decimal digits with no leading zero, followed
    by n*n bytes, each ``0`` or ``1``; anything else raises
    :class:`ValueError`, and so does ``0:``, the empty order.  The body
    is already the text the order checker reads, so it goes to
    ``_check_order`` as it is: the result equals ``FiniteLattice`` of the
    same rows, field by field, or raises the same error.
    """
    head, _, body = form.partition(b":")
    n = int(head) if head.isdigit() else -1
    if n < 0 or head != b"%d" % n or len(body) != n * n or body.translate(None, b"01"):
        raise ValueError("canonical form is not 'n:' followed by n*n bytes 0 or 1")
    if n < 1:
        raise ValueError(_NOT_SQUARE)
    lattice = object.__new__(FiniteLattice)
    _check_order(lattice, n, body)
    return lattice


def is_isomorphic(first: FiniteLattice, second: FiniteLattice) -> bool:
    """Whether the two lattices have equal canonical forms.

    As slow as :func:`canonical_form` on wide colour classes with no
    twins: on ``boolean(5)`` it does not return.
    """
    if first.size != second.size:
        return False
    return canonical_form(first) == canonical_form(second)


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------


def _blocks_compatible(lattice: FiniteLattice, block_of: Sequence[int]) -> bool:
    """Meet/join compatibility of a block labeling, by the definition.

    A partition is a congruence iff every member x of a block moves with
    the block's first member f under each translation u ↦ u∧z and
    u ↦ u∨z: f∧z and x∧z lie in one block, and so do f∨z and x∨z, for
    every z (Grätzer, *Lattice Theory: Foundation*, 2011); any two
    members then move together through f.  So each element's labels of
    x∧z and x∨z over all z are compared with its block's first member's,
    and the scan stops at the first member that differs.  O(n²) table
    reads, and no closure.
    """
    label = block_of.__getitem__
    moved_by_block: dict[int, tuple[int, ...]] = {}
    for block, meet_row, join_row in zip(block_of, lattice.meet, lattice.join):
        moved = (*map(label, meet_row), *map(label, join_row))
        if moved_by_block.setdefault(block, moved) != moved:
            return False
    return True


def _order_image(lattice: FiniteLattice, image: Sequence[int], k: int) -> FiniteLattice:
    """The image of the order under a map of the elements onto 0..k-1.

    f(x) <= f(y) whenever x <= y, and nothing else: a relabeling when
    the map is a permutation, and the block order of a quotient when it
    labels the blocks of a congruence.  The result is validated.
    """
    rows = [[False] * k for _ in range(k)]
    for x, row in enumerate(lattice.leq):
        target = rows[image[x]]
        for y in itertools.compress(range(lattice.size), row):
            target[image[y]] = True
    return from_leq_matrix(rows)


def quotient(
    lattice: FiniteLattice, congruence: "Congruence"
) -> tuple[FiniteLattice, LatticeHomomorphism]:
    """The quotient lattice of blocks plus the projection homomorphism.

    Block X <= block Y iff some x in X and y in Y satisfy x <= y, which
    for congruence blocks is a valid bounded-lattice order.  A partition
    that is not meet/join compatible (:func:`_blocks_compatible`) raises
    :class:`NotACongruence`.
    """
    if congruence.lattice is not lattice:
        raise OwnerMismatch("congruence belongs to a different lattice")
    block_of = congruence.partition.block_of
    if not _blocks_compatible(lattice, block_of):
        raise NotACongruence("partition is not meet/join compatible")
    image = _order_image(lattice, block_of, max(block_of) + 1)
    return image, LatticeHomomorphism(lattice, image, tuple(block_of))


# ---------------------------------------------------------------------------
# LATT v1 text format
# ---------------------------------------------------------------------------

_SIZE_LINE = re.compile(r"n=(0|[1-9][0-9]*)\Z")


def parse_latt(data: bytes | str) -> FiniteLattice:
    """Parse the bit-exact LATT v1 format.

    Any deviation (wrong header, bad size line, wrong row count or
    length, characters other than 0/1, missing trailing newline) raises
    :class:`ParseError` with the offending line.  A size with more
    digits than the count of the rows that follow is reported on line 2
    before it is converted to an ``int``, so a size line of any length
    fails fast.  The checked row lines, joined, are the order's text,
    which goes to the order checker that ``FiniteLattice`` runs; an
    order that fails there is reported as a :class:`ParseError` on line
    3 whose message is ``"<Type>: <message>"`` of the constructor's
    error.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            line = data[: exc.start].count(b"\n") + 1
            raise ParseError(line, "non-ASCII byte") from None
    else:
        text = data
    if not text:
        raise ParseError(1, "empty input, expected 'LATT 1' header")
    if "\r" in text:
        raise ParseError(text[: text.index("\r")].count("\n") + 1, "carriage return not allowed")
    if not text.endswith("\n"):
        raise ParseError(text.count("\n") + 1, "missing trailing newline")
    lines = text.split("\n")[:-1]
    if not lines or lines[0] != "LATT 1":
        raise ParseError(1, "expected 'LATT 1' header")
    if len(lines) < 2:
        raise ParseError(2, "missing size line 'n=<k>'")
    m = _SIZE_LINE.match(lines[1])
    if m is None:
        raise ParseError(2, "expected size line 'n=<k>'")
    digits, rows = m.group(1), len(lines) - 2
    if len(digits) > len(str(rows)):
        # n exceeds the row count without being converted, which int()
        # refuses past 4,300 digits
        raise ParseError(2, f"size has {len(digits)} digits, but {rows} matrix rows follow")
    n = int(digits)
    if n < 1:
        raise ParseError(2, "size must be >= 1")
    if rows < n:
        raise ParseError(len(lines) + 1, f"expected {n} matrix rows, found {rows}")
    if rows > n:
        raise ParseError(2 + n + 1, "trailing content after matrix")
    for i, line in enumerate(lines[2:], 3):
        if len(line) != n:
            raise ParseError(i, f"expected {n} characters, found {len(line)}")
        bad = line.lstrip("01")
        if bad:
            raise ParseError(i, f"invalid character {bad[0]!r}")
    lattice = object.__new__(FiniteLattice)
    try:
        _check_order(lattice, n, "".join(lines[2:]).encode())
    except LatticeError as exc:
        raise ParseError(3, f"{type(exc).__name__}: {exc}") from exc
    return lattice


def format_latt(lattice: FiniteLattice) -> str:
    """Serialize to LATT v1; ``parse_latt`` round-trips it exactly.

    Each row is written as its bools' bytes translated to ``0``/``1``.
    """
    rows = (bytes(row).translate(_DIGITS).decode() for row in lattice.leq)
    return "\n".join(["LATT 1", f"n={lattice.size}", *rows, ""])


def relabel(lattice: FiniteLattice, permutation: Sequence[int]) -> FiniteLattice:
    """The isomorphic copy where element x is renamed permutation[x].

    ``permutation`` holds the ``int`` elements 0..n-1 in some order;
    anything else (a float or bool that equals one, say) raises
    :class:`ValueError` before any entry is used.
    """
    if set(map(type, permutation)) - {int} or sorted(permutation) != list(range(lattice.size)):
        raise ValueError("not a permutation of the element set")
    return _order_image(lattice, permutation, lattice.size)
