"""Finite bounded lattices as explicit order and operation tables.

Elements of a lattice of size n are the dense integers 0..n-1.  The
partial order is an explicit boolean matrix; binary meet and join tables
are computed once at construction time, so every algorithm layered on
top is a table lookup.  Bottom and top are discovered by validation, not
fixed by index: input files may label elements freely, while
:func:`canonical_form` renumbers so that bottom is 0 and top is n-1.

All values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import itemgetter, or_
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .congruences import Congruence


class LatticeError(Exception):
    """Base class of the package's errors about lattices and their parts.

    A failed check on an order, a lattice, a set of elements, a
    congruence, a size, a search predicate or a LATT file raises a
    subclass, and the CLI maps each to exit code 2.  Malformed arguments
    raise :class:`ValueError` instead: a ``standard_lattice`` size
    parameter, a non-permutation given to ``relabel``, a malformed
    ``lattice_from_canonical`` form, an empty or non-square
    ``FiniteLattice`` matrix, and ``Partition`` blocks that overlap or
    miss an element or labels that are not normalized.
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
    """A partition or element set is sized for a different lattice."""


class EmptySet(LatticeError):
    """An operation that needs a nonempty set of elements got an empty one."""


class ParseError(LatticeError):
    """Malformed LATT input.  Carries the 1-based offending line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class FiniteLattice:
    """A bounded lattice on elements 0..size-1 with precomputed tables.

    Constructed from the order matrix alone: ``FiniteLattice(leq)``
    derives every other field from it and raises
    :class:`NotAPartialOrder`, :class:`NotBounded` or
    :class:`NotALattice` as soon as the corresponding stage fails, so
    no instance holds tables that disagree with its order.

    ``leq[i][j]`` is True iff i <= j.  ``down_masks[i]`` has bit j set
    iff j <= i, ``up_masks[i]`` has bit j set iff i <= j; they exist
    only to make subset arithmetic cheap.  The rows of ``meet`` and
    ``join`` are immutable tuples shared with equal rows of other
    lattices, so holding many small lattices costs little more than
    their distinct rows.
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
        if n < 1 or any(len(row) != n for row in matrix):
            raise ValueError("order matrix must be square with n >= 1")
        # a row that is already a tuple of bools is kept, so lattices rebuilt
        # from cached rows share them
        leq = tuple(
            row if type(row) is tuple and all(map(bool.__instancecheck__, row))
            else tuple(map(bool, row))
            for row in matrix
        )
        bits = [1 << j for j in range(n)]
        up = tuple(sum(itertools.compress(bits, row)) for row in leq)
        down = tuple(sum(itertools.compress(bits, column)) for column in zip(*leq))
        for i in range(n):
            if not up[i] >> i & 1:
                raise NotAPartialOrder(f"reflexivity fails at {i}")
            both = (up[i] & down[i]) >> (i + 1)
            if both:
                j = i + (both & -both).bit_length()
                raise NotAPartialOrder(f"antisymmetry fails at ({i}, {j})")
        for i in range(n):
            if reduce(or_, itertools.compress(up, leq[i])) == up[i]:
                continue
            for j in itertools.compress(range(n), leq[i]):
                if up[j] & ~up[i]:
                    k = (up[j] & ~up[i]).bit_length() - 1
                    raise NotAPartialOrder(f"transitivity fails at ({i}, {j}, {k})")
        full = (1 << n) - 1
        bottoms = [i for i in range(n) if up[i] == full]
        tops = [i for i in range(n) if down[i] == full]
        if len(bottoms) != 1 or len(tops) != 1:
            raise NotBounded("order has no unique bottom or top element")
        meet, join = _meet_join_tables(down, up)
        self.__dict__.update(
            size=n,
            leq=leq,
            meet=meet,
            join=join,
            bottom=bottoms[0],
            top=tops[0],
            down_masks=down,
            up_masks=up,
        )

    def elements(self) -> range:
        return range(self.size)

    def __repr__(self) -> str:
        return f"FiniteLattice(size={self.size}, bottom={self.bottom}, top={self.top})"


@dataclass(frozen=True)
class LatticeHomomorphism:
    """A map between lattices preserving meet, join, bottom and top."""

    source: FiniteLattice
    target: FiniteLattice
    map: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.map[x]


def is_homomorphism(hom: LatticeHomomorphism) -> bool:
    """Full-table check of the homomorphism laws, bounds included."""
    src, dst, f = hom.source, hom.target, hom.map
    if len(f) != src.size or any(not 0 <= v < dst.size for v in f):
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

    Every row is an immutable tuple that equal rows of other lattices
    share, through the bounded cache ``_shared``.
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
    return tuple(map(_shared, map(tuple, meet))), tuple(map(_shared, map(tuple, join)))


@lru_cache(maxsize=1 << 12)
def _shared(row: tuple[int, ...]) -> tuple[int, ...]:
    """The first meet or join row equal to ``row`` among the cached ones.

    Equal rows of different lattices become one tuple object: the
    143,836 rows of the 7,372 classes of size at most 10 hold 10,645
    distinct values.  An evicted row only stops being shared.
    """
    return row


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


@lru_cache(maxsize=None)
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

    Repeated calls with the same arguments return the same object, so
    congruences computed against one call remain usable with another.
    """
    if name in ("n5", "m3"):
        if parameter is not None:
            raise ValueError(f"{name} takes no size parameter")
        return _build_standard(name, None)
    if name in ("chain", "boolean"):
        if parameter is None:
            raise ValueError(f"{name} needs a size parameter")
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
    n = lattice.size
    return from_leq_matrix([[lattice.leq[j][i] for j in range(n)] for i in range(n)])


# ---------------------------------------------------------------------------
# Canonical form (isomorph rejection)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1 << 12)
def _bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of ``mask``, lowest first.

    Cached: enumeration up to size 10 asks about at most 2**10 distinct
    masks, about 256,000 times in all.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _refine_colors(n: int, up: Sequence[int], down: Sequence[int]) -> list[int]:
    """Iteratively refined element classes, invariant under isomorphism.

    The initial class of an element is the rank of its down-set size, so
    bottom always lands in the first class and top in the last; each
    round re-ranks by (old class, sorted classes strictly below, sorted
    classes strictly above) until no class splits.  Classes only ever
    split, and the relative order of old classes is preserved, so an
    element alone in its class keeps its rank whatever follows the
    class in its signature: it gets the signature ``(class,)`` and its
    neighbours are not read.  A discrete colouring is returned at once.
    The strict neighbour lists are read off the masks once per call,
    not per round.
    """
    below = [_bits(down[i] & ~(1 << i)) for i in range(n)]
    above = [_bits(up[i] & ~(1 << i)) for i in range(n)]
    sizes = [down[i].bit_count() for i in range(n)]
    rank = {v: r for r, v in enumerate(sorted(set(sizes)))}
    color = [rank[v] for v in sizes]
    classes = len(rank)
    while classes < n:
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


def _class_orders(
    members: list[int], up: Sequence[int], down: Sequence[int]
) -> list[tuple[int, ...]]:
    """Every order of one colour class, up to swapping twins.

    Twins share their strict down-set and strict up-set, so exchanging
    two of them is an automorphism and leaves the relabelled matrix
    unchanged.  Each arrangement of the twin groups (a multiset
    permutation) is therefore listed once, with the group's twins
    filling its positions in one fixed order.
    """
    twins: dict[tuple[int, int], list[int]] = {}
    for e in members:
        twins.setdefault((down[e] & ~(1 << e), up[e] & ~(1 << e)), []).append(e)

    return list(_arrangements(list(twins.values())))


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
    canonicity because the classes are themselves isomorphism-invariant;
    orders that differ only by swapping twins (see :func:`_class_orders`)
    give the same matrix, so each is tried once.  A labeling is compared
    as a tuple of permuted row tuples, which orders like the byte string
    because every row has length n; only the least one is encoded.  When
    every class has one member there is one labeling, and it is encoded
    directly.  ``down`` holds the matching down-set rows, which the
    class refinement reads.
    """
    if n == 1:
        return b"1:1"
    color = _refine_colors(n, up, down)
    rows = [_row_text(n, mask) for mask in up]
    groups: dict[int, list[int]] = {}
    for e in range(n):
        groups.setdefault(color[e], []).append(e)
    classes = [groups[c] for c in range(len(groups))]
    if len(classes) == n:
        pick = itemgetter(*(members[0] for members in classes))
        best = tuple(map(pick, pick(rows)))
    else:
        choices = [
            [tuple(members)] if len(members) == 1 else _class_orders(members, up, down)
            for members in classes
        ]
        orders = (itertools.chain.from_iterable(chosen) for chosen in itertools.product(*choices))
        best = min(tuple(map(pick, pick(rows))) for pick in itertools.starmap(itemgetter, orders))
    return f"{n}:".encode() + b"".join(map(bytes, best))


@lru_cache(maxsize=1 << 12)
def _row_text(n: int, mask: int) -> bytes:
    """One up-set mask as its order-matrix row, column 0 first.

    Cached: the 7,848 placements canonicalized at sizes up to 10 have
    76,599 rows, of which 308 are distinct.
    """
    return format(mask, f"0{n}b")[::-1].encode()


def canonical_form(lattice: FiniteLattice) -> bytes:
    """Canonical byte string: equal for two lattices iff they are isomorphic.

    The encoding renumbers elements so bottom is 0 and top is n-1 and is
    byte-identical across relabelings of the input.
    """
    return _canonical_from_up_masks(lattice.size, lattice.up_masks, lattice.down_masks)


@lru_cache(maxsize=1 << 12)
def _row(encoded: bytes) -> tuple[bool, ...]:
    """One order-matrix row of a canonical form, read from its bytes.

    Cached: the 7,372 classes of size at most 10 have 71,918 rows, of
    which 335 are distinct.
    """
    return tuple(map((0x31).__eq__, encoded))


def lattice_from_canonical(form: bytes) -> FiniteLattice:
    """Rebuild the (validated) lattice encoded by a canonical form."""
    head, _, body = form.partition(b":")
    n = int(head)
    if len(body) != n * n:
        raise ValueError("canonical form has wrong length")
    return from_leq_matrix([_row(body[i * n : (i + 1) * n]) for i in range(n)])


def is_isomorphic(first: FiniteLattice, second: FiniteLattice) -> bool:
    if first.size != second.size:
        return False
    return canonical_form(first) == canonical_form(second)


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------


def _blocks_compatible(lattice: FiniteLattice, block_of: Sequence[int]) -> bool:
    """Meet/join compatibility of a block labeling, by full scan."""
    n = lattice.size
    meet, join = lattice.meet, lattice.join
    for x in range(n):
        bx = block_of[x]
        mx, jx = meet[x], join[x]
        for y in range(x + 1, n):
            if block_of[y] != bx:
                continue
            my, jy = meet[y], join[y]
            for z in range(n):
                if block_of[mx[z]] != block_of[my[z]]:
                    return False
                if block_of[jx[z]] != block_of[jy[z]]:
                    return False
    return True


def quotient(
    lattice: FiniteLattice, congruence: "Congruence"
) -> tuple[FiniteLattice, LatticeHomomorphism]:
    """The quotient lattice of blocks plus the projection homomorphism.

    Block X <= block Y iff some x in X and y in Y satisfy x <= y, which
    for congruence blocks is a valid bounded-lattice order.
    """
    if congruence.lattice is not lattice:
        raise OwnerMismatch("congruence belongs to a different lattice")
    block_of = congruence.partition.block_of
    if not _blocks_compatible(lattice, block_of):
        raise NotACongruence("partition is not meet/join compatible")
    n = lattice.size
    k = max(block_of) + 1
    rows = [[False] * k for _ in range(k)]
    for x in range(n):
        for y in range(n):
            if lattice.leq[x][y]:
                rows[block_of[x]][block_of[y]] = True
    image = from_leq_matrix(rows)
    return image, LatticeHomomorphism(lattice, image, tuple(block_of))


# ---------------------------------------------------------------------------
# LATT v1 text format
# ---------------------------------------------------------------------------

_SIZE_LINE = re.compile(r"n=(0|[1-9][0-9]*)\Z")


def parse_latt(data: bytes | str) -> FiniteLattice:
    """Parse the bit-exact LATT v1 format.

    Any deviation (wrong header, bad size line, wrong row count or
    length, characters other than 0/1, missing trailing newline) raises
    :class:`ParseError` with the offending line; an order matrix that
    parses but fails lattice validation is also reported as a
    :class:`ParseError` naming the violated rule.
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
    n = int(m.group(1))
    if n < 1:
        raise ParseError(2, "size must be >= 1")
    if len(lines) < 2 + n:
        raise ParseError(len(lines) + 1, f"expected {n} matrix rows, found {len(lines) - 2}")
    if len(lines) > 2 + n:
        raise ParseError(2 + n + 1, "trailing content after matrix")
    rows: list[list[bool]] = []
    for i in range(n):
        line = lines[2 + i]
        if len(line) != n:
            raise ParseError(3 + i, f"expected {n} characters, found {len(line)}")
        bad = next((c for c in line if c not in "01"), None)
        if bad is not None:
            raise ParseError(3 + i, f"invalid character {bad!r}")
        rows.append([c == "1" for c in line])
    try:
        return from_leq_matrix(rows)
    except LatticeError as exc:
        raise ParseError(3, f"{type(exc).__name__}: {exc}") from exc


def format_latt(lattice: FiniteLattice) -> str:
    """Serialize to LATT v1; ``parse_latt`` round-trips it exactly."""
    n = lattice.size
    lines = ["LATT 1", f"n={n}"]
    for i in range(n):
        lines.append("".join("1" if lattice.leq[i][j] else "0" for j in range(n)))
    return "\n".join(lines) + "\n"


def relabel(lattice: FiniteLattice, permutation: Sequence[int]) -> FiniteLattice:
    """The isomorphic copy where element x is renamed permutation[x]."""
    n = lattice.size
    if sorted(permutation) != list(range(n)):
        raise ValueError("not a permutation of the element set")
    rows = [[False] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            if lattice.leq[x][y]:
                rows[permutation[x]][permutation[y]] = True
    return from_leq_matrix(rows)
