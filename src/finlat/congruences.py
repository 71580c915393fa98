"""Partitions, congruences, the congruence lattice, and balance checks.

A congruence of a lattice is an equivalence relation compatible with
meet and join; equivalently a partition whose blocks multiply cleanly.
Everything here runs on the normalized partition representation, so two
equal congruences always have equal ``block_of`` tuples regardless of
how they were produced.

Only principal and generated congruences need the compatibility
closure.  Con(L) is distributive, so each congruence is the join of the
join-irreducible congruences below it, and these are the principal
congruences con(a, b) of the covering pairs a ≺ b.  Con(L) is built as
the down-sets of that set, one join per congruence; a join in Con(L) is
the join in the partition lattice Eq(L), a union-find merge of two
labelings.  Called on its own, ``all_congruences`` runs one closure per
covering pair.  Balance looks up the principal congruences its two
classes generate.  A congruence class is a convex sublattice, so
con(a, b) = con(a∧b, a∨b): ``principal_table`` runs the closure once per
comparable pair a < b and reads every other pair at its meet and join.
The per-lattice record of facts behind ``verify_theorem`` builds it once
and passes it to Con(L) and balance, which then read every principal
congruence from it.  No closure decides the d-lattice scope.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .core import (
    EmptySet,
    FiniteLattice,
    OwnerMismatch,
    SizeMismatch,
    _blocks_compatible,
    _fold,
)


def _normalize(labels: Sequence[Hashable]) -> tuple[int, ...]:
    """Relabel blocks in first-occurrence order (element 0 gets label 0)."""
    seen: dict[Hashable, int] = {}
    out = []
    for lab in labels:
        if lab not in seen:
            seen[lab] = len(seen)
        out.append(seen[lab])
    return tuple(out)


@dataclass(frozen=True, order=True)
class Partition:
    """A partition of {0..size-1} in normalized block-label form."""

    size: int
    block_of: tuple[int, ...]

    @staticmethod
    def from_labels(labels: Sequence[Hashable]) -> "Partition":
        return Partition(len(labels), _normalize(labels))

    @staticmethod
    def from_blocks(size: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        labels = [-1] * size
        for tag, block in enumerate(blocks):
            for e in block:
                if not 0 <= e < size:
                    raise SizeMismatch(f"element {e} outside [0, {size})")
                if labels[e] != -1:
                    raise ValueError(f"element {e} appears in two blocks")
                labels[e] = tag
        if -1 in labels:
            raise ValueError(f"element {labels.index(-1)} not covered by any block")
        return Partition.from_labels(labels)

    @staticmethod
    def identity(size: int) -> "Partition":
        return Partition(size, tuple(range(size)))

    @staticmethod
    def all_in_one(size: int) -> "Partition":
        return Partition(size, (0,) * size)

    def __post_init__(self) -> None:
        if len(self.block_of) != self.size:
            raise SizeMismatch("block_of length differs from size")
        if self.block_of != _normalize(self.block_of):
            raise ValueError("block labels are not normalized")

    @property
    def num_blocks(self) -> int:
        return max(self.block_of) + 1 if self.block_of else 0

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks as ascending element tuples, ordered by least element."""
        out: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for e, lab in enumerate(self.block_of):
            out[lab].append(e)
        return tuple(tuple(b) for b in out)

    def block_containing(self, x: int) -> tuple[int, ...]:
        lab = self.block_of[x]
        return tuple(e for e, l in enumerate(self.block_of) if l == lab)

    def refines(self, other: "Partition") -> bool:
        """True iff every block of self lies inside a block of other."""
        if self.size != other.size:
            raise SizeMismatch("partitions have different sizes")
        image: dict[int, int] = {}
        for mine, theirs in zip(self.block_of, other.block_of):
            if image.setdefault(mine, theirs) != theirs:
                return False
        return True

    def __str__(self) -> str:
        return "{" + ",".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks()) + "}"


class Congruence:
    """A partition verified (by its producer) to be meet/join compatible.

    Tied to its owning lattice by object identity; two congruences
    compare equal only when they live on the same lattice object and
    have the same blocks.
    """

    __slots__ = ("lattice", "partition")

    def __init__(self, lattice: FiniteLattice, partition: Partition) -> None:
        if partition.size != lattice.size:
            raise SizeMismatch("partition sized for a different lattice")
        self.lattice = lattice
        self.partition = partition

    def related(self, x: int, y: int) -> bool:
        return self.partition.block_of[x] == self.partition.block_of[y]

    def class_of(self, x: int) -> tuple[int, ...]:
        return self.partition.block_containing(x)

    @property
    def num_blocks(self) -> int:
        return self.partition.num_blocks

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Congruence):
            return NotImplemented
        return self.lattice is other.lattice and self.partition == other.partition

    def __hash__(self) -> int:
        return hash((id(self.lattice), self.partition))

    def __str__(self) -> str:
        return str(self.partition)

    def __repr__(self) -> str:
        return f"Congruence({self.partition})"


def is_congruence(lattice: FiniteLattice, partition: Partition) -> bool:
    """Full x, y, z compatibility scan of a partition."""
    if partition.size != lattice.size:
        raise SizeMismatch("partition sized for a different lattice")
    return _blocks_compatible(lattice, partition.block_of)


def _closure(lattice: FiniteLattice, pairs: Iterable[tuple[int, int]]) -> Partition:
    """Least congruence containing the given pairs.

    Union-find plus a FIFO worklist: whenever two classes merge through
    the pair (x, y), the forced pairs (x∧z, y∧z) and (x∨z, y∨z) are
    queued for every z in ascending order.  Chains of merges compose
    transitively inside the union-find, so enqueueing products for the
    merged pair alone reaches the full fixpoint.
    """
    n = lattice.size
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    meet, join = lattice.meet, lattice.join
    queue: deque[tuple[int, int]] = deque(pairs)
    while queue:
        x, y = queue.popleft()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        if ry < rx:
            rx, ry = ry, rx
        parent[ry] = rx
        mx, my, jx, jy = meet[x], meet[y], join[x], join[y]
        for z in range(n):
            if find(mx[z]) != find(my[z]):
                queue.append((mx[z], my[z]))
            if find(jx[z]) != find(jy[z]):
                queue.append((jx[z], jy[z]))
    return Partition.from_labels([find(i) for i in range(n)])


def principal_congruence(lattice: FiniteLattice, a: int, b: int) -> Congruence:
    """The least congruence merging a with b."""
    n = lattice.size
    if not (0 <= a < n and 0 <= b < n):
        raise SizeMismatch(f"elements ({a}, {b}) outside [0, {n})")
    return Congruence(lattice, _closure(lattice, [(a, b)]))


def generated_congruence(lattice: FiniteLattice, elements: Iterable[int]) -> Congruence:
    """The least congruence collapsing all the given elements to one class.

    Congruence classes are convex sublattices, so a class holds the set
    S iff it holds ⋀S and ⋁S: the answer is con(⋀S, ⋁S), one closure.
    """
    members = sorted(set(elements))
    if not members:
        raise EmptySet("generating set is empty")
    n = lattice.size
    if not all(0 <= e < n for e in members):
        raise SizeMismatch(f"elements {members} not all inside [0, {n})")
    mask = sum(1 << e for e in members)
    pair = (_fold(lattice.meet, mask), _fold(lattice.join, mask))
    return Congruence(lattice, _closure(lattice, [pair]))


Principal = Callable[[int, int], tuple[int, ...]]
"""principal(a, b): the normalized labels of con(a, b), for any two elements."""


def principal_table(lattice: FiniteLattice) -> Principal:
    """con(a, b) for every pair of elements, as a lookup.

    A congruence class is a convex sublattice, so a ≡ b iff
    a∧b ≡ a∨b, and con(a, b) = con(a∧b, a∨b).  One closure per
    comparable pair a < b is computed up front, equal labelings stored
    once, and every lookup reads the pair (a∧b, a∨b), which is (a, b)
    itself when a ≤ b.  The per-lattice record of facts behind
    ``verify_theorem`` builds one table and passes it to Con(L) and
    balance.  Without it ``all_congruences`` runs one closure per
    covering pair, and balance one per lookup.
    """
    n, leq, meet, join = lattice.size, lattice.leq, lattice.meet, lattice.join
    identity = tuple(range(n))
    rows = [[identity] * n for _ in range(n)]
    stored: dict[tuple[int, ...], tuple[int, ...]] = {}
    for a in range(n):
        for b in compress(range(n), leq[a]):
            if b != a:
                labels = _closure(lattice, [(a, b)]).block_of
                rows[a][b] = stored.setdefault(labels, labels)
    return lambda a, b: rows[meet[a][b]][join[a][b]]


def _principal_by_closure(lattice: FiniteLattice) -> Principal:
    """The lookup without a table: one closure per call."""
    return lambda a, b: _closure(lattice, [(a, b)]).block_of


def _require_same_lattice(left: Congruence, right: Congruence) -> FiniteLattice:
    if left.lattice is not right.lattice:
        raise OwnerMismatch("congruences belong to different lattices")
    return left.lattice


def _block_pairs(labels: Sequence[int]) -> list[tuple[int, int]]:
    """(first element of its block, e) for every other element e."""
    return [(head, e) for e, head in enumerate(map(labels.index, labels)) if head != e]


def _join_labels(labels: tuple[int, ...], pairs: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """Normalized labels of the join of a partition with the pairs' partition.

    A union-find merge over the blocks of ``labels`` that links the
    larger root under the smaller, so one ascending pass resolves every
    root; ``labels`` comes back unchanged when no pair joins two blocks.
    The join of two congruences in Eq(L) is again a congruence, so no
    compatibility closure follows.
    """
    parent = list(range(len(labels)))
    for x, y in pairs:
        a, b = labels[x], labels[y]
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[max(a, b)] = min(a, b)
    if parent == list(range(len(labels))):
        return labels
    for a in range(len(parent)):
        parent[a] = parent[parent[a]]
    return _normalize([parent[a] for a in labels])


def join_congruences(left: Congruence, right: Congruence) -> Congruence:
    """Least congruence containing both: their join as partitions.

    Con(L) is a sublattice of the partition lattice Eq(L), so the
    partition join of two congruences is already compatible.
    """
    lattice = _require_same_lattice(left, right)
    labels = _join_labels(left.partition.block_of, _block_pairs(right.partition.block_of))
    return Congruence(lattice, Partition(lattice.size, labels))


def meet_congruences(left: Congruence, right: Congruence) -> Congruence:
    """Common refinement; the intersection of congruences is a congruence."""
    lattice = _require_same_lattice(left, right)
    pairs = list(zip(left.partition.block_of, right.partition.block_of))
    return Congruence(lattice, Partition.from_labels(pairs))


def _join_irreducibles(
    lattice: FiniteLattice, principal: Principal
) -> dict[tuple[int, ...], tuple[int, int]]:
    """J(Con L): each distinct con(a, b) over the covering pairs a ≺ b, with its first pair.

    The congruence of a prime interval is join-irreducible, and every
    congruence is the join of those of the covering pairs it relates.
    """
    n, down, up = lattice.size, lattice.down_masks, lattice.up_masks
    witness: dict[tuple[int, ...], tuple[int, int]] = {}
    for a in range(n):
        for b in range(n):
            if a != b and (up[a] & down[b]).bit_count() == 2:
                witness.setdefault(principal(a, b), (a, b))
    return witness


def all_congruences(
    lattice: FiniteLattice, principal: Optional[Principal] = None
) -> list[Congruence]:
    """Con(L): the down-sets of its join-irreducibles, one join per congruence.

    Con(L) is distributive, so its congruences and the down-sets of
    J(Con L) (``_join_irreducibles``) correspond one to one, each
    congruence the join of the irreducibles below it.  The down-sets
    are listed along a linear extension of refinement (finer first):
    each one is its parent plus one irreducible that comes after the
    parent's members and whose smaller irreducibles the parent holds,
    so each costs one partition join (``_join_labels``; Con(L) is a
    sublattice of Eq(L)).  ``principal`` is the lookup of
    ``principal_table``; without it each covering pair is one closure,
    and no other pair is computed.  The result is sorted by normalized
    representation.
    """
    if principal is None:
        principal = _principal_by_closure(lattice)
    witness = _join_irreducibles(lattice, principal)
    irreducible = sorted(witness, key=lambda labels: (-max(labels), labels))
    pairs = [witness[j] for j in irreducible]
    # j refines k iff k relates j's covering pair; a strictly finer j sorts earlier
    below = [
        sum(1 << i for i, (a, b) in enumerate(pairs[:k]) if labels[a] == labels[b])
        for k, labels in enumerate(irreducible)
    ]
    generators = [_block_pairs(labels) for labels in irreducible]
    identity = tuple(range(lattice.size))
    found = [identity]
    stack = [(identity, 0, 0)]  # labels, down-set as a bit mask, first index to add
    while stack:
        labels, downset, start = stack.pop()
        for k in range(start, len(irreducible)):
            if not below[k] & ~downset:
                joined = _join_labels(labels, generators[k])
                found.append(joined)
                stack.append((joined, downset | 1 << k, k + 1))
    return [Congruence(lattice, Partition(lattice.size, labels)) for labels in sorted(found)]


def is_balanced_congruence(
    lattice: FiniteLattice, cong: Congruence, principal: Optional[Principal] = None
) -> bool:
    """The two class equalities defining balance for one congruence.

    The 0-class must equal the 0-class of the congruence generated by
    collapsing the 1-class, and dually.  A congruence class is a convex
    sublattice, so the 1-class is an interval [m, top] and generates
    con(m, top); dually the 0-class [bottom, z] generates con(bottom, z).
    m and z are folds over the two class masks.  con(m, top) lies below
    the congruence, so its class of bottom is an interval inside
    [bottom, z], and equals it iff it holds z; dually for top and m.
    ``principal`` is the lookup of ``principal_table``; without it each
    of the two is one closure.
    """
    if cong.lattice is not lattice:
        raise OwnerMismatch("congruence belongs to a different lattice")
    if principal is None:
        principal = _principal_by_closure(lattice)
    labels = cong.partition.block_of
    bottom, top = lattice.bottom, lattice.top
    zero, one = labels[bottom], labels[top]
    least = _fold(lattice.meet, sum(1 << e for e, label in enumerate(labels) if label == one))
    greatest = _fold(lattice.join, sum(1 << e for e, label in enumerate(labels) if label == zero))
    up, down = principal(least, top), principal(bottom, greatest)
    return up[bottom] == up[greatest] and down[top] == down[least]
