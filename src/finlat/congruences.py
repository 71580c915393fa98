"""Partitions, congruences, the congruence lattice, and balance checks.

A congruence of a lattice is an equivalence relation compatible with
meet and join; equivalently a partition whose blocks multiply cleanly.
Everything here runs on the normalized partition representation, so two
equal congruences always have equal ``block_of`` tuples regardless of
how they were produced.

This module is the one home of con(a, b).  The compatibility closure
``_closure`` computes it, and ``principal_congruence``,
``generated_congruence``, ``principal_table`` and
``is_balanced_congruence`` read it; the d-lattice definition in
``properties`` reads ``principal_congruence``.  A congruence class is a
convex sublattice, so con(a, b) = con(a∧b, a∨b), a class holds a set S
iff it holds ⋀S and ⋁S, the 1-class is an interval [m, 1] and the
0-class an interval [0, z], and balance is the one equality
con(0, z) = con(m, 1).  ``principal_table`` runs the closure once per
comparable pair a < b and reads every other pair at its meet and join;
the per-lattice record of facts behind ``verify_theorem`` builds it
once for balance.  ``is_congruence`` (like ``core.quotient``) checks the
definition instead, with no closure.

Con(L), joins and meets hold a congruence as the bit mask of the
covering pairs a ≺ b it relates: a class is an interval whose members
are linked by covering pairs inside it, so the mask fixes the
congruence, and the intersection of two congruences relates exactly the
covering pairs both relate.  Con(L) is distributive, and its
join-irreducibles are the con(a, b) of the covering pairs, each
join-prime, so a join of congruences is the OR of their masks and a
meet the AND.  ``all_congruences`` reads the masks of J(Con L) from
Day's dependency relation on the join-irreducible elements of L, with
no closure (Freese, Ježek & Nation, *Free Lattices*, 1995, ch. 2),
closes them under OR and labels each result once.  The closure
normalizes its labels once and returns the tuple; only the public
constructors wrap it, unchecked (``_congruence``: normalized labels pass
the checks of :class:`Partition` by construction).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial, reduce
from itertools import chain, compress
from operator import and_, or_
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .core import (
    EmptySet,
    FiniteLattice,
    OwnerMismatch,
    SizeMismatch,
    _blocks_compatible,
    _element,
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
    """A partition of {0..size-1} in normalized block-label form.

    ``block_of[x]`` is the label of x's block: an ``int`` (not a bool),
    with labels first occurring in the order 0, 1, 2, ...; any other
    labels raise :class:`ValueError`.  ``from_blocks`` checks each block
    element as ``core._element`` does, before it indexes with one.
    """

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
                if labels[_element(e, size, "block element")] != -1:
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
        if set(map(type, self.block_of)) - {int}:  # bool is a type of its own here
            raise ValueError("block labels are not all integers")
        # normalized iff the labels first occur in the order 0, 1, 2, ...
        first_seen = tuple(dict.fromkeys(self.block_of))
        if first_seen != tuple(range(len(first_seen))):
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


def _congruence(lattice: FiniteLattice, labels: tuple[int, ...]) -> Congruence:
    """The congruence with the given labels, which ``_normalize`` produced.

    Normalized labels, one per element, pass every check of
    :class:`Partition` and :class:`Congruence` by construction, so the
    two are made without them.
    """
    partition = object.__new__(Partition)
    object.__setattr__(partition, "size", len(labels))
    object.__setattr__(partition, "block_of", labels)
    congruence = object.__new__(Congruence)
    congruence.lattice, congruence.partition = lattice, partition
    return congruence


def is_congruence(lattice: FiniteLattice, partition: Partition) -> bool:
    """Whether the partition is compatible with meet and join.

    Decided by the definition, with no closure: each member of a block
    moves with the block's first member under every translation
    u ↦ u∧z and u ↦ u∨z.
    """
    if partition.size != lattice.size:
        raise SizeMismatch("partition sized for a different lattice")
    return _blocks_compatible(lattice, partition.block_of)


def _closure(lattice: FiniteLattice, a: int, b: int) -> tuple[int, ...]:
    """Normalized labels of con(a, b), the least congruence relating a and b.

    Union-find with union at scan time, plus a FIFO worklist of merged
    pairs.  When the pair (x, y) merges two classes, each forced pair
    (x∧z, y∧z) for z in ascending order, then (x∨z, y∨z) likewise, is
    root-tested as it is read, and merges at once if its roots differ;
    only the two roots of such a merge are queued, to have their own
    products read when they are popped.  Every merge is forced by a pair
    already related, so the result lies inside con(a, b); and every
    merged pair has all its products related before the worklist
    drains, so the result is compatible, since a class is joined up by
    its merged pairs and the products of a chain of them form a chain.
    The union-find is inline: path halving, and the smaller root kept,
    so every parent is at most its child and one ascending pass resolves
    every root at the end.  The merges are counted, and the merge that
    leaves one block returns the all-zero labels at once: no pair can
    merge after it.  The labels are otherwise normalized here, once,
    ``a == b`` included.
    """
    n = lattice.size
    parent = list(range(n))
    blocks = n
    meet, join = lattice.meet, lattice.join
    queue: deque[tuple[int, int]] = deque()
    append, popleft = queue.append, queue.popleft
    if a != b:
        parent[max(a, b)] = min(a, b)
        blocks -= 1
        if blocks == 1:
            return (0,) * n
        append((a, b))
    while queue:
        x, y = popleft()
        for u, v in chain(zip(meet[x], meet[y]), zip(join[x], join[y])):
            if u == v:
                continue
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u == v:
                continue
            if v < u:
                u, v = v, u
            parent[v] = u
            blocks -= 1
            if blocks == 1:
                return (0,) * n
            append((u, v))
    for x in range(n):
        parent[x] = parent[parent[x]]
    return _normalize(parent)


def generated_congruence(lattice: FiniteLattice, elements: Iterable[int]) -> Congruence:
    """The least congruence collapsing all the given elements to one class.

    Congruence classes are convex sublattices, so a class holds the set
    S iff it holds ⋀S and ⋁S: the answer is con(⋀S, ⋁S), one closure.
    Each element is checked as ``core._element`` does.
    """
    n = lattice.size
    mask = 0
    for e in elements:
        mask |= 1 << _element(e, n)
    if not mask:
        raise EmptySet("generating set is empty")
    pair = (_fold(lattice.meet, mask), _fold(lattice.join, mask))
    return _congruence(lattice, _closure(lattice, *pair))


def principal_congruence(lattice: FiniteLattice, a: int, b: int) -> Congruence:
    """The least congruence merging a with b: the one ``{a, b}`` generates."""
    return generated_congruence(lattice, (a, b))


Principal = Callable[[int, int], tuple[int, ...]]
"""principal(a, b): the normalized labels of con(a, b), for any two elements."""


def principal_table(lattice: FiniteLattice) -> Principal:
    """con(a, b) for every pair of elements, as a lookup.

    A congruence class is a convex sublattice, so a ≡ b iff
    a∧b ≡ a∨b, and con(a, b) = con(a∧b, a∨b).  One closure per
    comparable pair a < b is computed up front, equal labelings stored
    once, and every lookup reads the pair (a∧b, a∨b), which is (a, b)
    itself when a ≤ b.  The per-lattice record of facts behind
    ``verify_theorem`` builds one table for balance; without it balance
    runs one closure per lookup.  Con(L) does not read it.
    """
    n, leq, meet, join = lattice.size, lattice.leq, lattice.meet, lattice.join
    identity = tuple(range(n))
    rows = [[identity] * n for _ in range(n)]
    stored: dict[tuple[int, ...], tuple[int, ...]] = {}
    for a in range(n):
        for b in compress(range(n), leq[a]):
            if b != a:
                labels = _closure(lattice, a, b)
                rows[a][b] = stored.setdefault(labels, labels)
    return lambda a, b: rows[meet[a][b]][join[a][b]]


def _require_same_lattice(left: Congruence, right: Congruence) -> FiniteLattice:
    if left.lattice is not right.lattice:
        raise OwnerMismatch("congruences belong to different lattices")
    return left.lattice


def _covering_pairs(lattice: FiniteLattice) -> list[tuple[int, int]]:
    """Every covering pair a ≺ b, ordered by the size of ↓b."""
    n, down, up = lattice.size, lattice.down_masks, lattice.up_masks
    pairs = [
        (a, b) for a in range(n) for b in range(n) if a != b and (up[a] & down[b]).bit_count() == 2
    ]
    pairs.sort(key=lambda pair: down[pair[1]].bit_count())
    return pairs


def _join_irreducibles(covers: Sequence[tuple[int, int]]) -> dict[int, int]:
    """Each join-irreducible element q with its one lower cover q_*.

    q is join-irreducible iff it covers exactly one element (the bottom
    covers none), read off the covering pairs; keys follow ``covers``.
    """
    lower: dict[int, Optional[int]] = {}
    for a, b in covers:
        lower[b] = None if b in lower else a
    return {q: a for q, a in lower.items() if a is not None}


def _mask(covers: Sequence[tuple[int, int]], labels: Sequence[int]) -> int:
    """Bit i set iff the labelling relates the covering pair ``covers[i]``."""
    return sum(1 << i for i, (a, b) in enumerate(covers) if labels[a] == labels[b])


def _labels(size: int, covers: Sequence[tuple[int, int]], mask: int) -> tuple[int, ...]:
    """Normalized labels of the congruence relating the covering pairs in ``mask``.

    A congruence class is an interval [u, v], and every member above u
    covers another member.  ``covers`` runs up by the size of ↓b, so a's
    label is final before any pair a ≺ b is read, and each related b
    takes it: the least element u of the class.
    """
    least = list(range(size))
    for i, (a, b) in enumerate(covers):
        if mask >> i & 1:
            least[b] = least[a]
    return _normalize(least)


def _combine(left: Congruence, right: Congruence, merge: Callable[[int, int], int]) -> Congruence:
    """The congruence relating the covering pairs ``merge`` keeps of the two masks."""
    lattice = _require_same_lattice(left, right)
    covers = _covering_pairs(lattice)
    mask = merge(_mask(covers, left.partition.block_of), _mask(covers, right.partition.block_of))
    return _congruence(lattice, _labels(lattice.size, covers, mask))


def join_congruences(left: Congruence, right: Congruence) -> Congruence:
    """Least congruence containing both: the covering pairs either relates.

    Each con(a, b) of a covering pair a ≺ b is join-irreducible in the
    distributive lattice Con(L), hence join-prime: it lies below a join
    iff it lies below one side.  So the join relates exactly the covering
    pairs of the two, and no compatibility closure runs.
    """
    return _combine(left, right, or_)


def meet_congruences(left: Congruence, right: Congruence) -> Congruence:
    """Common refinement, the intersection: the covering pairs both relate."""
    return _combine(left, right, and_)


def _irreducible_masks(lattice: FiniteLattice, covers: Sequence[tuple[int, int]]) -> set[int]:
    """The covering-pair masks of J(Con L), read from Day's dependency relation D.

    A join-irreducible q has one lower cover q_* (``_join_irreducibles``).
    For join-irreducibles p ≠ q, p D q iff some x has p ≤ q∨x and
    p ≰ q_*∨x.  Con(L) is the lattice of the sets S ⊆ J(L) closed under
    D (with q, S holds every p D q), and θ_S relates a covering pair
    a ≺ b iff every join-irreducible below b and not below a lies in S.
    J(Con L) is the θ of the closures C(q) of single q, each
    con(q_*, q).  Sets of elements are bit masks: the OR over x of
    ↓(q∨x) ∖ ↓(q_*∨x), within J(L), holds q (at x = 0) and every p D q,
    and one transitive closure of these masks gives every C(q).  No
    closure of a partition runs.
    """
    down, join = lattice.down_masks, lattice.join
    below = _join_irreducibles(covers)
    irreducible = sum(1 << q for q in below)
    closed = {
        q: reduce(or_, (down[u] & ~down[v] for u, v in zip(join[q], join[a])), 0) & irreducible
        for q, a in below.items()
    }
    for k in below:  # Warshall's transitive closure, on masks
        for q in below:
            if closed[q] >> k & 1:
                closed[q] |= closed[k]
    entered = [down[b] & ~down[a] & irreducible for a, b in covers]
    return {
        sum(1 << i for i, gained in enumerate(entered) if not gained & ~closed[q])
        for q in below
    }


def all_congruences(lattice: FiniteLattice) -> list[Congruence]:
    """Con(L): the unions of the covering-pair masks of J(Con L).

    A congruence is held as the mask of the covering pairs a ≺ b it
    relates.  J(Con L) comes from Day's dependency relation on the
    join-irreducible elements (``_irreducible_masks``), with no closure
    of a partition.  Each member is join-prime in the distributive
    lattice Con(L), so a join of congruences is the OR of their masks,
    and Con(L) is the OR-closure of the masks of J(Con L) with the
    empty mask (the identity).  Each mask is labelled once
    (``_labels``).  The result is sorted by normalized representation.
    """
    covers = _covering_pairs(lattice)
    found = {0}
    for irreducible in _irreducible_masks(lattice, covers):
        found |= {mask | irreducible for mask in found}
    n = lattice.size
    labelled = sorted(_labels(n, covers, mask) for mask in found)
    return [_congruence(lattice, labels) for labels in labelled]


def is_balanced_congruence(
    lattice: FiniteLattice, cong: Congruence, principal: Optional[Principal] = None
) -> bool:
    """Balance of one congruence: con(bottom, z) = con(m, top).

    Balance asks that the 0-class equal the 0-class of the congruence
    generated by collapsing the 1-class, and dually.  A congruence class
    is a convex sublattice, so the 1-class is an interval [m, top] and
    generates con(m, top); dually the 0-class [bottom, z] generates
    con(bottom, z).  m and z are folds over the two class masks.
    con(m, top) lies below the congruence, so its class of bottom is an
    interval inside [bottom, z], and equals it iff it holds z, that is
    iff con(bottom, z) ≤ con(m, top); dually the second equality says
    con(m, top) ≤ con(bottom, z).  Both hold iff the two congruences are
    equal, which is one comparison of their normalized labels.
    ``principal`` is the lookup of ``principal_table``; without it each
    of the two is one closure.
    """
    if cong.lattice is not lattice:
        raise OwnerMismatch("congruence belongs to a different lattice")
    if principal is None:
        principal = partial(_closure, lattice)
    labels = cong.partition.block_of
    bottom, top = lattice.bottom, lattice.top
    zero, one = labels[bottom], labels[top]
    least = _fold(lattice.meet, sum(1 << e for e, label in enumerate(labels) if label == one))
    greatest = _fold(lattice.join, sum(1 << e for e, label in enumerate(labels) if label == zero))
    return principal(least, top) == principal(bottom, greatest)
