"""Partitions, congruences, the congruence lattice, and balance checks.

A congruence of a lattice is an equivalence relation compatible with
meet and join; equivalently a partition whose blocks multiply cleanly.
Everything here runs on the normalized partition representation, so two
equal congruences always have equal ``block_of`` tuples regardless of
how they were produced.

This module is the one home of con(a, b).  A congruence θ is held as
the set S ⊆ J(L) of the join-irreducibles p with p θ p_*, p_* the one
lower cover of p (``_join_irreducibles``, read off the down-sets).
These sets are the sets closed under Day's dependency relation D, and
S ↦ θ_S is an isomorphism from them, ordered by inclusion, onto Con(L)
(Freese, Ježek & Nation, *Free Lattices*, 1995, ch. 2): a join is a
union, a meet an intersection.  θ is the kernel of x ↦ J(↓x) ∖ S.  If
x θ y and some p ∈ J ∖ S lies below x and not below y, then
p θ p∧y ≤ p_*, so p θ p_* by convexity and p ∈ S, a contradiction.
Conversely, if the two sets agree, take a maximal chain from x∧y up to
x; for each cover c ≺ c′ on it, a least p ∈ J(↓c′) ∖ J(↓c) lies in S,
has p_* ≤ c by its minimality, and so c′ = p∨c θ p_*∨c = c.  Likewise
for y, so x θ y.

For a ≤ b the set of con(a, b) is the union of the D-closures C(q) of
the q ∈ J(↓b) ∖ J(↓a) (``_principal_set``): each such q has
q = q∧b θ q∧a ≤ q_*, and once they all lie in S the kernel rule relates
a and b.  A congruence class is a convex sublattice, so
con(a, b) = con(a∧b, a∨b), a class holds a set iff it holds its meet
and join, the 1-class is an interval [m, 1] and the 0-class an interval
[0, z], and balance is the one equality con(0, z) = con(m, 1) of two
sets.  ``all_congruences``, ``principal_congruence``,
``generated_congruence``, joins, meets and balance without a table
read these sets, with no closure; each set is labelled once, by the
kernel rule (``_kernel``).  ``is_congruence`` (like ``core.quotient``)
checks the definition instead.

``principal_table`` is the one caller of the compatibility closure
``_closure``: one closure per comparable pair a < b, every other pair
read at its meet and join.  The per-lattice record of facts behind
``verify_theorem`` builds it once for balance.  A table read off the
D-closed sets is faster, but the benchmark worker keeps every pass it
runs, so a faster table reads as more peak memory; it waits until the
worker reads its peak from one pass.  Only the public constructors wrap
labels, unchecked (``_congruence``: normalized labels pass the checks of
:class:`Partition` by construction).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce
from itertools import compress
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
    _size,
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

    ``block_of`` is a tuple, and ``block_of[x]`` the label of x's block:
    an ``int`` (not a bool), with labels first occurring in the order
    0, 1, 2, ...; anything else raises :class:`ValueError`.  Every size
    is checked as ``core._size`` does, and every element as
    ``core._element`` does, before either is used.
    """

    size: int
    block_of: tuple[int, ...]

    @staticmethod
    def from_labels(labels: Sequence[Hashable]) -> "Partition":
        return Partition(len(labels), _normalize(labels))

    @staticmethod
    def from_blocks(size: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        labels = [-1] * _size(size)
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
        return Partition(size, tuple(range(_size(size))))

    @staticmethod
    def all_in_one(size: int) -> "Partition":
        return Partition(size, (0,) * _size(size))

    def __post_init__(self) -> None:
        # a list would make the partition unhashable; bool is a type of its own here
        if not isinstance(self.block_of, tuple) or set(map(type, self.block_of)) - {int}:
            raise ValueError("block_of is not a tuple of integers")
        if len(self.block_of) != _size(self.size):
            raise SizeMismatch("block_of length differs from size")
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
        lab = self.block_of[_element(x, self.size)]
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
    have the same blocks.  A ``partition`` that is not a
    :class:`Partition` raises :class:`ValueError`.
    """

    __slots__ = ("lattice", "partition")

    def __init__(self, lattice: FiniteLattice, partition: Partition) -> None:
        if not isinstance(partition, Partition):
            raise ValueError(f"partition {partition!r} is not a Partition")
        if partition.size != lattice.size:
            raise SizeMismatch("partition sized for a different lattice")
        self.lattice = lattice
        self.partition = partition

    def related(self, x: int, y: int) -> bool:
        labels = self.partition.block_of
        return labels[_element(x, len(labels))] == labels[_element(y, len(labels))]

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


def _closure(rows: Sequence[tuple[int, ...]], a: int, b: int) -> tuple[int, ...]:
    """Normalized labels of con(a, b), the least congruence relating a and b.

    Row x of ``rows`` holds x∧z for every z in ascending order, then
    x∨z likewise (``principal_table`` builds them).  Union-find with union
    at scan time, plus a FIFO worklist of merged pairs.  When the pair
    (x, y) merges two classes, each forced pair (x∧z, y∧z) for z in
    ascending order, then (x∨z, y∨z) likewise, is read from the two
    rows, root-tested as it is read, and merged at once if its roots
    differ; only the two roots of such a merge are queued, to have their
    own products read when they are popped.  Every merge is forced by a
    pair already related, so the result lies inside con(a, b); and every
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
    n = len(rows)
    parent = list(range(n))
    blocks = n
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
        for u, v in zip(rows[x], rows[y]):
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
    S iff it holds ⋀S and ⋁S: the answer is con(⋀S, ⋁S), labelled from
    its D-closed set (``_principal_set``), with no closure.  Each element
    is checked as ``core._element`` does.
    """
    n = lattice.size
    mask = 0
    for e in elements:
        mask |= 1 << _element(e, n)
    if not mask:
        raise EmptySet("generating set is empty")
    closed, down = _irreducible_masks(lattice), lattice.down_masks
    least, greatest = _fold(lattice.meet, mask), _fold(lattice.join, mask)
    kept = sum(1 << q for q in closed) & ~_principal_set(closed, down, least, greatest)
    return _congruence(lattice, _kernel(down, kept))


def principal_congruence(lattice: FiniteLattice, a: int, b: int) -> Congruence:
    """The least congruence merging a with b: the one ``{a, b}`` generates."""
    return generated_congruence(lattice, (a, b))


Principal = Callable[[int, int], tuple[int, ...]]
"""principal(a, b): the normalized labels of con(a, b), for any two elements."""


def principal_table(lattice: FiniteLattice) -> Principal:
    """con(a, b) for every pair of elements, as a lookup.

    A congruence class is a convex sublattice, so a ≡ b iff
    a∧b ≡ a∨b, and con(a, b) = con(a∧b, a∨b).  One closure per
    comparable pair a < b is computed up front, all over one list of
    product rows, ``meet[x] + join[x]``, built here and dropped on
    return, equal labelings stored once, and every lookup reads the pair
    (a∧b, a∨b), which is (a, b) itself when a ≤ b.  The lookup checks
    its elements as ``core._element`` does.  The per-lattice record of
    facts behind ``verify_theorem`` builds one table for balance; no
    other reader of con(a, b) uses it.
    """
    n, leq, meet, join = lattice.size, lattice.leq, lattice.meet, lattice.join
    products, identity = [m + j for m, j in zip(meet, join)], tuple(range(n))
    rows = [[identity] * n for _ in range(n)]
    stored: dict[tuple[int, ...], tuple[int, ...]] = {}
    for a in range(n):
        for b in compress(range(n), leq[a]):
            if b != a:
                labels = _closure(products, a, b)
                rows[a][b] = stored.setdefault(labels, labels)
    return lambda a, b: rows[meet[_element(a, n)][_element(b, n)]][join[a][b]]


def _join_irreducibles(lattice: FiniteLattice) -> dict[int, int]:
    """Each join-irreducible element q with its one lower cover q_*, in ascending q.

    q covers exactly one p iff ↓q without q is ↓p: every element below q
    lies below a lower cover of q.  The bottom's strict down-set is
    empty, and no element's down-set is.  One dict lookup per element.
    """
    index = {down: x for x, down in enumerate(lattice.down_masks)}  # the element of each ↓x
    return {q: index[strict] for down, q in index.items() if (strict := down ^ 1 << q) in index}


def _kernel(down: Sequence[int], kept: int) -> tuple[int, ...]:
    """Normalized labels of θ_S, given ``kept`` = J(L) ∖ S as a mask.

    x θ_S y iff J(↓x) ∖ S = J(↓y) ∖ S: the kernel of x ↦ J(↓x) ∖ S.
    """
    return _normalize([d & kept for d in down])


def _combine(left: Congruence, right: Congruence, merge: Callable[[int, int], int]) -> Congruence:
    """θ_S for the D-closed set S that ``merge`` makes of the two sets.

    The set of a congruence θ holds each join-irreducible p with p θ p_*.
    """
    lattice = left.lattice
    if right.lattice is not lattice:
        raise OwnerMismatch("congruences belong to different lattices")
    below = _join_irreducibles(lattice)
    left_set, right_set = (
        sum(1 << p for p, a in below.items() if labels[p] == labels[a])
        for labels in (left.partition.block_of, right.partition.block_of)
    )
    kept = sum(1 << p for p in below) & ~merge(left_set, right_set)
    return _congruence(lattice, _kernel(lattice.down_masks, kept))


def join_congruences(left: Congruence, right: Congruence) -> Congruence:
    """Least congruence containing both: the union of the two D-closed sets.

    A union of D-closed sets is D-closed, and S ↦ θ_S is an order
    isomorphism, so the union is the join and no compatibility closure
    runs.
    """
    return _combine(left, right, or_)


def meet_congruences(left: Congruence, right: Congruence) -> Congruence:
    """Common refinement, the intersection: the intersection of the D-closed sets."""
    return _combine(left, right, and_)


def _irreducible_masks(lattice: FiniteLattice) -> dict[int, int]:
    """Each join-irreducible q with C(q), the least D-closed set holding q.

    For join-irreducibles p ≠ q, p D q iff some x has p ≤ q∨x and
    p ≰ q_*∨x.  Sets of join-irreducibles are bit masks: the OR over x
    of ↓(q∨x) ∖ ↓(q_*∨x), within J(L), holds q (at x = 0) and every
    p D q, and one transitive closure of these masks gives every C(q).
    θ_C(q) is con(q_*, q), and these are the members of J(Con L).  No
    closure of a partition runs.
    """
    down, join = lattice.down_masks, lattice.join
    below = _join_irreducibles(lattice)
    irreducible = sum(1 << q for q in below)
    closed = {
        q: reduce(or_, (down[u] & ~down[v] for u, v in zip(join[q], join[a])), 0) & irreducible
        for q, a in below.items()
    }
    for k in below:  # Warshall's transitive closure, on masks
        for q in below:
            if closed[q] >> k & 1:
                closed[q] |= closed[k]
    return closed


def _principal_set(closed: dict[int, int], down: Sequence[int], a: int, b: int) -> int:
    """The D-closed set of con(a, b), for a ≤ b: the OR of C(q) over q ∈ J(↓b) ∖ J(↓a).

    ``closed`` is ``_irreducible_masks`` of the lattice, ``down`` its
    down-set masks.
    """
    fresh = down[b] & ~down[a]
    return reduce(or_, (mask for q, mask in closed.items() if fresh >> q & 1), 0)


def all_congruences(lattice: FiniteLattice) -> list[Congruence]:
    """Con(L): θ_S for every D-closed set S ⊆ J(L).

    A D-closed set is a union of sets C(q) (``_irreducible_masks``), and
    every such union is D-closed, so Con(L) is the OR-closure of the
    C(q) with the empty set (the identity).  No closure of a partition
    runs, and each set is labelled once (``_kernel``).  The result is
    sorted by normalized representation.
    """
    closed = _irreducible_masks(lattice)
    found = {0}
    for irreducible in set(closed.values()):
        found |= {mask | irreducible for mask in found}
    down, every = lattice.down_masks, sum(1 << q for q in closed)
    labelled = sorted(_kernel(down, every & ~mask) for mask in found)
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
    equal: one comparison of the labels that ``principal``, the lookup
    of ``principal_table``, gives, or without it of their D-closed sets
    (``_principal_set``), with no labels and no closure.
    """
    if cong.lattice is not lattice:
        raise OwnerMismatch("congruence belongs to a different lattice")
    labels = cong.partition.block_of
    bottom, top = lattice.bottom, lattice.top
    zero, one = labels[bottom], labels[top]
    least = _fold(lattice.meet, sum(1 << e for e, label in enumerate(labels) if label == one))
    greatest = _fold(lattice.join, sum(1 << e for e, label in enumerate(labels) if label == zero))
    if principal is None:
        closed, down = _irreducible_masks(lattice), lattice.down_masks
        upper = _principal_set(closed, down, least, top)
        return upper == _principal_set(closed, down, bottom, greatest)
    return principal(least, top) == principal(bottom, greatest)
