"""Independent brute-force oracles used to ground derived test values.

Most of these recompute results from first principles (axiom checks,
partition scans, permutation searches, raw matrix enumeration) without
reusing the package's algorithms, so agreement is meaningful evidence; they are
exponential and only run at small sizes.  The next group holds
alternative definitions (pairwise balance, the quotient-is-chain(3)
test, the annihilator form of complementedness, c1/c2 by validating
each complement) that the package no longer computes; they reuse
package primitives such as Con(L) and serve as references for the
forms the package keeps.  The last group holds the replaced algorithms:
the congruence closure with a nested ``find`` that tests roots when
it queues a pair, which every closure-based oracle here runs (the
package's kernel compares products when it queues and roots when it
pops), Con(L) and the join of congruences by a compatibility closure per join
(the package ORs covering-pair masks), Con(L) as the identity closed
under partition joins, union-find merges of two labelings, with every
principal congruence and balance by closing each bound class again (the
package reads balance from one table of principal congruences, Con(L) as
the OR-closure of the covering-pair masks of its join-irreducibles),
the covering pairs by a scan for lower covers, that table with one
closure for every pair of elements (the package closes the comparable
pairs only and reads any other pair at its meet and join), two other
derivations of those join-irreducibles,
the placement generator with the down-set size prune only, the
placement generator that scans every odd mask for the next strict
down-set, the placement generator that tests every listed down-set's
meets with all placed elements, the down-twin prune read from
transposed up-masks, the canonical forms of every placement with no
down-twin prune, the colour refinement and the canonical form by a
search over every permutation of every colour class, the
construction of the lattice tables by a scan for each pair's bound,
and the LATT writer that joins one character per cell, which the
package's tie-break prune, list of placed down-sets,
dropping of a down-set at its first failed meet, down-twin prune read
from the down-masks, settled-class refinement, twin-aware search, mask
lookup and row bytes translated to text replace.
The same group keeps the pair scans and fixpoints that one fold of
join or meet over a set replaces: ideal and filter tests and primality
by scanning pairs of members, generated ideals and filters by closing
until nothing changes, the maximal filter of the non-complemented
witness grown greedily, the generated congruence closed from one pair
per member, and distributivity by a scan of every triple.
A further group computes Con(L) and principal congruences from Day's
dependency relation D on the join-irreducible elements, with no
closure at all.  It lists every D*-closed set of join-irreducibles;
the package takes only the closures of single ones, as the masks of
J(Con L), and ORs those.  The same method is meant to replace the
package's table of principal congruences.
The quotient L/θ from the block order [x] <= [y] iff x∨y θ y is the
reference for the package's image of the order under the block labels,
and ``check_report`` re-checks every witness of a ``classify`` report,
and conditions c1, c2 and c4, against the definitions alone, reading
ideals and filters from the down-set and up-set of each element checked
by pair scans, which the
subset scans ``brute_ideals`` and ``brute_maximal_ideals`` ground on
small lattices.
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from itertools import combinations, permutations, product
from math import factorial, prod
from typing import Callable, Iterable, Iterator, Sequence

from finlat import (
    Congruence,
    ElementSet,
    FiniteLattice,
    LatticeError,
    NonComplementedWitness,
    NotALattice,
    NotAPartialOrder,
    NotBounded,
    OwnerMismatch,
    Partition,
    PropertyReport,
    all_congruences,
    annihilator_filter,
    annihilator_ideal,
    canonical_form,
    enumerate_filters,
    enumerate_ideals,
    from_leq_matrix,
    is_balanced_congruence,
    is_filter,
    is_homomorphism,
    is_ideal,
    is_maximal_filter,
    is_maximal_ideal,
    quotient,
    standard_lattice,
    three_chain_quotient_from_nested_primes,
)
from finlat.congruences import Principal, _normalize
from finlat.core import _canonical_from_up_masks

Table = Sequence[Sequence[int]]


def axiom_violations(lattice) -> list[tuple[str, tuple[int, ...]]]:
    """Every broken lattice axiom with its witnessing elements; empty if none.

    Accepts any object with ``size``, ``leq``, ``meet``, ``join``,
    ``bottom`` and ``top``, so tests can hand it deliberately broken
    tables.  Checks run in stages (order axioms, boundedness, table
    laws, then glb/lub agreement); later stages are skipped once an
    earlier stage reports, since their results would be meaningless.
    Greatest lower and least upper bounds come from a scan of ``leq``,
    independent of how the package builds its tables.
    """
    n = lattice.size
    leq = lattice.leq
    out: list[tuple[str, tuple[int, ...]]] = []
    for i in range(n):
        if not leq[i][i]:
            out.append(("reflexivity", (i,)))
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                out.append(("antisymmetry", (i, j)))
    for i in range(n):
        for j in range(n):
            if not leq[i][j]:
                continue
            for k in range(n):
                if leq[j][k] and not leq[i][k]:
                    out.append(("transitivity", (i, j, k)))
    if out:
        return out

    bottoms = [i for i in range(n) if all(leq[i][j] for j in range(n))]
    tops = [i for i in range(n) if all(leq[j][i] for j in range(n))]
    if len(bottoms) != 1 or len(tops) != 1:
        minimal = [i for i in range(n) if not any(leq[j][i] for j in range(n) if j != i)]
        maximal = [i for i in range(n) if not any(leq[i][j] for j in range(n) if j != i)]
        out.append(("bounded", tuple(minimal if len(bottoms) != 1 else maximal)))
        return out
    if lattice.bottom != bottoms[0]:
        out.append(("bottom", (lattice.bottom, bottoms[0])))
    if lattice.top != tops[0]:
        out.append(("top", (lattice.top, tops[0])))
    if out:
        return out

    meet, join = lattice.meet, lattice.join
    for x in range(n):
        for y in range(n):
            if not 0 <= meet[x][y] < n or not 0 <= join[x][y] < n:
                out.append(("table-range", (x, y)))
    if out:
        return out
    for x in range(n):
        for y in range(n):
            if meet[x][y] != meet[y][x]:
                out.append(("meet-commutativity", (x, y)))
            if join[x][y] != join[y][x]:
                out.append(("join-commutativity", (x, y)))
        if meet[x][x] != x:
            out.append(("meet-idempotence", (x,)))
        if join[x][x] != x:
            out.append(("join-idempotence", (x,)))
    for x in range(n):
        for y in range(n):
            if meet[x][join[x][y]] != x:
                out.append(("meet-absorption", (x, y)))
            if join[x][meet[x][y]] != x:
                out.append(("join-absorption", (x, y)))
            for z in range(n):
                if meet[meet[x][y]][z] != meet[x][meet[y][z]]:
                    out.append(("meet-associativity", (x, y, z)))
                if join[join[x][y]][z] != join[x][join[y][z]]:
                    out.append(("join-associativity", (x, y, z)))
    if out:
        return out

    for x in range(n):
        for y in range(n):
            lower = [z for z in range(n) if leq[z][x] and leq[z][y]]
            upper = [z for z in range(n) if leq[x][z] and leq[y][z]]
            glb = next((m for m in lower if all(leq[z][m] for z in lower)), None)
            lub = next((m for m in upper if all(leq[m][z] for z in upper)), None)
            if meet[x][y] != glb:
                out.append(("meet-glb", (x, y)))
            if join[x][y] != lub:
                out.append(("join-lub", (x, y)))
    return out


def all_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Every partition of {0..n-1} as a normalized label tuple.

    Labels form restricted growth strings: the first element is 0 and
    each element's label is at most one more than the maximum before it,
    which is exactly the normalized form, so each partition appears once.
    """
    labels = [0] * n

    def grow(i: int, used: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(labels)
            return
        for lab in range(used + 1):
            labels[i] = lab
            yield from grow(i + 1, max(used, lab + 1))

    yield from grow(1, 1) if n > 1 else iter([(0,) * n])


def compatible(lattice: FiniteLattice, block_of: tuple[int, ...]) -> bool:
    """Direct x, y, z scan of the congruence compatibility condition."""
    n = lattice.size
    for x in range(n):
        for y in range(n):
            if block_of[x] != block_of[y]:
                continue
            for z in range(n):
                if block_of[lattice.meet[x][z]] != block_of[lattice.meet[y][z]]:
                    return False
                if block_of[lattice.join[x][z]] != block_of[lattice.join[y][z]]:
                    return False
    return True


def brute_congruences(lattice: FiniteLattice) -> set[tuple[int, ...]]:
    """All congruence partitions by scanning the whole partition space."""
    return {p for p in all_partitions(lattice.size) if compatible(lattice, p)}


def refines(finer: tuple[int, ...], coarser: tuple[int, ...]) -> bool:
    """True iff every block of the first lies inside a block of the second."""
    image: dict[int, int] = {}
    for f, c in zip(finer, coarser):
        if image.setdefault(f, c) != c:
            return False
    return True


def brute_principal(
    lattice: FiniteLattice,
    a: int,
    b: int,
    congruences: set[tuple[int, ...]] | None = None,
) -> tuple[int, ...]:
    """Inclusion-minimum congruence merging a and b, by exhaustive scan."""
    if congruences is None:
        congruences = brute_congruences(lattice)
    candidates = [p for p in congruences if p[a] == p[b]]
    least = [p for p in candidates if all(refines(p, q) for q in candidates)]
    if len(least) != 1:  # an explicit raise, so the check survives python -O
        raise AssertionError("congruences containing a pair must have a least element")
    return least[0]


def brute_isomorphic(first: FiniteLattice, second: FiniteLattice) -> bool:
    """Order-isomorphism by permutation search.

    Any order isomorphism maps least to least and greatest to greatest,
    so only the interior elements are permuted.
    """
    n = first.size
    if n != second.size:
        return False
    if n == 1:
        return True
    f_mid = [e for e in range(n) if e not in (first.bottom, first.top)]
    s_mid = [e for e in range(n) if e not in (second.bottom, second.top)]
    perm = [0] * n
    perm[first.bottom] = second.bottom
    perm[first.top] = second.top
    for image in permutations(s_mid):
        for src, dst in zip(f_mid, image):
            perm[src] = dst
        if all(
            first.leq[i][j] == second.leq[perm[i]][perm[j]]
            for i in range(n)
            for j in range(n)
        ):
            return True
    return False


def brute_ideals(lattice: FiniteLattice) -> set[int]:
    """Bitmasks of all ideals, by scanning every nonempty subset."""
    n = lattice.size
    out = set()
    for mask in range(1, 1 << n):
        members = [e for e in range(n) if mask >> e & 1]
        down_closed = all(
            mask >> y & 1
            for x in members
            for y in range(n)
            if lattice.leq[y][x]
        )
        join_closed = all(
            mask >> lattice.join[x][y] & 1 for x in members for y in members
        )
        if down_closed and join_closed:
            out.add(mask)
    return out


def _maximal_proper(masks: set[int], size: int) -> set[int]:
    """The masks other than the full set lying under no other such mask."""
    proper = masks - {(1 << size) - 1}
    return {m for m in proper if not any(m != o and m & ~o == 0 for o in proper)}


def brute_maximal_ideals(lattice: FiniteLattice) -> set[int]:
    """Bitmasks of proper ideals with no strictly larger proper ideal."""
    return _maximal_proper(brute_ideals(lattice), lattice.size)


def ideals_by_principal_scan(lattice: FiniteLattice, upward: bool = False) -> set[int]:
    """Bitmasks of all ideals (filters when ``upward``), in O(n^3).

    In a finite lattice every ideal is the down-set of its join, so the
    candidates are the down-sets ↓a (up-sets ↑a), read off ``leq``.  Each
    is kept when it passes the definition by pair scans: closed downward
    (upward), and closed under join (meet).  ``brute_ideals`` is the
    reference on small lattices.
    """
    n, leq = lattice.size, lattice.leq
    # inside(a, x): x lies in ↓a (in ↑a when upward)
    inside = (lambda a, x: leq[a][x]) if upward else (lambda a, x: leq[x][a])
    table = lattice.meet if upward else lattice.join
    out = set()
    for a in range(n):
        members = [x for x in range(n) if inside(a, x)]
        mask = sum(1 << x for x in members)
        closed = all(mask >> y & 1 for x in members for y in range(n) if inside(x, y))
        if closed and all(mask >> table[x][y] & 1 for x in members for y in members):
            out.add(mask)
    return out


def maximal_ideals_by_principal_scan(lattice: FiniteLattice, upward: bool = False) -> set[int]:
    """The proper sets of ``ideals_by_principal_scan`` under no other proper one."""
    return _maximal_proper(ideals_by_principal_scan(lattice, upward), lattice.size)


def naive_enumerate(n: int) -> list[FiniteLattice]:
    """One representative per isomorphism class, from raw matrix scan.

    Every finite poset has a linear extension, so scanning all
    reflexive order matrices whose relation only points from lower to
    higher index covers every class; candidates that fail lattice
    validation are discarded and survivors are deduplicated by
    brute-force isomorphism.
    """
    free = [(i, j) for i in range(n) for j in range(i + 1, n)]
    reps: list[FiniteLattice] = []
    for bits in range(1 << len(free)):
        rows = [[i == j for j in range(n)] for i in range(n)]
        for idx, (i, j) in enumerate(free):
            if bits >> idx & 1:
                rows[i][j] = True
        try:
            lattice = from_leq_matrix(rows)
        except LatticeError:
            continue
        if not any(brute_isomorphic(lattice, seen) for seen in reps):
            reps.append(lattice)
    return reps


def balanced_pairwise(lattice: FiniteLattice) -> bool:
    """Balance as: 0-classes agree exactly when 1-classes agree, over Con(L) pairs."""
    congs = all_congruences(lattice)
    bottom, top = lattice.bottom, lattice.top
    pairs = [(frozenset(c.class_of(bottom)), frozenset(c.class_of(top))) for c in congs]
    for i, (zero_i, one_i) in enumerate(pairs):
        for zero_j, one_j in pairs[i + 1 :]:
            if (zero_i == zero_j) != (one_i == one_j):
                return False
    return True


def maps_onto_three_chain(
    lattice: FiniteLattice, congruences: Sequence[Congruence]
) -> bool:
    """Some congruence has a quotient isomorphic to the 3-element chain."""
    target = canonical_form(standard_lattice("chain", 3))
    for cong in congruences:
        if cong.num_blocks != 3:
            continue
        image, _ = quotient(lattice, cong)
        if canonical_form(image) == target:
            return True
    return False


def quotient_by_block_joins(lattice: FiniteLattice, block_of: Sequence[int]) -> FiniteLattice:
    """L/θ from the block order [x] <= [y] iff x∨y θ y, read at each block's least member.

    ``block_of`` holds the normalized labels of a congruence θ.  The
    package builds the same order as the image of the order of L.
    """
    heads: dict[int, int] = {}
    for e, label in enumerate(block_of):
        heads.setdefault(label, e)
    reps = [heads[label] for label in range(len(heads))]
    join = lattice.join
    return from_leq_matrix([[block_of[join[x][y]] == block_of[y] for y in reps] for x in reps])


def complemented_by_annihilators(lattice: FiniteLattice) -> bool:
    """Every element's annihilator filter and annihilator ideal intersect."""
    return all(
        annihilator_filter(lattice, a).mask & annihilator_ideal(lattice, a).mask
        for a in lattice.elements()
    )


def c1_c2_by_scan(lattice: FiniteLattice) -> tuple[bool, bool]:
    """Conditions c1 and c2 by validating each maximal set's complement.

    c1: some maximal filter's complement is not an ideal, or not a
    maximal one; c2 is the dual.
    """
    c1 = any(
        not is_ideal(lattice, f.complement()) or not is_maximal_ideal(lattice, f.complement())
        for f in enumerate_filters(lattice)
        if is_maximal_filter(lattice, f)
    )
    c2 = any(
        not is_filter(lattice, i.complement()) or not is_maximal_filter(lattice, i.complement())
        for i in enumerate_ideals(lattice)
        if is_maximal_ideal(lattice, i)
    )
    return c1, c2


def unbalanced_by_covering_pairs(lattice: FiniteLattice, principal: Principal) -> bool:
    """Whether some con(a, b) over a covering pair a ≺ b is unbalanced.

    These are the join-irreducible congruences.  That a lattice with an
    unbalanced congruence has an unbalanced join-irreducible one is
    observed, not proved; the tests compare this with the scan over all
    of Con(L).  ``principal`` is the lookup of ``principal_table``.
    """
    n, down, up = lattice.size, lattice.down_masks, lattice.up_masks
    return any(
        not is_balanced_congruence(
            lattice, Congruence(lattice, Partition(n, principal(a, b))), principal
        )
        for a in range(n)
        for b in range(n)
        if a != b and (up[a] & down[b]).bit_count() == 2
    )


def closure_by_find(
    lattice: FiniteLattice, pairs: Iterable[tuple[int, int]], within: Sequence[int] | None = None
) -> tuple[int, ...] | None:
    """The congruence closure with a nested ``find`` and a root test at push time.

    Labels of the least congruence containing the pairs, or None when
    ``within`` is given and a merge joins two of its blocks.  On one pair
    and no ``within`` it is the reference for ``congruences._closure``; closing
    a partition's block pairs inside the partition is a reference for
    ``core._blocks_compatible``.  Each merge of (x, y) queues, for z in
    ascending order, (x∧z, y∧z) and then (x∨z, y∨z), each only when its
    two elements have different roots, and merges a pair when it is
    popped; ``congruences._closure`` merges a pair as soon as it reads it.
    """
    n = lattice.size
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    meet, join = lattice.meet, lattice.join
    queue: deque[tuple[int, int]] = deque()
    for pair in pairs:
        queue.append(pair)
        while queue:
            x, y = queue.popleft()
            rx, ry = find(x), find(y)
            if rx == ry:
                continue
            if within is not None and within[x] != within[y]:
                return None
            if ry < rx:
                rx, ry = ry, rx
            parent[ry] = rx
            mx, my, jx, jy = meet[x], meet[y], join[x], join[y]
            for z in range(n):
                if find(mx[z]) != find(my[z]):
                    queue.append((mx[z], my[z]))
                if find(jx[z]) != find(jy[z]):
                    queue.append((jx[z], jy[z]))
    return _normalize([find(i) for i in range(n)])


def closure_by_queue(lattice: FiniteLattice, a: int, b: int) -> tuple[int, ...]:
    """Normalized labels of con(a, b), with the root test at pop time.

    The kernel ``congruences._closure`` replaced: each merge of (x, y) queues
    every pair of distinct products, (x∧z, y∧z) for z in ascending order
    and then (x∨z, y∨z), and a popped pair merges only if its roots
    differ.  Path halving, the smaller root kept and the one-block exit
    are as in ``congruences._closure``, which merges a product pair as soon as
    it reads it and queues only pairs that merged.
    """
    n = lattice.size
    parent = list(range(n))
    blocks = n
    meet, join = lattice.meet, lattice.join
    queue: deque[tuple[int, int]] = deque([(a, b)])
    while queue:
        x, y = queue.popleft()
        rx, ry = x, y
        while parent[rx] != rx:
            parent[rx] = rx = parent[parent[rx]]
        while parent[ry] != ry:
            parent[ry] = ry = parent[parent[ry]]
        if rx == ry:
            continue
        if ry < rx:
            rx, ry = ry, rx
        parent[ry] = rx
        blocks -= 1
        if blocks == 1:
            return (0,) * n
        queue.extend([(u, v) for u, v in zip(meet[x], meet[y]) if u != v])
        queue.extend([(u, v) for u, v in zip(join[x], join[y]) if u != v])
    for x in range(n):
        parent[x] = parent[parent[x]]
    return _normalize(parent)


def _block_pairs(block_of: Sequence[int]) -> list[tuple[int, int]]:
    """(least element of its block, e) for every other element e."""
    first: dict[int, int] = {}
    pairs = []
    for e, lab in enumerate(block_of):
        head = first.setdefault(lab, e)
        if head != e:
            pairs.append((head, e))
    return pairs


def join_by_closure(
    lattice: FiniteLattice, left: Sequence[int], right: Sequence[int]
) -> tuple[int, ...]:
    """Least congruence containing two partitions, by compatibility closure."""
    return closure_by_find(lattice, _block_pairs(left) + _block_pairs(right))


def meet_by_common_refinement(left: Sequence[int], right: Sequence[int]) -> tuple[int, ...]:
    """Intersection of two partitions: x and y share a block iff they share one in both."""
    return _normalize(list(zip(left, right)))


def congruences_by_pair_closure(lattice: FiniteLattice) -> list[tuple[int, ...]]:
    """Con(L) as sorted label tuples: principal congruences closed under join.

    Each join runs the full compatibility closure, and every new
    congruence is joined with every congruence found so far.
    """
    n = lattice.size
    identity = tuple(range(n))
    seen = {identity}
    frontier: list[tuple[int, ...]] = []
    for a in range(n):
        for b in range(a + 1, n):
            p = closure_by_find(lattice, [(a, b)])
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    while frontier:
        p = frontier.pop()
        for q in list(seen):
            joined = join_by_closure(lattice, p, q)
            if joined not in seen:
                seen.add(joined)
                frontier.append(joined)
    return sorted(seen)


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


def congruences_by_frontier_joins(lattice: FiniteLattice) -> list[tuple[int, ...]]:
    """Con(L) as sorted label tuples: the identity closed under principal joins.

    Every known congruence is joined, as partitions, with every distinct
    principal congruence: |Con L| times |generators| joins.
    """
    n = lattice.size
    principal = {closure_by_find(lattice, [(a, b)]) for a in range(n) for b in range(a + 1, n)}
    generators = [_block_pairs(labels) for labels in principal]
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        labels = frontier.pop()
        joined = {_join_labels(labels, pairs) for pairs in generators} - seen
        seen |= joined
        frontier.extend(joined)
    return sorted(seen)


def balanced_by_generated_closure(lattice: FiniteLattice, cong: Congruence) -> bool:
    """Balance of one congruence by closing each of its two bound classes again.

    The 0-class must equal the 0-class of the congruence generated by
    the whole 1-class, and dually; each is generated by
    ``generated_congruence_by_pairs``.
    """
    if cong.lattice is not lattice:
        raise OwnerMismatch("congruence belongs to a different lattice")
    zero_class = cong.class_of(lattice.bottom)
    one_class = cong.class_of(lattice.top)

    def class_of(labels: Sequence[int], x: int) -> tuple[int, ...]:
        return tuple(e for e, label in enumerate(labels) if label == labels[x])

    if class_of(generated_congruence_by_pairs(lattice, one_class), lattice.bottom) != zero_class:
        return False
    return class_of(generated_congruence_by_pairs(lattice, zero_class), lattice.top) == one_class


def principal_table_by_all_pairs(lattice: FiniteLattice) -> Callable[[int, int], tuple[int, ...]]:
    """con(a, b) for every pair of elements, as a lookup: one closure per pair a < b.

    Equal labelings are stored once.  The package runs a closure for the
    comparable pairs only and reads any other pair at (a∧b, a∨b).
    """
    n = lattice.size
    identity = tuple(range(n))
    rows = [[identity] * n for _ in range(n)]
    stored: dict[tuple[int, ...], tuple[int, ...]] = {}
    for a in range(n):
        for b in range(a + 1, n):
            labels = closure_by_find(lattice, [(a, b)])
            rows[a][b] = rows[b][a] = stored.setdefault(labels, labels)
    return lambda a, b: rows[a][b]


def join_irreducibles_by_scan(lattice: FiniteLattice) -> dict[int, int]:
    """Each element j with exactly one lower cover j_*, mapped to it; by scanning for covers."""
    n, leq = lattice.size, lattice.leq
    out = {}
    for j in range(n):
        lower = [
            a
            for a in range(n)
            if a != j
            and leq[a][j]
            and not any(c not in (a, j) and leq[a][c] and leq[c][j] for c in range(n))
        ]
        if len(lower) == 1:
            out[j] = lower[0]
    return out


def join_irreducibles_by_fold(lattice: FiniteLattice) -> dict[int, int]:
    """J(L) with lower covers: j whose strict down-set joins (from the bottom) to j_* != j."""
    n, down, join = lattice.size, lattice.down_masks, lattice.join
    bottom = 1 << lattice.bottom
    out = {}
    for j in range(n):
        lower = reduce(lambda x, y: join[x][y], _members(down[j] & ~(1 << j) | bottom))
        if lower != j:
            out[j] = lower
    return out


def _members(mask: int) -> list[int]:
    return [e for e in range(mask.bit_length()) if mask >> e & 1]


def irreducibles_from_join_irreducible_elements(lattice: FiniteLattice) -> set[tuple[int, ...]]:
    """con(j_*, j) for every element j with exactly one lower cover j_*."""
    return {
        closure_by_find(lattice, [(lower, j)])
        for j, lower in join_irreducibles_by_scan(lattice).items()
    }


def irreducibles_by_join_test(lattice: FiniteLattice) -> set[tuple[int, ...]]:
    """The principal congruences that are not the join of those strictly below them."""
    n = lattice.size
    principal = {closure_by_find(lattice, [(a, b)]) for a in range(n) for b in range(a + 1, n)}
    out = set()
    for theta in principal:
        below = [p for p in principal if p != theta and refines(p, theta)]
        joined = reduce(lambda x, y: join_by_closure(lattice, x, y), below, tuple(range(n)))
        if joined != theta:
            out.add(theta)
    return out


def placements_by_size(n: int) -> Iterator[tuple[int, ...]]:
    """Down-mask placements with the down-set size prune only.

    The down-masks ``enumeration._placements`` yielded before its
    tie-break between equal sizes and its down-twin prune: every candidate down-set at least as
    large as the previous element's whose pairs with all placed elements
    have a greatest common lower bound.  Its output is a superset of the
    package's placements and still holds every isomorphism class.
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
        least = down[k - 1].bit_count() - 1
        for strict in range(1, 1 << k, 2):
            if strict.bit_count() < least:
                continue
            if any(down[j] & ~strict for j in range(k) if strict >> j & 1):
                continue
            mine = strict | 1 << k
            if any(
                (down[j] & mine) & ~down[(down[j] & mine).bit_length() - 1]
                for j in range(k)
            ):
                continue
            down[k] = mine
            yield from place(k + 1)

    yield from place(1)


def placements_by_mask_scan(n: int) -> Iterator[tuple[int, ...]]:
    """The package's placements before the down-twin prune, scanning every odd mask.

    The down-masks ``enumeration._placements`` yielded before it
    listed the down-sets of the placed elements: for element k it tries
    each of the 2**(k-1) odd masks below bit k, keeps those that pass
    the size and tie-break prunes, and checks from scratch that the mask
    is down-closed and that every new pair has a meet.
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
            if any(down[j] & ~strict for j in range(k) if strict >> j & 1):
                continue
            mine = strict | 1 << k
            if any(
                (down[j] & mine) & ~down[(down[j] & mine).bit_length() - 1]
                for j in range(k)
            ):
                continue
            down[k] = mine
            yield from place(k + 1)

    yield from place(1)


def placements_by_meet_scan(n: int) -> Iterator[tuple[int, ...]]:
    """The package's placements before the down-twin prune, testing every meet.

    The down-masks ``enumeration._placements`` yielded before it
    dropped a down-set from its list on the first failed meet: the list
    holds every down-set of the placed elements, and each candidate
    that passes the size and tie-break prunes is checked against every
    placed element for a principal meet.
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
            mine = strict | 1 << k
            commons = (d & mine for d in down[:k])
            if any(common & ~down[common.bit_length() - 1] for common in commons):
                continue
            down[k] = mine
            if k == n - 2:
                yield tuple(down)
                continue
            holding_k = [d | 1 << k for d in downsets if d & strict == strict]
            yield from place(k + 1, downsets + holding_k)

    yield from place(1, [1])


def twins_in_order_by_up_masks(n: int, up: Sequence[int], down: Sequence[int]) -> bool:
    """The down-twin prune, scanning a finished placement for its twins.

    ``enumeration._placements`` records each twin pair as it places the
    elements; here every adjacent pair j, j + 1 is tested for equal
    strict down-masks, and twins must have keys (|up-set|, down-set
    sizes of the up-set's members, in index order) in order, with each
    whole up-set, the twin included, listed from ``up``.
    """
    sizes = [mask.bit_count() for mask in down]
    for j in range(1, n - 2):
        if down[j] ^ down[j + 1] == 3 << j:
            first = [x for x in range(n) if up[j] >> x & 1]
            second = [x for x in range(n) if up[j + 1] >> x & 1]
            if (len(first), [sizes[x] for x in first]) > (len(second), [sizes[x] for x in second]):
                return False
    return True


def canonical_forms_unfiltered(n: int) -> tuple[bytes, ...]:
    """Sorted canonical forms of size n, canonicalizing every placement.

    ``enumeration._canonical_forms`` without its down-twin prune: each
    placement of ``placements_by_meet_scan`` is transposed to up-masks
    and put through ``_canonical_from_up_masks``, with no placement
    skipped.
    """
    forms = {
        _canonical_from_up_masks(n, up_masks(n, down), down) for down in placements_by_meet_scan(n)
    }
    return tuple(sorted(forms))


def up_masks(n: int, down: Sequence[int]) -> tuple[int, ...]:
    """The up-set masks of an order given by its down-set masks."""
    return tuple(sum(1 << j for j in range(n) if down[j] >> i & 1) for i in range(n))


def _refine_colors_by_scan(n: int, up: Sequence[int], down: Sequence[int]) -> list[int]:
    """The package's colour refinement, scanning all n elements per element per round."""
    sizes = [down[i].bit_count() for i in range(n)]
    rank = {v: r for r, v in enumerate(sorted(set(sizes)))}
    color = [rank[v] for v in sizes]
    while True:
        sigs = []
        for i in range(n):
            below = sorted(color[j] for j in range(n) if down[i] >> j & 1 and j != i)
            above = sorted(color[j] for j in range(n) if up[i] >> j & 1 and j != i)
            sigs.append((color[i], tuple(below), tuple(above)))
        order = {s: r for r, s in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if new == color:
            return color
        color = new


def twin_group_count(n: int, up: Sequence[int], down: Sequence[int]) -> int:
    """How many groups of twins (equal strict down-set and strict up-set) the order has."""
    return len({(down[e] & ~(1 << e), up[e] & ~(1 << e)) for e in range(n)})


def _color_classes(n: int, up: Sequence[int], down: Sequence[int]) -> list[list[int]]:
    color = _refine_colors_by_scan(n, up, down)
    return [[e for e in range(n) if color[e] == c] for c in sorted(set(color))]


def permutation_count(n: int, up: Sequence[int], down: Sequence[int]) -> int:
    """How many labelings ``canonical_by_permutations`` compares."""
    return prod(factorial(len(part)) for part in _color_classes(n, up, down))


def canonical_by_permutations(n: int, up: Sequence[int], down: Sequence[int]) -> bytes:
    """The canonical form as the least byte string over every class-respecting labeling.

    Every permutation of every colour class is tried, twins included,
    and each labeling is encoded in full before the comparison.
    """
    parts = _color_classes(n, up, down)
    best = min(
        bytes(48 + (up[a] >> b & 1) for a in order for b in order)
        for order in (
            [e for part in chosen for e in part]
            for chosen in product(*(permutations(p) for p in parts))
        )
    )
    return f"{n}:".encode() + best


def _unique_bound(masks: Sequence[int], candidates: int) -> int | None:
    """The element of ``candidates`` whose mask covers all of them, if any."""
    rest = candidates
    while rest:
        m = rest.bit_length() - 1
        if candidates & ~masks[m] == 0:
            return m
        rest &= ~(1 << m)
    return None


def lattice_tables_by_scan(matrix: Sequence[Sequence[object]]) -> dict[str, object]:
    """Every field ``FiniteLattice(matrix)`` derives, by the scan it used to run.

    Checks each stage over all pairs (reflexivity with antisymmetry,
    then transitivity, boundedness, and a meet and a join for every
    ordered pair in row-major order) and raises the same exception,
    with the same message, at the first failure.  Each bound is found
    by scanning the common lower (upper) bounds, greatest index first,
    for one that covers them all: cubic in the size.
    """
    n = len(matrix)
    if n < 1 or any(len(row) != n for row in matrix):
        raise ValueError("order matrix must be square with n >= 1")
    leq = tuple(tuple(bool(v) for v in row) for row in matrix)
    for i in range(n):
        if not leq[i][i]:
            raise NotAPartialOrder(f"reflexivity fails at {i}")
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                raise NotAPartialOrder(f"antisymmetry fails at ({i}, {j})")
    up = tuple(sum(1 << j for j in range(n) if leq[i][j]) for i in range(n))
    for i in range(n):
        for j in range(n):
            if leq[i][j] and up[j] & ~up[i]:
                k = (up[j] & ~up[i]).bit_length() - 1
                raise NotAPartialOrder(f"transitivity fails at ({i}, {j}, {k})")
    down = tuple(sum(1 << j for j in range(n) if leq[j][i]) for i in range(n))
    full = (1 << n) - 1
    bottoms = [i for i in range(n) if up[i] == full]
    tops = [i for i in range(n) if down[i] == full]
    if len(bottoms) != 1 or len(tops) != 1:
        raise NotBounded("order has no unique bottom or top element")
    meet_rows = []
    join_rows = []
    for x in range(n):
        mrow = []
        jrow = []
        for y in range(n):
            m = _unique_bound(down, down[x] & down[y])
            if m is None:
                raise NotALattice(f"elements ({x}, {y}) have no meet")
            j = _unique_bound(up, up[x] & up[y])
            if j is None:
                raise NotALattice(f"elements ({x}, {y}) have no join")
            mrow.append(m)
            jrow.append(j)
        meet_rows.append(tuple(mrow))
        join_rows.append(tuple(jrow))
    return {
        "size": n,
        "leq": leq,
        "meet": tuple(meet_rows),
        "join": tuple(join_rows),
        "bottom": bottoms[0],
        "top": tops[0],
        "down_masks": down,
        "up_masks": up,
    }


def format_latt_by_cells(lattice: FiniteLattice) -> str:
    """LATT v1 text written one cell at a time, as ``format_latt`` used to.

    The package writes each row as its bytes translated to ``0``/``1``.
    """
    n = lattice.size
    lines = ["LATT 1", f"n={n}"]
    for i in range(n):
        lines.append("".join("1" if lattice.leq[i][j] else "0" for j in range(n)))
    return "\n".join(lines) + "\n"


def closed_by_pairs(
    lattice: FiniteLattice, subset: ElementSet, masks: Sequence[int], table: Table
) -> bool:
    """Nonempty, closed under one side's principal sets and its operation, pair by pair.

    ``masks`` and ``table`` are ``down_masks`` and ``join`` for an ideal,
    ``up_masks`` and ``meet`` for a filter.
    """
    if subset.mask == 0:
        return False
    members = subset.members()
    if any(masks[x] & ~subset.mask for x in members):
        return False
    return all(table[x][y] in subset for x in members for y in members)


def prime_by_pairs(lattice: FiniteLattice, subset: ElementSet, other: Table) -> bool:
    """Proper, with the complement closed under the other side's operation, pair by pair."""
    if subset.mask == (1 << lattice.size) - 1:
        return False
    outside = subset.complement().members()
    return all(other[x][y] not in subset for x in outside for y in outside)


def generated_by_fixpoint(
    lattice: FiniteLattice, mask: int, table: Table, masks: Sequence[int]
) -> int:
    """The least ideal (filter) holding a nonempty mask: close under the operation
    and the principal sets, and repeat until nothing changes."""
    n = lattice.size
    while True:
        new = mask
        members = [e for e in range(n) if mask >> e & 1]
        for x in members:
            new |= masks[x]
            for y in members:
                new |= 1 << table[x][y]
        if new == mask:
            return mask
        mask = new


def generated_congruence_by_pairs(
    lattice: FiniteLattice, members: Sequence[int]
) -> tuple[int, ...]:
    """The least congruence collapsing the members: one closure of (first, e) per other e."""
    first, *rest = sorted(set(members))
    return closure_by_find(lattice, [(first, e) for e in rest])


def distributive_by_triples(lattice: FiniteLattice) -> bool:
    """Full triple scan of x∧(y∨z) = (x∧y)∨(x∧z)."""
    n = lattice.size
    meet, join = lattice.meet, lattice.join
    return all(
        meet[x][join[y][z]] == join[meet[x][y]][meet[x][z]]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


def witness_by_greedy_growth(lattice: FiniteLattice, a: int) -> NonComplementedWitness:
    """The non-complemented witness with the maximal filter grown greedily.

    From the seed filter, repeatedly adjoin the least element whose
    generated filter stays proper.  Every generated set is closed by
    ``generated_by_fixpoint``.  Nothing is checked; the caller tests the
    invariants.
    """
    n, meet, up = lattice.size, lattice.meet, lattice.up_masks
    full = (1 << n) - 1
    seed = generated_by_fixpoint(lattice, annihilator_filter(lattice, a).mask | 1 << a, meet, up)
    maximal = seed
    grew = True
    while grew:
        grew = False
        for e in range(n):
            if maximal >> e & 1:
                continue
            candidate = generated_by_fixpoint(lattice, maximal | 1 << e, meet, up)
            if candidate != full:
                maximal = candidate
                grew = True
                break
    residual = ~maximal & full
    extended = generated_by_fixpoint(lattice, residual | 1 << a, lattice.join, lattice.down_masks)
    return NonComplementedWitness(
        a, *(ElementSet(n, mask) for mask in (seed, maximal, residual, extended))
    )


def _lower_covers(lattice: FiniteLattice) -> list[list[int]]:
    """The lower covers of every element, by scanning the strict down-sets."""
    n, leq = lattice.size, lattice.leq
    return [
        [
            a
            for a in range(n)
            if a != y
            and leq[a][y]
            and not any(c not in (a, y) and leq[a][c] and leq[c][y] for c in range(n))
        ]
        for y in range(n)
    ]


def covering_pairs_by_scan(lattice: FiniteLattice) -> list[tuple[int, int]]:
    """Every covering pair a ≺ b, from the lower covers found by scanning."""
    return [(a, b) for b, lower in enumerate(_lower_covers(lattice)) for a in lower]


def _dependencies(lattice: FiniteLattice, lower: list[list[int]]) -> dict[int, set[int]]:
    """Day's relation D on J(L): each join-irreducible q to the set of p with p D q.

    p D q iff p != q and some x has p <= q∨x and p ≰ q_*∨x, where q_* is
    the one lower cover of q.  ``lower`` lists each element's lower covers.
    """
    n, leq, join = lattice.size, lattice.leq, lattice.join
    below = {q: covers[0] for q, covers in enumerate(lower) if len(covers) == 1}
    return {
        q: {
            p
            for p in below
            if p != q
            and any(leq[p][join[q][x]] and not leq[p][join[below[q]][x]] for x in range(n))
        }
        for q in below
    }


def _dependency_closure(depends: dict[int, set[int]], seed: set[int]) -> frozenset[int]:
    """The least D*-closed set holding ``seed``: with q it holds every p with p D q."""
    closed = set(seed)
    stack = list(seed)
    while stack:
        for p in depends[stack.pop()] - closed:
            closed.add(p)
            stack.append(p)
    return frozenset(closed)


def _theta(
    lattice: FiniteLattice, lower: list[list[int]], closed: frozenset[int]
) -> tuple[int, ...]:
    """θ_S as block labels, for a D*-closed set S of join-irreducibles.

    The blocks are the components of the covering pairs x ≺ y whose
    join-irreducibles below y and not below x all lie in S.
    """
    n, leq = lattice.size, lattice.leq
    irreducibles = [p for p, covers in enumerate(lower) if len(covers) == 1]
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for y, covers in enumerate(lower):
        for x in covers:
            if all(p in closed for p in irreducibles if leq[p][y] and not leq[p][x]):
                neighbours[x].append(y)
                neighbours[y].append(x)
    labels = [-1] * n
    block = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        labels[start] = block
        stack = [start]
        while stack:
            for e in neighbours[stack.pop()]:
                if labels[e] == -1:
                    labels[e] = block
                    stack.append(e)
        block += 1
    return tuple(labels)


def congruences_by_dependency_relation(lattice: FiniteLattice) -> list[tuple[int, ...]]:
    """Con(L) as sorted label tuples: θ_S for every D*-closed set S of join-irreducibles.

    Con(L) is isomorphic to the lattice of D*-closed subsets of J(L)
    (Freese, Ježek & Nation, *Free Lattices*, ch. 2), so no closure of a
    partition is run.  Every closed set is listed, and no duplicate is
    removed, so two sets with one congruence would show twice.
    """
    lower = _lower_covers(lattice)
    depends = _dependencies(lattice, lower)
    irreducibles = sorted(depends)
    return sorted(
        _theta(lattice, lower, frozenset(subset))
        for r in range(len(irreducibles) + 1)
        for subset in combinations(irreducibles, r)
        if all(depends[q] <= set(subset) for q in subset)
    )


def principal_by_dependency_relation(lattice: FiniteLattice, a: int, b: int) -> tuple[int, ...]:
    """con(a, b) as θ of the D*-closure of {p ∈ J(L) : p <= a∨b, p ≰ a∧b}."""
    leq = lattice.leq
    top, bottom = lattice.join[a][b], lattice.meet[a][b]
    lower = _lower_covers(lattice)
    depends = _dependencies(lattice, lower)
    seed = {p for p in depends if leq[p][top] and not leq[p][bottom]}
    return _theta(lattice, lower, _dependency_closure(depends, seed))


def _require(holds: bool, message: str) -> None:
    if not holds:  # an explicit raise, so the check survives python -O
        raise AssertionError(message)


def _least_set(masks: Iterable[int]) -> int | None:
    """The least mask in the (cardinality, bitmask) order of ``ElementSet``."""
    return min(masks, key=lambda mask: (mask.bit_count(), mask), default=None)


def check_report(lattice: FiniteLattice, report: PropertyReport) -> None:
    """Re-check every witness of ``classify(lattice)`` against the definitions alone.

    Each witness must be present exactly when its flag says so, and must
    be the least one in the report's order.  Conditions c1, c2 and c4,
    which have no witness, are derived again by the same scans, so every
    condition but c5 and c6 is certified without Con(L): c1 and c2 by
    comparing each maximal filter's (ideal's) complement with the maximal
    ideals (filters), c4 by a nested pair among the prime filters.
    Ideals and filters come from
    ``ideals_by_principal_scan`` and ``maximal_ideals_by_principal_scan``
    (each down-set and up-set checked by pair scans, maximality by
    comparing them), primality from a pair scan and complements from a
    scan, all polynomial in the size; only the congruence witness reads
    Con(L), which is exponential in |J(L)|:

    - the nested prime ideals map onto chain(3) through
      ``three_chain_quotient_from_nested_primes``, and ``is_homomorphism``
      checks that map again;
    - the complementless element has no complement, and every element of
      a smaller index has one;
    - the unbalanced congruence passes the full compatibility scan, and
      is the least member of Con(L), read from Day's dependency relation
      (``congruences_by_dependency_relation``), that fails balance when
      its two bound classes are closed again;
    - the non-prime maximal ideal (filter) is the least maximal ideal
      (filter) that fails the prime scan, and the lattice is a d-lattice
      iff neither exists.

    Raises ``AssertionError`` at the first witness that fails.
    """
    n, meet, join = lattice.size, lattice.meet, lattice.join
    seven, witnesses = report.seven, report.witnesses

    full = (1 << n) - 1
    maximal_ideals, maximal_filters = (
        maximal_ideals_by_principal_scan(lattice, upward) for upward in (False, True)
    )
    _require(
        seven.c1 == any(full ^ f not in maximal_ideals for f in maximal_filters),
        "c1 differs from the maximal set scan",
    )
    _require(
        seven.c2 == any(full ^ i not in maximal_filters for i in maximal_ideals),
        "c2 differs from the maximal set scan",
    )
    prime_filters = [
        m
        for m in ideals_by_principal_scan(lattice, upward=True)
        if prime_by_pairs(lattice, ElementSet(n, m), join)
    ]
    _require(
        seven.c4 == any(s != b and s & ~b == 0 for s in prime_filters for b in prime_filters),
        "c4 differs from the prime filter scan",
    )

    primes = [
        m
        for m in ideals_by_principal_scan(lattice)
        if prime_by_pairs(lattice, ElementSet(n, m), meet)
    ]
    primes.sort(key=lambda mask: (mask.bit_count(), mask))
    nested = next(
        ((small, big) for small in primes for big in primes if small != big and small & ~big == 0),
        None,
    )
    found = witnesses.nested_prime_ideals
    _require(seven.c3 == (nested is not None), "c3 differs from the prime ideal scan")
    _require(seven.c3 == (found is not None), "c3 and the nested-prime witness disagree")
    if found is not None:
        _require(nested == (found[0].mask, found[1].mask), "nested primes are not the least")
        hom = three_chain_quotient_from_nested_primes(lattice, *found)
        _require(is_homomorphism(hom) and set(hom.map) == {0, 1, 2}, "no map onto chain(3)")

    complementless = next(
        (
            a
            for a in range(n)
            if not any(meet[a][b] == lattice.bottom and join[a][b] == lattice.top for b in range(n))
        ),
        None,
    )
    _require(seven.c7 == (complementless is not None), "c7 differs from the complement scan")
    _require(witnesses.noncomplemented_element == complementless, "wrong complementless element")

    cong = witnesses.unbalanced_congruence
    _require(seven.c6 == (cong is not None), "c6 and the unbalanced witness disagree")
    if cong is not None:
        _require(compatible(lattice, cong.partition.block_of), "witness is not a congruence")
    least = next(
        (
            labels
            for labels in congruences_by_dependency_relation(lattice)
            if not balanced_by_generated_closure(lattice, Congruence(lattice, Partition(n, labels)))
        ),
        None,
    )
    _require(
        least == (None if cong is None else cong.partition.block_of),
        "the unbalanced congruence is not the least",
    )

    nonprime = []
    for upward, other, witness in (
        (False, meet, witnesses.nonprime_maximal_ideal),
        (True, join, witnesses.nonprime_maximal_filter),
    ):
        least = _least_set(
            m
            for m in maximal_ideals_by_principal_scan(lattice, upward)
            if not prime_by_pairs(lattice, ElementSet(n, m), other)
        )
        _require(
            least == (None if witness is None else witness.mask),
            "wrong non-prime maximal ideal or filter",
        )
        nonprime.append(least)
    _require(report.is_d_lattice == (nonprime == [None, None]), "d-lattice flag is wrong")
