"""Shared caches and a call counter for the test suite.

Enumeration and classification of all lattices up to size 8 are needed
by several tests; caching them keeps the suite fast while the first
caller (the timed exhaustive acceptance check) still pays full price.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations, combinations_with_replacement, product

from hypothesis import strategies as st

import finlat as fl
import oracles

EXPECTED_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222}


def count_calls(monkeypatch, name: str, *modules) -> list[tuple]:
    """Record the arguments of every call to ``name`` through any of the modules.

    One wrapper around the first module's function replaces the name in
    each module, so calls that reach it under any of those bindings land
    in the one list returned.
    """
    calls: list[tuple] = []
    original = getattr(modules[0], name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


@lru_cache(maxsize=None)
def lattices_of(n: int) -> tuple[fl.FiniteLattice, ...]:
    return tuple(fl.enumerate_lattices(n))


def lattices_up_to(max_n: int) -> list[fl.FiniteLattice]:
    out: list[fl.FiniteLattice] = []
    for n in range(1, max_n + 1):
        out.extend(lattices_of(n))
    return out


@lru_cache(maxsize=None)
def classified(n: int) -> tuple[tuple[fl.FiniteLattice, fl.PropertyReport], ...]:
    return tuple((lat, fl.classify(lat)) for lat in lattices_of(n))


def classified_up_to(max_n: int) -> list[tuple[fl.FiniteLattice, fl.PropertyReport]]:
    out: list[tuple[fl.FiniteLattice, fl.PropertyReport]] = []
    for n in range(1, max_n + 1):
        out.extend(classified(n))
    return out


@lru_cache(maxsize=None)
def verdicts_of(n: int) -> tuple[fl.TheoremVerdict, ...]:
    return tuple(fl.verify_theorem(lattice) for lattice in fl.enumerate_lattices(n))


def catalog() -> dict[str, fl.FiniteLattice]:
    return {
        "chain1": fl.standard_lattice("chain", 1),
        "chain2": fl.standard_lattice("chain", 2),
        "chain3": fl.standard_lattice("chain", 3),
        "chain4": fl.standard_lattice("chain", 4),
        "boolean2": fl.standard_lattice("boolean", 2),
        "boolean3": fl.standard_lattice("boolean", 3),
        "n5": fl.standard_lattice("n5"),
        "m3": fl.standard_lattice("m3"),
    }


def catalog_product(names: tuple[str, ...]) -> fl.FiniteLattice:
    named = catalog()
    return reduce(fl.product, (named[name] for name in names))


@lru_cache(maxsize=None)
def product_shapes() -> tuple[tuple[str, ...], ...]:
    # 2 or 3 nontrivial factors, at most 40 elements and 32 congruences;
    # |Con(L1 x L2)| = |Con L1| * |Con L2|, so the factors give the count
    named = catalog()
    names = sorted(name for name, lattice in named.items() if lattice.size > 1)
    counts = {name: len(fl.all_congruences(named[name])) for name in names}
    shapes = []
    for k in (2, 3):
        for shape in combinations_with_replacement(names, k):
            size = count = 1
            for name in shape:
                size *= named[name].size
                count *= counts[name]
            if size <= 40 and count <= 32:
                shapes.append(shape)
    return tuple(shapes)


def _from_order(elements, leq) -> fl.FiniteLattice:
    return fl.from_leq_matrix([[leq(x, y) for y in elements] for x in elements])


@lru_cache(maxsize=None)
def partition_lattice(k: int) -> fl.FiniteLattice:
    """Π_k: the partitions of {0, ..., k-1} under refinement, finest first.

    A partition is its restricted growth string: element i's block label,
    at most one more than every label before it.
    """
    labelings = [
        p for p in product(range(k), repeat=k) if all(p[i] <= max(p[:i], default=-1) + 1 for i in range(k))
    ]
    labelings.sort(key=lambda p: -len(set(p)))
    return _from_order(
        labelings,
        lambda p, q: all(q[i] == q[j] for i in range(k) for j in range(i) if p[i] == p[j]),
    )


def _span(vectors: tuple[int, ...]) -> int:
    """The subspace of GF(2)^d that the vectors span, as a mask over the vectors."""
    span = 1  # the zero vector
    for v in vectors:
        span |= sum(1 << (w ^ v) for w in range(span.bit_length()) if span >> w & 1)
    return span


@lru_cache(maxsize=None)
def subspace_lattice_gf2(d: int) -> fl.FiniteLattice:
    """The subspaces of GF(2)^d under inclusion, smallest first.

    A subspace is a mask over the 2^d vectors: the span of at most d of them.
    """
    vectors = range(1, 1 << d)
    spans = {_span(chosen) for r in range(d + 1) for chosen in combinations(vectors, r)}
    subspaces = sorted(spans, key=lambda s: (s.bit_count(), s))
    return _from_order(subspaces, lambda s, t: s & ~t == 0)


def glued_sum(lower: fl.FiniteLattice, upper: fl.FiniteLattice) -> fl.FiniteLattice:
    """L ⊕ M: M placed above L, with the top of L identified with the bottom of M."""
    elements = [(0, x) for x in lower.elements()]
    elements += [(1, y) for y in upper.elements() if y != upper.bottom]
    parts = (lower, upper)
    return _from_order(
        elements, lambda p, q: p[0] < q[0] or p[0] == q[0] and parts[p[0]].leq[p[1]][q[1]]
    )


def interval(lattice: fl.FiniteLattice, a: int, b: int) -> fl.FiniteLattice:
    """The interval [a, b] of the lattice, under its order."""
    leq = lattice.leq
    members = [x for x in lattice.elements() if leq[a][x] and leq[x][b]]
    return _from_order(members, lambda x, y: leq[x][y])


def quotients(lattice: fl.FiniteLattice) -> list[tuple[fl.Congruence, fl.FiniteLattice]]:
    """(θ, L/θ) for every congruence θ, L/θ built from its block order.

    The order is ``oracles.quotient_by_block_joins``: [x] <= [y] iff x∨y θ y.
    """
    return [
        (theta, oracles.quotient_by_block_joins(lattice, theta.partition.block_of))
        for theta in fl.all_congruences(lattice)
    ]


@st.composite
def closed_set_lattices(draw, max_points: int = 6, max_size: int = 40) -> fl.FiniteLattice:
    """Lattices of closed sets of an intersection-closed family, and their
    products, duals and quotients.

    The family starts as the full set {0, ..., k-1}.  Each drawn subset s
    adds {s ∩ t : t in the family}, which keeps the family closed under
    intersection, unless that would take it past ``max_size`` members;
    subsets are added until the family reaches a drawn target of at
    least ``max_size // 2`` members or they run out.  Each closed set is
    the join of the least closed sets holding its points, so at most k
    elements are join-irreducible, and Day's relation stays small.

    A drawn last step keeps the closed sets under inclusion, or takes
    the dual, the product with a catalog lattice that keeps within
    ``max_size`` elements, or the quotient by a drawn congruence.  The
    elements are then put in a drawn order, so element order need not
    be a linear extension.
    """
    k = draw(st.integers(5, max_points))
    target = draw(st.integers(max_size // 2, max_size))
    family = {(1 << k) - 1}
    for subset in draw(st.lists(st.integers(0, (1 << k) - 1), min_size=12, max_size=40)):
        grown = family | {subset & t for t in family}
        if len(grown) <= max_size:
            family = grown
        if len(family) >= target:
            break
    members = sorted(family)
    lattice = _from_order(members, lambda s, t: s & ~t == 0)
    step = draw(st.sampled_from(("closed sets", "dual", "product", "quotient")))
    if step == "dual":
        lattice = fl.dual(lattice)
    elif step == "product":
        factors = [f for f in catalog().values() if 1 < f.size <= max_size // lattice.size]
        if factors:
            lattice = fl.product(lattice, draw(st.sampled_from(factors)))
    elif step == "quotient":
        lattice, _ = fl.quotient(lattice, draw(st.sampled_from(fl.all_congruences(lattice))))
    return fl.relabel(lattice, draw(st.permutations(range(lattice.size))))
