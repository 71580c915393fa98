"""Shared caches and a call counter for the test suite.

Enumeration and classification of all lattices up to size 8 are needed
by several tests; caching them keeps the suite fast while the first
caller (the timed exhaustive acceptance check) still pays full price.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations_with_replacement

import finlat as fl

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
