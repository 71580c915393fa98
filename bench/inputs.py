"""Seeded inputs for the ``single`` workload, built without finlat.

A shape is a multiset of 2 or 3 catalog factors whose product has 12 to
40 elements and at most 32 congruences.  Every run uses every shape once,
so runs with different seeds do the same amount of work; the seed draws
the order of the factors, a relabelling of the product's elements and
the order in which the commands run.  The LATT text is written here from
the factors' order relations, so the inputs do not depend on the code
being measured.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Factor:
    """A catalog lattice with the facts the checks need about it."""

    leq: tuple[tuple[bool, ...], ...]
    congruences: int
    distributive: bool

    @property
    def size(self) -> int:
        return len(self.leq)


def _chain(k: int) -> tuple[tuple[bool, ...], ...]:
    return tuple(tuple(i <= j for j in range(k)) for i in range(k))


def _boolean(k: int) -> tuple[tuple[bool, ...], ...]:
    m = 1 << k
    return tuple(tuple(i & j == i for j in range(m)) for i in range(m))


def _rows(*rows: str) -> tuple[tuple[bool, ...], ...]:
    return tuple(tuple(c == "1" for c in row) for row in rows)


# |Con(chain k)| = 2^(k-1), |Con(boolean k)| = 2^k, |Con(N5)| = 5, |Con(M3)| = 2.
FACTORS = {
    "chain2": Factor(_chain(2), 2, True),
    "chain3": Factor(_chain(3), 4, True),
    "chain4": Factor(_chain(4), 8, True),
    "boolean2": Factor(_boolean(2), 4, True),
    "boolean3": Factor(_boolean(3), 8, True),
    # 0 < 1 < 2 < 4 and 0 < 3 < 4
    "n5": Factor(_rows("11111", "01101", "00101", "00011", "00001"), 5, False),
    # bottom 0, atoms 1, 2, 3, top 4
    "m3": Factor(_rows("11111", "01001", "00101", "00011", "00001"), 2, False),
}

MIN_ELEMENTS = 12
MAX_ELEMENTS = 40
MAX_CONGRUENCES = 32

# Each command runs once per product; "ideals" also exercises the JSON renderer.
COMMANDS = ("check", "theorem", "congruences", "ideals")


def _shapes() -> tuple[tuple[str, ...], ...]:
    out = []
    for k in (2, 3):
        for shape in itertools.combinations_with_replacement(sorted(FACTORS), k):
            factors = [FACTORS[name] for name in shape]
            size = math.prod(f.size for f in factors)
            congruences = math.prod(f.congruences for f in factors)
            if MIN_ELEMENTS <= size <= MAX_ELEMENTS and congruences <= MAX_CONGRUENCES:
                out.append(shape)
    return tuple(out)


SHAPES = _shapes()


@dataclass(frozen=True)
class Product:
    """One drawn input: factors in product order and the element relabelling."""

    factors: tuple[str, ...]
    permutation: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.permutation)

    @property
    def congruences(self) -> int:
        return math.prod(FACTORS[name].congruences for name in self.factors)

    @property
    def distributive(self) -> bool:
        return all(FACTORS[name].distributive for name in self.factors)

    def to_dict(self) -> dict[str, object]:
        return {"factors": list(self.factors), "permutation": list(self.permutation)}

    def latt(self) -> str:
        """LATT v1 text; element (x1, ..., xk) is x1*(n2*...*nk)+... before relabelling."""
        orders = [FACTORS[name].leq for name in self.factors]
        tuples = list(itertools.product(*(range(len(leq)) for leq in orders)))
        n = len(tuples)
        rows = [["0"] * n for _ in range(n)]
        for a, xs in enumerate(tuples):
            for b, ys in enumerate(tuples):
                if all(leq[x][y] for leq, x, y in zip(orders, xs, ys)):
                    rows[self.permutation[a]][self.permutation[b]] = "1"
        return "LATT 1\n" + f"n={n}\n" + "".join("".join(row) + "\n" for row in rows)


def draw_single(seed: int) -> tuple[list[Product], list[tuple[int, str]]]:
    """The products and the (product index, command) order for one seed."""
    rng = random.Random(seed)
    products = []
    for shape in SHAPES:
        factors = list(shape)
        rng.shuffle(factors)
        n = math.prod(FACTORS[name].size for name in factors)
        permutation = list(range(n))
        rng.shuffle(permutation)
        products.append(Product(tuple(factors), tuple(permutation)))
    order = [(i, command) for i in range(len(products)) for command in COMMANDS]
    rng.shuffle(order)
    return products, order
