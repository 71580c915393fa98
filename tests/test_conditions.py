"""Which of the seven conditions occur together, on every lattice of size <= 10.

No condition is inferred from another in ``src/``, so every lattice,
inside the d-lattice scope or not, gets its own vector c1...c7.  Only
seven vectors occur up to size 10; their per-size counts are pinned
here, tier-1 to size 9 and ``slow`` at size 10.

The d-lattice hypothesis has two halves: every maximal ideal is prime,
and every maximal filter is prime (Lemma ``charact``).  Up to size 10
every balanced but not complemented lattice fails both halves, so one
half already gives balanced => complemented there.  The lattices that
keep exactly one half are pinned too: none of them is complemented or
balanced, and the two halves give the same vectors with c1 and c2
swapped.
"""

from __future__ import annotations

from collections import Counter

import pytest

import support

# size -> {c1...c7 as 0/1 text: number of classes}
VECTORS = {
    1: {"0000000": 1},
    2: {"0000000": 1},
    3: {"1111111": 1},
    4: {"0000000": 1, "1111111": 1},
    5: {"0000000": 1, "1100000": 1, "1111111": 3},
    6: {"0000000": 2, "1100000": 4, "1100011": 2, "1111111": 7},
    7: {"0000000": 3, "0100011": 1, "1000011": 1, "1100000": 15, "1100011": 6, "1111111": 27},
    8: {
        "0000000": 9, "0100011": 3, "1000011": 3, "1100000": 62,
        "1100001": 9, "1100011": 32, "1111111": 104,
    },
    9: {
        "0000000": 24, "0100011": 13, "1000011": 13, "1100000": 283,
        "1100001": 102, "1100011": 181, "1111111": 462,
    },
    10: {
        "0000000": 83, "0100011": 53, "1000011": 53, "1100000": 1511,
        "1100001": 901, "1100011": 1086, "1111111": 2307,
    },
}

# size -> {vector: classes whose maximal ideals are all prime and some maximal
# filter is not}; the dual half has the same counts with c1 and c2 swapped
ONE_SIDED = {
    6: {"1100011": 1},
    7: {"1000011": 1, "1100011": 2, "1111111": 3},
    8: {"1000011": 3, "1100011": 10, "1111111": 17},
    9: {"1000011": 13, "1100011": 54, "1111111": 94},
    10: {"1000011": 53, "1100011": 310, "1111111": 541},
}

# size -> balanced but not complemented classes, all outside the d-lattice scope
BALANCED_NOT_COMPLEMENTED = {8: 9, 9: 102, 10: 901}


def _vector(report) -> str:
    return "".join("1" if c else "0" for c in report.seven.as_tuple())


def _swap_c1_c2(vector: str) -> str:
    return vector[1] + vector[0] + vector[2:]


def _check_size(n: int) -> None:
    vectors: Counter[str] = Counter()
    one_sided: dict[bool, Counter[str]] = {True: Counter(), False: Counter()}
    balanced_not_complemented = 0
    for _, report in support.classified(n):
        vector = _vector(report)
        vectors[vector] += 1
        ideals_prime = report.witnesses.nonprime_maximal_ideal is None
        filters_prime = report.witnesses.nonprime_maximal_filter is None
        if report.is_balanced and not report.is_complemented:
            balanced_not_complemented += 1
            assert not ideals_prime and not filters_prime, vector
        if ideals_prime != filters_prime:
            assert not report.is_balanced and not report.is_complemented, vector
            one_sided[ideals_prime][vector] += 1
    assert vectors == VECTORS[n]
    assert balanced_not_complemented == BALANCED_NOT_COMPLEMENTED.get(n, 0)
    expected = ONE_SIDED.get(n, {})
    assert one_sided[True] == expected
    assert one_sided[False] == {_swap_c1_c2(vector): count for vector, count in expected.items()}


@pytest.mark.parametrize("n", range(1, 10))
def test_condition_vectors_and_one_sided_hypothesis_at_size(n):
    _check_size(n)


@pytest.mark.slow
def test_condition_vectors_and_one_sided_hypothesis_at_size_10():
    _check_size(10)


def test_pinned_tables_total_over_every_class_up_to_size_10():
    # 7,372 classes in seven vectors; 1,102 lattices keep each half alone
    totals: Counter[str] = Counter()
    for counts in VECTORS.values():
        totals.update(counts)
    assert totals == {
        "0000000": 125, "0100011": 70, "1000011": 70, "1100000": 1876,
        "1100001": 1012, "1100011": 1307, "1111111": 2912,
    }
    assert sum(totals.values()) == 7372
    one_sided: Counter[str] = Counter()
    for counts in ONE_SIDED.values():
        one_sided.update(counts)
    assert one_sided == {"1000011": 70, "1100011": 377, "1111111": 655}
    assert sum(BALANCED_NOT_COMPLEMENTED.values()) == totals["1100001"] == 1012
