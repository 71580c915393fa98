"""Partitions, congruence closure, Con(L), and the balance predicates."""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from itertools import combinations, product
from typing import Iterable, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finlat as fl
from finlat import congruences
from finlat.congruences import _closure
from finlat.core import _blocks_compatible
import oracles
import support


def test_partition_normalization():
    assert fl.Partition.from_labels([7, 7, 2, 7]).block_of == (0, 0, 1, 0)
    assert fl.Partition.identity(3).block_of == (0, 1, 2)
    assert fl.Partition.all_in_one(3).block_of == (0, 0, 0)
    with pytest.raises(ValueError):
        fl.Partition(2, (1, 0))


def test_partition_check_rejects_exactly_the_unnormalized_labels():
    # the first-occurrence check raises on the same label tuples as
    # comparing with the normalized tuple
    for n in range(5):
        for labels in product((-1, 0, 1, 2, 3, "a"), repeat=n):
            try:
                fl.Partition(n, labels)
            except ValueError:
                assert labels != congruences._normalize(labels)
            else:
                assert labels == congruences._normalize(labels)


def test_partition_rejects_labels_that_are_not_integers():
    # equal to normalized integer labels, but not usable as block indices
    for labels in [(0, 1.0), (0.0, 1), (0, True), (False, True), (0, "1")]:
        with pytest.raises(ValueError):
            fl.Partition(2, labels)
    assert fl.Partition(2, (0, 1)).num_blocks == 2


def test_partition_from_blocks_rejects_elements_that_are_not_integers():
    # checked before the element indexes the label list: a float used to
    # raise TypeError there, and True was taken as element 1
    for blocks in ([[0], [1.0]], [[0], [True]], [[False], [1]], [[0], ["1"]]):
        with pytest.raises(ValueError, match="not an integer"):
            fl.Partition.from_blocks(2, blocks)
    for blocks in ([[0], [2]], [[-1], [0, 1]]):
        with pytest.raises(fl.SizeMismatch):
            fl.Partition.from_blocks(2, blocks)
    assert fl.Partition.from_blocks(2, [[1], [0]]).block_of == (0, 1)


def test_partition_from_blocks_and_str():
    part = fl.Partition.from_blocks(3, [[0, 1], [2]])
    assert str(part) == "{{0,1},{2}}"
    assert part.blocks() == ((0, 1), (2,))
    assert part.block_containing(1) == (0, 1)
    with pytest.raises(ValueError):
        fl.Partition.from_blocks(3, [[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        fl.Partition.from_blocks(3, [[0, 1]])
    with pytest.raises(fl.SizeMismatch):
        fl.Partition.from_blocks(3, [[0, 1], [2, 5]])


def test_partition_refinement():
    fine = fl.Partition.identity(4)
    coarse = fl.Partition.from_blocks(4, [[0, 1], [2, 3]])
    assert fine.refines(coarse)
    assert not coarse.refines(fine)
    assert coarse.refines(coarse)
    with pytest.raises(fl.SizeMismatch):
        fine.refines(fl.Partition.identity(3))


def test_is_congruence_examples():
    n5 = fl.standard_lattice("n5")
    assert fl.is_congruence(n5, fl.Partition.identity(5))
    assert fl.is_congruence(n5, fl.Partition.all_in_one(5))
    # merging bottom with one atom forces more merges, so this fails
    assert not fl.is_congruence(n5, fl.Partition.from_blocks(5, [[0, 1], [2], [3], [4]]))
    with pytest.raises(fl.SizeMismatch):
        fl.is_congruence(n5, fl.Partition.identity(4))


def test_is_congruence_matches_compatibility_scan_up_to_size_7():
    # the closure decides compatibility as the x, y, z scan does, on every
    # partition of every lattice of size <= 7
    pairs = 0
    for lattice in support.lattices_up_to(7):
        n = lattice.size
        for labels in oracles.all_partitions(n):
            expected = oracles.compatible(lattice, labels)
            assert fl.is_congruence(lattice, fl.Partition(n, labels)) == expected, labels
            pairs += 1
    assert pairs == 49_824


def _random_partitions_of_grid():
    # random partitions of a 144-element lattice are not congruences
    chain = fl.standard_lattice("chain", 12)
    square = fl.product(chain, chain)
    rng = random.Random(19)
    partitions = [
        fl.Partition.from_labels([rng.randrange(6) for _ in range(square.size)])
        for _ in range(19)
    ]
    expected = [oracles.compatible(square, p.block_of) for p in partitions]
    assert expected == [False] * 19
    return square, lambda: [fl.is_congruence(square, p) for p in partitions], expected


def _projection_kernel_of_boolean_8():
    # the kernel of the projection of 2^8 onto its first four coordinates:
    # a congruence with 16 blocks, so every member is compared in full
    cube = fl.standard_lattice("boolean", 8)
    theta = fl.Congruence(cube, fl.Partition.from_labels([x & 0b1111 for x in range(cube.size)]))

    def run():
        image, _ = fl.quotient(cube, theta)
        return fl.is_congruence(cube, theta.partition), image.size

    return cube, run, (True, 16)


def _prime_ideal_of_chain_400():
    chain = fl.standard_lattice("chain", 400)
    ideal = fl.ElementSet.from_iterable(400, range(200))
    labels = (0,) * 200 + (1,) * 200
    return chain, lambda: fl.prime_ideal_congruence(chain, ideal).partition.block_of, labels


@pytest.mark.parametrize(
    "case",
    [_random_partitions_of_grid, _projection_kernel_of_boolean_8, _prime_ideal_of_chain_400],
    ids=["chain12-squared-random", "boolean8-projection", "chain400-prime-ideal"],
)
def test_compatibility_in_bounded_cpu_time(case):
    # the definition's O(n²) table reads decide compatibility; on a 2-vCPU
    # host each case took 0.001-0.016 s of CPU, and closing the block pairs
    # inside the partition, which it replaced, took 0.027-0.033 s on the
    # two congruences
    lattice, run, expected = case()
    assert lattice.meet and lattice.join  # derive the tables outside the timed part
    start = time.process_time()
    got = run()
    elapsed = time.process_time() - start
    assert got == expected
    assert elapsed < 0.1


def _product_rows(lattice: fl.FiniteLattice) -> list[tuple[int, ...]]:
    """The rows ``principal_table`` hands each closure: x∧z for every z, then x∨z."""
    return [m + j for m, j in zip(lattice.meet, lattice.join)]


def _one_block(labels) -> bool:
    """Labels of one block on two or more elements: what the closure returns at its early exit."""
    return len(labels) > 1 and not any(labels)


def test_closure_matches_find_kernel_on_every_ordered_pair_up_to_size_7(monkeypatch):
    # the kernel against the two it replaced, on (a, b), (b, a) and (a, a);
    # a closure that merges everything into one block returns at that merge,
    # before its worklist drains and without normalizing its labels, and
    # every other closure normalizes once, a == b included
    lattices = support.lattices_up_to(7)
    normalized = support.count_calls(monkeypatch, "_normalize", congruences)
    closures = one_block = 0
    for lattice in lattices:
        n, rows = lattice.size, _product_rows(lattice)
        for a in range(n):
            for b in range(n):
                got = _closure(rows, a, b)
                assert got == oracles.closure_by_find(lattice, [(a, b)])
                assert got == oracles.closure_by_queue(lattice, a, b)
                closures += 1
                one_block += _one_block(got)
    assert closures == 3_308
    # only congruences' binding is counted, so the oracles' calls are not
    assert one_block > 0 and len(normalized) == closures - one_block


def _compatible_three_ways(lattice, labels) -> bool:
    """``_blocks_compatible``, checked against the find kernel inside the labels and the scan."""
    got = _blocks_compatible(lattice, labels)
    inside = oracles.closure_by_find(lattice, oracles._block_pairs(labels), labels)
    assert got == (inside is not None) == oracles.compatible(lattice, labels), labels
    return got


def test_blocks_compatible_matches_find_kernel_and_scan_up_to_size_5(monkeypatch):
    # every partition of every lattice of size <= 5: the definition, the
    # block pairs closed inside the partition, and the x, y, z scan agree,
    # and the definition runs no closure
    closures = support.count_calls(monkeypatch, "_closure", congruences)
    verdicts = {True: 0, False: 0}
    for lattice in support.lattices_up_to(5):
        for labels in oracles.all_partitions(lattice.size):
            verdicts[_compatible_three_ways(lattice, labels)] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0
    assert closures == []


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_closure_matches_find_kernel_on_relabelled_products(data):
    lattice = support.catalog_product(data.draw(st.sampled_from(support.product_shapes())))
    n = lattice.size
    relabeled = fl.relabel(lattice, data.draw(st.permutations(range(n))))
    element = st.integers(0, n - 1)
    a, b = data.draw(st.tuples(element, element))
    rows = _product_rows(relabeled)
    expected = oracles.closure_by_find(relabeled, [(a, b)])
    assert _closure(rows, a, b) == expected == oracles.closure_by_queue(relabeled, a, b)
    # with the bounds as the pair, the closure leaves at the one-block exit
    with pytest.MonkeyPatch.context() as patch:
        normalized = support.count_calls(patch, "_normalize", congruences)
        bounds = relabeled.bottom, relabeled.top
        got = _closure(rows, *bounds)
        assert got == oracles.closure_by_find(relabeled, [bounds]) == (0,) * n
    assert normalized == []


def _shared_rows_agree(lattice: fl.FiniteLattice, firsts: Sequence[int]) -> None:
    """One list of product rows serves every closure (a, b), a in ``firsts``, unchanged by them."""
    n, rows = lattice.size, _product_rows(lattice)
    for a in firsts:
        for b in range(n):
            assert _closure(rows, a, b) == oracles.closure_by_queue(lattice, a, b), (a, b)
    assert rows == _product_rows(lattice)


def test_shared_row_closure_matches_queue_kernel_on_every_pair_up_to_size_8():
    # as in ``principal_table``: the rows are built once per lattice and
    # every ordered pair, (a, a) included, is closed over them
    for lattice in support.lattices_up_to(8):
        _shared_rows_agree(lattice, range(lattice.size))


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_shared_row_closure_matches_queue_kernel_on_relabelled_products(data):
    # every pair from three drawn first elements; all pairs of 40 elements take seconds
    lattice = support.catalog_product(data.draw(st.sampled_from(support.product_shapes())))
    n = lattice.size
    relabeled = fl.relabel(lattice, data.draw(st.permutations(range(n))))
    firsts = data.draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True))
    _shared_rows_agree(relabeled, firsts)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_blocks_compatible_matches_find_kernel_and_scan_on_relabelled_products(data):
    # a principal congruence, and a partition of drawn labels
    lattice = support.catalog_product(data.draw(st.sampled_from(support.product_shapes())))
    n = lattice.size
    relabeled = fl.relabel(lattice, data.draw(st.permutations(range(n))))
    element = st.integers(0, n - 1)
    principal = oracles.closure_by_find(relabeled, [data.draw(st.tuples(element, element))])
    assert _compatible_three_ways(relabeled, principal)
    drawn = congruences._normalize(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    _compatible_three_ways(relabeled, drawn)


@pytest.mark.parametrize(
    "lattice",
    [fl.standard_lattice("n5"), support.catalog_product(("n5", "m3"))],
    ids=["n5", "n5xm3"],
)
def test_compatibility_runs_no_closure(monkeypatch, lattice):
    # is_congruence, quotient and prime_ideal_congruence check the
    # definition; none of them closes a pair
    calls = support.count_calls(monkeypatch, "_closure", congruences)
    n = lattice.size
    for theta in fl.all_congruences(lattice):
        assert fl.is_congruence(lattice, theta.partition)
        fl.quotient(lattice, theta)
    merged = fl.Partition.from_labels([0, 0, *range(1, n - 1)])
    assert not oracles.compatible(lattice, merged.block_of)
    assert not fl.is_congruence(lattice, merged)
    with pytest.raises(fl.NotACongruence):
        fl.quotient(lattice, fl.Congruence(lattice, merged))
    primes = [ideal for ideal in fl.enumerate_ideals(lattice) if fl.is_prime_ideal(lattice, ideal)]
    for ideal in primes:
        assert fl.prime_ideal_congruence(lattice, ideal).num_blocks == 2
    assert primes and calls == []


def test_congruence_equality_is_lattice_identity_scoped():
    n5 = fl.standard_lattice("n5")
    clone = fl.from_leq_matrix(n5.leq)
    same = fl.Congruence(n5, fl.Partition.identity(5))
    assert same == fl.Congruence(n5, fl.Partition.identity(5))
    assert same != fl.Congruence(clone, fl.Partition.identity(5))
    assert str(same) == "{{0},{1},{2},{3},{4}}"


def test_unchecked_congruences_equal_the_checked_ones_up_to_size_6():
    # principal, generated, joined and listed congruences are made from
    # normalized labels without the Partition and Congruence checks; each
    # passes those checks and equals, and hashes as, the checked one
    for lattice in support.lattices_up_to(6):
        n = lattice.size
        listed = fl.all_congruences(lattice)
        made = [
            *listed,
            *(fl.principal_congruence(lattice, a, b) for a in range(n) for b in range(n)),
            fl.generated_congruence(lattice, range(n)),
            *(fl.join_congruences(left, right) for left in listed for right in listed),
        ]
        for cong in made:
            checked = fl.Congruence(lattice, fl.Partition(n, cong.partition.block_of))
            assert cong == checked and hash(cong) == hash(checked)
            assert type(cong.partition.block_of) is tuple and cong.lattice is lattice


def test_principal_congruence_basics():
    c3 = fl.standard_lattice("chain", 3)
    assert fl.principal_congruence(c3, 1, 1).partition == fl.Partition.identity(3)
    assert str(fl.principal_congruence(c3, 0, 1)) == "{{0,1},{2}}"
    for lattice in support.catalog().values():
        collapse = fl.principal_congruence(lattice, lattice.bottom, lattice.top)
        assert collapse.partition == fl.Partition.all_in_one(lattice.size)
    with pytest.raises(fl.SizeMismatch):
        fl.principal_congruence(c3, 0, 3)


def test_principal_congruence_monotonicity():
    for lattice in [fl.standard_lattice("n5"), fl.standard_lattice("boolean", 2)]:
        n = lattice.size
        for a in range(n):
            for b in range(n):
                theta = fl.principal_congruence(lattice, a, b)
                for a2 in range(n):
                    for b2 in range(n):
                        if theta.related(a2, b2):
                            inner = fl.principal_congruence(lattice, a2, b2)
                            assert inner.partition.refines(theta.partition)


def test_generated_congruence():
    n5 = fl.standard_lattice("n5")
    assert fl.generated_congruence(n5, [2]).partition == fl.Partition.identity(5)
    assert (
        fl.generated_congruence(n5, [n5.bottom, n5.top]).partition
        == fl.Partition.all_in_one(5)
    )
    assert str(fl.generated_congruence(n5, [1, 2])) == "{{0},{1,2},{3},{4}}"
    with pytest.raises(fl.EmptySet):
        fl.generated_congruence(n5, [])
    with pytest.raises(fl.SizeMismatch):
        fl.generated_congruence(n5, [9])


def test_generated_congruence_accepts_element_sets():
    n5 = fl.standard_lattice("n5")
    members = fl.ElementSet.from_iterable(5, [1, 2])
    assert fl.generated_congruence(n5, members) == fl.generated_congruence(n5, [1, 2])


def test_generated_congruence_matches_member_pairs_up_to_size_6():
    # con(⋀S, ⋁S) against the closure of one pair per member, on every nonempty subset
    for lattice in support.lattices_up_to(6):
        for mask in range(1, 1 << lattice.size):
            members = fl.ElementSet(lattice.size, mask).members()
            expected = oracles.generated_congruence_by_pairs(lattice, members)
            assert fl.generated_congruence(lattice, members).partition.block_of == expected


def test_join_and_meet_unit_laws():
    c3 = fl.standard_lattice("chain", 3)
    identity = fl.Congruence(c3, fl.Partition.identity(3))
    everything = fl.Congruence(c3, fl.Partition.all_in_one(3))
    phi = fl.principal_congruence(c3, 0, 1)
    assert fl.join_congruences(phi, identity) == phi
    assert fl.meet_congruences(phi, everything) == phi


def test_join_and_meet_on_three_chain():
    c3 = fl.standard_lattice("chain", 3)
    low = fl.principal_congruence(c3, 0, 1)
    high = fl.principal_congruence(c3, 1, 2)
    assert fl.meet_congruences(low, high).partition == fl.Partition.identity(3)
    assert fl.join_congruences(low, high).partition == fl.Partition.all_in_one(3)


def test_join_meet_reject_foreign_congruences():
    c3 = fl.standard_lattice("chain", 3)
    clone = fl.from_leq_matrix(c3.leq)
    mine = fl.Congruence(c3, fl.Partition.identity(3))
    theirs = fl.Congruence(clone, fl.Partition.identity(3))
    with pytest.raises(fl.OwnerMismatch):
        fl.join_congruences(mine, theirs)
    with pytest.raises(fl.OwnerMismatch):
        fl.meet_congruences(mine, theirs)


def test_join_meet_results_are_congruences():
    n5 = fl.standard_lattice("n5")
    congs = fl.all_congruences(n5)
    for left in congs:
        for right in congs:
            assert fl.is_congruence(n5, fl.join_congruences(left, right).partition)
            assert fl.is_congruence(n5, fl.meet_congruences(left, right).partition)
    for lattice in support.lattices_up_to(6):
        _meets_are_common_refinements(lattice)


def _meets_are_common_refinements(lattice: fl.FiniteLattice) -> None:
    # the AND of the D-closed sets, against the intersection of the blocks
    congs = fl.all_congruences(lattice)
    for left in congs:
        for right in congs:
            got = fl.meet_congruences(left, right).partition.block_of
            expected = oracles.meet_by_common_refinement(
                left.partition.block_of, right.partition.block_of
            )
            assert got == expected


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_meet_congruences_matches_common_refinement_on_relabelled_products(data):
    lattice = support.catalog_product(data.draw(st.sampled_from(support.product_shapes())))
    relabeled = fl.relabel(lattice, data.draw(st.permutations(range(lattice.size))))
    _meets_are_common_refinements(relabeled)


def test_all_congruences_counts():
    assert len(fl.all_congruences(fl.standard_lattice("chain", 2))) == 2
    assert len(fl.all_congruences(fl.standard_lattice("chain", 3))) == 4
    assert len(fl.all_congruences(fl.standard_lattice("m3"))) == 2
    assert len(fl.all_congruences(fl.standard_lattice("n5"))) == 5
    assert len(fl.all_congruences(fl.standard_lattice("boolean", 2))) == 4
    # larger inputs: a chain of n has 2^(n-1), a distributive lattice
    # 2^|J(L)|, and |Con(L1 x L2)| = |Con L1| * |Con L2|
    assert len(fl.all_congruences(fl.standard_lattice("chain", 12))) == 2**11
    assert len(fl.all_congruences(fl.standard_lattice("boolean", 6))) == 2**6
    assert len(fl.all_congruences(support.catalog_product(("n5", "n5", "chain2")))) == 5 * 5 * 2
    assert len(fl.all_congruences(support.catalog_product(("m3", "m3", "chain3")))) == 2 * 2 * 4


def _join_irreducible_count(lattice: fl.FiniteLattice) -> int:
    """|J(L)|: the elements with exactly one lower cover, read off the order."""
    down, up = lattice.down_masks, lattice.up_masks
    count = 0
    for x in lattice.elements():
        covers = [
            y for y in lattice.elements()
            if y != x and down[x] >> y & 1 and (down[x] & up[y]) == (1 << x | 1 << y)
        ]
        count += len(covers) == 1
    return count


def test_distributive_lattices_have_two_to_the_join_irreducibles_congruences():
    # Con(L) of a finite distributive lattice is the Boolean lattice on J(L)
    distributive = [lattice for lattice in support.lattices_up_to(9) if fl.is_distributive(lattice)]
    assert len(distributive) == 62
    for lattice in distributive:
        assert len(fl.all_congruences(lattice)) == 2 ** _join_irreducible_count(lattice)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_relabelled_chain_and_boolean_products_have_two_to_the_join_irreducibles(data):
    chains = [("chain", k) for k in (1, 2, 3, 4)]
    factor = st.sampled_from(chains + [("boolean", k) for k in (1, 2, 3)])
    names = data.draw(st.lists(factor, min_size=1, max_size=3))
    lattice = fl.standard_lattice(*names[0])
    for name in names[1:]:
        lattice = fl.product(lattice, fl.standard_lattice(*name))
    lattice = fl.relabel(lattice, data.draw(st.permutations(range(lattice.size))))
    assert fl.is_distributive(lattice)
    assert len(fl.all_congruences(lattice)) == 2 ** _join_irreducible_count(lattice)


def test_con_of_a_product_is_the_product_of_the_factors_cons():
    # lattices are congruence-distributive, so every congruence of L × K
    # is θ × φ for θ in Con L and φ in Con K (Fraser & Horn 1970), and
    # |Con(L × K)| = |Con L|·|Con K|; (x, y) is element x·|K| + y, and the
    # relabelled copy renames element e to permutation[e]
    factors = [lattice for n in range(2, 6) for lattice in support.lattices_of(n)]
    assert len(factors) == 9
    rng = random.Random(20)
    products = 0
    for i, first in enumerate(factors):
        for second in factors[i:]:
            lattice = fl.product(first, second)
            left, right = _con_keys(first), _con_keys(second)
            pairs = [(x, y) for x in range(first.size) for y in range(second.size)]
            expected = {
                congruences._normalize([(t[x], u[y]) for x, y in pairs])
                for t in left
                for u in right
            }
            keys = _con_keys(lattice)
            assert len(keys) == len(left) * len(right) and set(keys) == expected
            permutation = list(range(lattice.size))
            rng.shuffle(permutation)
            relabeled = fl.relabel(lattice, permutation)
            inverse = sorted(range(lattice.size), key=permutation.__getitem__)
            moved = {congruences._normalize([labels[x] for x in inverse]) for labels in keys}
            assert set(_con_keys(relabeled)) == moved
            products += 1
    assert products == 45


def _m_n(n: int) -> fl.FiniteLattice:
    """M_n from its order: bottom 0, n pairwise incomparable atoms, top n + 1."""
    size = n + 2
    return fl.from_leq_matrix(
        [[x == y or x == 0 or y == size - 1 for y in range(size)] for x in range(size)]
    )


@pytest.mark.parametrize("n, count", [(1, 4), (2, 4), (3, 2), (4, 2), (5, 2), (6, 2), (7, 2)])
def test_m_n_is_simple_from_three_atoms_on(n, count):
    # M_1 is the 3-chain and M_2 the square; from M_3 on, every pair of
    # atoms collapses the whole lattice
    assert len(fl.all_congruences(_m_n(n))) == count


def test_all_congruences_sorted_and_unique():
    for lattice in support.catalog().values():
        congs = fl.all_congruences(lattice)
        keys = [c.partition.block_of for c in congs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def _con_keys(lattice: fl.FiniteLattice) -> list[tuple[int, ...]]:
    return [c.partition.block_of for c in fl.all_congruences(lattice)]


def test_all_congruences_match_pair_closure_up_to_size_8():
    for lattice in support.lattices_up_to(8):
        assert _con_keys(lattice) == oracles.congruences_by_pair_closure(lattice)


@pytest.mark.parametrize(
    "names, count",
    [(("chain2", "chain3", "chain3"), 32), (("m3", "m3"), 4)],
    ids=["chain2xchain3xchain3", "m3xm3"],
)
def test_all_congruences_match_pair_closure_on_named_products(names, count):
    lattice = support.catalog_product(names)
    assert names in support.product_shapes()
    keys = _con_keys(lattice)
    assert len(keys) == count
    assert keys == oracles.congruences_by_pair_closure(lattice)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_all_congruences_match_pair_closure_on_relabelled_products(data):
    lattice = support.catalog_product(data.draw(st.sampled_from(support.product_shapes())))
    relabeled = fl.relabel(lattice, data.draw(st.permutations(range(lattice.size))))
    assert _con_keys(relabeled) == oracles.congruences_by_pair_closure(relabeled)


def test_all_congruences_match_dependency_relation_up_to_size_8():
    for lattice in support.lattices_up_to(8):
        assert _con_keys(lattice) == oracles.congruences_by_dependency_relation(lattice)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_all_congruences_match_dependency_relation_on_relabelled_products(data):
    lattice = support.catalog_product(data.draw(st.sampled_from(support.product_shapes())))
    relabeled = fl.relabel(lattice, data.draw(st.permutations(range(lattice.size))))
    assert _con_keys(relabeled) == oracles.congruences_by_dependency_relation(relabeled)


def test_principal_congruence_matches_dependency_relation_up_to_size_7():
    for lattice in support.lattices_up_to(7):
        for a in lattice.elements():
            for b in lattice.elements():
                expected = oracles.principal_by_dependency_relation(lattice, a, b)
                assert fl.principal_congruence(lattice, a, b).partition.block_of == expected


def test_principal_congruence_is_read_at_meet_and_join_up_to_size_7():
    # a congruence class is a convex sublattice: con(a, b) = con(a∧b, a∨b)
    for lattice in support.lattices_up_to(7):
        for a in lattice.elements():
            for b in lattice.elements():
                low, high = lattice.meet[a][b], lattice.join[a][b]
                got = fl.principal_congruence(lattice, a, b)
                assert got == fl.principal_congruence(lattice, low, high)


def _tables_agree(lattice: fl.FiniteLattice) -> None:
    table = fl.principal_table(lattice)
    expected = oracles.principal_table_by_all_pairs(lattice)
    for a in lattice.elements():
        for b in lattice.elements():
            assert table(a, b) == expected(a, b), (a, b)


def test_principal_table_matches_all_pairs_up_to_size_8():
    for lattice in support.lattices_up_to(8):
        _tables_agree(lattice)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_principal_table_matches_all_pairs_on_relabelled_products(data):
    lattice = support.catalog_product(data.draw(st.sampled_from(support.product_shapes())))
    relabeled = fl.relabel(lattice, data.draw(st.permutations(range(lattice.size))))
    _tables_agree(relabeled)


def test_join_congruences_matches_closure_join_up_to_size_6():
    for lattice in support.lattices_up_to(6):
        congs = fl.all_congruences(lattice)
        for left in congs:
            for right in congs:
                got = fl.join_congruences(left, right).partition.block_of
                expected = oracles.join_by_closure(
                    lattice, left.partition.block_of, right.partition.block_of
                )
                assert got == expected


@pytest.mark.parametrize(
    "lattice",
    [
        fl.standard_lattice("chain", 6),
        fl.product(fl.standard_lattice("n5"), fl.standard_lattice("chain", 2)),
        support.catalog_product(("m3", "m3", "n5")),
    ],
    ids=["chain6", "n5xchain2", "m3xm3xn5"],
)
def test_all_congruences_runs_no_closure(monkeypatch, lattice):
    # J(Con L) is read from Day's dependency relation and joins are ORs of
    # D-closed sets: no congruence closure runs at all
    calls = support.count_calls(monkeypatch, "_closure", congruences)
    assert fl.all_congruences(lattice)
    assert calls == []


@pytest.mark.parametrize(
    "lattice",
    [
        fl.standard_lattice("chain", 6),
        fl.product(fl.standard_lattice("n5"), fl.standard_lattice("chain", 2)),
        support.catalog_product(("m3", "m3", "n5")),
    ],
    ids=["chain6", "n5xchain2", "m3xm3xn5"],
)
def test_principal_generated_balance_and_definition_run_no_closure(monkeypatch, lattice):
    # every reader of con(a, b) but ``principal_table`` reads D-closed sets;
    # a table of chain(3), built last, shows that the counter sees its
    # three closures (one per comparable pair)
    calls = support.count_calls(monkeypatch, "_closure", congruences)
    n = lattice.size
    for a in range(n):
        fl.principal_congruence(lattice, a, n - 1 - a)
    fl.generated_congruence(lattice, range(1, n, 3))
    for cong in fl.all_congruences(lattice):
        fl.is_balanced_congruence(lattice, cong)
    fl.is_d_lattice_definition(lattice)
    assert calls == []
    fl.principal_table(fl.standard_lattice("chain", 3))
    assert len(calls) == 3


def _principals_agree(lattice: fl.FiniteLattice, pairs: Iterable[tuple[int, int]]) -> None:
    """con(a, b) from its D-closed set against the find kernel, on each pair."""
    for a, b in pairs:
        got = fl.principal_congruence(lattice, a, b).partition.block_of
        assert got == oracles.closure_by_find(lattice, [(a, b)]), (a, b)


def test_principal_congruence_matches_find_kernel_on_every_ordered_pair_up_to_size_7():
    for lattice in support.lattices_up_to(7):
        _principals_agree(lattice, product(range(lattice.size), repeat=2))


def _pairs_through(data, n: int) -> list[tuple[int, int]]:
    """Every pair (a, b) and (b, a), for two drawn elements a (one if n = 1) and every b."""
    first = st.integers(0, n - 1)
    firsts = data.draw(st.lists(first, min_size=min(n, 2), max_size=2, unique=True))
    return [pair for a in firsts for b in range(n) for pair in ((a, b), (b, a))]


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_principal_congruence_matches_find_kernel_on_relabelled_products(data):
    lattice = support.catalog_product(data.draw(st.sampled_from(support.product_shapes())))
    relabeled = fl.relabel(lattice, data.draw(st.permutations(range(lattice.size))))
    _principals_agree(relabeled, _pairs_through(data, relabeled.size))


@settings(max_examples=12, deadline=None)
@given(lattice=support.closed_set_lattices(), data=st.data())
def test_principal_congruence_matches_find_kernel_on_closed_set_lattices(lattice, data):
    _principals_agree(lattice, _pairs_through(data, lattice.size))


_SINGLE_CALLS = """
import json, time
import finlat as fl
seconds = {}
def timed(name, call):
    start = time.process_time()
    result = call()
    seconds[name] = time.process_time() - start
    return result
verdicts = {}
for name, k in (("boolean", 8), ("chain", 300)):
    lattice = fl.standard_lattice(name, k)
    verdicts[name] = timed(f"definition {name}", lambda: fl.is_d_lattice_definition(lattice))
for name, k in (("chain", 1000), ("boolean", 10)):
    lattice = fl.standard_lattice(name, k)
    theta = timed(f"principal {name}", lambda: fl.principal_congruence(lattice, 0, 1))
    verdicts[f"balanced {name}"] = timed(
        f"balance {name}", lambda: fl.is_balanced_congruence(lattice, theta)
    )
print(json.dumps([verdicts, seconds]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_single_d_closed_set_calls_answer_within_two_seconds(flags):
    # one call each, timed in CPU seconds after the lattice is built, its
    # tables included: the d-lattice definition on boolean(8) and
    # chain(300), con(0, 1) and table-less balance on chain(1000), where
    # C(q) is derived for all 999 join-irreducibles, and on boolean(10)
    done = subprocess.run(
        [sys.executable, *flags, "-c", _SINGLE_CALLS],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    verdicts, seconds = json.loads(done.stdout)
    assert verdicts == {
        "boolean": True,
        "chain": True,
        "balanced chain": False,  # con(0, 1) has 0-class {0, 1} and 1-class {top}
        "balanced boolean": True,
    }
    assert len(seconds) == 6
    assert all(value < 2.0 for value in seconds.values()), seconds


def test_all_congruences_match_frontier_joins_up_to_size_8():
    for lattice in support.lattices_up_to(8):
        assert _con_keys(lattice) == oracles.congruences_by_frontier_joins(lattice)


def _irreducibles_agree(lattice: fl.FiniteLattice) -> None:
    covers = oracles.covering_pairs_by_scan(lattice)
    lower = congruences._join_irreducibles(lattice)
    assert lower == oracles.join_irreducibles_by_scan(lattice)
    assert lower == oracles.join_irreducibles_by_fold(lattice)
    assert list(lower) == sorted(lower)
    assert len(lower) == _join_irreducible_count(lattice)
    table = fl.principal_table(lattice)
    got = {table(a, b) for a, b in covers}
    # C(q) is a set of join-irreducibles that holds q, and its θ is con(q_*, q)
    closed = congruences._irreducible_masks(lattice)
    assert list(closed) == list(lower)
    every = sum(1 << q for q in lower)
    for q, mask in closed.items():
        assert mask >> q & 1 and not mask & ~every
        assert congruences._kernel(lattice.down_masks, every & ~mask) == table(lower[q], q)
    kernels = {congruences._kernel(lattice.down_masks, every & ~mask) for mask in closed.values()}
    assert got == kernels
    assert got == oracles.irreducibles_from_join_irreducible_elements(lattice)
    assert got == oracles.irreducibles_by_join_test(lattice)


def test_join_irreducibles_agree_three_ways_up_to_size_8():
    # con(a, b) over the covering pairs a ≺ b; con(j_*, j) over
    # join-irreducible elements; the principal congruences that are no
    # join of those below them; and the masks read from Day's dependency
    # relation as the D-closed sets C(q) and labelled by the kernel rule.
    # J(L) with each lower cover j_* (``_join_irreducibles``, read off
    # the down-sets) agrees with a scan for lower covers and with the
    # join of each strict down-set
    for lattice in support.lattices_up_to(8):
        _irreducibles_agree(lattice)


def _closed_set(lower: dict[int, int], labels: Sequence[int]) -> int:
    """The D-closed set of a congruence: the join-irreducibles p it relates to p_*."""
    return sum(1 << p for p, a in lower.items() if labels[p] == labels[a])


def _closed_sets_round_trip(lattice: fl.FiniteLattice) -> None:
    lower = congruences._join_irreducibles(lattice)
    every = sum(1 << q for q in lower)
    closed = congruences._irreducible_masks(lattice)
    congs = fl.all_congruences(lattice)
    sets = set()
    for cong in congs:
        mask = _closed_set(lower, cong.partition.block_of)
        assert all(closed[q] & ~mask == 0 for q in lower if mask >> q & 1)  # D-closed
        assert congruences._kernel(lattice.down_masks, every & ~mask) == cong.partition.block_of
        sets.add(mask)
    assert len(sets) == len(congs)


def test_closed_sets_round_trip_up_to_size_8():
    # labels -> the D-closed set S of join-irreducibles p with p θ p_* ->
    # the kernel of x ↦ J(↓x) ∖ S is the identity, and S is D-closed
    for lattice in support.lattices_up_to(8):
        _closed_sets_round_trip(lattice)


def test_kernel_rule_matches_every_congruence_up_to_size_7():
    # every partition compatible with meet and join, found by scanning the
    # partition space: θ is the kernel of x ↦ J(↓x) ∖ S for its set S, and
    # θ ↦ S maps Con(L) one to one onto the sets closed under Day's D
    for lattice in support.lattices_up_to(7):
        lower = congruences._join_irreducibles(lattice)
        every = sum(1 << q for q in lower)
        depends = oracles._dependencies(lattice, oracles._lower_covers(lattice))
        closed_sets = {
            sum(1 << q for q in subset)
            for r in range(len(lower) + 1)
            for subset in combinations(sorted(lower), r)
            if all(depends[q] <= set(subset) for q in subset)
        }
        sets = set()
        for labels in oracles.brute_congruences(lattice):
            mask = _closed_set(lower, labels)
            assert congruences._kernel(lattice.down_masks, every & ~mask) == labels
            sets.add(mask)
        assert sets == closed_sets
        assert len(closed_sets) == len(fl.all_congruences(lattice))


def _balance_agrees(lattice: fl.FiniteLattice) -> None:
    # balance read from the table's labels, and with no table from the
    # two D-closed sets, against closing each bound class again
    table = fl.principal_table(lattice)
    for cong in fl.all_congruences(lattice):
        expected = oracles.balanced_by_generated_closure(lattice, cong)
        assert fl.is_balanced_congruence(lattice, cong, table) == expected
        assert fl.is_balanced_congruence(lattice, cong) == expected


def test_balance_by_table_matches_generated_closure_up_to_size_8():
    for lattice in support.lattices_up_to(8):
        _balance_agrees(lattice)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_table_readers_match_replaced_paths_on_relabelled_products(data):
    lattice = support.catalog_product(data.draw(st.sampled_from(support.product_shapes())))
    relabeled = fl.relabel(lattice, data.draw(st.permutations(range(lattice.size))))
    assert _con_keys(relabeled) == oracles.congruences_by_frontier_joins(relabeled)
    _irreducibles_agree(relabeled)
    _closed_sets_round_trip(relabeled)
    _balance_agrees(relabeled)


@pytest.mark.parametrize(
    "lattice",
    [
        fl.standard_lattice("chain", 6),
        fl.product(fl.standard_lattice("n5"), fl.standard_lattice("chain", 2)),
        fl.product(fl.standard_lattice("m3"), fl.standard_lattice("m3")),
    ],
    ids=["chain6", "n5xchain2", "m3xm3"],
)
def test_all_congruences_runs_one_labelling_per_congruence(monkeypatch, lattice):
    # joins are ORs of D-closed sets; each set found is labelled once
    calls = support.count_calls(monkeypatch, "_kernel", congruences)
    count = len(fl.all_congruences(lattice))
    assert len(calls) == count


@pytest.mark.slow
@settings(max_examples=50, deadline=None)
@given(lattice=support.closed_set_lattices(), data=st.data())
def test_con_matches_oracles_on_closed_set_lattices(lattice, data):
    # the draws include products, duals and quotients, mostly of 20-40
    # elements; the frontier-join oracle's closure for every pair of
    # elements takes this test past 10 s
    congs = fl.all_congruences(lattice)
    keys = [cong.partition.block_of for cong in congs]
    assert keys == oracles.congruences_by_frontier_joins(lattice)
    assert keys == oracles.congruences_by_dependency_relation(lattice)
    _unbalanced_found_among_covering_pairs(lattice)
    for _ in range(3):
        left, right = data.draw(st.sampled_from(congs)), data.draw(st.sampled_from(congs))
        got = fl.join_congruences(left, right).partition.block_of
        expected = oracles.join_by_closure(
            lattice, left.partition.block_of, right.partition.block_of
        )
        assert got == expected


def test_balanced_congruence_examples():
    c3 = fl.standard_lattice("chain", 3)
    identity = fl.Congruence(c3, fl.Partition.identity(3))
    everything = fl.Congruence(c3, fl.Partition.all_in_one(3))
    assert fl.is_balanced_congruence(c3, identity)
    assert fl.is_balanced_congruence(c3, everything)
    halves = fl.principal_congruence(c3, 0, 1)
    assert not fl.is_balanced_congruence(c3, halves)
    with pytest.raises(fl.OwnerMismatch):
        fl.is_balanced_congruence(fl.standard_lattice("n5"), identity)


def test_balance_of_named_lattices():
    assert not fl.is_balanced(fl.standard_lattice("chain", 3))
    assert fl.is_balanced(fl.standard_lattice("boolean", 2))
    assert fl.is_balanced(fl.standard_lattice("n5"))
    assert fl.is_balanced(fl.standard_lattice("m3"))
    assert oracles.balanced_pairwise(fl.standard_lattice("chain", 2))
    assert not oracles.balanced_pairwise(fl.standard_lattice("chain", 3))
    assert oracles.balanced_pairwise(fl.standard_lattice("m3"))


def test_balance_definitions_agree_up_to_size_7():
    for lattice in support.lattices_up_to(7):
        assert fl.is_balanced(lattice) == oracles.balanced_pairwise(lattice)


def test_complemented_implies_balanced_up_to_size_8():
    for _, report in support.classified_up_to(8):
        if report.is_complemented:
            assert report.is_balanced


def _unbalanced_found_among_covering_pairs(lattice: fl.FiniteLattice) -> None:
    table = fl.principal_table(lattice)
    some = any(
        not fl.is_balanced_congruence(lattice, cong, table)
        for cong in fl.all_congruences(lattice)
    )
    assert oracles.unbalanced_by_covering_pairs(lattice, table) == some


def test_unbalanced_congruence_is_found_among_covering_pairs_up_to_size_8():
    for lattice in support.lattices_up_to(8):
        _unbalanced_found_among_covering_pairs(lattice)


@pytest.mark.slow
@pytest.mark.parametrize("n", [9, 10])
def test_unbalanced_congruence_is_found_among_covering_pairs_at_size(n):
    for lattice in support.lattices_of(n):
        _unbalanced_found_among_covering_pairs(lattice)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_principal_congruence_minimality_randomized(data):
    pool = support.lattices_up_to(5)
    lattice = data.draw(st.sampled_from(pool))
    a = data.draw(st.integers(0, lattice.size - 1))
    b = data.draw(st.integers(0, lattice.size - 1))
    got = fl.principal_congruence(lattice, a, b)
    assert got.related(a, b)
    assert fl.is_congruence(lattice, got.partition)
    expected = oracles.brute_principal(lattice, a, b)
    assert got.partition.block_of == expected
