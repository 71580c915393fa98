"""Partitions, congruence closure, Con(L), and the balance predicates."""

from __future__ import annotations

import random
import time
from itertools import product

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
        n = lattice.size
        for a in range(n):
            for b in range(n):
                got = _closure(lattice, a, b)
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
    expected = oracles.closure_by_find(relabeled, [(a, b)])
    assert _closure(relabeled, a, b) == expected == oracles.closure_by_queue(relabeled, a, b)
    # with the bounds as the pair, the closure leaves at the one-block exit
    with pytest.MonkeyPatch.context() as patch:
        normalized = support.count_calls(patch, "_normalize", congruences)
        bounds = relabeled.bottom, relabeled.top
        got = _closure(relabeled, *bounds)
        assert got == oracles.closure_by_find(relabeled, [bounds]) == (0,) * n
    assert normalized == []


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
    # the AND of covering-pair masks, against the intersection of the blocks
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
    # covering-pair masks: no congruence closure runs at all
    calls = support.count_calls(monkeypatch, "_closure", congruences)
    assert fl.all_congruences(lattice)
    assert calls == []


def test_all_congruences_match_frontier_joins_up_to_size_8():
    for lattice in support.lattices_up_to(8):
        assert _con_keys(lattice) == oracles.congruences_by_frontier_joins(lattice)


def _irreducibles_agree(lattice: fl.FiniteLattice) -> None:
    covers = congruences._covering_pairs(lattice)
    assert sorted(covers) == sorted(oracles.covering_pairs_by_scan(lattice))
    lower = congruences._join_irreducibles(covers)
    assert lower == oracles.join_irreducibles_by_scan(lattice)
    assert lower == oracles.join_irreducibles_by_fold(lattice)
    assert len(lower) == _join_irreducible_count(lattice)
    sizes = [lattice.down_masks[b].bit_count() for _, b in covers]
    assert sizes == sorted(sizes)
    table = fl.principal_table(lattice)
    got = {table(a, b) for a, b in covers}
    masks = {congruences._mask(covers, labels) for labels in got}
    assert congruences._irreducible_masks(lattice, covers) == masks
    assert got == oracles.irreducibles_from_join_irreducible_elements(lattice)
    assert got == oracles.irreducibles_by_join_test(lattice)


def test_join_irreducibles_agree_three_ways_up_to_size_8():
    # con(a, b) over the covering pairs a ≺ b, listed up by the size of
    # ↓b; con(j_*, j) over join-irreducible elements; the principal
    # congruences that are no join of those below them; and the masks
    # read from Day's dependency relation.  J(L) with each lower cover j_*
    # (``_join_irreducibles``, read off the covering pairs) agrees with a
    # scan for lower covers and with the join of each strict down-set
    for lattice in support.lattices_up_to(8):
        _irreducibles_agree(lattice)


def _masks_round_trip(lattice: fl.FiniteLattice) -> None:
    covers = congruences._covering_pairs(lattice)
    congs = fl.all_congruences(lattice)
    masks = set()
    for cong in congs:
        mask = congruences._mask(covers, cong.partition.block_of)
        assert congruences._labels(lattice.size, covers, mask) == cong.partition.block_of
        masks.add(mask)
    assert len(masks) == len(congs)


def test_covering_pair_masks_round_trip_up_to_size_8():
    # labels -> mask of the covering pairs related -> labels is the identity
    for lattice in support.lattices_up_to(8):
        _masks_round_trip(lattice)


def _balance_agrees(lattice: fl.FiniteLattice) -> None:
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
    _masks_round_trip(relabeled)
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
    # joins are ORs of covering-pair masks; each mask found is labelled once
    calls = support.count_calls(monkeypatch, "_labels", congruences)
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
