"""Partitions, congruence closure, Con(L), and the balance predicates."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finlat as fl
from finlat import congruences
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


def test_congruence_equality_is_lattice_identity_scoped():
    n5 = fl.standard_lattice("n5")
    clone = fl.from_leq_matrix(n5.leq)
    same = fl.Congruence(n5, fl.Partition.identity(5))
    assert same == fl.Congruence(n5, fl.Partition.identity(5))
    assert same != fl.Congruence(clone, fl.Partition.identity(5))
    assert str(same) == "{{0},{1},{2},{3},{4}}"


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
    "lattice, covers",
    [
        (fl.standard_lattice("chain", 6), 5),
        (fl.product(fl.standard_lattice("n5"), fl.standard_lattice("chain", 2)), 15),
    ],
    ids=["chain6", "n5xchain2"],
)
def test_all_congruences_runs_one_closure_per_covering_pair(monkeypatch, lattice, covers):
    # joins are ORs of covering-pair masks: the only closures are those of
    # the covering pairs, and no table of all pairs is built
    calls = support.count_calls(monkeypatch, "_closure", congruences)
    fl.all_congruences(lattice)
    assert len(calls) == covers


def test_all_congruences_match_frontier_joins_up_to_size_8():
    for lattice in support.lattices_up_to(8):
        assert _con_keys(lattice) == oracles.congruences_by_frontier_joins(lattice)


def _irreducibles_agree(lattice: fl.FiniteLattice) -> None:
    covers = congruences._covering_pairs(lattice)
    assert sorted(covers) == sorted(oracles.covering_pairs_by_scan(lattice))
    sizes = [lattice.down_masks[b].bit_count() for _, b in covers]
    assert sizes == sorted(sizes)
    table = fl.principal_table(lattice)
    got = {table(a, b) for a, b in covers}
    assert got == oracles.irreducibles_from_join_irreducible_elements(lattice)
    assert got == oracles.irreducibles_by_join_test(lattice)


def test_join_irreducibles_agree_three_ways_up_to_size_8():
    # con(a, b) over the covering pairs a ≺ b, listed up by the size of
    # ↓b; con(j_*, j) over join-irreducible elements; and the principal
    # congruences that are no join of those below them
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
    for cong in fl.all_congruences(lattice, table):
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
    table = fl.principal_table(relabeled)
    assert fl.all_congruences(relabeled) == fl.all_congruences(relabeled, table)
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
        for cong in fl.all_congruences(lattice, table)
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
