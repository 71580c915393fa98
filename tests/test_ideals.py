"""Ideals, filters, primality, maximality, annihilators, and the
two-block prime-ideal congruence."""

from __future__ import annotations

import pytest

import finlat as fl
from finlat import ideals
import oracles
import support


def test_element_set_basics():
    s = fl.ElementSet.from_iterable(5, [4, 0, 2])
    assert str(s) == "{0,2,4}"
    assert s.members() == (0, 2, 4)
    assert len(s) == 3
    assert 2 in s and 1 not in s
    assert list(s) == [0, 2, 4]
    assert s.complement().members() == (1, 3)
    assert s.with_element(1).members() == (0, 1, 2, 4)
    with pytest.raises(fl.SizeMismatch):
        fl.ElementSet.from_iterable(3, [3])
    with pytest.raises(fl.SizeMismatch):
        fl.ElementSet(3, 1 << 3)


def test_element_set_sorts_by_size_then_mask():
    sets = [
        fl.ElementSet(4, 0b0111),
        fl.ElementSet(4, 0b1000),
        fl.ElementSet(4, 0b0011),
    ]
    assert [s.mask for s in sorted(sets)] == [0b1000, 0b0011, 0b0111]


def test_is_ideal_and_is_filter_examples():
    n5 = fl.standard_lattice("n5")
    for lattice in support.catalog().values():
        assert fl.is_ideal(lattice, fl.ElementSet.from_iterable(lattice.size, [lattice.bottom]))
        assert fl.is_ideal(lattice, fl.ElementSet.full(lattice.size))
        assert fl.is_filter(lattice, fl.ElementSet.full(lattice.size))
    # two incomparable elements whose join escapes the set
    assert not fl.is_ideal(n5, fl.ElementSet.from_iterable(5, [0, 1, 3]))
    assert not fl.is_ideal(n5, fl.ElementSet(5, 0))
    assert not fl.is_filter(n5, fl.ElementSet(5, 0))
    with pytest.raises(fl.SizeMismatch):
        fl.is_ideal(n5, fl.ElementSet.from_iterable(4, [0]))


def test_enumerate_ideals_of_named_lattices():
    c3 = fl.standard_lattice("chain", 3)
    assert [str(s) for s in fl.enumerate_ideals(c3)] == ["{0}", "{0,1}", "{0,1,2}"]
    # every ideal of a finite lattice is a principal down-set
    assert len(fl.enumerate_ideals(fl.standard_lattice("boolean", 2))) == 4
    m3_ideals = [str(s) for s in fl.enumerate_ideals(fl.standard_lattice("m3"))]
    assert m3_ideals == ["{0}", "{0,1}", "{0,2}", "{0,3}", "{0,1,2,3,4}"]


def test_enumeration_matches_subset_scan_and_oracle():
    # filters of L are the ideals of its dual, on the same element indices
    for lattice in support.lattices_up_to(6):
        for fast, scanned in (
            (fl.enumerate_ideals(lattice), lattice),
            (fl.enumerate_filters(lattice), fl.dual(lattice)),
        ):
            assert fast == sorted(fast)
            assert len({s.mask for s in fast}) == len(fast)
            assert {s.mask for s in fast} == oracles.brute_ideals(scanned)


def test_ideals_of_dual_are_filters():
    for lattice in support.catalog().values():
        flipped = fl.dual(lattice)
        assert [s.mask for s in fl.enumerate_ideals(lattice)] == [
            s.mask for s in fl.enumerate_filters(flipped)
        ]


def test_prime_ideal_examples():
    c3 = fl.standard_lattice("chain", 3)
    assert fl.is_prime_ideal(c3, fl.ElementSet.from_iterable(3, [0]))
    assert not fl.is_prime_ideal(c3, fl.ElementSet.full(3))
    m3 = fl.standard_lattice("m3")
    assert not fl.is_prime_ideal(m3, fl.ElementSet.from_iterable(5, [0, 1]))
    with pytest.raises(fl.NotAnIdeal):
        fl.is_prime_ideal(m3, fl.ElementSet.from_iterable(5, [1]))
    with pytest.raises(fl.NotAFilter):
        fl.is_prime_filter(m3, fl.ElementSet.from_iterable(5, [1]))


def test_maximal_ideal_examples():
    c3 = fl.standard_lattice("chain", 3)
    assert fl.is_maximal_ideal(c3, fl.ElementSet.from_iterable(3, [0, 1]))
    assert not fl.is_maximal_ideal(c3, fl.ElementSet.from_iterable(3, [0]))
    assert not fl.is_maximal_ideal(c3, fl.ElementSet.full(3))
    m3 = fl.standard_lattice("m3")
    assert fl.is_maximal_ideal(m3, fl.ElementSet.from_iterable(5, [0, 1]))
    assert fl.is_maximal_filter(m3, fl.ElementSet.from_iterable(5, [1, 4]))
    with pytest.raises(fl.NotAnIdeal):
        fl.is_maximal_ideal(m3, fl.ElementSet.from_iterable(5, [4]))


def test_principal_scan_matches_subset_scan_up_to_size_8():
    # the polynomial scan behind oracles.check_report against the subset
    # scans; filters are the ideals of the dual
    for lattice in support.lattices_up_to(8):
        for upward, side in ((False, lattice), (True, fl.dual(lattice))):
            assert oracles.ideals_by_principal_scan(lattice, upward) == oracles.brute_ideals(side)
            maximal = oracles.maximal_ideals_by_principal_scan(lattice, upward)
            assert maximal == oracles.brute_maximal_ideals(side)


def test_maximality_matches_brute_scan_up_to_size_6():
    for lattice in support.lattices_up_to(6):
        maximal_ideals = oracles.brute_maximal_ideals(lattice)
        maximal_filters = oracles.brute_maximal_ideals(fl.dual(lattice))
        for ideal in fl.enumerate_ideals(lattice):
            assert fl.is_maximal_ideal(lattice, ideal) == (ideal.mask in maximal_ideals)
        for filt in fl.enumerate_filters(lattice):
            assert fl.is_maximal_filter(lattice, filt) == (filt.mask in maximal_filters)


def test_prime_iff_complement_prime_filter_up_to_size_7():
    full_checked = 0
    for lattice in support.lattices_up_to(7):
        full = (1 << lattice.size) - 1
        for ideal in fl.enumerate_ideals(lattice):
            if ideal.mask == full:
                continue
            comp = ideal.complement()
            complement_is_prime_filter = fl.is_filter(lattice, comp) and fl.is_prime_filter(
                lattice, comp
            )
            assert fl.is_prime_ideal(lattice, ideal) == complement_is_prime_filter
            full_checked += 1
    assert full_checked > 0


def test_generated_ideal_and_filter():
    m3 = fl.standard_lattice("m3")
    n5 = fl.standard_lattice("n5")
    bottom_only = fl.ElementSet.from_iterable(5, [0])
    assert fl.ideal_generated_by(m3, bottom_only).members() == (0,)
    assert fl.ideal_generated_by(m3, [1, 2]) == fl.ElementSet.full(5)
    assert fl.filter_generated_by(n5, [2]).members() == (2, 4)
    assert fl.is_ideal(n5, fl.ideal_generated_by(n5, [1, 3]))
    with pytest.raises(fl.EmptySet):
        fl.ideal_generated_by(m3, [])
    with pytest.raises(fl.EmptySet):
        fl.filter_generated_by(m3, fl.ElementSet(5, 0))


def test_generated_sets_are_least():
    for lattice in support.lattices_up_to(5):
        n = lattice.size
        for seed_mask in range(1, 1 << n):
            seed = fl.ElementSet(n, seed_mask)
            grown = fl.ideal_generated_by(lattice, seed)
            assert fl.is_ideal(lattice, grown)
            assert seed.issubset(grown)
            for other_mask in oracles.brute_ideals(lattice):
                if seed_mask & ~other_mask == 0:
                    assert grown.mask & ~other_mask == 0


def test_annihilator_sets():
    n5 = fl.standard_lattice("n5")
    m3 = fl.standard_lattice("m3")
    for lattice in support.catalog().values():
        assert fl.annihilator_filter(lattice, lattice.bottom).members() == (lattice.top,)
        assert fl.annihilator_ideal(lattice, lattice.top).members() == (lattice.bottom,)
    blockers = fl.annihilator_filter(n5, 1)
    assert blockers.members() == (3, 4)
    assert fl.is_filter(n5, blockers)
    m3_blockers = fl.annihilator_filter(m3, 1)
    assert m3_blockers.members() == (2, 3, 4)
    assert not fl.is_filter(m3, m3_blockers)
    assert fl.annihilator_ideal(m3, 1).members() == (0, 2, 3)
    with pytest.raises(fl.SizeMismatch):
        fl.annihilator_filter(n5, 7)


def test_prime_ideal_congruence_examples():
    c3 = fl.standard_lattice("chain", 3)
    assert str(fl.prime_ideal_congruence(c3, fl.ElementSet.from_iterable(3, [0]))) == "{{0},{1,2}}"
    assert (
        str(fl.prime_ideal_congruence(c3, fl.ElementSet.from_iterable(3, [0, 1])))
        == "{{0,1},{2}}"
    )
    with pytest.raises(fl.NotPrime):
        fl.prime_ideal_congruence(
            fl.standard_lattice("m3"), fl.ElementSet.from_iterable(5, [0, 1])
        )
    with pytest.raises(fl.NotAnIdeal):
        fl.prime_ideal_congruence(c3, fl.ElementSet.from_iterable(3, [1]))


def test_two_block_partition_soundness_up_to_size_7():
    # prime ideals induce congruences; non-prime proper ideals never do
    for lattice in support.lattices_up_to(7):
        full = (1 << lattice.size) - 1
        for ideal in fl.enumerate_ideals(lattice):
            if ideal.mask == full:
                continue
            labels = [0 if e in ideal else 1 for e in lattice.elements()]
            two_block_ok = fl.is_congruence(lattice, fl.Partition.from_labels(labels))
            assert two_block_ok == fl.is_prime_ideal(lattice, ideal)


def test_folds_match_pair_scans_and_fixpoints_up_to_size_6():
    # every nonempty subset: the ideal and filter tests against the pair
    # scans, and the generated sets against the closing fixpoint
    for lattice in support.lattices_up_to(6):
        n = lattice.size
        sides = (
            (fl.is_ideal, fl.ideal_generated_by, lattice.down_masks, lattice.join),
            (fl.is_filter, fl.filter_generated_by, lattice.up_masks, lattice.meet),
        )
        for mask in range(1, 1 << n):
            subset = fl.ElementSet(n, mask)
            for is_closed, generated_by, masks, table in sides:
                assert is_closed(lattice, subset) == oracles.closed_by_pairs(
                    lattice, subset, masks, table
                )
                assert generated_by(lattice, subset).mask == oracles.generated_by_fixpoint(
                    lattice, mask, table, masks
                )


def test_primality_and_maximality_match_scans_up_to_size_8():
    for lattice in support.lattices_up_to(8):
        maximal_ideals = oracles.brute_maximal_ideals(lattice)
        maximal_filters = oracles.brute_maximal_ideals(fl.dual(lattice))
        (maximals, primes), (maximal_fs, prime_fs) = ideals._maximal_and_prime(lattice)
        for ideal in fl.enumerate_ideals(lattice):
            prime = oracles.prime_by_pairs(lattice, ideal, lattice.meet)
            assert fl.is_prime_ideal(lattice, ideal) == prime == (ideal in primes)
            maximal = ideal.mask in maximal_ideals
            assert fl.is_maximal_ideal(lattice, ideal) == maximal == (ideal in maximals)
        for filt in fl.enumerate_filters(lattice):
            prime = oracles.prime_by_pairs(lattice, filt, lattice.join)
            assert fl.is_prime_filter(lattice, filt) == prime == (filt in prime_fs)
            maximal = filt.mask in maximal_filters
            assert fl.is_maximal_filter(lattice, filt) == maximal == (filt in maximal_fs)
