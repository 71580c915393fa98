"""Property predicates, the seven-condition bundle, constructive
witnesses, and the aggregate report."""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finlat as fl
from finlat.properties import _Facts
import oracles
import support


def _sets(lattice, *member_lists):
    return tuple(
        fl.ElementSet.from_iterable(lattice.size, members) for members in member_lists
    )


def test_d_lattice_predicate_examples():
    named = support.catalog()
    for name in ("chain1", "chain2", "chain3", "chain4", "boolean2", "boolean3", "n5"):
        assert fl.is_d_lattice(named[name]), name
    assert not fl.is_d_lattice(named["m3"])
    assert not fl.is_d_lattice_definition(named["m3"])
    assert not fl.is_d_lattice_maximal_prime(named["m3"])


def test_complements_of_examples():
    n5 = fl.standard_lattice("n5")
    assert fl.complements_of(n5, 1).members() == (3,)
    assert fl.complements_of(n5, 3).members() == (1, 2)
    assert fl.complements_of(n5, n5.bottom).members() == (n5.top,)
    assert fl.complements_of(fl.standard_lattice("chain", 3), 1).members() == ()
    assert fl.complements_of(fl.standard_lattice("m3"), 1).members() == (2, 3)
    with pytest.raises(fl.SizeMismatch):
        fl.complements_of(n5, 5)


def test_is_complemented_examples():
    assert fl.is_complemented(fl.standard_lattice("n5"))
    assert fl.is_complemented(fl.standard_lattice("m3"))
    assert fl.is_complemented(fl.standard_lattice("boolean", 3))
    assert not fl.is_complemented(fl.standard_lattice("chain", 3))
    assert fl.is_complemented(fl.standard_lattice("chain", 1))


def test_is_distributive_examples():
    assert fl.is_distributive(fl.standard_lattice("chain", 4))
    assert fl.is_distributive(fl.standard_lattice("boolean", 3))
    assert not fl.is_distributive(fl.standard_lattice("n5"))
    assert not fl.is_distributive(fl.standard_lattice("m3"))


def test_is_distributive_matches_triple_scan_up_to_size_9():
    for lattice in support.lattices_up_to(9):
        assert fl.is_distributive(lattice) == oracles.distributive_by_triples(lattice)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_is_distributive_matches_triple_scan_on_relabelled_products(data):
    lattice = support.catalog_product(data.draw(st.sampled_from(support.product_shapes())))
    relabeled = fl.relabel(lattice, data.draw(st.permutations(range(lattice.size))))
    assert fl.is_distributive(relabeled) == oracles.distributive_by_triples(relabeled)


def test_seven_conditions_goldens():
    false7 = (False,) * 7
    assert fl.seven_conditions(fl.standard_lattice("chain", 2)).as_tuple() == false7
    assert fl.seven_conditions(fl.standard_lattice("n5")).as_tuple() == false7
    assert fl.seven_conditions(fl.standard_lattice("boolean", 2)).as_tuple() == false7
    chain3 = fl.seven_conditions(fl.standard_lattice("chain", 3))
    assert chain3.as_tuple() == (True,) * 7
    assert chain3.all_equal()
    # off d-lattice scope the bundle can and does split
    m3 = fl.seven_conditions(fl.standard_lattice("m3"))
    assert m3.as_tuple() == (True, True, False, False, False, False, False)
    assert not m3.all_equal()
    assert oracles.c1_c2_by_scan(fl.standard_lattice("m3")) == (True, True)
    assert m3.to_dict() == {
        "c1": True,
        "c2": True,
        "c3": False,
        "c4": False,
        "c5": False,
        "c6": False,
        "c7": False,
    }


def test_c5_and_complementedness_match_reference_forms():
    # c1/c2 against the complement-validating scan and c5 against
    # quotient-is-chain(3) up to size 7, complements against annihilators up to 8
    for lattice, report in support.classified_up_to(8):
        assert fl.is_complemented(lattice) == oracles.complemented_by_annihilators(lattice)
        if lattice.size <= 7:
            congs = fl.all_congruences(lattice)
            assert report.seven.c5 == oracles.maps_onto_three_chain(lattice, congs)
            assert (report.seven.c1, report.seven.c2) == oracles.c1_c2_by_scan(lattice)


def test_three_chain_quotient_examples():
    c3 = fl.standard_lattice("chain", 3)
    inner, outer = _sets(c3, [0], [0, 1])
    hom = fl.three_chain_quotient_from_nested_primes(c3, inner, outer)
    assert hom.map == (0, 1, 2)
    assert fl.is_homomorphism(hom) and fl.is_surjective(hom)

    c4 = fl.standard_lattice("chain", 4)
    inner, outer = _sets(c4, [0], [0, 1, 2])
    assert fl.three_chain_quotient_from_nested_primes(c4, inner, outer).map == (0, 1, 1, 2)


def test_three_chain_quotient_rejects_bad_inputs():
    b2 = fl.standard_lattice("boolean", 2)
    left, right, bottom = _sets(b2, [0, 1], [0, 2], [0])
    with pytest.raises(fl.NotNestedPrimes):
        fl.three_chain_quotient_from_nested_primes(b2, left, right)
    with pytest.raises(fl.NotNestedPrimes):
        fl.three_chain_quotient_from_nested_primes(b2, left, left)
    with pytest.raises(fl.NotNestedPrimes):
        # {0} is an ideal of boolean(2) but not prime
        fl.three_chain_quotient_from_nested_primes(b2, bottom, left)
    with pytest.raises(fl.NotNestedPrimes):
        # not even an ideal
        fl.three_chain_quotient_from_nested_primes(b2, _sets(b2, [1])[0], left)


def test_noncomplemented_witness_on_chains():
    c3 = fl.standard_lattice("chain", 3)
    w = fl.witness_from_noncomplemented(c3, 1)
    assert w.element == 1
    assert w.seed_filter.members() == (1, 2)
    assert w.maximal_filter.members() == (1, 2)
    assert w.residual_ideal.members() == (0,)
    assert w.extended_ideal.members() == (0, 1)

    c4 = fl.standard_lattice("chain", 4)
    w = fl.witness_from_noncomplemented(c4, 1)
    assert w.seed_filter.members() == (1, 2, 3)
    assert w.extended_ideal.members() == (0, 1)


def test_noncomplemented_witness_rejections():
    with pytest.raises(fl.HasComplement):
        fl.witness_from_noncomplemented(fl.standard_lattice("n5"), 1)
    with pytest.raises(fl.NotDLattice):
        fl.witness_from_noncomplemented(fl.standard_lattice("m3"), 1)


def test_witness_check_failure_is_a_typed_error(monkeypatch):
    # the witness invariants must hold under python -O, so they cannot be asserts
    monkeypatch.setattr("finlat.properties.is_maximal_filter", lambda lattice, filt: False)
    with pytest.raises(fl.HomomorphismCheckFailed, match="greedy extension is not maximal"):
        fl.witness_from_noncomplemented(fl.standard_lattice("chain", 3), 1)


def test_witness_from_whole_seed_filter_is_a_typed_error(monkeypatch):
    # the paper rules out a seed filter that is the whole lattice; reaching
    # one is an internal bug, reported as such and not as StopIteration
    monkeypatch.setattr(
        "finlat.properties.filter_generated_by", lambda lattice, subset: fl.ElementSet.full(3)
    )
    with pytest.raises(fl.HomomorphismCheckFailed, match="seed filter is the whole lattice"):
        fl.witness_from_noncomplemented(fl.standard_lattice("chain", 3), 1)


def _assert_witness_invariants(lattice, witness, maximal_ideals, maximal_filters):
    """Every invariant the witness promises, read through the replaced scans."""
    a, full = witness.element, (1 << lattice.size) - 1
    seed, maximal = witness.seed_filter, witness.maximal_filter
    residual, extended = witness.residual_ideal, witness.extended_ideal
    blockers = fl.annihilator_filter(lattice, a)
    meet, join, up, down = lattice.meet, lattice.join, lattice.up_masks, lattice.down_masks
    assert seed.mask == oracles.generated_by_fixpoint(lattice, blockers.mask | 1 << a, meet, up)
    assert seed.isdisjoint(fl.annihilator_ideal(lattice, a))
    assert seed.issubset(maximal) and maximal.mask in maximal_filters
    assert residual == maximal.complement()
    assert oracles.closed_by_pairs(lattice, residual, down, join)
    assert residual.mask not in maximal_ideals
    extended_mask = oracles.generated_by_fixpoint(lattice, residual.mask | 1 << a, join, down)
    assert extended.mask == extended_mask
    assert extended.mask != full and extended.isdisjoint(blockers)
    assert residual.issubset(extended) and residual.mask != extended.mask


def test_witness_and_greedy_witness_hold_every_invariant_up_to_size_8():
    # the maximal filter is ↑ of the least atom below the seed's meet; the
    # greedy growth it replaces may reach another atom's up-set
    checked = 0
    for lattice, report in support.classified_up_to(8):
        if not report.is_d_lattice:
            continue
        maximal_ideals = oracles.brute_maximal_ideals(lattice)
        maximal_filters = oracles.brute_maximal_ideals(fl.dual(lattice))
        for a in lattice.elements():
            if fl.complements_of(lattice, a):
                continue
            for witness in (
                fl.witness_from_noncomplemented(lattice, a),
                oracles.witness_by_greedy_growth(lattice, a),
            ):
                _assert_witness_invariants(lattice, witness, maximal_ideals, maximal_filters)
            checked += 1
    assert checked > 0


def test_verify_theorem_verdicts():
    for name in ("chain3", "n5", "boolean3"):
        verdict = fl.verify_theorem(support.catalog()[name])
        assert verdict.scope == "d-lattice"
        assert verdict.passed
        assert verdict.balanced == verdict.complemented

    m3 = fl.verify_theorem(fl.standard_lattice("m3"))
    assert m3.scope == "not-a-d-lattice"
    assert m3.passed
    assert not m3.seven.all_equal()
    assert json.dumps(m3.to_dict(), sort_keys=True)


# Counts of the (c1..c7) vectors, c1 first, of the lattices outside the
# d-lattice scope; sizes 1 to 4 have none.  1100001 is balanced (c6 false)
# and not complemented (c7 true), so from size 8 on the theorem needs its
# hypothesis.  No vector is complemented and not balanced.
OFF_SCOPE_VECTORS = {
    5: {"1100000": 1},
    6: {"1100000": 4, "1100011": 2},
    7: {"1100000": 15, "1111111": 7, "1100011": 6, "0100011": 1, "1000011": 1},
    8: {
        "1100000": 62,
        "1111111": 44,
        "1100011": 32,
        "1100001": 9,
        "0100011": 3,
        "1000011": 3,
    },
    9: {
        "1100000": 283,
        "1111111": 256,
        "1100011": 181,
        "1100001": 102,
        "1000011": 13,
        "0100011": 13,
    },
    10: {
        "1111111": 1519,
        "1100000": 1511,
        "1100011": 1086,
        "1100001": 901,
        "1000011": 53,
        "0100011": 53,
    },
}
# Off-scope lattices that are balanced and not complemented, by size
BALANCED_NOT_COMPLEMENTED = {8: 9, 9: 102, 10: 901}


def _off_scope_counts(scoped: Iterable[tuple[bool, fl.SevenConditions]]) -> tuple:
    """Off-scope vector counts, how many of those lattices are balanced and
    not complemented, and how many lattices in all are complemented and not
    balanced, from (in d-lattice scope, seven conditions) pairs."""
    vectors: Counter = Counter()
    balanced_not_complemented = complemented_not_balanced = 0
    for d_lattice, seven in scoped:
        complemented_not_balanced += seven.c6 and not seven.c7
        if d_lattice:
            continue
        vectors["".join("01"[c] for c in seven.as_tuple())] += 1
        balanced_not_complemented += seven.c7 and not seven.c6
    return vectors, balanced_not_complemented, complemented_not_balanced


def _pinned(n: int) -> tuple:
    return Counter(OFF_SCOPE_VECTORS.get(n, {})), BALANCED_NOT_COMPLEMENTED.get(n, 0), 0


@pytest.mark.parametrize(
    "build, k, size",
    [
        (support.partition_lattice, 4, 15),
        (support.subspace_lattice_gf2, 3, 16),
        (support.partition_lattice, 5, 52),
        (support.subspace_lattice_gf2, 4, 67),
    ],
    ids=["pi4", "gf2_3", "pi5", "gf2_4"],
)
def test_simple_complemented_lattices_beyond_size_10(build, k, size):
    # Π_k and the subspaces of GF(2)^d are simple, complemented and not
    # distributive; all four lie outside the theorem's scope and are balanced
    lattice = build(k)
    assert lattice.size == size
    assert len(fl.all_congruences(lattice)) == 2
    assert fl.is_complemented(lattice)
    assert not fl.is_distributive(lattice)
    assert fl.is_d_lattice(lattice) is fl.is_d_lattice_definition(lattice) is False
    verdict = fl.verify_theorem(lattice)
    assert verdict.passed
    assert (verdict.scope, verdict.balanced, verdict.complemented) == ("not-a-d-lattice", True, True)


def _theorem_facts(lattice: fl.FiniteLattice) -> tuple[bool, bool, bool]:
    """(in scope, balanced, complemented), once the verdict passes, the two
    d-lattice characterizations agree and the witnesses hold by definition."""
    assert fl.is_d_lattice(lattice) == fl.is_d_lattice_definition(lattice)
    verdict = fl.verify_theorem(lattice)
    assert verdict.passed
    oracles.check_report(lattice, fl.classify(lattice))
    return verdict.scope == "d-lattice", verdict.balanced, verdict.complemented


GLUED_SUMS = {
    ("chain2", "chain2"): True,
    ("boolean2", "boolean2"): True,
    ("chain3", "boolean2"): True,
    ("n5", "n5"): True,
    ("boolean3", "n5"): True,
    ("m3", "m3"): False,
    ("n5", "m3"): False,
    ("m3", "n5"): False,
    ("boolean2", "m3"): False,
    ("pi4", "m3"): False,
}


@pytest.mark.parametrize("names, in_scope", GLUED_SUMS.items(), ids=map("+".join, GLUED_SUMS))
def test_glued_sums(names, in_scope):
    # L ⊕ M has Con(L) × Con(M) for its congruences; the glue point has no
    # complement, and collapsing L leaves the 1-class {top}, which generates
    # nothing: never balanced or complemented, in scope or not
    named = {**support.catalog(), "pi4": support.partition_lattice(4)}
    lower, upper = (named[name] for name in names)
    lattice = support.glued_sum(lower, upper)
    assert lattice.size == lower.size + upper.size - 1
    counts = [len(fl.all_congruences(part)) for part in (lattice, lower, upper)]
    assert counts[0] == counts[1] * counts[2]
    assert _theorem_facts(lattice) == (in_scope, False, False)


# (in scope, balanced, complemented) -> number of intervals [a, b], a <= b
INTERVALS = {
    ("chain3", "n5"): {(True, False, False): 23, (True, True, True): 55},
    ("n5", "m3"): {
        (False, False, False): 2,
        (False, True, True): 11,
        (True, False, False): 22,
        (True, True, True): 121,
    },
    ("boolean2", "m3"): {(False, True, True): 9, (True, True, True): 99},
    ("m3", "m3"): {(False, True, True): 23, (True, True, True): 121},
}


@pytest.mark.parametrize("names, expected", INTERVALS.items(), ids=map("x".join, INTERVALS))
def test_intervals_of_products(names, expected):
    # [a, b] of L1 × L2 is [a1, b1] × [a2, b2], so its size and its number
    # of congruences are the products of theirs
    first, second = (support.catalog()[name] for name in names)
    lattice = fl.product(first, second)
    facts = Counter()
    for a in lattice.elements():
        for b in lattice.elements():
            if lattice.leq[a][b]:
                part = support.interval(lattice, a, b)
                (a1, a2), (b1, b2) = divmod(a, second.size), divmod(b, second.size)
                factors = support.interval(first, a1, b1), support.interval(second, a2, b2)
                assert part.size == factors[0].size * factors[1].size
                counts = [len(fl.all_congruences(x)) for x in (part, *factors)]
                assert counts[0] == counts[1] * counts[2]
                facts[_theorem_facts(part)] += 1
    assert facts == expected


def test_intervals_of_pi4():
    # an interval of a partition lattice is a product of partition lattices:
    # [0, c] is Π3 = m3 for the 4 coatoms c of type 3+1 and Π2 × Π2 = boolean2
    # for the 3 of type 2+2, and [a, 1] is Π3 for each of the 6 atoms a
    pi4 = support.partition_lattice(4)
    down, up = pi4.down_masks, pi4.up_masks
    coatoms = [c for c in pi4.elements() if up[c].bit_count() == 2]
    atoms = [a for a in pi4.elements() if down[a].bit_count() == 2]
    shapes = Counter(
        fl.canonical_form(support.interval(pi4, pi4.bottom, c)) for c in coatoms
    ) + Counter(fl.canonical_form(support.interval(pi4, a, pi4.top)) for a in atoms)
    m3, boolean2 = (fl.canonical_form(support.catalog()[name]) for name in ("m3", "boolean2"))
    assert shapes == {m3: 10, boolean2: 3}
    facts = Counter(
        _theorem_facts(support.interval(pi4, a, b))
        for a in pi4.elements()
        for b in pi4.elements()
        if pi4.leq[a][b]
    )
    assert facts == {(False, True, True): 11, (True, True, True): 49}


# (in scope, balanced, complemented) -> number of quotients L/θ, one per θ
QUOTIENTS = {
    ("chain2", "n5"): {(True, True, True): 10},
    ("chain3", "m3"): {
        (False, False, False): 1,
        (False, True, True): 3,
        (True, False, False): 1,
        (True, True, True): 3,
    },
    ("n5", "m3"): {(False, True, True): 5, (True, True, True): 5},
    ("boolean2", "n5"): {(True, True, True): 20},
    ("m3", "m3"): {(False, True, True): 3, (True, True, True): 1},
    ("chain2", "chain2", "m3"): {(False, True, True): 4, (True, True, True): 4},
}


@pytest.mark.parametrize("names, expected", QUOTIENTS.items(), ids=map("x".join, QUOTIENTS))
def test_quotients_of_products(names, expected):
    # Con(L/θ) is the interval [θ, ∇] of Con(L)
    lattice = support.catalog_product(names)
    congs = [c.partition for c in fl.all_congruences(lattice)]
    facts = Counter()
    for theta, image in support.quotients(lattice):
        above = sum(theta.partition.refines(other) for other in congs)
        assert len(fl.all_congruences(image)) == above
        facts[_theorem_facts(image)] += 1
    assert facts == expected


@settings(max_examples=100, deadline=None)
@given(lattice=support.closed_set_lattices())
def test_theorem_and_scope_on_closed_set_lattices(lattice):
    # lattices of up to 40 closed sets, beyond the exhaustive range
    assert fl.is_d_lattice(lattice) == fl.is_d_lattice_definition(lattice)
    verdict = fl.verify_theorem(lattice)
    assert verdict.passed
    if verdict.complemented:
        assert verdict.balanced


def test_off_scope_vector_counts_are_pinned_up_to_size_8():
    for n in range(1, 9):
        scoped = ((report.is_d_lattice, report.seven) for _, report in support.classified(n))
        assert _off_scope_counts(scoped) == _pinned(n), f"size {n}"


@pytest.mark.slow
@pytest.mark.parametrize("n", [9, 10])
def test_off_scope_vector_counts_are_pinned_at_sizes_9_and_10(n):
    scoped = ((verdict.scope == "d-lattice", verdict.seven) for verdict in support.verdicts_of(n))
    assert _off_scope_counts(scoped) == _pinned(n)


def test_classify_one_element_lattice():
    report = fl.classify(fl.standard_lattice("chain", 1))
    assert report.size == 1
    assert report.is_bounded and report.is_d_lattice
    assert report.is_balanced and report.is_complemented and report.is_distributive
    assert report.seven.as_tuple() == (False,) * 7
    assert report.convention_note is not None and "convention" in report.convention_note
    assert report.counts == fl.ReportCounts(
        ideals=1, filters=1, prime_ideals=0, prime_filters=0, congruences=1
    )


def test_classify_n5():
    report = fl.classify(fl.standard_lattice("n5"))
    assert report.is_d_lattice and report.is_complemented and report.is_balanced
    assert not report.is_distributive
    assert report.counts == fl.ReportCounts(
        ideals=5, filters=5, prime_ideals=2, prime_filters=2, congruences=5
    )
    assert report.witnesses == fl.ReportWitnesses()
    assert report.convention_note is None


def test_classify_chain3_witnesses():
    report = fl.classify(fl.standard_lattice("chain", 3))
    w = report.witnesses
    assert [str(s) for s in w.nested_prime_ideals] == ["{0}", "{0,1}"]
    assert w.noncomplemented_element == 1
    assert str(w.unbalanced_congruence) == "{{0,1},{2}}"
    assert w.nonprime_maximal_ideal is None
    assert w.nonprime_maximal_filter is None


def test_classify_derives_each_fact_once(monkeypatch):
    # chain(3) and chain(3)×n5 are unbalanced and non-complemented, so their
    # witnesses are the least congruence and element that fail those scans;
    # _maximal_and_prime yields the maximal and prime ideal and filter masks,
    # all_congruences lists Con(L) in its order, and balance is read once per
    # congruence up to the least unbalanced one, complements once per element
    # up to the least complementless one
    names = ("all_congruences", "_maximal_and_prime", "is_balanced_congruence", "_complements")
    chain3 = fl.standard_lattice("chain", 3)
    for lattice in (chain3, fl.product(chain3, fl.standard_lattice("n5"))):
        with monkeypatch.context() as patch:
            calls = {name: support.count_calls(patch, name, fl.properties) for name in names}
            report = fl.classify(lattice)
        assert report.seven.c6 and report.seven.c7
        for name, args in calls.items():
            keys = [tuple(map(str, call[1:])) for call in args]
            assert keys and len(keys) == len(set(keys)), (name, keys)
        assert len(calls["all_congruences"]) == len(calls["_maximal_and_prime"]) == 1
        congruences = fl.all_congruences(lattice)
        read = congruences[: congruences.index(report.witnesses.unbalanced_congruence) + 1]
        assert [call[1] for call in calls["is_balanced_congruence"]] == read
        assert len(calls["_complements"]) == report.witnesses.noncomplemented_element + 1


@pytest.mark.parametrize(
    "lattice, comparable",
    [
        (fl.standard_lattice("chain", 6), 15),
        (fl.product(fl.standard_lattice("n5"), fl.standard_lattice("chain", 2)), 29),
    ],
    ids=["chain6", "n5xchain2"],
)
@pytest.mark.parametrize(
    "verdict",
    [fl.verify_theorem, fl.classify, fl.seven_conditions],
    ids=["verify", "classify", "seven"],
)
def test_verdicts_run_one_closure_per_pair(monkeypatch, lattice, comparable, verdict):
    # Con(L) and balance read one principal table, built once by the
    # record each of the three entry points reads; the table closes only
    # the comparable pairs a < b and reads any other pair at (a∧b, a∨b);
    # the d-lattice flag reads the maximal and prime sets and runs no closure
    calls = support.count_calls(monkeypatch, "_closure", fl.congruences)
    verdict(lattice)
    assert len(calls) == comparable


def test_verify_closures_up_to_size_9_are_pinned(monkeypatch):
    # one closure per comparable pair a < b of every lattice of size <= 9;
    # the 9,483 that merge everything into one block return at that merge,
    # without draining their worklist or normalizing their labels; the
    # other normalizations are one per congruence listed (``_kernel``)
    lattices = support.lattices_up_to(9)
    closures = support.count_calls(monkeypatch, "_closure", fl.congruences)
    normalized = support.count_calls(monkeypatch, "_normalize", fl.congruences)
    labelled = support.count_calls(monkeypatch, "_kernel", fl.congruences)
    for lattice in lattices:
        fl.verify_theorem(lattice)
    by_closures = len(normalized) - len(labelled)
    assert (len(closures), len(closures) - by_closures) == (33_482, 9_483)


def _unbalanced_by_pairs_agrees(lattice: fl.FiniteLattice) -> bool:
    # the (z, m) pairs test, with no listing, against the listing and the table
    got = oracles.unbalanced_by_pairs(lattice)
    assert got == (_Facts(lattice).unbalanced is not None)
    return got


def test_unbalanced_by_pairs_matches_listing_up_to_size_9():
    unbalanced = Counter(map(_unbalanced_by_pairs_agrees, support.lattices_up_to(9)))
    assert unbalanced == {True: 860, False: 1378 - 860}


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_unbalanced_by_pairs_matches_listing_on_relabelled_products(data):
    lattice = support.catalog_product(data.draw(st.sampled_from(support.product_shapes())))
    relabeled = fl.relabel(lattice, data.draw(st.permutations(range(lattice.size))))
    _unbalanced_by_pairs_agrees(relabeled)


@pytest.mark.slow
def test_unbalanced_by_pairs_matches_listing_at_size_10():
    unbalanced = Counter(map(_unbalanced_by_pairs_agrees, support.lattices_of(10)))
    assert unbalanced == {True: 3499, False: 5994 - 3499}


def test_d_lattice_matches_definition_up_to_size_8():
    # the characterization decides scope; the definition runs closures
    for lattice in support.lattices_up_to(8):
        assert fl.is_d_lattice(lattice) == fl.is_d_lattice_definition(lattice)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_d_lattice_matches_definition_on_relabelled_products(data):
    lattice = support.catalog_product(data.draw(st.sampled_from(support.product_shapes())))
    relabeled = fl.relabel(lattice, data.draw(st.permutations(range(lattice.size))))
    assert fl.is_d_lattice(relabeled) == fl.is_d_lattice_definition(relabeled)


@pytest.mark.slow
def test_d_lattice_matches_definition_at_size_10():
    scopes = Counter(
        (fl.is_d_lattice(lattice), fl.is_d_lattice_definition(lattice))
        for lattice in fl.enumerate_lattices(10)
    )
    assert scopes == {(True, True): 871, (False, False): 5994 - 871}


@pytest.mark.parametrize(
    "lattice, comparable",
    [
        (fl.standard_lattice("chain", 6), 15),
        (fl.standard_lattice("m3"), 7),
        (fl.product(fl.standard_lattice("n5"), fl.standard_lattice("chain", 2)), 29),
    ],
    ids=["chain6", "m3", "n5xchain2"],
)
def test_scope_runs_no_closure_and_balance_one_per_pair(monkeypatch, lattice, comparable):
    # balance reads one principal table, which closes only the comparable
    # pairs a < b and reads any other pair at (a∧b, a∨b)
    calls = support.count_calls(monkeypatch, "_closure", fl.congruences)
    fl.is_d_lattice(lattice)
    assert calls == []
    fl.is_balanced(lattice)
    assert len(calls) == comparable
    assert all(lattice.leq[a][b] and a != b for _, a, b in calls)


def test_witness_scope_check_runs_no_closure(monkeypatch):
    calls = support.count_calls(monkeypatch, "_closure", fl.congruences)
    chain = fl.standard_lattice("chain", 4)
    for a in (1, 2):
        fl.witness_from_noncomplemented(chain, a)
    with pytest.raises(fl.NotDLattice):
        fl.witness_from_noncomplemented(fl.standard_lattice("m3"), 1)
    assert calls == []


def test_classify_m3_witnesses():
    report = fl.classify(fl.standard_lattice("m3"))
    w = report.witnesses
    assert w.nested_prime_ideals is None
    assert w.noncomplemented_element is None
    assert w.unbalanced_congruence is None
    assert str(w.nonprime_maximal_ideal) == "{0,1}"
    assert str(w.nonprime_maximal_filter) == "{1,4}"


def test_report_witnesses_hold_by_definition_up_to_size_8():
    # each witness is present exactly when its flag is set, and holds by
    # the definitions alone
    for lattice, report in support.classified_up_to(8):
        oracles.check_report(lattice, report)


def test_check_report_rejects_a_flipped_condition_without_a_witness():
    # c1, c2 and c4 carry no witness, so the checker derives them again; a
    # report with any one of them flipped fails on every lattice
    flipped = {"c1": "c1 differs", "c2": "c2 differs", "c4": "c4 differs"}
    for lattice, report in support.classified_up_to(6):
        for name, words in flipped.items():
            seven = dataclasses.replace(report.seven, **{name: not getattr(report.seven, name)})
            with pytest.raises(AssertionError, match=words):
                oracles.check_report(lattice, dataclasses.replace(report, seven=seven))


def test_check_report_rejects_an_unbalanced_congruence_that_is_not_the_least():
    # the checker lists Con(L) again, from Day's dependency relation, and
    # balance again by closing the bound classes: a later unbalanced
    # congruence in sorted order fails as a witness
    replaced = 0
    for lattice, report in support.classified_up_to(6):
        least = report.witnesses.unbalanced_congruence
        if least is None:
            continue
        for cong in fl.all_congruences(lattice):
            if cong.partition <= least.partition or fl.is_balanced_congruence(lattice, cong):
                continue
            witnesses = dataclasses.replace(report.witnesses, unbalanced_congruence=cong)
            with pytest.raises(AssertionError, match="not the least"):
                oracles.check_report(lattice, dataclasses.replace(report, witnesses=witnesses))
            replaced += 1
    assert replaced > 0


@pytest.mark.parametrize("n", [9, pytest.param(10, marks=pytest.mark.slow)])
def test_report_witnesses_hold_by_definition_at_sizes_9_and_10(n):
    # 1,078 and 5,994 lattices; the ideal scans are polynomial
    for lattice in support.lattices_of(n):
        oracles.check_report(lattice, fl.classify(lattice))


@settings(max_examples=100, deadline=None)
@given(lattice=support.closed_set_lattices())
def test_report_witnesses_hold_by_definition_on_closed_set_lattices(lattice):
    oracles.check_report(lattice, fl.classify(lattice))


def test_report_to_dict_is_json_serializable():
    for name in ("chain1", "chain3", "n5", "m3"):
        payload = fl.classify(support.catalog()[name]).to_dict()
        round_tripped = json.loads(json.dumps(payload, sort_keys=True))
        assert round_tripped == payload
        assert set(payload) == {
            "convention_note",
            "counts",
            "is_balanced",
            "is_bounded",
            "is_complemented",
            "is_d_lattice",
            "is_distributive",
            "seven_conditions",
            "size",
            "witnesses",
        }


def _witnesses_with_every_field():
    n5 = fl.standard_lattice("n5")
    return fl.ReportWitnesses(
        nested_prime_ideals=_sets(n5, [0], [0, 1]),
        noncomplemented_element=2,
        unbalanced_congruence=fl.all_congruences(n5)[1],
        nonprime_maximal_ideal=_sets(n5, [0, 1, 2])[0],
        nonprime_maximal_filter=_sets(n5, [3, 4])[0],
    )


@pytest.mark.parametrize(
    "make, expected",
    [
        pytest.param(
            lambda: fl.SevenConditions(True, False, True, False, True, False, True),
            {"c1": True, "c2": False, "c3": True, "c4": False, "c5": True, "c6": False, "c7": True},
            id="SevenConditions",
        ),
        pytest.param(
            lambda: fl.ReportCounts(
                ideals=5, filters=6, prime_ideals=2, prime_filters=3, congruences=4
            ),
            {"congruences": 4, "filters": 6, "ideals": 5, "prime_filters": 3, "prime_ideals": 2},
            id="ReportCounts",
        ),
        pytest.param(
            _witnesses_with_every_field,
            {
                "nested_prime_ideals": ["{0}", "{0,1}"],
                "noncomplemented_element": 2,
                "nonprime_maximal_filter": "{3,4}",
                "nonprime_maximal_ideal": "{0,1,2}",
                "unbalanced_congruence": "{{0,1,2},{3,4}}",
            },
            id="ReportWitnesses",
        ),
        pytest.param(
            lambda: fl.classify(fl.standard_lattice("chain", 1)),
            {
                "convention_note": (
                    "one-element lattice: d-lattice, complemented and balanced "
                    "hold by convention (all defining implications are vacuous)"
                ),
                "counts": {
                    "congruences": 1,
                    "filters": 1,
                    "ideals": 1,
                    "prime_filters": 0,
                    "prime_ideals": 0,
                },
                "is_balanced": True,
                "is_bounded": True,
                "is_complemented": True,
                "is_d_lattice": True,
                "is_distributive": True,
                "seven_conditions": {f"c{i}": False for i in range(1, 8)},
                "size": 1,
                "witnesses": {
                    "nested_prime_ideals": None,
                    "noncomplemented_element": None,
                    "nonprime_maximal_filter": None,
                    "nonprime_maximal_ideal": None,
                    "unbalanced_congruence": None,
                },
            },
            id="PropertyReport",
        ),
        pytest.param(
            lambda: fl.verify_theorem(fl.standard_lattice("chain", 3)),
            {
                "balanced": False,
                "complemented": False,
                "passed": True,
                "scope": "d-lattice",
                "seven_conditions": {f"c{i}": True for i in range(1, 8)},
            },
            id="TheoremVerdict",
        ),
        pytest.param(
            lambda: fl.EnumerationStats(
                size=6,
                lattice_count=15,
                d_lattice_count=7,
                balanced_count=2,
                complemented_count=2,
                elapsed=0.25,
            ),
            {
                "balanced_count": 2,
                "complemented_count": 2,
                "d_lattice_count": 7,
                "elapsed": 0.25,
                "lattice_count": 15,
                "size": 6,
            },
            id="EnumerationStats",
        ),
    ],
)
def test_to_dict_goldens(make, expected):
    payload = make().to_dict()
    assert payload == expected
    assert list(payload) == sorted(payload)
