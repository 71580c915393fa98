"""Duality as a metamorphic oracle: a lattice and its dual, compared.

The dual of L has the same elements with the order reversed, so it has
the same congruences as partitions, its ideals are L's filters, and the
conditions of the theorem that name ideals and filters trade places.
"""

from __future__ import annotations

import finlat as fl
import support
from finlat.enumeration import _canonical_forms
from finlat.properties import _nested_pair

# self-dual isomorphism classes of each size n = 1..10
SELF_DUAL = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 7, 7: 13, 8: 36, 9: 76, 10: 232}


def _swapped(seven: fl.SevenConditions) -> tuple[bool, ...]:
    """The conditions with c1 <-> c2 and c3 <-> c4: maximal and prime ideals
    of the dual are the maximal and prime filters of the lattice."""
    c1, c2, c3, c4, *rest = seven.as_tuple()
    return (c2, c1, c4, c3, *rest)


def test_dual_swaps_the_conditions_and_keeps_congruences_up_to_size_8():
    lattices = support.lattices_up_to(8)
    assert len(lattices) == 300
    for lattice in lattices:
        flipped = fl.dual(lattice)
        assert fl.seven_conditions(flipped).as_tuple() == _swapped(fl.seven_conditions(lattice))
        assert fl.is_d_lattice(flipped) == fl.is_d_lattice(lattice)
        assert fl.is_d_lattice_definition(flipped) == fl.is_d_lattice_definition(lattice)
        partitions = [c.partition for c in fl.all_congruences(lattice)]
        assert [c.partition for c in fl.all_congruences(flipped)] == partitions


def test_dual_trades_the_witnesses_of_ideals_and_filters_up_to_size_8():
    # the same elements, complements and congruences, with ideals and
    # filters trading places; the dual's prime ideals are the lattice's
    # prime filters, listed in the same element order
    for lattice, report in support.classified_up_to(8):
        flipped = fl.classify(fl.dual(lattice))
        verdicts = ("is_d_lattice", "is_balanced", "is_complemented", "is_distributive")
        assert [getattr(flipped, name) for name in verdicts] == [
            getattr(report, name) for name in verdicts
        ]
        mine, theirs = report.witnesses, flipped.witnesses
        assert theirs.noncomplemented_element == mine.noncomplemented_element
        assert _partition(theirs.unbalanced_congruence) == _partition(mine.unbalanced_congruence)
        assert _mask(theirs.nonprime_maximal_ideal) == _mask(mine.nonprime_maximal_filter)
        assert _mask(theirs.nonprime_maximal_filter) == _mask(mine.nonprime_maximal_ideal)
        prime_filters = [f for f in fl.enumerate_filters(lattice) if fl.is_prime_filter(lattice, f)]
        nested = _nested_pair([f.mask for f in prime_filters])
        assert (theirs.nested_prime_ideals is None) == (nested is None)
        if nested is not None:
            assert tuple(map(_mask, theirs.nested_prime_ideals)) == nested


def _partition(congruence):
    return None if congruence is None else congruence.partition


def _mask(subset):
    return None if subset is None else subset.mask


def test_dual_of_every_class_is_a_class_and_self_dual_counts_up_to_size_10():
    # rebuilds all 7,372 classes of size <= 10 from their forms
    self_dual = {}
    for n in range(1, 11):
        forms = _canonical_forms(n)
        duals = [fl.canonical_form(fl.dual(fl.lattice_from_canonical(form))) for form in forms]
        assert set(duals) <= set(forms), n
        self_dual[n] = sum(map(bytes.__eq__, forms, duals))
    assert self_dual == SELF_DUAL
