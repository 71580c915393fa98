"""The argument contract of every public function that takes an element, a mask or a size.

A value that is not an ``int``, a bool included, raises ValueError
before it can index anything; an ``int`` out of range raises
SizeMismatch (elements and masks) or SizeOutOfRange (enumeration sizes).
"""

from __future__ import annotations

import pytest

import finlat as fl

N5 = fl.standard_lattice("n5")  # elements 0..4; a d-lattice
CHAIN4 = fl.standard_lattice("chain", 4)  # a d-lattice with complementless elements

# name -> (a call that puts the probed value where an element goes, a value it accepts)
ELEMENT_TAKERS = {
    "principal_congruence(first)": (lambda x: fl.principal_congruence(N5, x, 2), 1),
    "principal_congruence(second)": (lambda x: fl.principal_congruence(N5, 2, x), 1),
    "generated_congruence": (lambda x: fl.generated_congruence(N5, [0, x]), 1),
    "complements_of": (lambda x: fl.complements_of(N5, x), 1),
    "annihilator_filter": (lambda x: fl.annihilator_filter(N5, x), 1),
    "annihilator_ideal": (lambda x: fl.annihilator_ideal(N5, x), 1),
    "witness_from_noncomplemented": (lambda x: fl.witness_from_noncomplemented(CHAIN4, x), 1),
    "ideal_generated_by": (lambda x: fl.ideal_generated_by(N5, [0, x]), 1),
    "filter_generated_by": (lambda x: fl.filter_generated_by(N5, [4, x]), 1),
    "ElementSet.from_iterable": (lambda x: fl.ElementSet.from_iterable(5, [0, x]), 1),
    "ElementSet.with_element": (lambda x: fl.ElementSet(5, 1).with_element(x), 1),
    "Partition.from_blocks": (lambda x: fl.Partition.from_blocks(5, [[0, 1, 2, 3], [x]]), 4),
}
# CHAIN4 has four elements, so 5 is out of range there as well
ELEMENT_PROBES = [
    (1.0, ValueError),
    (True, ValueError),
    (-1, fl.SizeMismatch),
    (5, fl.SizeMismatch),
]
# a mask of n elements is one of the 2**n subsets
MASK_PROBES = [
    (1.0, ValueError),
    (True, ValueError),
    (-1, fl.SizeMismatch),
    (1 << 5, fl.SizeMismatch),
]

SIZE_TAKERS = {
    "enumerate_lattices": lambda n, _: list(fl.enumerate_lattices(n)),
    "census": lambda n, _: fl.census(n),
    "search_counterexample": lambda n, _: fl.search_counterexample("seven-conditions-split", n),
    "write_latt_files": lambda n, path: fl.write_latt_files(n, path / "out"),
}
SIZE_PROBES = [
    (2.0, ValueError),
    (True, ValueError),
    (-1, fl.SizeOutOfRange),
    (fl.MAX_SIZE + 1, fl.SizeOutOfRange),
]


@pytest.mark.parametrize("value, error", ELEMENT_PROBES, ids=repr)
@pytest.mark.parametrize("name", sorted(ELEMENT_TAKERS))
def test_element_arguments_raise_the_documented_error(name, value, error):
    call, accepted = ELEMENT_TAKERS[name]
    with pytest.raises(error):
        call(value)
    call(accepted)


@pytest.mark.parametrize("value, error", MASK_PROBES, ids=repr)
def test_mask_arguments_raise_the_documented_error(value, error):
    with pytest.raises(error):
        fl.ElementSet(5, value)
    assert fl.ElementSet(5, (1 << 5) - 1).members() == (0, 1, 2, 3, 4)


@pytest.mark.parametrize("value, error", SIZE_PROBES, ids=repr)
@pytest.mark.parametrize("name", sorted(SIZE_TAKERS))
def test_size_arguments_raise_the_documented_error(name, value, error, tmp_path):
    with pytest.raises(error):
        SIZE_TAKERS[name](value, tmp_path)
    assert not (tmp_path / "out").exists()  # checked before anything is written


@pytest.mark.parametrize("value", [2.0, True, -1, 0])
def test_catalog_size_parameters_raise_value_error(value):
    for name in ("chain", "boolean"):
        with pytest.raises(ValueError):
            fl.standard_lattice(name, value)


@pytest.mark.parametrize("value", [1.0, True, -1, 5])
def test_relabel_entries_raise_value_error(value):
    with pytest.raises(ValueError):
        fl.relabel(N5, (0, value, 2, 3, 4))


@pytest.mark.parametrize("value", [1.0, True, -1, 3])
def test_homomorphism_entries_outside_the_target_are_no_homomorphism(value):
    # a map entry is an int element of the target, or the map is no homomorphism
    c3 = fl.standard_lattice("chain", 3)
    assert fl.is_homomorphism(fl.LatticeHomomorphism(c3, c3, (0, 1, 2)))
    assert not fl.is_homomorphism(fl.LatticeHomomorphism(c3, c3, (0, value, 2)))


@pytest.mark.parametrize("value", [1.0, True, -1, 5])
def test_membership_of_a_value_that_is_no_element_is_false(value):
    assert value not in fl.ElementSet.full(5)
