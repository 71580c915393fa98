"""Isomorph-free enumeration, the census, predicate searches, and the
on-disk corpus writer."""

from __future__ import annotations

import functools
import hashlib
import json
import subprocess
import sys

import pytest

import finlat as fl
import oracles
import support
from finlat import enumeration
from finlat.core import _canonical_from_up_masks
from finlat.enumeration import _canonical_forms, _placements

# Placements left for the canonical form per size by the size, tie-break,
# meet and down-twin prunes; pinned so that a weaker prune shows.  Without
# the down-twin prune there are 758, 5,581 and 47,533 at sizes 8 to 10.
SURVIVORS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 54, 8: 230, 9: 1137, 10: 6402}
# SHA-256 of every form of _canonical_forms(n), n = 1..10, concatenated in
# emission order; unchanged by every prune since the size prune alone.
FORMS_SHA256 = "796adab5479054d34b705692a950633f927e4071e3afc041d70e21cc25755303"


@functools.lru_cache(maxsize=None)
def _twin_filtered_meet_scan(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(_twin_filtered(n, oracles.placements_by_meet_scan(n)))


def _twin_filtered(n, placements):
    """The placements whose adjacent down-twins the up-mask scan finds in order."""
    for down in placements:
        if oracles.twins_in_order_by_up_masks(n, oracles.up_masks(n, down), down):
            yield down


def test_counts_match_known_sequence():
    # OEIS A006966, through the advertised MAX_SIZE
    for n, expected in {**support.EXPECTED_COUNTS, 9: 1078, 10: 5994}.items():
        assert len(support.lattices_of(n)) == expected, f"size {n}"


def test_placement_counts_are_pinned():
    for n, expected in SURVIVORS.items():
        assert sum(1 for _ in _placements(n)) == expected, f"size {n}"


def test_placements_match_mask_scan():
    for n in range(1, 10):
        listed = sorted(down for down, _ in _placements(n))
        assert listed == sorted(_twin_filtered(n, oracles.placements_by_mask_scan(n))), f"size {n}"


def test_placements_match_meet_scan_through_size_10():
    for n in range(1, 11):
        listed = sorted(down for down, _ in _placements(n))
        assert listed == sorted(_twin_filtered_meet_scan(n)), f"size {n}"
    assert len(listed) == 6402


def test_carried_up_masks_are_the_transpose():
    # a bit left set or cleared on backtracking would show in a later leaf
    for n in range(1, 11):
        for down, up in _placements(n):
            assert up == oracles.up_masks(n, down), down


def test_forms_match_size_pruned_placements_and_permutation_search():
    for n in range(1, 9):
        reference = {
            oracles.canonical_by_permutations(n, oracles.up_masks(n, down), down)
            for down in oracles.placements_by_size(n)
        }
        assert _canonical_forms(n) == tuple(sorted(reference)), f"size {n}"


def test_forms_match_canonicalizing_every_placement():
    for n in range(1, 10):
        assert _canonical_forms(n) == oracles.canonical_forms_unfiltered(n), f"size {n}"


def test_twin_prune_survivors_are_pinned_placements(monkeypatch):
    calls = support.count_calls(monkeypatch, "_canonical_from_up_masks", enumeration)
    for n, expected in SURVIVORS.items():
        calls.clear()
        _canonical_forms(n)
        assert len(calls) == expected, f"size {n}"
        assert sorted(down for _, _, down in calls) == sorted(_twin_filtered_meet_scan(n)), f"size {n}"


def test_leaf_twin_order_is_read_off_masks(monkeypatch):
    # the leaf verdicts are bit masks built once per leaf parent, so of the
    # 54,027 leaf candidates of sizes 3 to 10 only those whose twins tie in
    # up-set size once the last element joins one of them run the list
    # comparison; the per-parent calls pass strict 0, and a candidate's
    # strict down-set holds the bottom
    calls = support.count_calls(monkeypatch, "_twins_in_order", enumeration)
    for n in range(3, 11):
        assert sum(1 for _ in _placements(n)) == SURVIVORS[n]
    leaf_calls = [strict for _down, _up, _twins, strict in calls if strict]
    assert len(leaf_calls) == 1820
    assert len(calls) - len(leaf_calls) == 5134


def test_forms_match_atom_addition_through_size_10():
    # every class of size n grown by one atom from those of size n - 1,
    # with no placement of down-sets (a step toward generating by augmentation)
    for n in range(1, 11):
        assert oracles.forms_by_atom_addition(n) == _canonical_forms(n), f"size {n}"


@pytest.mark.slow
def test_forms_match_atom_addition_at_size_11():
    # past MAX_SIZE: 37,622 classes (OEIS A006966)
    forms = oracles.forms_by_atom_addition(11)
    assert len(forms) == 37_622
    assert forms == _canonical_forms(11)


def test_forms_hash_is_pinned_through_size_10():
    forms = b"".join(form for n in range(1, 11) for form in _canonical_forms(n))
    assert hashlib.sha256(forms).hexdigest() == FORMS_SHA256


_FORMS_AND_SURVIVORS = """
import hashlib, json, sys
from finlat.enumeration import _canonical_forms, _placements
forms = [_canonical_forms(n) for n in range(1, 9)]
digest = hashlib.sha256(b"".join(b"".join(f) for f in forms)).hexdigest()
survivors = {n: sum(1 for _ in _placements(n)) for n in range(1, 11)}
print(json.dumps([sys.flags.optimize, [len(f) for f in forms], digest, survivors]))
"""


def test_enumeration_under_optimize_flag():
    # no prune may rely on an assert statement, which -O strips
    done = subprocess.run(
        [sys.executable, "-O", "-c", _FORMS_AND_SURVIVORS],
        capture_output=True,
        text=True,
        check=True,
    )
    optimize, counts, digest, survivors = json.loads(done.stdout)
    forms = b"".join(form for n in range(1, 9) for form in _canonical_forms(n))
    assert optimize == 1
    assert counts == list(support.EXPECTED_COUNTS.values())
    assert digest == hashlib.sha256(forms).hexdigest()
    assert {int(n): count for n, count in survivors.items()} == SURVIVORS


def test_canonical_from_up_masks_matches_permutation_search():
    for n in range(1, 9):
        wider = set(oracles.placements_by_size(n))
        for down, up in _placements(n):
            assert down in wider
            assert _canonical_from_up_masks(n, up, down) == oracles.canonical_by_permutations(
                n, oracles.up_masks(n, down), down
            )


def test_emission_is_canonical_and_sorted():
    for n in range(1, 7):
        forms = [fl.canonical_form(lat) for lat in support.lattices_of(n)]
        assert forms == sorted(forms)
        assert len(set(forms)) == len(forms)
        assert tuple(forms) == _canonical_forms(n)


def test_emitted_lattices_validate_clean():
    for lattice in support.lattices_up_to(6):
        assert oracles.axiom_violations(lattice) == []
        assert lattice.bottom == 0 and lattice.top == lattice.size - 1


def test_enumeration_is_complete_up_to_size_5():
    # independent oracle: try every reflexive upper-triangular relation
    for n in range(1, 6):
        brute = oracles.naive_enumerate(n)
        emitted = support.lattices_of(n)
        assert len(brute) == len(emitted)
        for candidate in brute:
            assert any(fl.is_isomorphic(candidate, lat) for lat in emitted)


def test_enumeration_no_duplicates_by_oracle_up_to_size_5():
    for n in range(1, 6):
        emitted = support.lattices_of(n)
        for i, first in enumerate(emitted):
            for second in emitted[i + 1 :]:
                assert not oracles.brute_isomorphic(first, second)


def test_class_list_is_closed_under_duality():
    for n in range(1, 7):
        forms = set(_canonical_forms(n))
        for lattice in support.lattices_of(n):
            assert fl.canonical_form(fl.dual(lattice)) in forms


def test_size_bounds_are_enforced():
    with pytest.raises(fl.SizeOutOfRange):
        list(fl.enumerate_lattices(0))
    with pytest.raises(fl.SizeOutOfRange):
        list(fl.enumerate_lattices(11))
    with pytest.raises(fl.SizeOutOfRange):
        fl.census(0)


def test_census_rows():
    rows = fl.census(6)
    assert [row.size for row in rows] == [1, 2, 3, 4, 5, 6]
    for row in rows:
        assert row.lattice_count == support.EXPECTED_COUNTS[row.size]
        assert row.balanced_count == row.complemented_count
        assert row.d_lattice_count <= row.lattice_count
        assert row.balanced_count <= row.d_lattice_count
        assert row.elapsed >= 0.0
        d_count = sum(
            1 for _lat, rep in support.classified(row.size) if rep.is_d_lattice
        )
        assert row.d_lattice_count == d_count


def test_census_closure_count_is_pinned(monkeypatch):
    # the d-lattice test runs no closure, then one table per d-lattice that
    # balance and Con(L) both read, with one closure per comparable pair
    # a < b: the sum of those pairs over the d-lattices of size <= 6
    calls = support.count_calls(monkeypatch, "_closure", fl.congruences)
    fl.census(6)
    assert len(calls) == 169


def test_census_derives_scope_once_per_lattice(monkeypatch):
    # one record per lattice: the maximal and prime sets once for each of
    # the 300 lattices of size <= 8, then one principal table (one closure
    # per comparable pair a < b) per d-lattice, read by balance and Con(L)
    # alike
    derived = support.count_calls(monkeypatch, "_maximal_and_prime", fl.properties)
    tables = support.count_calls(monkeypatch, "principal_table", fl.properties)
    closures = support.count_calls(monkeypatch, "_closure", fl.congruences)
    fl.census(8)
    assert (len(derived), len(tables), len(closures)) == (300, 110, 2203)


def test_search_reads_one_record_for_predicate_and_report(monkeypatch):
    # a predicate that holds on every d-lattice: the 9 d-lattices among the
    # 10 lattices of size <= 5 are witnesses, and each lattice's maximal and
    # prime sets are derived once, for the predicate and its report alike
    monkeypatch.setitem(fl.SEARCH_PREDICATES, "every-d-lattice", lambda facts: facts.d_lattice)
    derived = support.count_calls(monkeypatch, "_maximal_and_prime", fl.properties)
    witnesses = fl.search_counterexample("every-d-lattice", 5)
    assert [w.report.is_d_lattice for w in witnesses] == [True] * 9
    assert len(derived) == 10


def test_verdict_census_and_searches_wrap_no_set_and_list_con_once(monkeypatch):
    # the verdict, the census and the four searches read ideals, filters and
    # complements as bit masks and element indices, and list Con(L) at most
    # once per lattice: its members are the only objects they wrap (the
    # d-lattice definition one search reads holds its principal
    # congruences as D-closed sets, unwrapped), each made straight from
    # its normalized labels, with no
    # Partition or Congruence check run; only a report (and the CLI and
    # the public enumerators) wraps a set
    lattices = support.lattices_up_to(8)
    made: list[str] = []
    for cls, method in (
        (fl.Partition, "__post_init__"),
        (fl.Congruence, "__init__"),
        (fl.ElementSet, "__init__"),
    ):

        def counted(self, *args, _original=getattr(cls, method), _name=cls.__name__):
            made.append(_name)
            _original(self, *args)

        monkeypatch.setattr(cls, method, counted)
    listed: list[tuple[fl.FiniteLattice, int]] = []
    all_congruences = fl.properties.all_congruences

    def listing(lattice):
        congruences = all_congruences(lattice)
        listed.append((lattice, len(congruences)))
        return congruences

    monkeypatch.setattr(fl.properties, "all_congruences", listing)
    wrapped = support.count_calls(monkeypatch, "_congruence", fl.congruences)
    verdicts = [fl.verify_theorem(lattice) for lattice in lattices]
    assert all(verdict.passed for verdict in verdicts)
    assert sum(verdict.scope == "d-lattice" for verdict in verdicts) == 110
    assert [lattice for lattice, _ in listed] == lattices
    rows = [(row.d_lattice_count, row.balanced_count) for row in fl.census(8)]
    assert rows == [(1, 1), (1, 1), (1, 0), (2, 1), (4, 1), (9, 2), (23, 3), (69, 9)]
    for predicate in sorted(fl.SEARCH_PREDICATES):
        assert fl.search_counterexample(predicate, 8) == []
    assert made == []
    assert len({id(lattice) for lattice, _ in listed}) == len(listed)
    assert len(wrapped) == sum(count for _, count in listed)
    fl.classify(fl.standard_lattice("chain", 3))
    assert set(made) == {"ElementSet"}


def test_search_rejects_unknown_predicate():
    with pytest.raises(fl.UnknownPredicate):
        fl.search_counterexample("no-such-condition", 4)
    with pytest.raises(fl.SizeOutOfRange):
        fl.search_counterexample("complemented-not-balanced", 11)


def test_registered_searches_come_back_empty():
    # each predicate names a statement the verified results rule out
    assert fl.search_counterexample("balanced-not-complemented-d", 6) == []
    assert fl.search_counterexample("complemented-not-balanced", 6) == []
    assert fl.search_counterexample("dlattice-characterizations-disagree", 6) == []
    assert fl.search_counterexample("seven-conditions-split", 6) == []


def test_write_latt_files_round_trip(tmp_path):
    paths = fl.write_latt_files(4, tmp_path)
    assert [p.name for p in paths] == ["lat_4_0.latt", "lat_4_1.latt"]
    reread = [fl.parse_latt(p.read_bytes()) for p in paths]
    for loaded, original in zip(reread, support.lattices_of(4)):
        assert oracles.axiom_violations(loaded) == []
        assert fl.is_isomorphic(loaded, original)
    forms = {fl.canonical_form(lat) for lat in reread}
    assert len(forms) == 2
