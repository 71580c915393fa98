"""Construction, validation, canonicalization, quotients, and LATT I/O."""

from __future__ import annotations

import ast
import dataclasses
import json
import random
import re
import subprocess
import sys
import threading
import time
from collections import Counter
from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement, product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finlat as fl
import oracles
import support
from finlat import core, enumeration
from finlat.enumeration import _canonical_forms


def test_two_chain_from_matrix():
    lattice = fl.from_leq_matrix([[1, 1], [0, 1]])
    assert lattice.size == 2
    assert lattice.bottom == 0
    assert lattice.top == 1
    assert lattice.meet[0][1] == 0
    assert lattice.join[0][1] == 1


def test_three_chain_from_upper_triangular():
    lattice = fl.from_leq_matrix([[1, 1, 1], [0, 1, 1], [0, 0, 1]])
    assert fl.is_isomorphic(lattice, fl.standard_lattice("chain", 3))


def test_diamond_matrix_gives_boolean_square():
    rows = [
        [1, 1, 1, 1],
        [0, 1, 0, 1],
        [0, 0, 1, 1],
        [0, 0, 0, 1],
    ]
    lattice = fl.from_leq_matrix(rows)
    assert lattice.meet[1][2] == 0
    assert lattice.join[1][2] == 3
    assert fl.is_isomorphic(lattice, fl.standard_lattice("boolean", 2))


def test_rows_of_bools_are_shared_and_other_rows_normalized():
    # lattices rebuilt from canonical forms keep the cached rows they get
    first, second, *_ = fl.enumerate_lattices(5)
    shared = [(r, s) for r in first.leq for s in second.leq if r == s]
    assert shared and all(r is s for r, s in shared)
    for matrix in ([[1, 1], [0, 1]], ((1, 1), (0, 1)), [(True, 1), [False, True]]):
        leq = fl.from_leq_matrix(matrix).leq
        assert leq == ((True, True), (False, True))
        assert all(type(row) is tuple and all(type(v) is bool for v in row) for row in leq)


def test_equal_meet_and_join_rows_are_one_object():
    # a fresh enumeration, not the suite's cached one, into an emptied
    # intern: equal rows of different lattices are the one tuple the
    # intern handed out first
    core._SHARED_ROWS.clear()
    lattices = [lattice for n in range(1, 9) for lattice in fl.enumerate_lattices(n)]
    rows = [row for lattice in lattices for table in (lattice.meet, lattice.join) for row in table]
    assert len(rows) == 4552
    assert len({id(row) for row in rows}) == len(set(rows)) == 863
    assert all(type(row) is tuple and all(type(v) is int for v in row) for row in rows)


def test_tables_survive_a_cycled_row_cache():
    # more distinct rows than the intern holds, all short enough to be
    # shared: it is emptied before a table would take it past its
    # capacity, so it never holds more, and the tables built after a
    # clear are still right; sharing may be lost, values not
    grid = fl.product(fl.standard_lattice("chain", 2), fl.standard_lattice("chain", 5))
    assert grid.size <= core._SHARED_LENGTH and core._SHARED_CAPACITY == 4096
    rng = random.Random(0)
    clears = 0
    while clears < 2:
        held = len(core._SHARED_ROWS)
        built = fl.relabel(grid, rng.sample(range(grid.size), grid.size))
        built.meet
        if len(core._SHARED_ROWS) < held:  # cleared while this lattice's tables were built
            clears += 1
            expected = oracles.lattice_tables_by_scan(built.leq)
            assert (built.meet, built.join) == (expected["meet"], expected["join"])
        assert len(core._SHARED_ROWS) <= core._SHARED_CAPACITY
        # the join rows, interned last, are the held ones (a clear before
        # them may have dropped the meet rows)
        assert all(core._SHARED_ROWS[row] is row for row in built.join)
    lattice = fl.product(fl.standard_lattice("n5"), fl.standard_lattice("chain", 2))
    assert lattice.size <= core._SHARED_LENGTH
    relabelled = _relabelled(lattice.leq, list(reversed(range(lattice.size))))
    _assert_construction_matches_scan(relabelled)
    _assert_construction_matches_scan(lattice.leq)


def test_only_short_rows_enter_the_row_cache():
    # a long row is kept by its lattice alone, so freeing the lattice frees it
    for k, shared in ((core._SHARED_LENGTH, True), (core._SHARED_LENGTH + 1, False)):
        matrix = [[i <= j for j in range(k)] for i in range(k)]
        lattice = fl.FiniteLattice(matrix)
        assert lattice.meet[0][k - 1] == 0 and lattice.join[0][k - 1] == k - 1
        if shared:  # the join rows are interned last, so no clear has dropped them
            assert all(core._SHARED_ROWS[row] is row for row in lattice.join)
        else:
            assert not any(row in core._SHARED_ROWS for row in lattice.meet + lattice.join)
        _assert_construction_matches_scan(matrix)
    assert max(map(len, core._SHARED_ROWS)) <= core._SHARED_LENGTH == enumeration.MAX_SIZE


_HELD_BY_LATTICES = """
import tracemalloc
import finlat as fl
tracemalloc.start()
lattices = [lattice for n in range(1, 10) for lattice in fl.enumerate_lattices(n)]
for lattice in lattices:
    lattice.meet
print(len(lattices), tracemalloc.get_traced_memory()[0])
"""


def test_lattices_up_to_size_9_with_their_tables_fit_in_1_6_mib():
    # a fresh process, so the caches start empty: the 1,378 classes the
    # verify benchmark holds, their forms, tables and interned rows
    # (1,499 KiB on CPython 3.11; 2,107 KiB with an lru_cache intern and
    # a __dict__ per lattice)
    done = subprocess.run(
        [sys.executable, "-c", _HELD_BY_LATTICES], capture_output=True, text=True, check=True
    )
    count, held = map(int, done.stdout.split())
    assert count == 1378
    assert held <= 1.6 * 2**20


def test_only_short_forms_enter_the_canonical_form_caches():
    # the caches of the canonical form and the rebuild keep what they are
    # handed after its lattice is gone, so long rows never enter them
    caches = (core._bits, core._row_text, core._row, core._mask)
    for k, cached in ((core._SHARED_LENGTH, True), (core._SHARED_LENGTH + 1, False)):
        lattice = fl.standard_lattice("chain", k)
        before = [cache.cache_info() for cache in caches]
        rebuilt = fl.lattice_from_canonical(fl.canonical_form(lattice))
        after = [cache.cache_info() for cache in caches]
        calls = [a.hits + a.misses - b.hits - b.misses for a, b in zip(after, before)]
        assert all(calls) if cached else not any(calls), (k, calls)
        assert rebuilt == lattice


def test_rebuild_from_canonical_matches_bound_scan_on_every_class():
    # the rebuild and the constructor share the order checker, so both are
    # compared with the per-pair bound scan, on rows decoded without the cache
    for n in range(1, 11):
        for form in _canonical_forms(n):
            rebuilt = fl.lattice_from_canonical(form)
            body = form.partition(b":")[2]
            lines = [body[i : i + n] for i in range(0, n * n, n)]
            matrix = [[c == ord("1") for c in line] for line in lines]
            expected = oracles.lattice_tables_by_scan(matrix)
            assert {name: getattr(rebuilt, name) for name in FIELDS} == expected, form
            assert all(row is core._row(line) for row, line in zip(rebuilt.leq, lines))


def test_from_leq_matrix_rejects_nonsquare():
    with pytest.raises(ValueError):
        fl.from_leq_matrix([[1, 1], [0, 1], [0, 0]])
    with pytest.raises(ValueError):
        fl.from_leq_matrix([])


def test_from_leq_matrix_rejects_broken_orders():
    with pytest.raises(fl.NotAPartialOrder):
        fl.from_leq_matrix([[0]])
    with pytest.raises(fl.NotAPartialOrder):
        fl.from_leq_matrix([[1, 1], [1, 1]])
    with pytest.raises(fl.NotAPartialOrder):
        fl.from_leq_matrix(
            [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
        )


def test_from_leq_matrix_rejects_unbounded():
    # two maximal elements above a shared bottom
    with pytest.raises(fl.NotBounded):
        fl.from_leq_matrix([[1, 1, 1], [0, 1, 0], [0, 0, 1]])


def test_from_leq_matrix_rejects_missing_join():
    # 0 below a, b; both below c, d; both of those below 1: the pair
    # (a, b) has two minimal upper bounds, so no join
    rows = [
        [1, 1, 1, 1, 1, 1],
        [0, 1, 0, 1, 1, 1],
        [0, 0, 1, 1, 1, 1],
        [0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 1],
    ]
    with pytest.raises(fl.NotALattice):
        fl.from_leq_matrix(rows)


FIELDS = tuple(f.name for f in dataclasses.fields(fl.FiniteLattice))


def _outcome(build, matrix):
    """The derived fields of ``build(matrix)``, or the type and message it raised."""
    try:
        built = build(matrix)
    except (ValueError, fl.LatticeError) as exc:
        return type(exc), str(exc)
    if isinstance(built, dict):
        return built
    return {name: getattr(built, name) for name in FIELDS}


def _assert_construction_matches_scan(matrix):
    assert _outcome(fl.FiniteLattice, matrix) == _outcome(oracles.lattice_tables_by_scan, matrix)


def _relabelled(leq, perm):
    n = len(leq)
    rows = [[False] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            rows[perm[x]][perm[y]] = leq[x][y]
    return rows


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_tables_match_bound_scan_on_relabelled_lattices(data):
    for lattice in support.lattices_up_to(7):
        perm = data.draw(st.permutations(range(lattice.size)))
        _assert_construction_matches_scan(_relabelled(lattice.leq, perm))
    product = data.draw(st.sampled_from(_small_catalog_products()))
    perm = data.draw(st.permutations(range(product.size)))
    _assert_construction_matches_scan(_relabelled(product.leq, perm))


@st.composite
def _order_matrices(draw):
    """Square 0/1 matrices up to size 7 that reach every construction error.

    Half the draws have size 6 or 7, the sizes at which a bounded order
    can first fail to be a lattice.  Most matrices are orders of height
    at most 3, relabelled at random: a bottom and a top unless the draw
    leaves one out, and between them the other elements alternating
    between two levels, each lower-upper pair related with probability
    5/6, so that two elements with two maximal common lower bounds (no
    meet) are common.  Some of these get a few cells flipped; the rest
    are uniformly random; 60,000 uniformly random matrices of sizes 1
    to 7 reached ``NotALattice`` not once.
    """
    n = draw(st.integers(1, 7) | st.integers(6, 7))
    kind = draw(st.sampled_from(("graded", "graded", "perturbed", "random")))
    if kind == "random":
        row = st.lists(st.booleans(), min_size=n, max_size=n)
        return draw(st.lists(row, min_size=n, max_size=n))
    level = [1 + i % 2 for i in range(n)]
    unbounded = draw(st.integers(0, 7))  # 0: no bottom, 1: no top, else both
    level[0] = 1 if unbounded == 0 else 0
    level[-1] = 2 if unbounded == 1 else 3
    related = st.sampled_from((True,) * 5 + (False,))
    rows = [
        [
            i == j or level[i] < level[j] and (level[i] == 0 or level[j] == 3 or draw(related))
            for j in range(n)
        ]
        for i in range(n)
    ]
    rows = _relabelled(rows, draw(st.permutations(range(n))))
    if kind == "perturbed":
        for _ in range(draw(st.integers(1, 3))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            rows[i][j] = not rows[i][j]
    return rows


@settings(max_examples=400, deadline=None)
@given(matrix=_order_matrices())
def test_tables_match_bound_scan_on_random_matrices(matrix):
    _assert_construction_matches_scan(matrix)


def test_text_cells_are_rejected_at_their_position():
    # bool("0") is True, so digit strings were read as all ones and failed
    # antisymmetry at (0, 1); a text cell is a malformed argument, and so is
    # a bytes row, whose cells are the nonzero codes of its digits
    cases = [
        ([["1", "1"], ["0", "1"]], "cell (0, 0) is str"),
        (["11", "01"], "cell (0, 0) is str"),
        ([[1, 1], [0, b"1"]], "cell (1, 1) is bytes"),
        ([[True, True], [False, "1"]], "cell (1, 1) is str"),
        ([b"11", b"01"], "row 0 is bytes"),
        ([[1, 1], b"\x00\x01"], "row 1 is bytes"),
    ]
    for matrix, words in cases:
        with pytest.raises(ValueError, match=re.escape(words)):
            fl.FiniteLattice(matrix)
    # bool and int cells keep their meaning, in rows of any int sequence
    chain2 = fl.standard_lattice("chain", 2)
    assert fl.FiniteLattice([[True, 1], [False, 1]]) == chain2
    assert fl.FiniteLattice([[2, -1], [0, 1]]) == chain2
    assert fl.FiniteLattice([bytearray(b"\x01\x01"), bytearray(b"\x00\x01")]) == chain2


def test_construction_errors_match_bound_scan():
    # one matrix per outcome, so the random test's reach does not rest on chance
    bowtie = [
        [1, 1, 1, 1, 1, 1],
        [0, 1, 0, 1, 1, 1],
        [0, 0, 1, 1, 1, 1],
        [0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 1],
    ]
    cases = [
        ([[1, 1]], ValueError, "square"),
        ([[1, 0], [0, 0]], fl.NotAPartialOrder, "reflexivity"),
        ([[1, 1, 1], [0, 1, 1], [0, 1, 1]], fl.NotAPartialOrder, "antisymmetry"),
        ([[1, 1, 0], [0, 1, 1], [0, 0, 1]], fl.NotAPartialOrder, "transitivity"),
        ([[1, 1, 1], [0, 1, 0], [0, 0, 1]], fl.NotBounded, "bottom or top"),
        (bowtie, fl.NotALattice, "(1, 2) have no join"),
        (_relabelled(bowtie, [0, 3, 4, 1, 2, 5]), fl.NotALattice, "(1, 2) have no meet"),
        # failures past element 0: each whole-order pass fails, and the
        # rescan names the scan's first failing element
        ([[1, 1, 1], [0, 1, 1], [0, 0, 0]], fl.NotAPartialOrder, "reflexivity fails at 2"),
        (
            [[1, 1, 1, 1], [0, 1, 1, 1], [0, 1, 1, 1], [0, 0, 0, 1]],
            fl.NotAPartialOrder,
            "antisymmetry fails at (1, 2)",
        ),
        (
            [[1, 1, 1, 1], [0, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1]],
            fl.NotAPartialOrder,
            "antisymmetry fails at (1, 3)",  # before reflexivity at 2
        ),
        (
            [[1, 1, 1, 1], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]],
            fl.NotAPartialOrder,
            "transitivity fails at (1, 2, 3)",
        ),
        (
            [[1, 1, 1, 1, 1], [0, 1, 0, 1, 0], [0, 0, 1, 0, 1], [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]],
            fl.NotAPartialOrder,
            "transitivity fails at (1, 3, 4)",
        ),
    ]
    for matrix, error, words in cases:
        outcome = _outcome(fl.FiniteLattice, matrix)
        assert outcome == _outcome(oracles.lattice_tables_by_scan, matrix)
        assert outcome[0] is error and words in outcome[1]


def _relations(n):
    """Every n-by-n 0/1 matrix, as lists of rows."""
    for cells in product((False, True), repeat=n * n):
        yield [list(cells[i * n : (i + 1) * n]) for i in range(n)]


def _reflexive_antisymmetric_relations(n):
    """Every reflexive antisymmetric relation on n elements: each pair i < j
    is related one way, the other way, or not at all."""
    pairs = list(combinations(range(n), 2))
    for choice in product((None, False, True), repeat=len(pairs)):
        matrix = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), upward in zip(pairs, choice):
            if upward is not None:
                matrix[i][j] = upward
                matrix[j][i] = not upward
        yield matrix


def _form(matrix):
    """The matrix as a canonical-form byte string, whatever order it holds."""
    return f"{len(matrix)}:".encode() + bytes(0x30 + bool(v) for row in matrix for v in row)


def _latt(matrix):
    """The matrix as LATT text, written cell by cell."""
    rows = ("".join("1" if v else "0" for v in row) + "\n" for row in matrix)
    return f"LATT 1\nn={len(matrix)}\n" + "".join(rows)


def _parsed(matrix):
    """``_outcome`` of parsing the matrix as LATT text, with a ParseError read
    as the error it names: its message is ``"<Type>: <message>"``."""
    outcome = _outcome(fl.parse_latt, _latt(matrix))
    if type(outcome) is dict:
        return outcome
    kind, text = outcome
    assert kind is fl.ParseError, outcome
    name, _, message = text.partition(": ")
    return getattr(fl, name), message


def test_construction_matches_bound_scan_exhaustively():
    # the meet test stands in for the transitivity pass whenever it holds,
    # so every intransitive relation here must still fail that pass, with
    # the scan's type, message and first failure; a form and LATT text
    # reach the same checker as the matrix
    outcomes = Counter()
    matrices = chain(*map(_relations, (1, 2, 3)), _reflexive_antisymmetric_relations(4))
    for matrix in matrices:
        outcome = _outcome(fl.FiniteLattice, matrix)
        assert outcome == _outcome(oracles.lattice_tables_by_scan, matrix), matrix
        assert outcome == _outcome(lambda m: fl.lattice_from_canonical(_form(m)), matrix), matrix
        assert outcome == _parsed(matrix), matrix
        outcomes[len(matrix), "lattice" if type(outcome) is dict else outcome[0].__name__] += 1
    # 219 partial orders on 4 labelled elements, of which 36 are bounded
    # (24 chains and 12 copies of 2x2), each a lattice
    assert outcomes == {
        (1, "lattice"): 1, (1, "NotAPartialOrder"): 1,
        (2, "lattice"): 2, (2, "NotBounded"): 1, (2, "NotAPartialOrder"): 13,
        (3, "lattice"): 6, (3, "NotBounded"): 13, (3, "NotAPartialOrder"): 493,
        (4, "lattice"): 36, (4, "NotBounded"): 183, (4, "NotAPartialOrder"): 510,
    }


def test_every_input_is_checked_from_its_order_text():
    # bool tuples, int tuples, lists, mixes, LATT text and a form all give
    # the same fields, and their rows are the cached rows of the order text
    for lattice in (fl.standard_lattice("chain", 3), fl.standard_lattice("n5")):
        rows = lattice.leq
        inputs = [
            rows,
            list(rows),
            [tuple(map(int, row)) for row in rows],
            [list(row) for row in rows],
            [rows[0], list(rows[1]), *rows[2:]],
            [(True, 1, *rows[0][2:]), *rows[1:]],
        ]
        built = [fl.FiniteLattice(matrix) for matrix in inputs]
        built += [fl.parse_latt(_latt(rows)), fl.lattice_from_canonical(_form(rows))]
        expected = oracles.lattice_tables_by_scan(rows)
        for other in built:
            assert {name: getattr(other, name) for name in FIELDS} == expected
            assert all(row is core._row(bytes(0x30 + v for v in row)) for row in other.leq)
    # longer orders are checked without the caches, so their rows go with them
    k = core._SHARED_LENGTH + 1
    matrix = [[i <= j for j in range(k)] for i in range(k)]
    before = [cache.cache_info() for cache in (core._row, core._mask)]
    built = [fl.FiniteLattice(matrix), fl.parse_latt(_latt(matrix))]
    built.append(fl.lattice_from_canonical(_form(matrix)))
    assert [cache.cache_info() for cache in (core._row, core._mask)] == before
    assert built[0] == built[1] == built[2] == fl.standard_lattice("chain", k)


# Each operation on 400-element orders must finish in under a second; the
# cubic bound scan took 4.9 s on chain(400) and 2.0 s on the grid.
_LARGE_ORDERS = """
import json, time
import finlat as fl
n = 400
chain = [[i <= j for j in range(n)] for i in range(n)]
grid = [[i // 20 <= j // 20 and i % 20 <= j % 20 for j in range(n)] for i in range(n)]
# chain 0 < ... < 394, then 397 and 398 below both of 395 and 396, then top 399
level = [0] * 395 + [2, 2, 1, 1, 3]
bowtie = [[i == j or (i < j if max(i, j) < 395 else level[i] < level[j] or i < 395)
           for j in range(n)] for i in range(n)]
text = fl.format_latt(fl.FiniteLattice(chain))
cases = {
    "chain": lambda: fl.FiniteLattice(chain),
    "grid": lambda: fl.FiniteLattice(grid),
    "parse": lambda: fl.parse_latt(text),
    "missing meet": lambda: fl.FiniteLattice(bowtie),
}
out = {}
for name, build in cases.items():
    start = time.perf_counter()
    try:
        build()
        outcome = "built"
    except fl.NotALattice as exc:
        outcome = str(exc)
    out[name] = [outcome, time.perf_counter() - start]
print(json.dumps(out))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_large_orders_build_in_bounded_time(flags):
    done = subprocess.run(
        [sys.executable, *flags, "-c", _LARGE_ORDERS],
        capture_output=True,
        text=True,
        check=True,
    )
    results = json.loads(done.stdout)
    assert {name: outcome for name, (outcome, _) in results.items()} == {
        "chain": "built",
        "grid": "built",
        "parse": "built",
        "missing meet": "elements (395, 396) have no meet",
    }
    slow = {name: seconds for name, (_, seconds) in results.items() if seconds >= 1.0}
    assert slow == {}


def test_validate_clean_on_catalog():
    for lattice in support.catalog().values():
        assert oracles.axiom_violations(lattice) == []


def test_validate_reports_injected_commutativity_fault():
    base = fl.standard_lattice("boolean", 2)
    meet = [list(row) for row in base.meet]
    meet[1][2], meet[2][1] = meet[1][2], base.top  # meet no longer symmetric
    broken = SimpleNamespace(
        size=base.size,
        leq=base.leq,
        meet=tuple(tuple(r) for r in meet),
        join=base.join,
        bottom=base.bottom,
        top=base.top,
    )
    rules = {rule for rule, _ in oracles.axiom_violations(broken)}
    assert "meet-commutativity" in rules


def test_validate_reports_unbounded_order():
    # bottom plus a 2-antichain; tables are filler, the bound check fires first
    tables = SimpleNamespace(
        size=3,
        leq=((True, True, True), (False, True, False), (False, False, True)),
        meet=((0,) * 3,) * 3,
        join=((0,) * 3,) * 3,
        bottom=0,
        top=2,
    )
    violations = oracles.axiom_violations(tables)
    assert [rule for rule, _ in violations] == ["bounded"]


def test_missing_join_of_the_first_failing_pair_is_reported_exactly():
    # (1, 2) meet at 0 but have two minimal upper bounds, 3 and 4; the pair
    # (3, 4) has no meet, which is what the construction check sees first
    bowtie = [
        [1, 1, 1, 1, 1, 1],
        [0, 1, 0, 1, 1, 1],
        [0, 0, 1, 1, 1, 1],
        [0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 1],
    ]
    with pytest.raises(fl.NotALattice) as raised:
        fl.FiniteLattice(bowtie)
    assert str(raised.value) == "elements (1, 2) have no join"


def test_tables_are_derived_once_on_first_read(monkeypatch):
    calls = []
    derive = core._meet_join_tables

    def counted(down, up):
        calls.append(len(down))
        return derive(down, up)

    monkeypatch.setattr(core, "_meet_join_tables", counted)
    lattices = [lattice for n in range(1, 10) for lattice in fl.enumerate_lattices(n)]
    assert len(lattices) == 1_378
    assert calls == []
    for index, lattice in enumerate(lattices):
        first = lattice.meet if index % 2 else lattice.join
        assert len(first) == lattice.size
    assert calls == [lattice.size for lattice in lattices]
    for lattice in lattices:
        assert lattice.meet[lattice.bottom][lattice.top] == lattice.bottom
        assert lattice.join[lattice.bottom][lattice.top] == lattice.top
    assert len(calls) == len(lattices)


def test_tables_first_read_from_several_threads_agree():
    # threads that read a fresh lattice's tables at once may each derive them;
    # every reader still gets the tables of the order
    orders = [lattice.leq for lattice in support.lattices_up_to(7)]
    expected = [
        (tables["meet"], tables["join"])
        for tables in map(oracles.lattice_tables_by_scan, orders)
    ]
    fresh = [fl.FiniteLattice(leq) for leq in orders]
    seen = [[] for _ in range(4)]

    def read(out):
        for lattice in fresh:
            out.append((lattice.meet, lattice.join))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(out,)) for out in seen]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [expected] * 4


def test_lattice_has_no_dict_and_rejects_assignment():
    # the fields are slots; the tables fill theirs on the first read
    lattice = fl.standard_lattice("n5")
    fresh = fl.FiniteLattice(lattice.leq)
    assert not hasattr(fresh, "__dict__")
    assert fresh.meet == lattice.meet and fresh.join == lattice.join
    for name, value in (("size", 3), ("meet", lattice.join)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(fresh, name, value)
    # a name that is no field has no slot; which error says so depends on
    # the Python version
    with pytest.raises((AttributeError, TypeError)):
        fresh.extra = 1
    with pytest.raises(AttributeError, match="no attribute 'extra'"):
        fresh.extra
    assert fresh == lattice


def test_tables_cannot_be_supplied_or_replaced():
    lattice = fl.standard_lattice("boolean", 2)
    meet = tuple((lattice.bottom,) * 4 for _ in range(4))
    with pytest.raises(ValueError):
        dataclasses.replace(lattice, meet=meet)
    with pytest.raises(TypeError):
        fl.FiniteLattice(
            size=4,
            leq=lattice.leq,
            meet=meet,
            join=lattice.join,
            bottom=lattice.bottom,
            top=lattice.top,
        )
    with pytest.raises(fl.NotBounded):
        fl.FiniteLattice(((True, True, True), (False, True, False), (False, False, True)))
    assert fl.FiniteLattice(lattice.leq) == lattice


def test_standard_lattice_shapes():
    n5 = fl.standard_lattice("n5")
    assert n5.join[1][3] == n5.top
    assert n5.meet[2][3] == n5.bottom
    assert n5.leq[1][2]
    m3 = fl.standard_lattice("m3")
    atoms = [1, 2, 3]
    for x in atoms:
        for y in atoms:
            if x != y:
                assert m3.meet[x][y] == m3.bottom
                assert m3.join[x][y] == m3.top
    assert fl.standard_lattice("chain", 1).size == 1
    assert fl.standard_lattice("boolean", 2).size == 4


def test_standard_lattice_rejects_bad_names_and_parameters():
    with pytest.raises(fl.UnknownName):
        fl.standard_lattice("hexagon")
    with pytest.raises(ValueError):
        fl.standard_lattice("chain")
    with pytest.raises(ValueError):
        fl.standard_lattice("chain", 0)
    with pytest.raises(ValueError):
        fl.standard_lattice("n5", 5)
    # a size is an int, and a bool is not one
    for parameter in (2.0, True, False, "3"):
        with pytest.raises(ValueError):
            fl.standard_lattice("chain", parameter)
        with pytest.raises(ValueError):
            fl.standard_lattice("boolean", parameter)


def test_standard_lattice_is_cached_by_arguments():
    assert fl.standard_lattice("n5") is fl.standard_lattice("n5")
    assert fl.standard_lattice("chain", 3) is fl.standard_lattice("chain", 3)


def test_product_identities():
    c2 = fl.standard_lattice("chain", 2)
    c3 = fl.standard_lattice("chain", 3)
    square = fl.product(c2, c2)
    assert fl.is_isomorphic(square, fl.standard_lattice("boolean", 2))
    assert fl.is_isomorphic(fl.product(fl.standard_lattice("chain", 1), c3), c3)
    box = fl.product(c2, c3)
    assert box.size == 6
    assert oracles.axiom_violations(box) == []
    assert fl.is_distributive(box)
    assert box.bottom == 0 and box.top == box.size - 1


def test_dual_is_involutive_and_swaps_operations():
    n5 = fl.standard_lattice("n5")
    flipped = fl.dual(n5)
    assert flipped.bottom == n5.top and flipped.top == n5.bottom
    assert fl.dual(flipped).leq == n5.leq
    for x in n5.elements():
        for y in n5.elements():
            assert flipped.meet[x][y] == n5.join[x][y]
            assert flipped.join[x][y] == n5.meet[x][y]


def test_canonical_form_separates_and_identifies():
    n5 = fl.standard_lattice("n5")
    m3 = fl.standard_lattice("m3")
    assert fl.canonical_form(n5) != fl.canonical_form(m3)
    square = fl.product(fl.standard_lattice("chain", 2), fl.standard_lattice("chain", 2))
    assert fl.canonical_form(square) == fl.canonical_form(fl.standard_lattice("boolean", 2))
    assert not fl.is_isomorphic(fl.standard_lattice("chain", 4), fl.standard_lattice("boolean", 2))


def test_canonical_form_renumbers_bounds():
    for lattice in support.catalog().values():
        rebuilt = fl.lattice_from_canonical(fl.canonical_form(lattice))
        assert rebuilt.bottom == 0
        assert rebuilt.top == rebuilt.size - 1
        assert fl.is_isomorphic(rebuilt, lattice)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_canonical_form_is_relabeling_invariant(data):
    name = data.draw(st.sampled_from(sorted(support.catalog())))
    lattice = support.catalog()[name]
    perm = data.draw(st.permutations(range(lattice.size)))
    relabeled = fl.relabel(lattice, perm)
    assert fl.canonical_form(relabeled) == fl.canonical_form(lattice)
    assert fl.is_isomorphic(relabeled, lattice)


@lru_cache(maxsize=None)
def _small_catalog_products() -> tuple[fl.FiniteLattice, ...]:
    # products of at most 20 elements whose permutation search stays
    # under 2,000 labelings; boolean(4) alone would take 414,720
    catalog = support.catalog()
    out = []
    for first, second in combinations_with_replacement(sorted(catalog), 2):
        lattice = fl.product(catalog[first], catalog[second])
        n, up, down = lattice.size, lattice.up_masks, lattice.down_masks
        if n <= 20 and oracles.permutation_count(n, up, down) <= 2000:
            out.append(lattice)
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_canonical_form_matches_permutation_search_on_products(data):
    lattice = data.draw(st.sampled_from(_small_catalog_products()))
    perm = data.draw(st.permutations(range(lattice.size)))
    relabeled = fl.relabel(lattice, perm)
    n, up, down = relabeled.size, relabeled.up_masks, relabeled.down_masks
    assert fl.canonical_form(relabeled) == oracles.canonical_by_permutations(n, up, down)


def test_refine_colors_matches_scan_on_placements():
    for n in range(1, 9):
        for down in oracles.placements_by_size(n):
            up = oracles.up_masks(n, down)
            groups = oracles.twin_group_count(n, up, down)
            color = core._refine_colors(n, up, down, groups)
            assert color == oracles._refine_colors_by_scan(n, up, down)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_refine_colors_matches_scan_on_products(data):
    catalog = support.catalog()
    first, second = (data.draw(st.sampled_from(sorted(catalog))) for _ in range(2))
    lattice = fl.product(catalog[first], catalog[second])
    relabeled = fl.relabel(lattice, data.draw(st.permutations(range(lattice.size))))
    n, up, down = relabeled.size, relabeled.up_masks, relabeled.down_masks
    groups = oracles.twin_group_count(n, up, down)
    assert core._refine_colors(n, up, down, groups) == oracles._refine_colors_by_scan(n, up, down)


def _m(k: int) -> fl.FiniteLattice:
    """M_k: bottom 0, k pairwise incomparable atoms, top k + 1."""
    return fl.from_leq_matrix(
        [[i == 0 or j == k + 1 or i == j for j in range(k + 2)] for i in range(k + 2)]
    )


def test_twin_atoms_give_the_permutation_search_form():
    for k in (5, 7):
        lattice = _m(k)
        n, up, down = lattice.size, lattice.up_masks, lattice.down_masks
        assert fl.canonical_form(lattice) == oracles.canonical_by_permutations(n, up, down)


def test_twin_atoms_are_not_permuted():
    lattice = _m(12)  # 12! labelings without twin collapsing
    start = time.perf_counter()
    form = fl.canonical_form(lattice)
    assert time.perf_counter() - start < 1.0
    assert fl.is_isomorphic(fl.lattice_from_canonical(form), lattice)


def test_permutation_search_runs_only_where_a_class_holds_two_twin_groups(monkeypatch):
    # the search arranges the twin groups of each class; when every class
    # is one twin group the labeling is read off the colours instead
    searched = []
    arrangements = core._arrangements

    def counted(groups):
        searched.append(groups)
        return arrangements(groups)

    monkeypatch.setattr(core, "_arrangements", counted)

    def runs_search(n, up, down):
        before = len(searched)
        core._canonical_from_up_masks(n, up, down)
        return len(searched) > before

    placements = [(n, down, up) for n in range(2, 11) for down, up in enumeration._placements(n)]
    assert len(placements) == 7847
    assert sum(runs_search(n, up, down) for n, down, up in placements) == 782
    for k in range(1, 13):
        for lattice in (fl.standard_lattice("chain", k), _m(k)):
            assert not runs_search(lattice.size, lattice.up_masks, lattice.down_masks)
    boolean = fl.standard_lattice("boolean", 3)  # three atoms, no two of them twins
    assert runs_search(boolean.size, boolean.up_masks, boolean.down_masks)


@pytest.mark.parametrize(
    "form", [b"2:1121", b" 2:1101", b"+2:1101", b"2 :1101", b":", b"0:", b"01:1", b"00:", b"-1:1"]
)
def test_lattice_from_canonical_rejects_malformed_forms(form):
    # a size head that is not plain decimal digits or has a leading zero,
    # a body byte other than 0 or 1, or the empty order, which the
    # constructor rejects too
    with pytest.raises(ValueError):
        fl.lattice_from_canonical(form)


def test_canonical_forms_round_trip_up_to_size_8():
    for n in range(1, 9):
        for form in _canonical_forms(n):
            assert fl.canonical_form(fl.lattice_from_canonical(form)) == form


def test_canonical_form_agrees_with_brute_isomorphism_at_size_5():
    reps = support.lattices_of(5)
    for i, first in enumerate(reps):
        for second in reps[i + 1 :]:
            assert fl.canonical_form(first) != fl.canonical_form(second)
            assert not oracles.brute_isomorphic(first, second)


def test_relabel_requires_permutation():
    # entries that equal 0..n-1 but are not ints are rejected before any is used
    for permutation in ([0, 0, 2], [0, 1.0, 2], [True, 0, 2], [0, 1, "2"]):
        with pytest.raises(ValueError):
            fl.relabel(fl.standard_lattice("chain", 3), permutation)


def test_quotient_by_identity_and_all():
    n5 = fl.standard_lattice("n5")
    identity = fl.Congruence(n5, fl.Partition.identity(5))
    image, projection = fl.quotient(n5, identity)
    assert fl.is_isomorphic(image, n5)
    assert fl.is_homomorphism(projection) and fl.is_surjective(projection)
    everything = fl.Congruence(n5, fl.Partition.all_in_one(5))
    collapsed, _ = fl.quotient(n5, everything)
    assert collapsed.size == 1


def test_quotient_of_three_chain():
    c3 = fl.standard_lattice("chain", 3)
    cong = fl.principal_congruence(c3, 0, 1)
    image, projection = fl.quotient(c3, cong)
    assert fl.is_isomorphic(image, fl.standard_lattice("chain", 2))
    assert projection.map == (0, 0, 1)


def test_quotient_matches_block_order():
    # the image of the order under the block labels equals the block order
    # [x] <= [y] iff x∨y θ y, for every congruence
    lattices = support.lattices_up_to(7)
    lattices += [support.catalog_product(names) for names in (("n5", "m3"), ("chain3", "m3"))]
    for lattice in lattices:
        for theta, expected in support.quotients(lattice):
            image, projection = fl.quotient(lattice, theta)
            assert image.leq == expected.leq
            assert projection.map == theta.partition.block_of
            assert fl.is_homomorphism(projection) and fl.is_surjective(projection)


def test_quotient_rejects_foreign_and_invalid_partitions():
    n5 = fl.standard_lattice("n5")
    other = fl.from_leq_matrix(n5.leq)
    cong = fl.Congruence(other, fl.Partition.identity(5))
    with pytest.raises(fl.OwnerMismatch):
        fl.quotient(n5, cong)
    merged_bottom_atom = fl.Congruence(n5, fl.Partition.from_blocks(5, [[0, 1], [2], [3], [4]]))
    with pytest.raises(fl.NotACongruence):
        fl.quotient(n5, merged_bottom_atom)


def test_quotient_raises_exactly_on_incompatible_partitions_up_to_size_5():
    for lattice in support.lattices_up_to(5):
        n = lattice.size
        for labels in oracles.all_partitions(n):
            theta = fl.Congruence(lattice, fl.Partition(n, labels))
            if oracles.compatible(lattice, labels):
                image, _ = fl.quotient(lattice, theta)
                assert image.size == max(labels) + 1
            else:
                with pytest.raises(fl.NotACongruence):
                    fl.quotient(lattice, theta)


def test_homomorphism_checks():
    c2 = fl.standard_lattice("chain", 2)
    c3 = fl.standard_lattice("chain", 3)
    good = fl.LatticeHomomorphism(c3, c2, (0, 0, 1))
    assert fl.is_homomorphism(good)
    assert fl.is_surjective(good)
    swapped_bounds = fl.LatticeHomomorphism(c3, c2, (1, 0, 0))
    assert not fl.is_homomorphism(swapped_bounds)
    skips_middle = fl.LatticeHomomorphism(c3, c3, (0, 2, 2))
    assert fl.is_homomorphism(skips_middle) and not fl.is_surjective(skips_middle)


def test_latt_round_trip_is_byte_exact():
    # the writer against the per-cell reference, and back through the parser,
    # on the catalog, every class of size <= 9 and an order past the caches
    lattices = [*support.catalog().values(), *support.lattices_up_to(9)]
    lattices.append(fl.standard_lattice("chain", core._SHARED_LENGTH + 1))
    for lattice in lattices:
        text = fl.format_latt(lattice)
        assert text == oracles.format_latt_by_cells(lattice)
        again = fl.parse_latt(text)
        assert again == lattice
        assert fl.format_latt(again) == text


def test_latt_golden_n5():
    assert fl.format_latt(fl.standard_lattice("n5")) == (
        "LATT 1\nn=5\n11111\n01101\n00101\n00011\n00001\n"
    )


@pytest.mark.parametrize(
    "payload, line",
    [
        ("", 1),
        ("LATT 2\nn=1\n1\n", 1),
        ("LATT 1\n", 2),
        ("LATT 1\nsize=2\n11\n01\n", 2),
        ("LATT 1\nn=0\n", 2),
        ("LATT 1\nn=2\n11\n", 4),
        ("LATT 1\nn=2\n111\n01\n", 3),
        ("LATT 1\nn=2\n11\n0x\n", 4),
        ("LATT 1\nn=2\n11\n01\n\n", 5),
        ("LATT 1\nn=2\n11\n01", 4),
        ("LATT 1\r\nn=2\n11\n01\n", 1),
        ("LATT 1\nn=2\n11\n10\n", 3),
    ],
)
def test_parse_latt_rejects_malformed_input(payload, line):
    with pytest.raises(fl.ParseError) as excinfo:
        fl.parse_latt(payload)
    assert excinfo.value.line == line


def test_parse_latt_rejects_a_size_longer_than_its_row_count_on_line_2():
    # int() refuses more than 4,300 digits, so the size is never converted
    for digits, rows in ((5_000, 0), (5_000, 3), (2, 9), (3, 99)):
        text = "LATT 1\nn=" + "9" * digits + "\n" + "1\n" * rows
        with pytest.raises(fl.ParseError) as excinfo:
            fl.parse_latt(text)
        assert excinfo.value.line == 2
        assert str(excinfo.value) == f"size has {digits} digits, but {rows} matrix rows follow"
    # as many digits as the row count has: the size is read and compared
    with pytest.raises(fl.ParseError, match="^expected 12 matrix rows, found 10$") as excinfo:
        fl.parse_latt("LATT 1\nn=12\n" + "1\n" * 10)
    assert excinfo.value.line == 13


def test_parse_latt_rejects_non_ascii_bytes():
    with pytest.raises(fl.ParseError) as excinfo:
        fl.parse_latt("LATT 1\nn=2\n11\n0\xff\n".encode("latin-1"))
    assert excinfo.value.line == 4


def test_parse_latt_accepts_any_valid_labeling():
    # bottom does not need to be element 0 in the file
    lattice = fl.parse_latt("LATT 1\nn=2\n10\n11\n")
    assert lattice.bottom == 1
    assert lattice.top == 0


def test_no_assert_statements_in_src():
    # python -O strips asserts, so an internal check written as one would silently vanish
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(fl.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
