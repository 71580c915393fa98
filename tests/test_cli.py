"""Command-line behavior: output formats, exit codes, and diagnostics.

Everything runs in-process through run() except one smoke test of the
installed console script.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

import finlat as fl
from finlat import cli, enumeration
import support


@pytest.fixture()
def latt_file(tmp_path):
    def write(name: str, *args) -> str:
        path = tmp_path / f"{name}.latt"
        path.write_text(fl.format_latt(fl.standard_lattice(name, *args)))
        return str(path)

    return write


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        out = {}
        for key in value:
            child = f"{prefix}.{key}" if prefix else str(key)
            out.update(_flatten(value[key], child))
        return out
    return {prefix: value}


def test_check_text_and_json_carry_the_same_fields(latt_file, capsys):
    path = latt_file("n5")
    assert cli.run(["check", path]) == 0
    text_lines = capsys.readouterr().out.strip().splitlines()
    assert cli.run(["check", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)

    parsed = {}
    for line in text_lines:
        key, _, raw = line.partition(": ")
        parsed[key] = json.loads(raw)
    assert parsed == _flatten(payload)
    assert payload["is_d_lattice"] is True
    assert payload["counts"]["congruences"] == 5


def test_theorem_exit_codes(latt_file, capsys):
    assert cli.run(["theorem", latt_file("chain", 3)]) == 0
    capsys.readouterr()
    assert cli.run(["theorem", latt_file("m3"), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scope"] == "not-a-d-lattice"
    assert payload["passed"] is True


def test_theorem_failure_exit_code_is_wired(latt_file, capsys, monkeypatch):
    broken = fl.TheoremVerdict(
        scope="d-lattice",
        passed=False,
        seven=fl.SevenConditions(*([True] * 6 + [False])),
        balanced=False,
        complemented=True,
    )
    monkeypatch.setattr(cli, "verify_theorem", lambda lattice: broken)
    assert cli.run(["theorem", latt_file("n5")]) == 1
    assert "passed: false" in capsys.readouterr().out


def test_search_reports_witnesses_with_exit_code_1(capsys, monkeypatch):
    assert cli.run(["search", "--predicate", "complemented-not-balanced", "--max-size", "4"]) == 0
    assert "witness_count: 0" in capsys.readouterr().out

    n5 = fl.standard_lattice("n5")
    witness = fl.SearchWitness(lattice=n5, report=fl.classify(n5))
    monkeypatch.setattr(cli, "search_counterexample", lambda predicate, max_n: [witness])
    code = cli.run(
        ["search", "--predicate", "complemented-not-balanced", "--max-size", "4",
         "--format", "json"]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["witness_count"] == 1
    assert payload["witnesses"][0]["lattice"] == fl.format_latt(n5)


def test_search_empty_result_shape(capsys):
    code = cli.run(
        ["search", "--predicate", "seven-conditions-split", "--max-size", "5",
         "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "max_size": 5,
        "predicate": "seven-conditions-split",
        "witness_count": 0,
        "witnesses": [],
    }


def test_readme_off_scope_example_is_the_cli_output(tmp_path, capsys):
    # the least lattice, in enumeration order, that is balanced, not
    # complemented and not a d-lattice; none of size 7 or less is balanced
    # and not complemented
    def split(report):
        return report.is_balanced and not report.is_complemented

    assert not any(split(report) for _, report in support.classified_up_to(7))
    hits = [lattice for lattice, report in support.classified(8) if split(report)]
    assert len(hits) == 9 and not fl.is_d_lattice(hits[0])
    assert hits[0] is support.lattices_of(8)[20]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    latt = readme.split("```\nLATT 1\nn=8\n", 1)[1].split("```", 1)[0]
    shown = readme.split("$ finlat check offscope.latt\n", 1)[1].split("```", 1)[0]
    assert "LATT 1\nn=8\n" + latt == fl.format_latt(hits[0])
    path = tmp_path / "offscope.latt"
    path.write_text(fl.format_latt(hits[0]), encoding="ascii")
    assert cli.run(["check", str(path)]) == 0
    assert capsys.readouterr().out == shown


def test_congruences_text_listing(latt_file, capsys):
    assert cli.run(["congruences", latt_file("chain", 3)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "count: 4"
    assert set(lines[1:]) == {
        "{{0,1,2}}",
        "{{0,1},{2}}",
        "{{0},{1,2}}",
        "{{0},{1},{2}}",
    }


def test_ideals_text_listing(latt_file, capsys):
    assert cli.run(["ideals", latt_file("chain", 2)]) == 0
    out = capsys.readouterr().out
    assert "ideal {0}: prime=true maximal=true" in out
    assert "ideal {0,1}: prime=false maximal=false" in out
    assert "filter {1}: prime=true maximal=true" in out


def test_ideals_flags_match_the_public_predicates(tmp_path, capsys):
    # the rows read the flags from the one derivation of maximal and prime
    # sets; the four public predicates, run on each set, are the reference
    path = tmp_path / "input.latt"
    sides = (
        ("ideal", fl.enumerate_ideals, fl.is_prime_ideal, fl.is_maximal_ideal),
        ("filter", fl.enumerate_filters, fl.is_prime_filter, fl.is_maximal_filter),
    )
    for lattice in [*support.lattices_up_to(7), *support.catalog().values()]:
        path.write_text(fl.format_latt(lattice))
        rows = {
            side: [
                {"set": str(s), "prime": is_prime(lattice, s), "maximal": is_maximal(lattice, s)}
                for s in sets(lattice)
            ]
            for side, sets, is_prime, is_maximal in sides
        }
        assert cli.run(["ideals", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "filters": rows["filter"],
            "ideals": rows["ideal"],
        }
        assert cli.run(["ideals", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{side} {row['set']}: prime={json.dumps(row['prime'])} "
            f"maximal={json.dumps(row['maximal'])}"
            for side in ("ideal", "filter")
            for row in rows[side]
        ]


def test_enumerate_counts_and_writes(tmp_path, capsys):
    assert cli.run(["enumerate", "--size", "5", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"count": 5, "size": 5}

    out_dir = tmp_path / "corpus"
    assert cli.run(["enumerate", "--size", "4", "--out", str(out_dir)]) == 0
    text = capsys.readouterr().out
    assert "count: 4" not in text  # size 4 has 2 classes
    assert "count: 2" in text
    assert "files_written: 2" in text
    assert sorted(p.name for p in out_dir.iterdir()) == ["lat_4_0.latt", "lat_4_1.latt"]

    assert cli.run(["enumerate", "--size", "11"]) == 2


def test_enumerate_out_rebuilds_each_class_once(tmp_path, capsys, monkeypatch):
    rebuilt = support.count_calls(monkeypatch, "lattice_from_canonical", enumeration)
    out_dir = tmp_path / "corpus"
    assert cli.run(["enumerate", "--size", "6", "--out", str(out_dir), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"count": 15, "files_written": 15, "out": str(out_dir), "size": 6}
    assert len(rebuilt) == len(set(rebuilt)) == 15

    missing = tmp_path / "never"
    assert cli.run(["enumerate", "--size", "11", "--out", str(missing)]) == 2
    assert capsys.readouterr().err == "error: size 11 outside 1..10\n"
    assert not missing.exists()


def test_enumerate_count_rebuilds_no_class(capsys, monkeypatch):
    # the count is the number of canonical forms: no class is rebuilt or validated
    rebuilt = support.count_calls(monkeypatch, "lattice_from_canonical", enumeration, fl.core)
    assert cli.run(["enumerate", "--size", "7"]) == 0
    assert capsys.readouterr().out == "count: 53\nsize: 7\n"
    assert cli.run(["enumerate", "--size", "0"]) == 2
    assert capsys.readouterr().err == "error: size 0 outside 1..10\n"
    assert rebuilt == []


def test_census_text_table(capsys):
    assert cli.run(["census", "--max-size", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "size lattices d_lattices balanced_d complemented_d elapsed"
    assert len(lines) == 5
    assert lines[1].startswith("1 1 1 1 1 ")
    assert lines[4].startswith("4 2 2 ")


def test_parse_error_diagnostic_names_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.latt"
    bad.write_text("LATT 1\nn=2\n11\n11\n")
    assert cli.run(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:")
    assert f"{bad}:3: NotAPartialOrder" in err


def test_missing_file_is_exit_2(capsys):
    assert cli.run(["check", "/no/such/file.latt"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _run_captured(argv, capsys):
    try:
        code = cli.run(argv)
    except SystemExit as exc:  # argparse usage errors exit through SystemExit
        code = exc.code
    captured = capsys.readouterr()
    return captured.out, captured.err, code


HELP = json.loads((Path(__file__).parent / "cli_help.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", sorted(HELP))
def test_help_output_is_pinned(argv, capsys, monkeypatch):
    # the goldens hold argparse's output at 80 columns under Python 3.11;
    # Python 3.10 names the options section "optional arguments"
    monkeypatch.setenv("COLUMNS", "80")
    out, err, code = _run_captured(argv.split(), capsys)
    assert (out.replace("\noptional arguments:\n", "\noptions:\n"), err, code) == (HELP[argv], "", 0)


def test_repeated_runs_in_one_process_give_the_same_results(latt_file, tmp_path, capsys):
    n5, m3 = latt_file("n5"), latt_file("m3")
    bad = tmp_path / "bad.latt"
    bad.write_text("LATT 1\nn=2\n11\n11\n")
    cases = [
        ["check", n5],
        ["theorem", n5, "--format", "json"],
        ["congruences", m3],
        ["ideals", m3, "--format", "json"],
        ["check", str(bad)],
        ["theorem", n5, "--format", "xml"],
    ]
    first = [_run_captured(argv, capsys) for argv in cases]
    second = [_run_captured(argv, capsys) for argv in cases]
    assert first == second
    assert [code for _, _, code in first] == [0, 0, 0, 0, 2, 2]
    assert first[-1][1].startswith("usage: finlat theorem")
    assert "invalid choice: 'xml'" in first[-1][1]
    assert cli._build_parser() is cli._build_parser()


def test_second_run_leaves_no_cyclic_garbage(latt_file, capsys):
    path = latt_file("n5")
    cases = [["check", path], ["theorem", path], ["congruences", path], ["ideals", path]]
    gc.disable()  # no automatic collection may hide the garbage
    try:
        for argv in cases:
            cli.run(argv)
        capsys.readouterr()
        gc.collect()
        for argv in cases:
            cli.run(argv)
        capsys.readouterr()
        assert gc.collect() == 0
    finally:
        gc.enable()


def _json_cases(path: str) -> list[list[str]]:
    return [
        [*argv, "--format", "json"]
        for argv in (
            ["check", path],
            ["theorem", path],
            ["ideals", path],
            ["congruences", path],
            ["census", "--max-size", "5"],
            ["search", "--predicate", "seven-conditions-split", "--max-size", "5"],
        )
    ]


def test_json_runs_leave_no_cyclic_garbage(latt_file, capsys):
    # the indented JSON is assembled from scalar dumps, which run the C
    # encoder, and the recursive generators of enumeration and the
    # canonical form are module-level functions, not self-referring closures
    cases = _json_cases(latt_file("n5"))
    for argv in cases:
        cli.run(argv)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in cases:
            cli.run(argv)
        gc.collect()
        garbage = [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    capsys.readouterr()
    assert garbage == []


def test_json_output_matches_the_standard_encoder(latt_file, capsys, monkeypatch):
    for argv in _json_cases(latt_file("n5")):
        cli.run(argv)
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv
    n5 = fl.standard_lattice("n5")
    witness = fl.SearchWitness(lattice=n5, report=fl.classify(n5))
    monkeypatch.setattr(cli, "search_counterexample", lambda predicate, max_n: [witness])
    argv = ["search", "--predicate", "complemented-not-balanced", "--max-size", "4"]
    assert cli.run([*argv, "--format", "json"]) == 1
    out = capsys.readouterr().out
    assert "\\n" in out  # the LATT text of the witness, newlines escaped
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    payloads = [
        {},
        [],
        {"rows": [{"elapsed": 0.1 + 0.2, "size": 3}, {"elapsed": 1e-07, "size": 4}]},
        {"lattice": fl.format_latt(n5), "witnesses": [], "nested": {"empty": {}, "x": [[]]}},
        {"flags": [True, False, None], "text": "é\t\"quoted\"", "tuple": (1, (2, 3))},
    ]
    for payload in payloads:
        assert cli._indented_json(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_console_script_smoke(tmp_path):
    path = tmp_path / "c3.latt"
    path.write_text(fl.format_latt(fl.standard_lattice("chain", 3)))
    done = subprocess.run(
        [sys.executable, "-m", "finlat.cli", "theorem", str(path), "--format", "json"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert done.returncode == 0
    assert json.loads(done.stdout)["passed"] is True


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_congruences_of_large_lattices_in_bounded_time(tmp_path, flags):
    # Con(L) is read from Day's dependency relation on the join-irreducibles,
    # with no congruence closure: one closure per covering pair took about
    # 10 CPU s on boolean(8) alone.  chain(16) lists 32,768 congruences.
    m3, n5 = fl.standard_lattice("m3"), fl.standard_lattice("n5")
    cases = [
        (fl.product(fl.product(m3, m3), n5), "count: 20"),  # 125 elements
        (fl.standard_lattice("boolean", 7), "count: 128"),  # 128 elements
        (fl.standard_lattice("boolean", 8), "count: 256"),  # 256 elements
        (fl.standard_lattice("chain", 16), "count: 32768"),  # 16 elements
    ]
    for lattice, first_line in cases:
        path = tmp_path / f"{lattice.size}.latt"
        path.write_text(fl.format_latt(lattice))
        done = subprocess.run(
            [sys.executable, *flags, "-m", "finlat.cli", "congruences", str(path)],
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        )
        assert done.stdout.splitlines()[0] == first_line


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_closed_output_pipe_ends_quietly_with_sigpipe_status(tmp_path, flags):
    # chain(16) lists 32,768 congruences, far more than a pipe buffers, so
    # the CLI is still writing when the reader closes its end after one line
    path = tmp_path / "chain16.latt"
    path.write_text(fl.format_latt(fl.standard_lattice("chain", 16)))
    with subprocess.Popen(
        [sys.executable, *flags, "-m", "finlat.cli", "congruences", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as process:
        first = process.stdout.readline()
        process.stdout.close()
        stderr = process.stderr.read()
        status = process.wait(timeout=10)
    assert first == "count: 32768\n"
    assert (status, stderr) == (141, "")


def _grid_latt(k: int) -> str:
    """The LATT text of chain(k) x chain(k), with (a, b) numbered a*k + b."""
    n = k * k
    rows = (
        "".join("1" if a <= c and b <= d else "0" for c in range(k) for d in range(k))
        for a in range(k)
        for b in range(k)
    )
    return f"LATT 1\nn={n}\n" + "".join(row + "\n" for row in rows)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_ideals_of_large_lattices_in_bounded_time(tmp_path, flags):
    # one fold per set; scanning the pairs of each ideal's members is cubic on a chain
    n = 1000
    chain = f"LATT 1\nn={n}\n" + "".join("0" * i + "1" * (n - i) + "\n" for i in range(n))
    cases = [
        # every proper ideal and filter of a chain is prime; one of each is maximal
        (chain, "ideal {0}: prime=true maximal=false", 2 * (n - 1), 2),
        # the grid's primes are its ideals ↓(a, 29) and ↓(29, b) and their duals
        (_grid_latt(30), "ideal {0}: prime=false maximal=false", 116, 4),
    ]
    for index, (text, first_line, primes, maximals) in enumerate(cases):
        path = tmp_path / f"{index}.latt"
        path.write_text(text)
        done = subprocess.run(
            [sys.executable, *flags, "-m", "finlat.cli", "ideals", str(path)],
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        )
        lines = done.stdout.splitlines()
        assert lines[0] == first_line
        assert sum("prime=true" in line for line in lines) == primes
        assert sum("maximal=true" in line for line in lines) == maximals


def test_optimized_interpreter_gives_identical_output(latt_file, tmp_path):
    # python -O strips assert statements; no check the CLI relies on may be one
    rejected = tmp_path / "unbounded.latt"  # bottom plus a 2-antichain
    rejected.write_text("LATT 1\nn=3\n111\n010\n001\n")
    cases = [
        (args, 0)
        for path in (latt_file("n5"), latt_file("m3"), latt_file("chain", 3))
        for args in (
            ["check", path, "--format", "json"],
            ["theorem", path, "--format", "json"],
            ["congruences", path],
            ["ideals", path, "--format", "json"],
        )
    ]
    cases.append((["check", str(rejected)], 2))
    for args, expected_code in cases:
        plain, optimized = (
            subprocess.run(
                [sys.executable, *flags, "-m", "finlat.cli", *args],
                capture_output=True,
                text=True,
                check=False,
            )
            for flags in ([], ["-O"])
        )
        assert (optimized.returncode, optimized.stdout, optimized.stderr) == (
            plain.returncode,
            plain.stdout,
            plain.stderr,
        )
        assert plain.returncode == expected_code
        assert plain.stdout if expected_code == 0 else plain.stderr
