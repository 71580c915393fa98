"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402


def _worker(*args: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_two_traced_runs_give_identical_counts():
    keys = ("enumeration.placements", "enumeration.classes", "congruences.con_size")
    runs = [_worker("verify", "--max-size", "7", "--trace", "1")["layers"] for _ in range(2)]
    first, second = ({key: layers[key] for key in keys} for layers in runs)
    assert first == second
    assert first["enumeration.classes"] == checks.A006966[7]
    assert first["enumeration.placements"] >= first["enumeration.classes"]
    assert first["congruences.con_size"] > 0


def test_corrupted_expected_value_is_a_failure_not_a_crash():
    counts = [[n, checks.A006966[n]] for n in range(1, 6)]
    assert checks.check_enumerate(counts) == (5, [])
    attempted, failures = checks.check_enumerate(counts, {**checks.A006966, 4: 3})
    assert attempted == 5 and len(failures) == 1

    verdicts = [[1, "d-lattice", True, True, True], [2, "d-lattice", True, True, True]]
    assert checks.check_verify(verdicts) == (4, [])
    attempted, failures = checks.check_verify(verdicts, census={**checks.CENSUS, 2: (1, 0, 0)})
    assert attempted == 4 and len(failures) == 1

    products, _ = inputs.draw_single(0)
    wrong = f"count: {products[0].congruences + 1}\n"
    outputs = [[0, "congruences", 0, wrong], [0, "ideals", 0, "not json"], [0, "check", 2, ""]]
    attempted, failures = checks.check_single(products, outputs)
    assert attempted == 3 and len(failures) == 3


def test_untraced_run_imports_no_tracing_code():
    code = (
        "import sys; sys.path.insert(0, {bench!r}); import worker; "
        "worker.main(['enumerate', '--max-size', '5', '--trace', '{trace}']); "
        "print('tracing' in sys.modules)"
    )
    seen = [
        subprocess.run(
            [sys.executable, "-c", code.format(bench=str(BENCH), trace=trace)],
            stdout=subprocess.PIPE,
            text=True,
            check=True,
            timeout=120,
        ).stdout.split()[-1]
        for trace in (0, 1)
    ]
    assert seen == ["False", "True"]


def test_wrapped_name_that_is_gone_reads_zero():
    tracer = tracing.Tracer()
    tracer.install(extra=("_canonical_from_up_masks", "_no_such_function"))
    try:
        import finlat

        finlat.all_congruences(finlat.standard_lattice("chain", 3))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(top_item=None)
    assert metrics["congruences.con_calls"] == 1
    assert metrics["congruences.con_size"] == 4
    assert metrics["core.canonical_calls"] == 0
    assert metrics["enumeration.placements"] == 0


def test_speed_clock_scales_work_and_leaves_probes_out():
    clock = speed.SpeedClock()
    clock.start()
    begin = time.perf_counter()
    while time.perf_counter() - begin < 0.3:
        pass
    end = time.perf_counter()
    clock.stop()
    probes = list(zip(clock.starts, clock.ends))
    assert len(probes) >= 5
    inside = [(s, e) for s, e in probes if begin <= s and e <= end]
    work = end - begin - sum(e - s for s, e in inside)
    scales = [speed.REFERENCE_PROBE_S / (e - s) for s, e in probes]
    assert min(scales) * work <= clock.elapsed(begin, end) * (1 + 1e-9)
    assert clock.elapsed(begin, end) <= max(scales) * work * (1 + 1e-9)
    start, stop = inside[0]
    assert clock.elapsed(start, stop) == 0


def test_single_mix_is_seeded_and_large_enough():
    first, order = inputs.draw_single(5)
    assert (first, order) == inputs.draw_single(5)
    assert first != inputs.draw_single(6)[0]
    assert len(order) >= 100
    assert all(inputs.MIN_ELEMENTS <= p.size <= inputs.MAX_ELEMENTS for p in first)
    assert {p.congruences for p in first} >= {4, 32}


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1"],
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
