"""finlat benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload verify --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Every set-up and every timed phase runs in a fresh ``python3`` process
(bench/worker.py), one process at a time.  Inside it a single caller
serves one item after another, each only after the previous one has
finished (a closed loop with one client).

With ``--trace 0`` the run reports the end-to-end metrics named in
BENCHMARK.json.  Set-up is sampled SETUP_SAMPLES times and reported as
the median; the timed phase runs whole passes over the workload until
``--seconds`` have passed, and ``wall_s`` is the median pass.  Times are
in reference seconds, corrected for the machine's changing speed (see
speed.py); the raw wall times go into the record.  With ``--trace 1`` it
makes one untraced and one traced pass and reports the per-layer metrics
of the traced one, plus the ratio of the two walls.

Summary lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The full
record (seed, revision, Python, nproc, the drawn inputs and every
failure) is written to .bench_out/<workload>-seed<seed>-trace<t>.json.
Exit status is 0 when a result was printed, even one with failures, and
non-zero when no result could be produced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"
WORKLOADS = ("enumerate", "verify", "single")
SETUP_SAMPLES = 3
# The tail percentile is fixed per workload so that it means the same in every run:
# the highest one with at least ten samples beyond it in a single pass.
TAIL_PERCENTILE = {"enumerate": 99, "verify": 99, "single": 90}
DEADLINE_S = 170.0

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import inputs  # noqa: E402


class BenchError(Exception):
    """The run could not produce a result."""


def _spawn(workload: str, seed: int, extra: list[str], deadline: float) -> dict:
    """Run one worker process and return its payload."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.perf_counter()
    command = [
        sys.executable, str(WORKER), workload, "--seed", str(seed), "--spawned", repr(spawned), *extra
    ]
    try:
        proc = subprocess.run(
            command,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=max(deadline - spawned, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran past the deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker exited with status {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except ValueError:
        raise BenchError(f"{workload} worker printed no result") from None


def _check(workload: str, seed: int, passes: list[dict]) -> tuple[int, list[str]]:
    attempted, failures = 0, []
    for one in passes:
        if workload == "enumerate":
            n, bad = checks.check_enumerate(one["outputs"])
        elif workload == "verify":
            n, bad = checks.check_verify(one["outputs"])
        else:
            n, bad = checks.check_single(inputs.draw_single(seed)[0], one["outputs"])
        attempted += n
        failures += bad
    return attempted, failures


def _percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100)[p - 1]


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict, list]:
    """End-to-end metrics, the details behind them, and the passes to check."""
    workers = [_spawn(workload, seed, ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES - 1)]
    passes: list[dict] = []
    while True:
        # A second enumerate pass in the same process would find finlat's class
        # cache warm, so enumerate gets one process per pass.
        per_process = 0 if workload == "enumerate" else seconds
        workers.append(_spawn(workload, seed, ["--seconds", str(per_process)], deadline))
        passes += workers[-1]["passes"]
        if workload != "enumerate" or sum(p["wall_raw_s"] for p in passes) >= seconds:
            break
    latencies = [x for p in passes for x in p["latencies_s"]]
    tail = TAIL_PERCENTILE[workload]
    metrics = {
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": max(w["rss_kb"] for w in workers if w["passes"]) / 1024,
        "item_p50_ms": _percentile(latencies, 50) * 1e3,
        "item_tail_ms": _percentile(latencies, tail) * 1e3,
    }
    details = {
        "setup_samples_s": [w["setup_s"] for w in workers],
        "setup_samples_raw_s": [w["setup_raw_s"] for w in workers],
        "pass_walls_s": [p["wall_s"] for p in passes],
        "pass_walls_raw_s": [p["wall_raw_s"] for p in passes],
        "items": len(latencies),
        "tail_percentile": tail,
        "items_beyond_tail": sum(1 for x in latencies if x * 1e3 > metrics["item_tail_ms"]),
    }
    return metrics, details, passes


def trace(workload: str, seed: int, deadline: float) -> tuple[dict, dict, list]:
    """Per-layer metrics from one traced pass against one untraced pass, as for measure."""
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    plain = _spawn(workload, seed, ["--seconds", "0"], deadline)["passes"][0]
    traced = _spawn(
        workload, seed, ["--seconds", "0", "--trace", "1", "--spans", str(spans)], deadline
    )
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = traced["passes"][0]["wall_s"] / plain["wall_s"]
    details = {
        "spans_file": str(spans.relative_to(ROOT)),
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["passes"][0]["wall_s"],
        "untraced_wall_raw_s": plain["wall_raw_s"],
        "traced_wall_raw_s": traced["passes"][0]["wall_raw_s"],
    }
    return metrics, details, [plain] + traced["passes"]


def _git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_workload(workload: str, seed: int, seconds: float, traced: bool, spec: dict) -> dict:
    """Run, check, write the record and print the summary; returns the result object."""
    deadline = time.perf_counter() + DEADLINE_S
    if traced:
        metrics, details, passes = trace(workload, seed, deadline)
        wanted = spec["per_layer"]
    else:
        metrics, details, passes = measure(workload, seed, seconds, deadline)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    attempted, failures = _check(workload, seed, passes)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "git_revision": _git_revision(),
        "source_sha256": _source_sha256(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "failed_ratio": len(failures) / attempted,
        **details,
        "result": result,
        "failures": failures,
    }
    if workload == "single":
        products, order = inputs.draw_single(seed)
        record["inputs"] = {
            "products": [p.to_dict() for p in products],
            "order": [list(step) for step in order],
        }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {workload}, seed {seed}, trace {int(traced)}")
    for name, entry in result["metrics"].items():
        print(f"  {name}: {entry['value']:.6g} {entry['unit']}")
    print(f"  failed_ratio: {record['failed_ratio']:.6g} ({len(failures)} of {attempted} checks)")
    if not traced:
        print(
            f"  {details['items']} items; p{details['tail_percentile']} has "
            f"{details['items_beyond_tail']} beyond it; {len(details['pass_walls_s'])} pass(es)"
        )
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    print(f"  record: {path.relative_to(ROOT)}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "finlat" / "__init__.py").is_file():
        print(f"error: no finlat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace), spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{workload}.{name}": entry
                for workload, r in results.items()
                for name, entry in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
