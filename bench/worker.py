"""One workload in a fresh interpreter; prints one JSON line on stdout.

run.py starts this script for every set-up sample and every timed
process.  It can be run by hand to debug a workload:

    python3 bench/worker.py verify --seed 1 --seconds 0

Set-up runs from ``--spawned`` (the parent's perf_counter reading when it
started this process) until the workload's inputs are ready.  The timed
phase then serves the workload's items in passes, one item after
another, until ``--seconds`` have passed (at least one pass).  Times are
reported in reference seconds (see speed.py), with the raw wall times
beside them.  Outputs are returned unchecked; run.py checks them.  With
``--trace 1`` the tracer is installed before set-up, and the spans are
written to ``--spans`` when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import finlat  # noqa: E402  (the import is part of set-up)
from finlat import cli  # noqa: E402

import inputs  # noqa: E402
from speed import SpeedClock  # noqa: E402

WORKLOADS = ("enumerate", "verify", "single")
MAX_SIZE = {"enumerate": 10, "verify": 9}


def _enumerate_sizes(sizes, tracer, items=None):
    """Lattices of each size in order.

    With ``items``, appends for each lattice the perf_counter readings of
    the call to ``enumerate_lattices(n)`` and of the lattice's arrival:
    how long a caller asking for size n waits for it.
    """
    for n in sizes:
        if tracer is not None:
            tracer.item = f"size {n}"
        requested = time.perf_counter()
        for lattice in finlat.enumerate_lattices(n):
            if items is not None:
                items.append((requested, time.perf_counter()))
            yield n, lattice


class Runner:
    """Set-up in the constructor, one timed pass per ``run_pass`` call.

    ``run_pass`` returns the outputs to check and each item's (start,
    end) perf_counter readings.  ``classes`` is the number of classes
    enumerated at the largest size, ``top_item`` the tracer item under
    which they were enumerated, and ``output_bytes`` the CLI output of
    the last pass.
    """

    classes = 0
    top_item = None
    output_bytes = 0


class Enumerate(Runner):
    """Every class of size 1..max_size, from a cold process (one pass per process)."""

    def __init__(self, seed, max_size, tracer, workdir):
        self.max_size, self.tracer = max_size, tracer
        self.top_item = f"size {max_size}"

    def run_pass(self):
        items = []
        sizes = range(1, self.max_size + 1)
        counts = Counter(n for n, _ in _enumerate_sizes(sizes, self.tracer, items))
        self.classes = counts[self.max_size]
        return [[n, counts[n]] for n in sizes], items


class Verify(Runner):
    """verify_theorem on every lattice of size 1..max_size, in seeded order."""

    def __init__(self, seed, max_size, tracer, workdir):
        self.tracer = tracer
        self.lattices = list(_enumerate_sizes(range(1, max_size + 1), tracer))
        random.Random(seed).shuffle(self.lattices)
        self.top_item = f"size {max_size}"
        self.classes = sum(1 for n, _ in self.lattices if n == max_size)

    def run_pass(self):
        outputs, items = [], []
        for index, (n, lattice) in enumerate(self.lattices):
            if self.tracer is not None:
                self.tracer.item = f"lattice {index}"
            start = time.perf_counter()
            try:
                verdict = finlat.verify_theorem(lattice)
                row = [n, verdict.scope, verdict.passed, verdict.balanced, verdict.complemented]
            except Exception:  # an item that raises is reported as failed; the run goes on
                traceback.print_exc()
                row = [n, None, False, False, False]
            items.append((start, time.perf_counter()))
            outputs.append(row)
        return outputs, items


class Single(Runner):
    """The seeded mix of product lattices, each run through four CLI commands."""

    def __init__(self, seed, max_size, tracer, workdir):
        self.tracer = tracer
        products, self.order = inputs.draw_single(seed)
        workdir.mkdir(parents=True)
        self.paths = []
        for index, product in enumerate(products):
            path = workdir / f"product_{index}.latt"
            path.write_text(product.latt(), encoding="ascii")
            self.paths.append(str(path))
        self.run_cli = cli.run if tracer is None else tracer.wrap(cli.run, "cli")

    def run_pass(self):
        outputs, items = [], []
        for position, (index, command) in enumerate(self.order):
            argv = [command, self.paths[index]]
            if command == "ideals":
                argv += ["--format", "json"]
            if self.tracer is not None:
                self.tracer.item = f"command {position}"
            captured = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(captured):
                    code = self.run_cli(argv)
            except Exception:  # an item that raises is reported as failed; the run goes on
                traceback.print_exc()
                code = None
            items.append((start, time.perf_counter()))
            outputs.append([index, command, code, captured.getvalue()])
        self.output_bytes = sum(len(row[3].encode()) for row in outputs)
        return outputs, items


def main(argv=None):
    clock = SpeedClock()
    clock.start()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned", type=float, default=time.perf_counter())
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    parser.add_argument("--max-size", type=int, help="largest lattice size (tests use small ones)")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workload = {"enumerate": Enumerate, "verify": Verify, "single": Single}[args.workload]
    workdir = ROOT / ".bench_out" / f"work-{os.getpid()}"
    passes = []
    try:
        runner = workload(
            args.seed, args.max_size or MAX_SIZE.get(args.workload), tracer, workdir
        )
        ready = time.perf_counter()
        while not args.setup_only:
            begin = time.perf_counter()
            outputs, items = runner.run_pass()
            passes.append((begin, time.perf_counter(), outputs, items))
            if passes[-1][1] - ready >= args.seconds:
                break
    finally:
        clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "setup_s": clock.elapsed(args.spawned, ready),
        "setup_raw_s": ready - args.spawned,
        "passes": [
            {
                "wall_s": clock.elapsed(begin, end),
                "wall_raw_s": end - begin,
                "latencies_s": [clock.elapsed(start, stop) for start, stop in items],
                "outputs": outputs,
            }
            for begin, end, outputs, items in passes
        ],
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics(runner.top_item)
        placements = layers["enumeration.placements"]
        layers["enumeration.classes"] = runner.classes
        layers["enumeration.class_ratio"] = runner.classes / placements if placements else 0.0
        layers["cli.output_bytes"] = runner.output_bytes
        result["layers"] = layers
        if args.spans is not None:
            tracer.write(args.spans)
    return result


if __name__ == "__main__":
    print(json.dumps(main()))
