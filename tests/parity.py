"""Output parity hashes: run on two checkouts and compare the printed lines.

    PYTHONPATH=src python tests/parity.py

Prints four SHA-256 hashes, each over a canonical text rendering:

- ``all_congruences``: the sorted Con(L) labelings of every lattice of
  size <= 9, in enumeration order;
- ``reports``: ``classify(L).to_dict()`` and ``verify_theorem(L).to_dict()``
  on every lattice of size <= 8 plus five named products;
- ``cli``: stdout, stderr and exit code of ``check``, ``theorem``,
  ``congruences`` and ``ideals``, in text and json, on those lattices and
  on the 28 products of the benchmark's ``single`` workload (seed 1, read
  through ``bench/inputs.py``);
- ``batch``: the exit code and output of ``enumerate --size 8 --out DIR``
  (with ``DIR`` masked) and the name and bytes of every file it writes,
  the rows of ``census --max-size 8 --format json`` without ``elapsed``,
  and stdout and exit code of ``search --max-size 8`` for each of the
  four predicates, in text and json.

A change that keeps every result the same prints the same four lines.
``tests/test_parity.py`` compares them with the committed values.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from functools import reduce
from pathlib import Path

import finlat as fl
from finlat import cli

import support

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import inputs  # noqa: E402

COMMANDS = ("check", "theorem", "congruences", "ideals")
PRODUCTS = (
    ("n5", "m3"),
    ("chain3", "n5"),
    ("chain2", "chain3", "chain3"),
    ("m3", "m3"),
    ("boolean2", "n5"),
)


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _congruence_lines():
    for n in range(1, 10):
        for lattice in fl.enumerate_lattices(n):
            yield repr([c.partition.block_of for c in fl.all_congruences(lattice)])


def _lattices() -> list[fl.FiniteLattice]:
    out = [lat for n in range(1, 9) for lat in fl.enumerate_lattices(n)]
    catalog = support.catalog()
    out.extend(reduce(fl.product, (catalog[name] for name in names)) for names in PRODUCTS)
    return out


def _report_lines(lattices):
    for lattice in lattices:
        yield json.dumps(fl.classify(lattice).to_dict(), sort_keys=True)
        yield json.dumps(fl.verify_theorem(lattice).to_dict(), sort_keys=True)


def _run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_lines(texts, directory: Path):
    path = directory / "input.latt"
    for text in texts:
        path.write_text(text, encoding="ascii")
        for command in COMMANDS:
            for fmt in ("text", "json"):
                yield json.dumps([command, fmt, *_run([command, str(path), "--format", fmt])])


def _batch_lines(directory: Path):
    out = directory / "lattices"
    code, stdout, stderr = _run(["enumerate", "--size", "8", "--out", str(out)])
    yield json.dumps([code, stdout.replace(str(out), "DIR"), stderr])
    for path in sorted(out.iterdir()):
        yield json.dumps([path.name, path.read_text(encoding="ascii")])
    code, stdout, stderr = _run(["census", "--max-size", "8", "--format", "json"])
    rows = [{k: v for k, v in row.items() if k != "elapsed"} for row in json.loads(stdout)["rows"]]
    yield json.dumps([code, rows, stderr], sort_keys=True)
    for predicate in sorted(fl.SEARCH_PREDICATES):
        for fmt in ("text", "json"):
            argv = ["search", "--predicate", predicate, "--max-size", "8", "--format", fmt]
            code, stdout, _ = _run(argv)
            yield json.dumps([predicate, fmt, code, stdout])


def digests() -> dict[str, str]:
    """The four hashes by name, in the order they are printed."""
    lattices = _lattices()
    products, _ = inputs.draw_single(1)
    texts = [fl.format_latt(lat) for lat in lattices] + [p.latt() for p in products]
    out = {
        "all_congruences": _digest(_congruence_lines()),
        "reports": _digest(_report_lines(lattices)),
    }
    with tempfile.TemporaryDirectory() as directory:
        out["cli"] = _digest(_cli_lines(texts, Path(directory)))
        out["batch"] = _digest(_batch_lines(Path(directory)))
    return out


def main() -> None:
    for name, digest in digests().items():
        print(name, digest)


if __name__ == "__main__":
    main()
