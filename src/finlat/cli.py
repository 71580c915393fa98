"""Command-line front end.

Subcommands: check, congruences, ideals, theorem (single LATT file
each), enumerate, search, census (size-bounded batch work).  Every
command takes --format text|json; text output is flat "key: value"
lines carrying the same fields as the JSON, so the two never diverge.

Exit codes: 0 success (including a passing verdict and an empty
search), 1 theorem-verdict failure or counterexample found, 2 invalid
input of any kind.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path
from typing import Sequence

from .congruences import all_congruences
from .core import FiniteLattice, LatticeError, ParseError, format_latt, parse_latt
from .enumeration import (
    SEARCH_PREDICATES,
    _canonical_forms,
    _require_size,
    census,
    search_counterexample,
    write_latt_files,
)
from .ideals import _maximal_and_prime, enumerate_filters, enumerate_ideals
from .properties import classify, verify_theorem


def _flat_lines(value: object, prefix: str = "") -> list[str]:
    """Depth-first "dotted.key: json-scalar" rendering of a report dict."""
    if isinstance(value, dict):
        lines: list[str] = []
        for key in sorted(value):
            child = f"{prefix}.{key}" if prefix else str(key)
            lines.extend(_flat_lines(value[key], child))
        return lines
    return [f"{prefix}: {json.dumps(value, sort_keys=True)}"]


def _indented_json(value: object, margin: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, built from scalar dumps.

    With ``indent`` set the standard library runs its pure-Python
    encoder, whose nested closures leave cyclic garbage behind on every
    call; a scalar dump runs the C encoder and leaves none.  Keys are
    strings, as in every payload here.
    """
    inner = margin + "  "
    if isinstance(value, dict) and value:
        items = [
            f"{inner}{json.dumps(key)}: {_indented_json(value[key], inner)}" for key in sorted(value)
        ]
        brackets = "{}"
    elif isinstance(value, (list, tuple)) and value:
        items = [inner + _indented_json(item, inner) for item in value]
        brackets = "[]"
    else:
        return json.dumps(value)
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n{margin}{brackets[1]}"


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(_indented_json(payload))
    else:
        print("\n".join(_flat_lines(payload)))


def _load(path: str) -> FiniteLattice:
    data = Path(path).read_bytes()
    return parse_latt(data)


def _cmd_check(args: argparse.Namespace) -> int:
    report = classify(_load(args.file))
    _emit(report.to_dict(), args.format)
    return 0


def _cmd_congruences(args: argparse.Namespace) -> int:
    lattice = _load(args.file)
    congs = [str(c) for c in all_congruences(lattice)]
    if args.format == "json":
        _emit({"congruences": congs, "count": len(congs)}, "json")
    else:
        print(f"count: {len(congs)}")
        for c in congs:
            print(c)
    return 0


def _cmd_ideals(args: argparse.Namespace) -> int:
    lattice = _load(args.file)
    sides = zip(
        ("ideal", "filter"),
        (enumerate_ideals, enumerate_filters),
        (map(set, pair) for pair in _maximal_and_prime(lattice)),
    )
    rows = {
        side: [
            {"set": str(s), "prime": s in primes, "maximal": s in maximals}
            for s in sets(lattice)
        ]
        for side, sets, (maximals, primes) in sides
    }
    if args.format == "json":
        _emit({"filters": rows["filter"], "ideals": rows["ideal"]}, "json")
    else:
        for side, side_rows in rows.items():
            for row in side_rows:
                print(f"{side} {row['set']}: prime={json.dumps(row['prime'])} "
                      f"maximal={json.dumps(row['maximal'])}")
    return 0


def _cmd_theorem(args: argparse.Namespace) -> int:
    verdict = verify_theorem(_load(args.file))
    _emit(verdict.to_dict(), args.format)
    return 0 if verdict.passed else 1


def _cmd_enumerate(args: argparse.Namespace) -> int:
    payload: dict[str, object] = {"size": args.size}
    if args.out is None:
        _require_size(args.size)
        payload["count"] = len(_canonical_forms(args.size))
    else:
        written = write_latt_files(args.size, args.out)
        payload["count"] = payload["files_written"] = len(written)
        payload["out"] = str(Path(args.out))
    _emit(payload, args.format)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    witnesses = search_counterexample(args.predicate, args.max_size)
    payload = {
        "max_size": args.max_size,
        "predicate": args.predicate,
        "witness_count": len(witnesses),
        "witnesses": [
            {"lattice": format_latt(w.lattice), "report": w.report.to_dict()}
            for w in witnesses
        ],
    }
    _emit(payload, args.format)
    return 1 if witnesses else 0


def _cmd_census(args: argparse.Namespace) -> int:
    rows = census(args.max_size)
    if args.format == "json":
        _emit({"rows": [r.to_dict() for r in rows]}, "json")
    else:
        print("size lattices d_lattices balanced_d complemented_d elapsed")
        for r in rows:
            print(
                f"{r.size} {r.lattice_count} {r.d_lattice_count} "
                f"{r.balanced_count} {r.complemented_count} {r.elapsed:.3f}"
            )
    return 0


# the subcommands that read one LATT file: (name, help, handler)
_FILE_COMMANDS = (
    ("check", "classify one lattice from a LATT file", _cmd_check),
    ("congruences", "list the congruence lattice", _cmd_congruences),
    ("ideals", "list ideals and filters with prime/maximal flags", _cmd_ideals),
    ("theorem", "verify the seven-way equivalence on one lattice", _cmd_theorem),
)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by ``run``."""
    parser = argparse.ArgumentParser(
        prog="finlat",
        description="Decision procedures and exhaustive verification for finite bounded lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    for name, text, handler in _FILE_COMMANDS:
        p = sub.add_parser(name, help=text)
        p.add_argument("file")
        add_format(p)
        p.set_defaults(fn=handler)

    p = sub.add_parser("enumerate", help="count (and optionally write) all lattices of one size")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--out", default=None, help="directory for lat_<n>_<index>.latt files")
    add_format(p)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("search", help="scan all lattices up to a size for a counterexample")
    p.add_argument("--predicate", required=True, choices=sorted(SEARCH_PREDICATES))
    p.add_argument("--max-size", type=int, required=True)
    add_format(p)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("census", help="per-size counts up to a bound")
    p.add_argument("--max-size", type=int, required=True)
    add_format(p)
    p.set_defaults(fn=_cmd_census)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, dispatch, and map errors to exit codes."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    source = getattr(args, "file", None)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {source}:{exc.line}: {exc}", file=sys.stderr)
        return 2
    except (LatticeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
