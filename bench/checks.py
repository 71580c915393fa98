"""Known answers, and the checks that compare workload outputs with them.

None of the answers is computed by the run being checked: class counts
are OEIS A006966, the census rows were recorded from ``finlat census 9``
when the benchmark was added (the size-9 row, 230/24/24, is also the
published baseline), and the ``single`` answers follow from closed forms
for products of catalog lattices.

Each check function returns ``(attempted, failures)``: the number of
outputs checked and one message per output that did not match.  A check
never raises on a wrong or malformed output; it reports it.
"""

from __future__ import annotations

import json
from typing import Sequence

from inputs import Product

# OEIS A006966: bounded lattices on n unlabelled elements.
A006966 = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222, 9: 1078, 10: 5994}

# size: (d-lattices, balanced d-lattices, complemented d-lattices)
CENSUS = {
    1: (1, 1, 1),
    2: (1, 1, 1),
    3: (1, 0, 0),
    4: (2, 1, 1),
    5: (4, 1, 1),
    6: (9, 2, 2),
    7: (23, 3, 3),
    8: (69, 9, 9),
    9: (230, 24, 24),
}

Failures = list[str]


def check_enumerate(
    counts: Sequence[Sequence[int]], expected: dict[int, int] = A006966
) -> tuple[int, Failures]:
    """One check per size: the number of classes enumerated."""
    failures = [
        f"size {n}: {count} classes, expected {expected.get(n)}"
        for n, count in counts
        if count != expected.get(n)
    ]
    return len(counts), failures


def check_verify(
    verdicts: Sequence[Sequence[object]],
    classes: dict[int, int] = A006966,
    census: dict[int, tuple[int, int, int]] = CENSUS,
) -> tuple[int, Failures]:
    """One check per verdict, plus one per size on the census row.

    A verdict is ``[size, scope, passed, balanced, complemented]``, or
    ``[size, None, False, False, False]`` when verify_theorem raised.
    """
    failures = []
    rows: dict[int, list[int]] = {}
    for index, (n, scope, passed, balanced, complemented) in enumerate(verdicts):
        if not passed:
            failures.append(f"lattice {index} (size {n}): verdict {scope!r} did not pass")
        row = rows.setdefault(n, [0, 0, 0, 0])
        row[0] += 1
        if scope == "d-lattice":
            row[1] += 1
            row[2] += bool(balanced)
            row[3] += bool(complemented)
    for n, (total, d, bal, comp) in sorted(rows.items()):
        if total != classes.get(n) or (d, bal, comp) != census.get(n) or bal != comp:
            failures.append(
                f"size {n}: {total} lattices, d/balanced/complemented {d}/{bal}/{comp}, "
                f"expected {classes.get(n)} lattices and {census.get(n)}"
            )
    return len(verdicts) + len(rows), failures


def _text_fields(text: str) -> dict[str, object]:
    fields = {}
    for line in text.splitlines():
        key, _, raw = line.partition(": ")
        fields[key] = json.loads(raw)
    return fields


def _single_mismatch(product: Product, command: str, code: int, text: str) -> str | None:
    """Why one command's output is wrong, or None when it matches the closed forms."""
    n, cons = product.size, product.congruences
    if code != 0:
        return f"exit code {code}"
    if command == "check":
        fields = _text_fields(text)
        got = (
            fields["size"],
            fields["counts.congruences"],
            fields["counts.ideals"],
            fields["counts.filters"],
            fields["is_distributive"],
        )
        want = (n, cons, n, n, product.distributive)
        return None if got == want else f"size/congruences/ideals/filters/distributive {got}, expected {want}"
    if command == "theorem":
        return None if _text_fields(text)["passed"] is True else "verdict did not pass"
    if command == "congruences":
        lines = text.splitlines()
        count = _text_fields(lines[0])["count"]
        if count == cons and len(lines) == cons + 1:
            return None
        return f"count {count} with {len(lines) - 1} listed, expected {cons}"
    payload = json.loads(text)
    got_sets = (len(payload["ideals"]), len(payload["filters"]))
    return None if got_sets == (n, n) else f"ideals/filters {got_sets}, expected {(n, n)}"


def check_single(
    products: Sequence[Product], outputs: Sequence[Sequence[object]]
) -> tuple[int, Failures]:
    """One check per command; an output is ``[product index, command, exit code, stdout]``."""
    failures = []
    for index, command, code, text in outputs:
        product = products[index]
        try:
            why = _single_mismatch(product, command, code, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            why = f"unreadable output ({type(exc).__name__}: {exc})"
        if why is not None:
            failures.append(f"{command} on {'x'.join(product.factors)}: {why}")
    return len(outputs), failures
