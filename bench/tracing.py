"""Spans around finlat's public functions, recorded from outside the library.

``Tracer.install`` replaces every function named in ``finlat.__all__``,
plus ``_canonical_from_up_masks``, under every name a finlat module
binds it to, so calls between modules are recorded too.  A name that
no module binds any more is skipped, and the metrics that use it read
zero.  Spans stay in memory and are written out by ``write``.

A span is ``(name index, start ns, end ns, parent span index or -1,
item)``, where the item is the request the benchmark was serving (a
size, a lattice or a command).  A span's layer is the finlat module the
function is defined in; a layer's self time is its spans' durations
minus the durations of their child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import time
from pathlib import Path
from typing import Callable, Iterable

import finlat

LAYERS = ("enumeration", "core", "congruences", "ideals", "properties", "cli")
EXTRA_NAMES = ("_canonical_from_up_masks",)
SIZED = ("congruences.all_congruences",)  # the metrics sum len() of their results

# metric: spans timed from entry to exit, outermost call only
INCLUSIVE = {
    "core.canonical_s": ("core.canonical_form", "core._canonical_from_up_masks"),
    "core.rebuild_s": ("core.lattice_from_canonical",),
    "core.parse_s": ("core.parse_latt",),
    "core.validate_s": ("core.validate",),
    "core.quotient_s": ("core.quotient",),
    "congruences.con_s": ("congruences.all_congruences",),
    "congruences.principal_s": ("congruences.principal_congruence",),
    "congruences.balance_s": ("congruences.is_balanced_congruence",),
    "properties.dlattice_s": (
        "properties.is_d_lattice",
        "properties.is_d_lattice_definition",
        "properties.is_d_lattice_maximal_prime",
    ),
    "properties.seven_s": ("properties.seven_conditions",),
    "properties.distributive_s": ("properties.is_distributive",),
}
# metric: spans counted
CALLS = {
    "core.canonical_calls": ("core._canonical_from_up_masks",),
    "core.quotient_calls": ("core.quotient",),
    "congruences.con_calls": ("congruences.all_congruences",),
    "congruences.principal_calls": ("congruences.principal_congruence",),
    "congruences.balance_calls": ("congruences.is_balanced_congruence",),
}
PLACEMENT = "core._canonical_from_up_masks"


class Tracer:
    """Span recorder; set ``item`` before serving each request."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, object] | None] = []
        self.sized: dict[str, int] = {}
        self.item: object = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, extra: Iterable[str] = EXTRA_NAMES) -> None:
        modules = [finlat] + [
            importlib.import_module(f"finlat.{info.name}")
            for info in pkgutil.iter_modules(finlat.__path__)
        ]
        wrappers: dict[Callable, Callable] = {}
        for module in modules:
            for attr in [*finlat.__all__, *extra]:
                fn = getattr(module, attr, None)
                if not inspect.isfunction(fn):
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self.wrap(fn)
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrappers[fn])

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def wrap(self, fn: Callable, layer: str | None = None) -> Callable:
        """A wrapper recording one span per call (per step, for a generator)."""
        name = f"{layer or fn.__module__.rpartition('.')[2]}.{fn.__name__}"
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        sized = name in SIZED
        if sized:
            self.sized.setdefault(name, 0)

        def call(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.item)
            if sized:
                self.sized[name] += len(result)
            return result

        def steps(*args, **kwargs):
            generator = fn(*args, **kwargs)
            while True:
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = clock()
                try:
                    value = next(generator)
                except StopIteration:
                    return
                finally:
                    end = clock()
                    stack.pop()
                    spans[index] = (name_id, start, end, parent, self.item)
                yield value

        wrapper = steps if inspect.isgeneratorfunction(fn) else call
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            json.dump({"names": self.names, "spans": self.spans}, out)

    def metrics(self, top_item: object) -> dict[str, float]:
        """Per-layer metrics; placements count the calls made while serving ``top_item``.

        Call only when no span is open.
        """
        names, spans = self.names, self.spans
        layer_of = [name.partition(".")[0] for name in names]
        child_ns = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for (name_id, start, end, _, _), children in zip(spans, child_ns):
            key = f"{layer_of[name_id]}.self_s"
            if key in out:
                out[key] += (end - start - children) / 1e9
        for metric, group in INCLUSIVE.items():
            ids = {names.index(n) for n in group if n in names}
            out[metric] = sum(
                end - start
                for name_id, start, end, parent, _ in spans
                if name_id in ids and not self._inside(parent, ids)
            ) / 1e9
        for metric, group in CALLS.items():
            ids = {names.index(n) for n in group if n in names}
            out[metric] = sum(1 for span in spans if span[0] in ids)
        out["ideals.calls"] = sum(1 for span in spans if layer_of[span[0]] == "ideals")
        out["congruences.con_size"] = sum(self.sized.values())
        out["enumeration.placements"] = sum(
            1
            for name_id, _, _, parent, item in spans
            if names[name_id] == PLACEMENT
            and item == top_item
            and parent >= 0
            and layer_of[spans[parent][0]] == "enumeration"
        )
        return out

    def _inside(self, index: int, ids: set[int]) -> bool:
        while index >= 0:
            name_id, _, _, parent, _ = self.spans[index]
            if name_id in ids:
                return True
            index = parent
        return False
