"""Spans around maxsat_qubo's public functions, recorded from outside the package.

A target names a module attribute ("formula.generate_balanced") or a class
method ("qubo.QuboMatrix.diag_coupling"). Patching replaces every binding of
the target object in every maxsat_qubo module, so a function that is imported
under several names (``solve`` is bound in ``harness``, ``cli`` via the
``solvers`` module, and lazily in ``pattern_search``) records a span whichever
name its caller used, and a later import move cannot silently lose spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pkgutil
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

PACKAGE = "maxsat_qubo"

# span name -> targets whose calls record a span of that name
TARGETS = {
    "formula.generate": ("formula.generate_balanced",),
    "formula.score": ("formula.count_satisfied", "formula.count_satisfied_many"),
    "formula.text": ("formula.parse_dimacs", "formula.write_dimacs"),
    "transform.assemble": ("transform.assemble",),
    "qubo.reverify": ("qubo.energy_many",),
    "qubo.dense_build": ("qubo.QuboMatrix.diag_coupling",),
    "qubo.text": ("qubo.write_qubo", "qubo.parse_qubo"),
    "qubo.prune": ("qubo.pruning_schedule",),
    "solvers.solve": ("solvers.solve",),
    "harness.baseline": ("solvers.random_baseline",),
    "harness.run": ("harness.run_experiment",),
    "harness.summarize": ("harness.summarize_comparison", "harness.summarize_pruning",
                          "harness.summarize_scaling"),
    "harness.emit": ("harness.emit",),
    "pattern_search.search": ("pattern_search.search_3x3",
                              "pattern_search.enumerate_combinations"),
    "pattern_search.select": ("pattern_search.select_best_combination",),
    "cli.main": ("cli.main",),
}

# spans whose results the correctness checks read; every span keeps its arguments
KEPT = frozenset({"transform.assemble", "qubo.prune", "solvers.solve", "harness.baseline",
                  "harness.emit"})


@dataclass
class Span:
    id: int
    name: str
    target: str
    parent: int | None
    start: float
    end: float = 0.0
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    result: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def arg(self, index: int, name: str):
        return self.args[index] if len(self.args) > index else self.kwargs[name]


def import_package() -> None:
    """Import every maxsat_qubo submodule so that all bindings can be scanned."""
    package = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"{PACKAGE}.{info.name}")


def _resolve(target: str):
    """(owner, attribute) pairs binding the target; a class method has one owner."""
    parts = target.split(".")
    module = sys.modules[f"{PACKAGE}.{parts[0]}"]
    if len(parts) == 3:
        return [(getattr(module, parts[1]), parts[2])]
    obj = getattr(module, parts[1])
    owners = []
    for name, mod in list(sys.modules.items()):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            owners.extend((mod, attr) for attr, value in vars(mod).items() if value is obj)
    return owners


class Recorder:
    """Collects spans, in start order, from the targets it patches."""

    def __init__(self, names):
        self.names = tuple(names)
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    def _wrap(self, name: str, fn):
        keep = name in KEPT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(next(self._ids), name, fn.__name__,
                        self._stack[-1] if self._stack else None, time.perf_counter(),
                        args=args, kwargs=kwargs)
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if keep:
                span.result = result
            return result

        return wrapper

    @contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block, then restore every binding."""
        saved = []
        try:
            for name in self.names:
                for target in TARGETS[name]:
                    owners = _resolve(target)
                    original = getattr(*owners[0])
                    wrapper = self._wrap(name, original)
                    for owner, attr in owners:
                        saved.append((owner, attr, original))
                        setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]


def _covered(spans, start: float, end: float) -> float:
    """Length of [start, end] that the spans' intervals cover."""
    covered = 0.0
    reach = start
    for span in sorted(spans, key=lambda s: s.start):
        lo, hi = max(span.start, reach), min(span.end, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return {span.id: span.duration - _covered(children.get(span.id, ()), span.start, span.end)
            for span in spans}


def coverage(spans: list[Span], start: float, end: float) -> float:
    """Share of [start, end] covered by top-level spans."""
    return _covered([s for s in spans if s.parent is None], start, end) / (end - start)


def write_spans(path: str, phases: dict[str, list[Span]]) -> None:
    """Write spans as JSON lines: phase, id, name, target, parent, start and end."""
    with open(path, "w", encoding="utf-8") as fh:
        for phase, spans in phases.items():
            for span in spans:
                fh.write(json.dumps({"phase": phase, "id": span.id, "name": span.name,
                                     "target": span.target, "parent": span.parent,
                                     "start": span.start, "end": span.end}) + "\n")
