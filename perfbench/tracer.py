"""Span tracer for the benchmark's traced run.

The tracer wraps boxkit's public functions from outside the package.
boxkit modules import each other's functions by name (``harness`` holds
its own reference to ``families.sample``, for example), so a wrapper is
installed at every module attribute that refers to the original
function, not only at its home module.  A function's own module global
is replaced too, so calls inside one module are traced as well.

Each traced call records a span: its name, its parent span, its start
and end, and its self time, which is the duration minus the time its
traced children covered.  Spans stay in memory; ``summary`` folds them
into per-name totals.  ``rng.next_u64`` is called thousands of times per
graph, so it only gets a call counter.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Modules whose public functions are spans.  The thin modules (bitset,
# graphs, reports, edgelist, cli) are left out: their time counts toward
# the self time of whichever traced function called them.
LAYER_MODULES = (
    "intervals",
    "isoperimetry",
    "supergraph_bounds",
    "expansion_bounds",
    "spectral",
    "families",
    "rng",
    "harness",
)
# Methods that only get a call counter (no span): name, class, method.
COUNTED_METHODS = (("rng", "Xoshiro256StarStar", "next_u64"),)


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_ns")

    def __init__(self, name: str, parent: "Span | None", start: int) -> None:
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.child_ns = 0

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[Span] = []
        # (owner, attribute, original, wrapper) for every replaced site
        self._sites: list[tuple[object, str, object, object]] = []

    def wrap(self, name: str, fn):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, parent, clock())
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_ns += span.duration_ns
                spans.append(span)

        return traced

    def count(self, name: str, method):
        """Count calls of a method that takes no arguments."""
        counts = self.counts

        @functools.wraps(method)
        def counted(obj):
            counts[name] += 1
            return method(obj)

        return counted

    def install(self) -> None:
        """Wrap every public function of the layer modules at every
        import site in the loaded boxkit modules, and switch the wrappers
        on."""
        replacements = {}
        for short in LAYER_MODULES:
            module = sys.modules[f"boxkit.{short}"]
            for attr, value in vars(module).items():
                if (attr.startswith("_") or isinstance(value, type)
                        or not callable(value)
                        or getattr(value, "__module__", None) != module.__name__):
                    continue
                replacements[id(value)] = (value, self.wrap(f"{short}.{attr}", value))
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.partition(".")[0] != "boxkit":
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._sites.append((module, attr, value, hit[1]))
        for short, cls_name, method in COUNTED_METHODS:
            cls = getattr(sys.modules[f"boxkit.{short}"], cls_name)
            original = getattr(cls, method)
            self._sites.append((cls, method, original,
                                self.count(f"{short}.{method}", original)))
        self.enable(True)

    def enable(self, on: bool) -> None:
        """Put the wrappers in place, or the original functions back."""
        for owner, attr, original, wrapper in self._sites:
            setattr(owner, attr, wrapper if on else original)

    def mark(self) -> tuple[int, dict[str, int]]:
        """A point to summarise from: spans and counts recorded after it."""
        return len(self.spans), dict(self.counts)

    def summary(self, since: tuple[int, dict[str, int]],
                until: tuple[int, dict[str, int]] | None = None) -> dict:
        """Per-name calls, inclusive ns and self ns between two marks.

        A recursive call would be counted twice in the inclusive time;
        no traced boxkit function recurses through a traced name.
        """
        first, base_counts = since
        last, end_counts = until if until is not None else self.mark()
        out: dict[str, dict[str, int]] = {}
        for span in self.spans[first:last]:
            entry = out.setdefault(span.name, {"calls": 0, "ns": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["ns"] += span.duration_ns
            entry["self_ns"] += span.self_ns
        for name, total in end_counts.items():
            out.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
            out[name]["calls"] += total - base_counts.get(name, 0)
        return out

    def first(self, name: str) -> Span | None:
        for span in self.spans:
            if span.name == name:
                return span
        return None
