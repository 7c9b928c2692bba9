"""Outside-in span tracer for the graphbands layers.

The tracer wraps public functions from outside the package.  `spectrum` and
`cli` import functions by name, so each wrapper is installed on the module
that makes the call, not on the module that defines the function.  Spans and
counters stay in memory; the benchmark writes them out when it ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

from graphbands import cli, graphio, spectrum

ROOT_SPAN = "cli.main"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 for a root
    op: int


def _count_eigh(counts, args, result):
    values = result[0]
    batch, nu = values.shape
    counts["linalg.matrices"] += batch
    counts["linalg.work_nu3"] += batch * nu**3
    counts["linalg.nonfinite_rows"] += int((~np.isfinite(values)).any(axis=1).sum())


def _count_fibers(counts, args, result):
    counts["floquet.matrices"] += result.shape[0]


def _count_points(counts, args, result):
    counts["grid.points_made"] += result.shape[0]


# (owner, attribute, span name, counter); the span name's prefix is its layer.
PATCHES = (
    (spectrum, "eigh_stack", "linalg.eigh_stack", _count_eigh),
    (spectrum, "fiber_stack", "floquet.fiber_stack", _count_fibers),
    (spectrum, "classify", "graph.classify", None),
    (spectrum, "is_connected_periodic", "graph.is_connected_periodic", None),
    (spectrum.TorusGrid, "points", "grid.points", _count_points),
    (cli, "estimate_suite", "spectrum.estimate_suite", None),
    (cli, "stability_constants", "spectrum.stability_constants", None),
    (cli, "grid_eigenvalues", "spectrum.grid_eigenvalues", None),
    (cli, "parse_builtin", "lattices.parse_builtin", None),
    (graphio, "load_graph", "graphio.load_graph", None),
    (graphio, "dumps", "graphio.dumps", None),
)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Spans (name, start, end, parent, op) and counters of one traced pass."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.op = -1
        self._open: list[int] = []

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(None)
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = Span(name, start, end, parent, self.op)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    def traced_main(self, main):
        """`main` wrapped as the root span of one operation."""
        root = self.wrap(ROOT_SPAN, main)

        def call(argv):
            self.op += 1
            return root(argv)

        return call

    @contextlib.contextmanager
    def installed(self):
        """Patch every wrapper in place; restore the originals on exit."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in PATCHES]
        try:
            for (owner, attr, name, counter), (_, _, fn) in zip(PATCHES, originals):
                setattr(owner, attr, self.wrap(name, fn, counter))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    selfs = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            selfs[s.parent] -= s.end - s.start
    return selfs


def summarize(spans) -> tuple[dict, dict, dict]:
    """(total seconds per span name, calls per span name, self seconds per layer)."""
    total: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    layer_self: defaultdict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        total[span.name] += span.end - span.start
        calls[span.name] += 1
        layer_self[layer_of(span.name)] += own
    return dict(total), dict(calls), dict(layer_self)
