"""Tests of the benchmark itself: oracle, input generator, tracer, statistics.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from graphbands import cli, graphio  # noqa: E402
from graphbands.lattices import parse_builtin  # noqa: E402


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _doc(builtin: str) -> dict:
    return graphio.graph_to_document(parse_builtin(builtin))


@pytest.fixture(scope="module")
def hexagonal_report():
    return _stdout(["analyze", "--builtin", "hexagonal", "--q", "1,-1", "--grid", "12"])


def _with_potentials(doc: dict, q) -> dict:
    doc = json.loads(json.dumps(doc))
    for vertex, value in zip(doc["vertices"], q):
        vertex["q"] = value
    return doc


def test_oracle_accepts_true_analyze_report(hexagonal_report):
    graph = _with_potentials(_doc("hexagonal"), (1.0, -1.0))
    assert oracle.check_analyze(graph, 12, hexagonal_report) is None


@pytest.mark.parametrize("key", ["low", "high"])
def test_oracle_flags_band_edge_nudged_by_1e6(hexagonal_report, key):
    graph = _with_potentials(_doc("hexagonal"), (1.0, -1.0))
    doc = json.loads(hexagonal_report)
    doc["bands"][1][key] += 1e-6
    assert oracle.check_analyze(graph, 12, graphio.dumps(doc)) is not None


def test_oracle_flags_nan_in_report(hexagonal_report):
    graph = _with_potentials(_doc("hexagonal"), (1.0, -1.0))
    doc = json.loads(hexagonal_report)
    doc["spectrum_measure"] = math.nan
    assert oracle.check_analyze(graph, 12, json.dumps(doc)) is not None
    doc = json.loads(hexagonal_report)
    doc["bands"][0]["low"] = math.nan
    assert oracle.check_analyze(graph, 12, json.dumps(doc)) is not None


def test_oracle_flags_nudged_and_nan_dispersion_rows():
    graph = _doc("hexagonal")
    text = _stdout(["dispersion", "--builtin", "hexagonal", "--grid", "4"])
    rng = np.random.default_rng(0)
    assert oracle.check_dispersion(graph, 4, text, rng) is None
    lines = text.split("\n")
    cells = lines[5].split("\t")
    cells[-1] = graphio.format_float(float(cells[-1]) + 1e-6)
    nudged = "\n".join(lines[:5] + ["\t".join(cells)] + lines[6:])
    assert oracle.check_dispersion(graph, 4, nudged, rng) is not None
    cells[-1] = "nan"
    with_nan = "\n".join(lines[:5] + ["\t".join(cells)] + lines[6:])
    assert oracle.check_dispersion(graph, 4, with_nan, rng) is not None


def test_oracle_checks_compare_constants():
    text = _stdout(["compare", "star(2,3)", "bipartite_chain(2,3)", "--grid", "12"])
    graphs = (_doc("star(2,3)"), _doc("bipartite_chain(2,3)"))
    assert oracle.check_compare(*graphs, text) is None
    doc = json.loads(text)
    doc["params"]["c_total"] += 1e-6
    assert oracle.check_compare(*graphs, graphio.dumps(doc)) is not None


def test_oracle_flags_nonzero_exit():
    op = workloads.Operation("x", ("analyze",), "analyze", (_doc("hexagonal"),), 12)
    assert oracle.check(op, 1, "", np.random.default_rng(0)) == "exit code 1"


def _generated(workload, seed, work_dir):
    ops = workloads.make_operations(workload, seed, work_dir)
    files = {p.name: p.read_bytes() for p in sorted(work_dir.iterdir())}
    argv = [tuple(a.replace(str(work_dir), "<work>") for a in op.argv) for op in ops]
    return argv, [op.graphs for op in ops], files


@pytest.mark.parametrize("workload", ["point_calls", "bench_set"])
def test_generator_is_a_function_of_the_seed(tmp_path, workload):
    first = _generated(workload, 7, tmp_path / "a")
    assert first == _generated(workload, 7, tmp_path / "b")
    other = _generated(workload, 8, tmp_path / "c")
    assert first[1] != other[1]
    assert first[2] != other[2]


def test_point_calls_mix_is_fixed(tmp_path):
    ops = workloads.make_operations("point_calls", 3, tmp_path)
    commands = [op.command for op in ops]
    assert commands.count("analyze") == workloads.DECORATED_COUNT + 2
    assert commands.count("compare") == workloads.COMPARE_PAIRS + 1
    sizes = [len(op.graphs[0]["vertices"]) for op in ops[: workloads.DECORATED_COUNT]]
    other = workloads.make_operations("point_calls", 4, tmp_path)
    assert sizes == [len(op.graphs[0]["vertices"]) for op in other[: workloads.DECORATED_COUNT]]


def test_self_times_on_synthetic_tree():
    S = tracer.Span
    spans = [
        S("cli.main", 0.0, 10.0, -1, 0),
        S("spectrum.estimate_suite", 1.0, 8.0, 0, 0),
        S("linalg.eigh_stack", 2.0, 5.0, 1, 0),
        S("floquet.fiber_stack", 5.5, 6.5, 1, 0),
        S("graphio.dumps", 8.5, 9.5, 0, 0),
        S("cli.main", 20.0, 21.0, -1, 1),
    ]
    assert tracer.self_times(spans) == pytest.approx([2.0, 3.0, 3.0, 1.0, 1.0, 1.0])
    total, calls, layer_self = tracer.summarize(spans)
    assert total["cli.main"] == pytest.approx(11.0)
    assert calls["cli.main"] == 2
    assert layer_self == pytest.approx(
        {"cli": 3.0, "spectrum": 3.0, "linalg": 3.0, "floquet": 1.0, "graphio": 1.0}
    )
    assert sum(layer_self.values()) == pytest.approx(total["cli.main"])


def test_tracer_patches_call_sites_and_restores_them():
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracer.PATCHES]
    t = tracer.Tracer()
    with t.installed():
        root = t.wrap(tracer.ROOT_SPAN, cli.main)
        with contextlib.redirect_stdout(io.StringIO()):
            assert root(["analyze", "--builtin", "hexagonal", "--grid", "12"]) == 0
    assert [getattr(owner, attr) for owner, attr, _, _ in tracer.PATCHES] == originals
    names = {s.name for s in t.spans}
    for name in run.SPANS_ANALYZE:
        if name != "graphio.load_graph":
            assert name in names
    assert t.spans[0].name == tracer.ROOT_SPAN and t.spans[0].parent == -1
    assert all(s.parent >= 0 for s in t.spans[1:])
    assert t.counts["floquet.matrices"] >= 144
    assert t.counts["linalg.matrices"] >= 144
    assert t.counts["linalg.work_nu3"] == 8 * t.counts["linalg.matrices"]


def test_percentile_matches_numpy_and_tail_level():
    samples = list(np.random.default_rng(1).uniform(size=37))
    for level in (0.0, 12.5, 50.0, 66.7, 100.0):
        assert run.percentile(samples, level) == pytest.approx(np.percentile(samples, level))
    assert run.tail_level(30) == pytest.approx(100.0 * 2.0 / 3.0)
    assert run.tail_level(12) == 50.0
