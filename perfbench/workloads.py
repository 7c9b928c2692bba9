"""Seeded workload inputs: the CLI argument lists each workload runs.

Every input is generated here, from the seed alone, before any timing.  Graph
files go to the work directory; each operation carries the graph documents
the oracle needs to rebuild its fibers independently of the program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from graphbands import graphio
from graphbands.graph import with_potentials
from graphbands.lattices import FiniteGraph, decorate, parse_builtin

# Bases for the random decorated sweep of point_calls: 2-D and 3-D loop
# graphs, a pendant-decorated loop graph and the (non-loop) honeycomb.
DECORATE_BASES = ("cubic(2)", "triangular", "star(2,2)", "hexagonal", "cubic(3)")
DECORATED_COUNT = 60
COMPARE_PAIRS = 20
POINT_GRID = 12

# The roadmap's bench set without subdivided(3,3): that input exits 1 (the
# eigensolver returns NaN), and no timed operation may fail.  run.py reports
# the defect through a separate probe in traced runs.
BENCH_SET_BUILTINS = ("hexagonal", "fcc", "star(2,6)", "subdivided(2,4)")
DISPERSION_GRIDS = (("triangular", 384), ("hexagonal", 192), ("fcc", 24))


@dataclass(frozen=True)
class Operation:
    """One CLI call and what the oracle needs to check its stdout.

    `graphs` holds the graph documents (graphio's schema) of the inputs,
    already carrying any potentials the call overrides.
    """

    name: str
    argv: tuple[str, ...]
    command: str
    graphs: tuple[dict, ...]
    points_per_axis: int | None = None


def _fmt(values) -> str:
    return ",".join("%.17g" % float(v) for v in values)


def _builtin_doc(builtin: str, q=None) -> dict:
    spec = parse_builtin(builtin)
    if q is not None:
        spec = with_potentials(spec, q)
    return graphio.graph_to_document(spec)


def default_axis(dimension: int) -> int:
    """Points per axis of the CLI's default grid (TorusGrid.default_for)."""
    return 96 if dimension <= 2 else (24 if dimension == 3 else 12)


def _random_tree(rng: np.random.Generator, size: int) -> FiniteGraph:
    return FiniteGraph(size, tuple((int(rng.integers(0, i)), i) for i in range(1, size)))


def _save(spec, path) -> dict:
    graphio.save_graph(spec, str(path))
    return graphio.graph_to_document(spec)


def bench_set(rng: np.random.Generator, work_dir) -> list[Operation]:
    ops = [
        Operation(
            f"analyze {b}",
            ("analyze", "--builtin", b),
            "analyze",
            (_builtin_doc(b),),
            default_axis(parse_builtin(b).dimension),
        )
        for b in BENCH_SET_BUILTINS
    ]
    base = parse_builtin("hexagonal")
    spec = decorate(base, _random_tree(rng, 3), int(rng.integers(base.num_vertices)))
    # Distinct potentials: a random permutation of evenly spaced values.
    q = rng.permutation(np.linspace(-2.0, 2.0, spec.num_vertices)) + rng.uniform(-0.1, 0.1)
    spec = with_potentials(spec, q)
    path = work_dir / "bench_decorated_hexagonal.json"
    ops.append(
        Operation(
            "analyze decorated hexagonal",
            ("analyze", str(path)),
            "analyze",
            (_save(spec, path),),
            default_axis(2),
        )
    )
    return ops


def point_calls(rng: np.random.Generator, work_dir) -> list[Operation]:
    ops = []
    # The seed draws tree shapes, glue vertices and potentials; the bases and
    # tree sizes cycle in a fixed pattern so the work of a pass (grid points
    # times fiber size) is the same for every seed.
    for i in range(DECORATED_COUNT):
        base_id = DECORATE_BASES[i % len(DECORATE_BASES)]
        size = 2 + (i // len(DECORATE_BASES)) % 3
        base = parse_builtin(base_id)
        spec = decorate(base, _random_tree(rng, size), int(rng.integers(base.num_vertices)))
        spec = with_potentials(spec, rng.uniform(-3.0, 3.0, size=spec.num_vertices))
        path = work_dir / f"point_{i:03d}.json"
        ops.append(
            Operation(
                f"analyze decorated {base_id} #{i}",
                ("analyze", str(path), "--grid", str(POINT_GRID)),
                "analyze",
                (_save(spec, path),),
                POINT_GRID,
            )
        )
    for i in range(COMPARE_PAIRS):
        qa = rng.uniform(-2.0, 2.0, size=3)
        qb = rng.uniform(-2.0, 2.0, size=3)
        ops.append(
            Operation(
                f"compare star(2,3) pair #{i}",
                # "--q-a=" form: argparse would take a leading "-1.5" for a flag.
                ("compare", "star(2,3)", "star(2,3)", f"--q-a={_fmt(qa)}", f"--q-b={_fmt(qb)}"),
                "compare",
                (_builtin_doc("star(2,3)", qa), _builtin_doc("star(2,3)", qb)),
            )
        )
    ops.append(
        Operation(
            "compare star(2,3) bipartite_chain(2,3)",
            ("compare", "star(2,3)", "bipartite_chain(2,3)"),
            "compare",
            (_builtin_doc("star(2,3)"), _builtin_doc("bipartite_chain(2,3)")),
        )
    )
    ops.append(
        Operation(
            "analyze hexagonal --q 1,-1 --refine",
            ("analyze", "--builtin", "hexagonal", "--q", "1,-1", "--refine"),
            "analyze",
            (_builtin_doc("hexagonal", (1.0, -1.0)),),
            default_axis(2),
        )
    )
    ops.append(
        Operation(
            "analyze star(2,3) --refine",
            ("analyze", "--builtin", "star(2,3)", "--refine"),
            "analyze",
            (_builtin_doc("star(2,3)"),),
            default_axis(2),
        )
    )
    return ops


def dispersion_grid(rng: np.random.Generator, work_dir) -> list[Operation]:
    return [
        Operation(
            f"dispersion {b} --grid {m}",
            ("dispersion", "--builtin", b, "--grid", str(m)),
            "dispersion",
            (_builtin_doc(b),),
            m,
        )
        for b, m in DISPERSION_GRIDS
    ]


WORKLOADS = {
    "bench_set": bench_set,
    "point_calls": point_calls,
    "dispersion_grid": dispersion_grid,
}


def make_operations(workload: str, seed: int, work_dir) -> list[Operation]:
    """The frozen operation list of a workload for a seed; writes graph files."""
    work_dir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](np.random.default_rng(seed), work_dir)
