"""The package's public names, and the README examples, run as tests."""

import ast
import re
from pathlib import Path

import graphbands
from graphbands import floquet, graph, linalg, spectrum

SRC = Path(spectrum.__file__).parent
README = SRC.parents[1] / "README.md"

PUBLIC_NAMES = [
    "BandInterval",
    "BandStructure",
    "EdgeRecord",
    "EstimateReport",
    "FlatBand",
    "GraphClassification",
    "GraphbandsError",
    "InequalityCheck",
    "NumericError",
    "OrientedEdge",
    "ParameterError",
    "PeriodicGraphSpec",
    "PreconditionError",
    "TorusGrid",
    "ValidationError",
    "VertexInfo",
    "bridge_count",
    "classify",
    "compute_band_structure",
    "degrees",
    "estimate_suite",
    "fiber_eigenvalues",
    "fundamental_bipartite",
    "is_connected_periodic",
    "lattices",
    "oriented_edges",
    "periodic_bipartite",
    "stability_constants",
    "verify_gap_bound",
    "verify_total_band_bound",
    "with_potentials",
]

# Public functions that the README documents as entry points.
README_ENTRY_POINTS = {
    "compute_band_structure",
    "estimate_suite",
    "stability_constants",
    "verify_total_band_bound",
    "verify_gap_bound",
    "fiber_eigenvalues",
    "grid_eigenvalues",
}


def test_package_exports_exactly_the_public_names():
    assert graphbands.__all__ == PUBLIC_NAMES
    namespace = {}
    exec("from graphbands import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)


def _called_names(function: ast.FunctionDef) -> set[str]:
    calls = {node.func for node in ast.walk(function) if isinstance(node, ast.Call)}
    names = {f.id for f in calls if isinstance(f, ast.Name)}
    names |= {f.attr for f in calls if isinstance(f, ast.Attribute)}
    return names - {function.name}


def test_every_public_function_has_a_caller_or_is_documented():
    # A paper statement is verified by a report row or by the compare path,
    # not by a side entry that only tests reach; a helper only tests use
    # lives in tests/oracles.py.
    called = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                called |= _called_names(node)
    public = {
        node.name
        for module in (spectrum, floquet, linalg, graph)
        for node in ast.parse(Path(module.__file__).read_text()).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert public - called <= README_ENTRY_POINTS
    readme = README.read_text()
    assert [n for n in sorted(README_ENTRY_POINTS) if not re.search(rf"\b{n}\(", readme)] == []


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(block, namespace)
