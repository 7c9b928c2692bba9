"""Independent check of CLI stdout.

Fibers are rebuilt from the graph document's edge list with plain numpy and
solved with `np.linalg.eigvalsh`; nothing here calls the program under test.
Each check returns None when the output is right, else the reason it is not.
"""

from __future__ import annotations

import json
import math

import numpy as np

TOL = 1e-9
DISPERSION_SAMPLE_ROWS = 32


def fiber(graph: dict, theta) -> np.ndarray:
    """Schrodinger fiber D + Q - A(theta) of a graph document at one point."""
    nv = len(graph["vertices"])
    theta = np.asarray(theta, dtype=float)
    h = np.zeros((nv, nv), dtype=complex)
    for v, vertex in enumerate(graph["vertices"]):
        h[v, v] += vertex["q"]
    for edge in graph["edges"]:
        t, hd = edge["tail"], edge["head"]
        phase = np.exp(1j * float(np.dot(edge["index"], theta)))
        h[t, hd] -= phase
        h[hd, t] -= np.conj(phase)
        h[t, t] += 1.0
        h[hd, hd] += 1.0
    return h


def eigenvalues(graph: dict, theta) -> np.ndarray:
    return np.linalg.eigvalsh(fiber(graph, theta))


def torus_points(graph: dict, points_per_axis: int) -> int:
    d = graph["dimension"]
    extra = 0 if points_per_axis % 2 == 0 else 2**d - 1
    return points_per_axis**d + extra


def _reject_constant(token):
    raise ValueError(f"non-finite number {token}")


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _parse_report(stdout: str) -> dict:
    return json.loads(stdout, parse_constant=_reject_constant, parse_float=_finite_float)


def _off(value, expected) -> bool:
    return not abs(float(value) - float(expected)) <= TOL


def check_analyze(graph: dict, points_per_axis: int, stdout: str):
    try:
        doc = _parse_report(stdout)
    except ValueError as exc:
        return f"unparseable report: {exc}"
    if doc["grid"]["total_points"] != torus_points(graph, points_per_axis):
        return f"grid has {doc['grid']['total_points']} points"
    bands = doc["bands"]
    if len(bands) != len(graph["vertices"]):
        return f"{len(bands)} bands for {len(graph['vertices'])} vertices"
    for band in bands:
        n = band["n"] - 1
        for value_key, arg_key in (("low", "argmin"), ("high", "argmax")):
            expected = eigenvalues(graph, band[arg_key])[n]
            if _off(band[value_key], expected):
                return (
                    f"band {n + 1} {value_key}={band[value_key]!r} but eigvalsh at "
                    f"{arg_key} gives {expected!r}"
                )
    return None


def _l1(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).sum())


def check_compare(graph_a: dict, graph_b: dict, stdout: str):
    try:
        doc = _parse_report(stdout)
    except ValueError as exc:
        return f"unparseable report: {exc}"
    p = doc["params"]
    fa_m, fa_p = fiber(graph_a, p["theta_minus_a"]), fiber(graph_a, p["theta_plus_a"])
    fb_m, fb_p = fiber(graph_b, p["theta_minus_b"]), fiber(graph_b, p["theta_plus_b"])
    c_total = _l1(fa_m, fb_m) + _l1(fa_p, fb_p)
    if _off(p["c_total"], c_total):
        return f"c_total={p['c_total']!r} but the fibers give {c_total!r}"
    lows_a, highs_a = np.linalg.eigvalsh(fa_m), np.linalg.eigvalsh(fa_p)
    lows_b, highs_b = np.linalg.eigvalsh(fb_m), np.linalg.eigvalsh(fb_p)
    gaps_a = lows_a[1:] - highs_a[:-1]
    gaps_b = lows_b[1:] - highs_b[:-1]
    expected = {
        "stability-bounds:edge-and-gap-variation<=2C": abs(lows_a[0] - lows_b[0])
        + abs(highs_a[-1] - highs_b[-1])
        + float(np.abs(gaps_a - gaps_b).sum()),
        "stability-bounds:band-length-variation<=2C": float(
            np.abs((highs_a - lows_a) - (highs_b - lows_b)).sum()
        ),
    }
    rows = {row["name"]: row for row in doc["checks"]}
    for name, lhs in expected.items():
        if name not in rows:
            return f"check {name} missing"
        if _off(rows[name]["lhs"], lhs) or _off(rows[name]["rhs"], 2.0 * c_total):
            return f"check {name} lhs/rhs {rows[name]['lhs']!r}/{rows[name]['rhs']!r}"
    return None


def check_dispersion(graph: dict, points_per_axis: int, stdout: str, rng):
    d = graph["dimension"]
    nv = len(graph["vertices"])
    lines = stdout.split("\n")
    if lines[-1] != "":
        return "output does not end with a newline"
    header = "# " + "\t".join(
        [f"theta_{s + 1}" for s in range(d)] + [f"lambda_{n + 1}" for n in range(nv)]
    )
    if lines[0] != header:
        return f"bad header {lines[0]!r}"
    rows = lines[1:-1]
    if len(rows) != torus_points(graph, points_per_axis):
        return f"{len(rows)} rows"
    lowered = stdout.lower()
    if "nan" in lowered or "inf" in lowered:
        return "non-finite value in the table"
    step = 2.0 * math.pi / points_per_axis
    grid_rows = points_per_axis**d
    for k in sorted(rng.choice(grid_rows, min(DISPERSION_SAMPLE_ROWS, grid_rows), replace=False)):
        cells = [float(x) for x in rows[k].split("\t")]
        if len(cells) != d + nv:
            return f"row {k} has {len(cells)} cells"
        theta = np.asarray(cells[:d])
        grid_theta = step * np.asarray(np.unravel_index(k, (points_per_axis,) * d), dtype=float)
        if np.abs(theta - grid_theta).max() > 1e-12:
            return f"row {k} is at {theta.tolist()}, expected {grid_theta.tolist()}"
        expected = eigenvalues(graph, theta)
        if not np.abs(np.asarray(cells[d:]) - expected).max() <= TOL:
            return f"row {k} eigenvalues {cells[d:]} but eigvalsh gives {expected.tolist()}"
    return None


def check(op, exit_code: int, stdout: str, rng):
    """None when `op` exited 0 with verified stdout, else why it failed."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if op.command == "analyze":
        return check_analyze(op.graphs[0], op.points_per_axis, stdout)
    if op.command == "compare":
        return check_compare(op.graphs[0], op.graphs[1], stdout)
    return check_dispersion(op.graphs[0], op.points_per_axis, stdout, rng)
