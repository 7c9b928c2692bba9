import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphbands import (
    EdgeRecord,
    NumericError,
    PeriodicGraphSpec,
    TorusGrid,
    ValidationError,
    VertexInfo,
    cli,
    compute_band_structure,
    graph,
    graphio,
    spectrum,
)
from graphbands.cli import main
from graphbands.graphio import (
    dumps,
    format_float,
    format_rows,
    load_graph,
    parse_graph,
    save_graph,
    serialize_graph,
)
from graphbands.graph import with_potentials
from graphbands.lattices import (
    FiniteGraph,
    bipartite_chain,
    decorate,
    fcc,
    hexagonal,
    parse_builtin,
    star,
    subdivided,
)
from oracles import path_points_per_sample, reference_dumps
from quotients import FAMILIES, quotients, reverse_edges

PI = math.pi


def test_graph_round_trip():
    for spec in (hexagonal(q=(0.25, -0.25)), fcc(), star(2, 3), bipartite_chain(2, 3)):
        assert parse_graph(serialize_graph(spec)) == spec


def test_serialization_deterministic():
    spec = star(2, 4, q=(0.1, 0.2, 0.3, 0.0))
    assert serialize_graph(spec) == serialize_graph(spec)


def test_floats_use_17_significant_digits():
    text = dumps({"x": 1.0 / 3.0})
    assert "0.33333333333333331" in text
    assert json.loads(text)["x"] == 1.0 / 3.0


def test_unknown_field_rejected_with_path():
    doc = json.loads(serialize_graph(hexagonal()))
    doc["vertices"][1]["color"] = "red"
    with pytest.raises(ValidationError, match=r"\$\.vertices\[1\]\.color"):
        parse_graph(json.dumps(doc))


def test_missing_field_rejected_with_path():
    doc = json.loads(serialize_graph(hexagonal()))
    del doc["edges"][0]["index"]
    with pytest.raises(ValidationError, match=r"\$\.edges\[0\]\.index"):
        parse_graph(json.dumps(doc))


def test_bad_format_version_rejected():
    doc = json.loads(serialize_graph(hexagonal()))
    doc["format_version"] = 2
    with pytest.raises(ValidationError, match="format_version"):
        parse_graph(json.dumps(doc))


def test_invalid_json_reported():
    with pytest.raises(ValidationError, match="invalid JSON"):
        parse_graph("{nope")


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("vertices", 0), 5, r"\$\.vertices\[0\]: expected an object"),
        (("edges", 0, "tail"), 0.5, r"\$\.edges\[0\]\.tail: expected an integer"),
        (("dimension",), True, r"\$\.dimension: expected an integer"),
        (("vertices", 1, "q"), "1", r"\$\.vertices\[1\]\.q: expected a number"),
        (("vertices",), {}, r"\$\.vertices: expected an array"),
        (("edges",), "none", r"\$\.edges: expected an array"),
        (("vertices", 0, "label"), 3, r"\$\.vertices\[0\]\.label: expected a string"),
        (("vertices", 0, "position"), 0.5, r"\$\.vertices\[0\]\.position: expected an array"),
        (("edges", 2, "index"), 1, r"\$\.edges\[2\]\.index: expected an array"),
    ],
    ids=[
        "vertex-not-object",
        "float-tail",
        "bool-dimension",
        "string-q",
        "vertices-object",
        "edges-string",
        "int-label",
        "scalar-position",
        "scalar-index",
    ],
)
def test_graph_document_of_the_wrong_type_names_its_path(path, value, message):
    doc = json.loads(serialize_graph(hexagonal()))
    *parents, last = path
    node = doc
    for step in parents:
        node = node[step]
    node[last] = value
    with pytest.raises(ValidationError, match=message):
        graphio.graph_from_document(doc)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_analyze_fcc(tmp_path, capsys):
    out_file = tmp_path / "fcc.json"
    code, _, _ = run_cli(capsys, "analyze", "--builtin", "fcc", "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["all_checks_pass"] is True
    assert report["flat_bands"] == [{"value": pytest.approx(4.0), "multiplicity": 2}]
    opens = [(b["low"], b["high"]) for b in report["open_bands"]]
    assert opens[0] == (pytest.approx(0.0, abs=1e-9), pytest.approx(4.0, abs=1e-9))
    assert opens[1] == (pytest.approx(16.0, abs=1e-9), pytest.approx(24.0, abs=1e-9))


def test_cli_analyze_hexagonal_with_potential(tmp_path, capsys):
    out_file = tmp_path / "hex.json"
    code, _, _ = run_cli(
        capsys,
        "analyze",
        "--builtin",
        "hexagonal",
        "--q",
        "1,-1",
        "--out",
        str(out_file),
    )
    assert code == 0
    report = json.loads(out_file.read_text())
    gap = report["gaps"][0]
    assert gap[0] == pytest.approx(2.0, abs=1e-9)
    assert gap[1] == pytest.approx(4.0, abs=1e-9)
    lows = [b["low"] for b in report["bands"]]
    assert lows[0] == pytest.approx(3.0 - math.sqrt(10.0), abs=1e-9)


def test_cli_analyze_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = json.loads(serialize_graph(hexagonal()))
    doc["vertices"][0]["banana"] = 1
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 1
    assert "banana" in err


def test_cli_analyze_requires_input(capsys):
    code, _, err = run_cli(capsys, "analyze")
    assert code == 1
    assert "required" in err


@pytest.mark.parametrize(
    "argv, line",
    [
        (("analyze", "--builtin", "hexagonal", "--q", "1,x"), "error: cannot parse --q: '1,x'"),
        (
            ("analyze", "star(2,3)", "--builtin", "hexagonal"),
            "error: give either an input file or --builtin, not both",
        ),
        (
            ("dispersion", "--builtin", "hexagonal", "--path", "0,0"),
            "error: a path needs at least two waypoints",
        ),
        (
            ("dispersion", "--builtin", "hexagonal", "--path", "0,0:pi,pi", "--samples", "0"),
            "error: --samples must be >= 1",
        ),
    ],
    ids=["q-not-a-number", "file-and-builtin", "one-waypoint", "zero-samples"],
)
def test_cli_input_error_is_one_line_naming_the_flag(capsys, argv, line):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [line]


def test_cli_normalized_dispersion_of_an_isolated_vertex_exits_one(tmp_path, capsys):
    # Vertex b has no edge, so its degree is 0 and D^{-1/2} does not exist.
    document = {
        "format_version": 1,
        "dimension": 1,
        "vertices": [{"label": "a", "q": 0.0}, {"label": "b", "q": 0.0}],
        "edges": [{"tail": 0, "head": 0, "index": [1]}],
    }
    path = tmp_path / "isolated.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, "dispersion", str(path), "--kind", "normalized")
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: normalized operator needs every degree >= 1"]


@pytest.mark.parametrize(
    "argv",
    [("analyze", "--builtin", "star(2,3)"), ("compare", "star(2,3)", "star(2,3)")],
    ids=["analyze", "compare"],
)
def test_cli_has_no_check_tolerance_option(capsys, argv):
    # Checks allow the rounding tolerance derived from the band edges; the
    # removed option is an unknown argument.
    code, out, err = run_cli(capsys, *argv, "--check-tol", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("error: unrecognized arguments: --check-tol")


def test_cli_star_with_a_large_potential_has_no_false_flat_band(capsys):
    # Band 1 is open, with a width of about 8e-8: over 1,000 times the
    # rounding tolerance 16 * 2 * eps * (1 + 1e4) of this operator.
    code, out, _ = run_cli(capsys, "analyze", "--builtin", "star(2,2)", "--q", "0,1e4")
    report = json.loads(out)
    assert code == 0 and report["all_checks_pass"] is True
    assert report["flat_bands"] == []
    assert len(report["open_bands"]) == 2


def test_cli_constant_potential_of_1e9_passes_every_check(capsys):
    q = ",".join(["1e9"] * 9)
    code, out, _ = run_cli(capsys, "analyze", "--builtin", "subdivided(2,4)", "--q", q)
    assert code == 0
    assert json.loads(out)["all_checks_pass"] is True


def test_cli_reports_byte_identical_across_interpreters():
    # Fresh interpreters with different string-hash seeds must print the
    # same bytes: no set or dict iteration order may reach the report.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(argv, hash_seed):
        done = subprocess.run(
            [sys.executable, "-m", "graphbands.cli", *argv],
            env=dict(env, PYTHONHASHSEED=hash_seed),
            capture_output=True,
            check=False,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    analyze = ["analyze", "--builtin", "star(2,3)", "--grid", "24"]
    outputs = [run(analyze, seed) for seed in ("1", "2")]
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["grid"]["points_per_axis"] == 24
    # A full-grid dispersion, which spreads one solve per orbit of the
    # band-symmetry group over the default grid.
    dispersion = ["dispersion", "--builtin", "hexagonal", "--q", "1,-1"]
    outputs = [run(dispersion, seed) for seed in ("1", "2")]
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 1 + 96**2


def test_cli_rejects_removed_jobs_option(capsys):
    for argv in (
        ("analyze", "--builtin", "star(2,3)", "--jobs", "2"),
        ("compare", "star(2,3)", "star(2,3)", "--jobs", "2"),
        ("analyze", "--builtin", "star(2,3)", "--merge-tol", "0"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"unrecognized arguments: {argv[-2]}" in err


def test_cli_analyze_subdivided_3_3_is_finite(capsys):
    def reject(token):
        raise AssertionError(f"non-finite number {token} in report")

    code, out, err = run_cli(capsys, "analyze", "--builtin", "subdivided(3,3)")
    assert code == 0, err
    report = json.loads(out, parse_constant=reject)
    numbers = [band[key] for band in report["bands"] for key in ("low", "high")]
    numbers += [row[key] for row in report["checks"] for key in ("lhs", "rhs", "slack")]
    assert all(math.isfinite(x) for x in numbers)


def test_cli_ignores_grid_environment_variable(capsys, monkeypatch):
    # Only --grid sets the grid; a variable left in the shell changes nothing.
    monkeypatch.setenv("GRAPHBANDS_GRID", "12")
    code, out, _ = run_cli(capsys, "analyze", "--builtin", "hexagonal")
    assert code == 0
    assert json.loads(out)["grid"]["points_per_axis"] == 96


def test_cli_dispersion_path_touches_at_cone(capsys):
    code, out, _ = run_cli(
        capsys,
        "dispersion",
        "--builtin",
        "hexagonal",
        "--path",
        "0,0:2pi/3,-2pi/3:pi,pi",
        "--samples",
        "3",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    cone = [l for l in lines if l.split("\t")[0].startswith("2.0943951")]
    assert cone
    _, _, lam1, lam2 = cone[0].split("\t")
    assert float(lam1) == pytest.approx(3.0, abs=1e-9)
    assert float(lam2) == pytest.approx(3.0, abs=1e-9)


def test_cli_dispersion_full_grid_square_lattice(capsys):
    code, out, _ = run_cli(
        capsys, "dispersion", "--builtin", "cubic(2)", "--grid", "6"
    )
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(lines) == 36  # even per-axis count: corners are native points
    for line in lines:
        t1, t2, lam = (float(x) for x in line.split("\t"))
        expected = 4.0 - 2.0 * math.cos(t1) - 2.0 * math.cos(t2)
        assert lam == pytest.approx(expected, abs=1e-12)


def test_cli_dispersion_flat_row_for_subdivided(capsys):
    code, out, _ = run_cli(
        capsys, "dispersion", "--builtin", "subdivided(2,1)", "--grid", "12"
    )
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    columns = np.array([[float(x) for x in line.split("\t")] for line in lines])
    flat_columns = [
        c for c in range(2, columns.shape[1])
        if np.abs(columns[:, c] - 2.0).max() < 1e-9
    ]
    assert len(flat_columns) == 1


def _capture_grid_eigenvalues(monkeypatch, transform=lambda values: values):
    seen = {}
    solve = cli.grid_eigenvalues

    def capture(spec, thetas, kind, **options):
        seen["thetas"] = thetas
        seen["values"] = transform(solve(spec, thetas, kind, **options))
        return seen["values"]

    monkeypatch.setattr(cli, "grid_eigenvalues", capture)
    return seen


def _per_cell_rows(table):
    return ["\t".join(format_float(float(x)) for x in row) for row in table]


@pytest.mark.parametrize(
    "argv",
    [
        ("dispersion", "--builtin", "fcc", "--grid", "7"),
        # 65^2 + 3 rows, with the pi corners appended to the odd grid.
        ("dispersion", "--builtin", "hexagonal", "--grid", "65"),
        ("dispersion", "--builtin", "hexagonal", "--path", "0,0:2pi/3,-2pi/3:pi,pi",
         "--samples", "9"),
        # 129^2 + 3 = 16,644 rows: several blocks of TABLE_BLOCK_ROWS, the
        # last of them the pi corners of the odd grid.
        ("dispersion", "--builtin", "hexagonal", "--grid", "129"),
    ],
)
def test_cli_dispersion_rows_match_per_cell_formatting(capsys, monkeypatch, argv):
    # The printed table is rebuilt from the solved rows: on a full grid each
    # point prints its theta and the row of its orbit's representative.
    seen = _capture_grid_eigenvalues(monkeypatch)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    if "--path" in argv:
        # A path solves every row: each printed row is its theta and values.
        table = np.hstack([seen["thetas"], seen["values"]])
    else:
        spec = parse_builtin(argv[2])
        grid = TorusGrid(spec.dimension, int(argv[-1]))
        group = spectrum._orbit_group(spec, grid, ("schrodinger",))[0]
        representatives, index, points = grid.representatives(group)
        assert seen["thetas"].tobytes() == representatives.tobytes()
        table = np.hstack([points, seen["values"][index]])
    if argv[-1] == "129":
        assert len(table) > 2 * graphio.TABLE_BLOCK_ROWS
    assert out.split("\n", 1)[1] == "\n".join(_per_cell_rows(table)) + "\n"


def test_cli_dispersion_out_file_holds_the_stdout_bytes(tmp_path, capsys):
    argv = ("dispersion", "--builtin", "hexagonal", "--grid", "129")
    code, printed, _ = run_cli(capsys, *argv)
    assert code == 0
    out_file = tmp_path / "table.tsv"
    code, out, _ = run_cli(capsys, *argv, "--out", str(out_file))
    assert code == 0
    assert out == ""
    assert out_file.read_bytes() == printed.encode()


@pytest.mark.parametrize("m", [2, 3, 12, 13])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_theta_text_matches_the_formatted_points(monkeypatch, d, m):
    # The grid part is d copies of the m axis texts; its lines are the
    # formatted points.  Blocks of 7 lines, shorter than an axis of 12 or 13,
    # gather every coordinate line by line; blocks of 100 broadcast the
    # trailing axes.
    grid = TorusGrid(d, m)
    points = grid.points()[: m**d]
    values = -np.arange(m**d, dtype=float)[:, None]
    axis = format_rows(grid.axis()[:, None])
    rows = format_rows(np.hstack([points, values])).tolist()
    for block in (7, 100):
        monkeypatch.setattr(graphio, "TABLE_BLOCK_ROWS", block)
        text = "".join(graphio.stream_rows([[axis] * d], format_rows(values), np.arange(m**d)))
        assert text == "".join(row.decode() + "\n" for row in rows)


def test_cli_grid_theta_text_crosses_a_block_and_ends_with_the_pi_corners(capsys, monkeypatch):
    # 129^2 + 3 rows: several TABLE_BLOCK_ROWS blocks of the 129 x 129 axis
    # texts, then the odd grid's pi corners as a part of their own.
    seen = []
    stream = graphio.stream_rows

    def capture(parts, right, index):
        seen.append(parts)
        return stream(parts, right, index)

    monkeypatch.setattr(graphio, "stream_rows", capture)
    code, out, _ = run_cli(capsys, "dispersion", "--builtin", "hexagonal", "--grid", "129")
    assert code == 0
    grid = TorusGrid(2, 129)
    points = grid.points()
    assert len(points) == 129**2 + 3 > 2 * graphio.TABLE_BLOCK_ROWS
    [[axes, corners]] = seen
    assert [axis.tolist() for axis in axes] == [format_rows(grid.axis()[:, None]).tolist()] * 2
    pi = b"3.1415926535897931"
    assert [axis.tolist() for axis in corners] == [[b"0\t" + pi, pi + b"\t0", pi + b"\t" + pi]]
    thetas = ["\t".join(line.split("\t")[:2]) for line in out.splitlines()[1:]]
    assert thetas == [row.decode() for row in format_rows(points).tolist()]


def test_cli_dispersion_never_holds_the_table_text(tmp_path):
    # 257^2 + 3 rows, about 4.8 MB of text: the writer holds one block of it
    # at a time, so the traced peak stays below the file's size.
    out_file = tmp_path / "table.tsv"
    tracemalloc.start()
    try:
        code = main(["dispersion", "--builtin", "hexagonal", "--grid", "257", "--out", str(out_file)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < out_file.stat().st_size


@pytest.mark.parametrize(
    "argv",
    [
        ("--builtin", "triangular"),
        ("--builtin", "fcc", "--grid", "7"),
        ("--builtin", "star(2,6)", "--grid", "12", "--kind", "laplacian"),
    ],
)
def test_cli_full_grid_dispersion_builds_the_grid_and_solves_once(capsys, calls, argv):
    # The benchmark tracer times these two calls as its grid.points and
    # spectrum.grid_eigenvalues spans.
    points, solves = calls(TorusGrid, "points"), calls(cli, "grid_eigenvalues")
    code, _, _ = run_cli(capsys, "dispersion", *argv)
    assert code == 0
    assert len(points) == len(solves) == 1


def test_stream_rows_joins_every_block(monkeypatch):
    # A 3 x 2 grid part, then a part of 5 corner rows: blocks of 4 lines
    # split each part, the corners after their fourth row.
    first, second = np.arange(3.0) / 3.0, np.array([-0.0, 1e300])
    grid = np.stack(np.meshgrid(first, second, indexing="ij"), axis=-1).reshape(-1, 2)
    corners = np.array([[5e-324, 2.5], [1.0, -1.0], [0.5, 0.25], [7.0, -0.0], [9.0, 10.0]])
    values = np.array([[-0.0, 1e300], [5e-324, 2.5]])
    index = np.array([0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0])
    monkeypatch.setattr(graphio, "TABLE_BLOCK_ROWS", 4)
    parts = [[format_rows(first[:, None]), format_rows(second[:, None])], [format_rows(corners)]]
    blocks = list(graphio.stream_rows(parts, format_rows(values), index))
    assert [block.count("\n") for block in blocks] == [4, 2, 4, 1]
    table = np.hstack([np.vstack([grid, corners]), values[index]])
    assert "".join(blocks) == "".join(row + "\n" for row in _per_cell_rows(table))


def _read_table(out):
    return np.array([[float(x) for x in line.split("\t")] for line in out.splitlines()[1:]])


@pytest.mark.parametrize(
    "argv",
    [
        ("--builtin", "triangular"),
        ("--builtin", "hexagonal"),
        ("--builtin", "hexagonal", "--q", "1,-1"),
        ("--builtin", "fcc"),
        ("decorated",),
        # Odd, with the pi corners appended, and above the search threshold.
        ("--builtin", "hexagonal", "--grid", "65"),
        # Below SYMMETRY_SEARCH_MIN_POINTS: theta, -theta pairs only.
        ("--builtin", "star(2,6)", "--grid", "12"),
        ("--builtin", "star(2,6)", "--kind", "laplacian"),
        ("--builtin", "bcc", "--kind", "normalized"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_cli_full_grid_dispersion_matches_a_solve_at_every_point(tmp_path, capsys, argv):
    if argv == ("decorated",):
        # Distinct potentials and a pendant tree: a group of 6 without -I.
        tree = FiniteGraph(3, ((0, 1), (0, 2)))
        spec = with_potentials(decorate(hexagonal(), tree, 1), (0.3, -1.7, 1.1, 2.05))
        save_graph(spec, tmp_path / "decorated.json")
        argv = (str(tmp_path / "decorated.json"),)
    else:
        spec = parse_builtin(argv[1])
        if "--q" in argv:
            spec = with_potentials(spec, (1.0, -1.0))
    code, out, err = run_cli(capsys, "dispersion", *argv)
    assert code == 0, err
    table = _read_table(out)
    m = int(argv[argv.index("--grid") + 1]) if "--grid" in argv else None
    grid = TorusGrid(spec.dimension, m) if m else TorusGrid.default_for(spec.dimension)
    points = grid.points()
    # %.17g round-trips, so the printed theta are the grid's bits.
    assert table[:, : spec.dimension].tobytes() == points.tobytes()
    kind = argv[argv.index("--kind") + 1] if "--kind" in argv else "schrodinger"
    direct = spectrum.grid_eigenvalues(spec, points, kind)
    scale = np.abs(direct).max()
    assert np.abs(table[:, spec.dimension:] - direct).max() <= 1e-12 * (1.0 + scale)


@pytest.mark.parametrize(
    "argv, solved, rows",
    [
        (("--builtin", "hexagonal"), 817, 96**2),
        (("--builtin", "fcc", "--grid", "24"), 455, 24**3),
        # Below SYMMETRY_SEARCH_MIN_POINTS: the (12^2 + 4)/2 theta, -theta pairs.
        (("--builtin", "hexagonal", "--grid", "12"), 74, 12**2),
    ],
)
def test_cli_full_grid_dispersion_solves_one_point_per_orbit(
    capsys, monkeypatch, argv, solved, rows
):
    seen = _capture_grid_eigenvalues(monkeypatch)
    code, out, _ = run_cli(capsys, "dispersion", *argv)
    assert code == 0
    assert len(seen["thetas"]) == solved
    assert len(out.splitlines()) == 1 + rows


@pytest.mark.parametrize("kind", ["laplacian", "normalized"])
def test_cli_potential_free_dispersion_solves_the_orbits_without_potentials(
    capsys, calls, kind
):
    solves = calls(spectrum, "eigh_stack", len)
    argv = ("dispersion", "--builtin", "fcc", "--kind", kind)
    code, with_q, _ = run_cli(capsys, *argv, "--q", "1,2,3,0")
    plain_code, plain, _ = run_cli(capsys, *argv)
    assert code == plain_code == 0
    assert solves == [455, 455]
    assert with_q == plain


_angles = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(st.lists(_angles, min_size=d, max_size=d), min_size=2, max_size=5)
    ),
    st.integers(1, 60),
)
def test_path_points_match_the_per_sample_formula(waypoints, samples):
    text = ":".join(",".join(repr(x) for x in stop) for stop in waypoints)
    points = cli._path_points(text, len(waypoints[0]), samples)
    expected = path_points_per_sample(waypoints, samples)
    assert points.shape == ((len(waypoints) - 1) * samples + 1, len(waypoints[0]))
    assert points.tobytes() == expected.tobytes()


def test_cli_dispersion_rejects_path_with_grid(capsys):
    code, out, err = run_cli(
        capsys, "dispersion", "--builtin", "hexagonal", "--path", "0,0:pi,0", "--grid", "12"
    )
    assert code == 1
    assert out == ""
    assert "--path" in err and "--grid" in err


@pytest.mark.parametrize("grid", [(), ("--grid", "6")], ids=["default-grid", "grid-6"])
def test_cli_dispersion_rejects_samples_without_path(capsys, grid):
    code, out, err = run_cli(
        capsys, "dispersion", "--builtin", "hexagonal", *grid, "--samples", "3"
    )
    assert code == 1
    assert out == ""
    assert "--samples" in err and "--path" in err


def test_cli_options_do_not_carry_over_between_calls(capsys):
    # One parser serves every call of `main` in a process.
    argv = ("dispersion", "--builtin", "hexagonal", "--path", "0,0:pi,0")
    _, first, _ = run_cli(capsys, *argv)
    _, fewer, _ = run_cli(capsys, *argv, "--samples", "3", "--kind", "laplacian")
    _, again, _ = run_cli(capsys, *argv)
    assert len(first.splitlines()) == 1 + 50 + 1  # header, 50 samples, last waypoint
    assert len(fewer.splitlines()) < len(first.splitlines())
    assert again == first


def test_cli_dispersion_rejects_an_empty_path(capsys):
    # An empty --path is a malformed path, not a request for the full grid.
    code, out, err = run_cli(capsys, "dispersion", "--builtin", "hexagonal", "--path", "")
    assert code == 1
    assert out == ""
    assert "path waypoint" in err


@pytest.mark.parametrize(
    "builtin, path, segment",
    [
        ("cubic(1)", "1e308:-1e308", "'1e308' to '-1e308'"),
        ("hexagonal", "0,0:1e308,pi:-1e308,0", "'1e308,pi' to '-1e308,0'"),
    ],
)
def test_cli_dispersion_path_beyond_float64_names_its_segment(capsys, builtin, path, segment):
    # Finite waypoints whose difference overflows: one error line, exit 2, and
    # no floating-point warning (the test run turns warnings into errors).
    code, out, err = run_cli(capsys, "dispersion", "--builtin", builtin, "--path", path)
    assert code == 2
    assert out == ""
    assert err == f"error: --path segment {segment} has a non-finite sample point\n"


@pytest.mark.parametrize(
    "table",
    [
        np.array([[-0.0, 1.0], [0.0, 1.0], [-0.0, 2.0], [0.0, -0.0]]),
        np.array([[5e-324, -5e-324], [2.225073858507201e-308, 5e-324], [1e-310, 1e-310]]),
        np.column_stack([np.full(40, 2.0 / 3.0), np.arange(40.0)]),
        np.random.default_rng(7).standard_normal((200, 3)),
        np.empty((0, 3)),
        np.array([[1.5], [-0.0], [1.5], [1e300], [0.0]]),
    ],
    ids=["signed-zeros", "subnormals", "one-value-column", "no-repeats", "no-rows", "one-column"],
)
def test_format_rows_matches_per_cell_formatting(table):
    rows = format_rows(table)
    assert rows.dtype.kind == "S" and rows.shape == (len(table),)
    assert rows.tolist() == [row.encode() for row in _per_cell_rows(table)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cell", [(0, 0), (2, 1), (4, 2)])
def test_format_rows_rejects_non_finite(bad, cell):
    table = np.ones((5, 3))
    table[cell] = bad
    with pytest.raises(NumericError, match="non-finite value computed for the dispersion table"):
        format_rows(table)


def test_cli_dispersion_non_finite_value_exits_two(capsys, monkeypatch):
    def poison(values):
        values = values.copy()
        values[3, 1] = np.nan
        return values

    _capture_grid_eigenvalues(monkeypatch, poison)
    code, out, err = run_cli(capsys, "dispersion", "--builtin", "hexagonal", "--grid", "6")
    assert code == 2
    assert out == ""
    assert "non-finite" in err and "dispersion table" in err


def test_cli_analyze_overflowing_band_width_exits_two(capsys):
    # Finite potentials whose band width overflows to inf.
    code, out, err = run_cli(
        capsys, "analyze", "--builtin", "hexagonal", "--q", "1e308,-1e308", "--grid", "6"
    )
    assert code == 2
    assert out == ""
    assert "non-finite number computed for the report" in err


def test_cli_analyze_non_finite_error_names_the_report_field(capsys):
    # The flat-band midpoint 0.5 * (low + high) overflows.  The flat tolerance
    # here is 1e299, so the first two branches count as one flat band.
    code, out, err = run_cli(capsys, "analyze", "--builtin", "star(2,3)", "--q", "1e308,0,0")
    assert code == 2
    assert out == ""
    assert err == "error: non-finite number computed for the report at flat_bands[1].value\n"


def test_dumps_names_the_path_of_a_non_finite_value():
    with pytest.raises(NumericError, match=r"for the report at gaps\[1\]\[0\]$"):
        dumps({"bands": [], "gaps": [[0.0, 1.0], [math.inf, 2.0]]})
    flat_bands = [{"value": 1.0, "multiplicity": 2}, {"value": math.inf, "multiplicity": 1}]
    with pytest.raises(NumericError) as excinfo:
        dumps({"flat_bands": flat_bands})
    assert str(excinfo.value) == "non-finite number computed for the report at flat_bands[1].value"


def test_dumps_writes_a_list_holding_a_float_subclass_on_one_line():
    assert dumps({"x": [np.float64(1.5), 2.0]}) == '{\n  "x": [1.5, 2]\n}\n'


class _LoudInt(int):
    def __str__(self):
        return "loud"


def test_dumps_writes_an_int_subclass_as_its_int_value():
    document = {"a": _LoudInt(3), "b": [_LoudInt(-7), 2.5]}
    text = dumps(document)
    assert json.loads(text) == {"a": 3, "b": [-7, 2.5]}
    assert text == dumps({"a": 3, "b": [-7, 2.5]})


def test_dumps_escapes_non_ascii_keys():
    assert dumps({"é": "é"}) == '{\n  "\\u00e9": "\\u00e9"\n}\n'


# Random report-like documents for the writer against `reference_dumps`.
_report_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e308]),
)
_report_texts = st.one_of(st.text(), st.sampled_from(["é", "\x00\t\n\x1f", "\u2028 \U0001f600"]))
_report_scalars = st.one_of(
    _report_floats,
    _report_floats.map(np.float64),
    st.integers(),
    st.booleans(),
    st.none(),
    _report_texts,
)
_report_documents = st.recursive(
    _report_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_report_texts, children, max_size=4),
    ),
    max_leaves=24,
)


def _written(write, document):
    """The text `write` renders, or the type and message of its error."""
    try:
        return write(document)
    except (NumericError, ValidationError) as exc:
        return type(exc), str(exc)


def _put_at_random_path(data, node, value):
    """`node` with `value` in place of one of its nodes, chosen by draws."""
    if isinstance(node, dict) and node and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(list(node)))
        return {**node, key: _put_at_random_path(data, node[key], value)}
    if isinstance(node, (list, tuple)) and node and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(node) - 1))
        items = list(node)
        items[i] = _put_at_random_path(data, items[i], value)
        return type(node)(items)
    return value


@settings(max_examples=200, deadline=None)
@given(_report_documents)
def test_dumps_matches_the_reference_writer(document):
    assert dumps(document) == reference_dumps(document)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(_report_texts, _report_documents, min_size=1, max_size=4),
    st.sampled_from([math.inf, -math.inf, math.nan, np.float64(-math.inf)]),
    st.data(),
)
def test_dumps_names_a_non_finite_value_as_the_reference_does(document, bad, data):
    document = _put_at_random_path(data, document, bad)
    written = _written(dumps, document)
    assert written == _written(reference_dumps, document)
    assert written[0] is NumericError


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(_report_texts, _report_documents, min_size=1, max_size=4),
    st.sampled_from([np.int64(3), np.bool_(True), {1, 2}]),
    st.data(),
)
def test_dumps_rejects_an_unsupported_type_as_the_reference_does(document, bad, data):
    document = _put_at_random_path(data, document, bad)
    written = _written(dumps, document)
    assert written == _written(reference_dumps, document)
    assert written[0] is ValidationError


TOLERANCE_FLAGS = [
    (("analyze", "--builtin", "star(2,3)"), "--flat-tol"),
]


# Explicit ids, so that a row's test id does not move when another row goes.
@pytest.mark.parametrize("argv, flag", TOLERANCE_FLAGS, ids=["argv0---flat-tol"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-300", "abc"])
def test_cli_rejects_bad_tolerances(capsys, argv, flag, value):
    # `--flag=value`, so argparse does not take "-inf" for an option.
    code, out, err = run_cli(capsys, *argv, "--grid", "6", f"{flag}={value}")
    assert code == 1
    assert out == ""
    assert f"argument {flag}: must be a finite number >= 0, got {value!r}" in err


def test_cli_accepts_zero_tolerance(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--builtin", "star(2,3)", "--flat-tol", "0")
    assert code == 0
    assert json.loads(out)["flat_tol"] == 0.0


@pytest.mark.parametrize(
    "token, message",
    [
        ("inf", "is not finite"),
        ("-inf", "is not finite"),
        ("nan", "is not finite"),
        ("1e999", "is not finite"),
        ("9" * 400 + "pi", "is not finite"),
        ("pi/0", "cannot parse"),
    ],
    ids=["inf", "-inf", "nan", "1e999", "huge-pi", "pi-over-zero"],
)
def test_cli_dispersion_rejects_non_finite_angle(capsys, token, message):
    code, out, err = run_cli(
        capsys, "dispersion", "--builtin", "hexagonal", "--path", f"0,0:{token},0"
    )
    assert code == 1
    assert out == ""
    assert message in err and repr(token) in err


def test_cli_compare_same_file(tmp_path, capsys):
    path = tmp_path / "star.json"
    save_graph(star(2, 3), path)
    code, out, _ = run_cli(capsys, "compare", str(path), str(path))
    assert code == 0
    report = json.loads(out)
    assert report["params"]["c_total"] == 0.0
    assert report["all_checks_pass"] is True


def test_cli_compare_star_potentials(tmp_path, capsys):
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    save_graph(star(2, 3, q=(0.3, 0.0, 0.0)), path_a)
    save_graph(star(2, 3), path_b)
    code, out, _ = run_cli(capsys, "compare", str(path_a), str(path_b))
    assert code == 0
    report = json.loads(out)
    assert report["params"]["c_total"] == pytest.approx(1.2 / 2.0, abs=1e-12)


def test_cli_compare_vertex_mismatch(capsys):
    code, _, err = run_cli(capsys, "compare", "hexagonal", "triangular")
    assert code == 1
    assert err.splitlines() == ["error: vertex count mismatch: 2 != 1"]


def test_cli_compare_dimension_mismatch(capsys):
    # Two graphs of one vertex count on lattices of different dimension.
    code, out, err = run_cli(capsys, "compare", "star(2,2)", "star(3,2)")
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: dimension mismatch: 2 != 3"]


def test_cli_compare_disconnected_cover_with_a_flip_corner(tmp_path, capsys):
    # The loops (1, 0) and (0, 3) are both flipped at (pi, pi), but they
    # split the cover into three copies: the corner-scan path of a loop graph
    # with a flip corner tests connectivity as the grid path does.
    spec = PeriodicGraphSpec(
        2, (VertexInfo("a"),), (EdgeRecord(0, 0, (1, 0)), EdgeRecord(0, 0, (0, 3)))
    )
    assert graph.classify(spec).precise_quasimomentum == (PI, PI)
    path = tmp_path / "split.json"
    save_graph(spec, path)
    code, out, err = run_cli(capsys, "compare", str(path), str(path))
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: periodic cover is disconnected"]


def test_cli_analyze_bridgeless_quotient_is_disconnected(tmp_path, capsys):
    # No cell-crossing edge: the zero corner is the flip corner, and the
    # cover is still refused as disconnected.
    spec = PeriodicGraphSpec(2, (VertexInfo("a"), VertexInfo("b")), (EdgeRecord(0, 1, (0, 0)),))
    assert graph.classify(spec).precise_quasimomentum == (0.0, 0.0)
    path = tmp_path / "bridgeless.json"
    save_graph(spec, path)
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: periodic cover is disconnected"]


@pytest.mark.parametrize(
    "argv",
    [
        ("star(2,3)", "star(2,3)", "--q-a=1e308,0,0"),
        ("star(2,3)", "star(2,3)", "--q-a=1e308,0,0", "--q-b=-1e308,0,0"),
        ("fcc", "fcc", "--q-a=1e308,0,0,0"),
    ],
    ids=["edges", "fibers", "grid-path"],
)
def test_cli_compare_overflow_is_one_numeric_error(capsys, argv):
    # Finite band edges and fibers whose differences overflow float64: one
    # error line and exit 2, and no numpy warning (an error under pytest).
    code, out, err = run_cli(capsys, "compare", *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: stability constants: edge-and-gap-variation<=2C overflows float64"
    ]


@pytest.mark.parametrize(
    "owner, name, error, argv, line",
    [
        (
            TorusGrid,
            "points",
            MemoryError("Unable to allocate 74.5 GiB"),
            ("analyze", "--builtin", "hexagonal", "--grid", "100000"),
            "error: analyze ran out of memory: Unable to allocate 74.5 GiB",
        ),
        (
            cli,
            "_path_points",
            MemoryError(),
            ("dispersion", "--builtin", "hexagonal", "--path", "0,0:1,1", "--samples", "1000000000"),
            "error: dispersion ran out of memory",
        ),
    ],
    ids=["analyze-grid", "dispersion-path"],
)
def test_cli_oversized_input_is_one_error_line(capsys, monkeypatch, owner, name, error, argv, line):
    # The allocation is faked: the real inputs would ask for tens of GiB.
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(owner, name, fail)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [line]


def test_cli_builtin_listing_stable(capsys):
    code1, out1, _ = run_cli(capsys, "builtins")
    code2, out2, _ = run_cli(capsys, "builtins")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "fcc" in out1
    assert "star(d, nu)" in out1


def _missing_file_error(capsys, command, path, *rest):
    code, out, err = run_cli(capsys, command, path, *rest)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        f"error: no such file {path!r}, nor a builtin id: cannot parse builtin id {path!r}"
    ]


def test_load_graph_missing_file(tmp_path, capsys):
    _missing_file_error(capsys, "analyze", str(tmp_path / "missing.json"))


@pytest.mark.parametrize("command, rest", [("dispersion", ()), ("compare", ("fcc",))])
def test_cli_missing_graph_file_is_named(tmp_path, capsys, command, rest):
    _missing_file_error(capsys, command, str(tmp_path / "missing.json"), *rest)


def test_cli_builtin_flag_error_names_only_the_builtin(capsys):
    code, out, err = run_cli(capsys, "analyze", "--builtin", "missing.json")
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: cannot parse builtin id 'missing.json'"]


def test_cli_graph_file_that_is_not_utf8_exits_one(tmp_path, capsys):
    path = tmp_path / "noise.json"
    path.write_bytes(b"\xff" + np.random.default_rng(3).bytes(99))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: {path}: not UTF-8 text (invalid start byte at byte 0)"]


def test_cli_rejects_edge_indices_beyond_float64_integers(tmp_path, capsys):
    # A connected cover: loops of index (10**400, 1) and (1, 0) span Z^2.
    document = {
        "format_version": 1,
        "dimension": 2,
        "vertices": [{"label": "a", "q": 0.0}],
        "edges": [
            {"tail": 0, "head": 0, "index": [10**400, 1]},
            {"tail": 0, "head": 0, "index": [1, 0]},
        ],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: $: edges[0].index has an entry beyond 2**53")


@pytest.mark.parametrize(
    "field, path",
    [("q", "$.vertices[0].q"), ("position", "$.vertices[0].position[1]")],
)
def test_cli_names_a_graph_number_beyond_float64(tmp_path, capsys, field, path):
    vertex = {"label": "a", "q": 0.0}
    vertex[field] = 10**400 if field == "q" else [0.0, 10**400]
    document = {
        "format_version": 1,
        "dimension": 2,
        "vertices": [vertex],
        "edges": [
            {"tail": 0, "head": 0, "index": [0, 1]},
            {"tail": 0, "head": 0, "index": [1, 0]},
        ],
    }
    file = tmp_path / "huge.json"
    file.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, "analyze", str(file))
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: {path}: number beyond the float64 range"]


@pytest.mark.parametrize(
    "field, path",
    [("q", "$.vertices[0].q"), ("index", "$.edges[1].index[0]"), ("tail", "$.edges[0].tail")],
)
def test_cli_names_an_integer_literal_too_long_for_int(tmp_path, capsys, field, path):
    # int() refuses a literal of more than 4,300 digits (the interpreter's
    # default int_max_str_digits); such a number is far beyond float64.
    document = {
        "format_version": 1,
        "dimension": 2,
        "vertices": [{"label": "a", "q": "huge" if field == "q" else 0.0}],
        "edges": [
            {"tail": "huge" if field == "tail" else 0, "head": 0, "index": [0, 1]},
            {"tail": 0, "head": 0, "index": ["huge" if field == "index" else 1, 0]},
        ],
    }
    file = tmp_path / "huge.json"
    file.write_text(json.dumps(document).replace('"huge"', "-" + "9" * 5000))
    code, out, err = run_cli(capsys, "analyze", str(file))
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: {path}: number beyond the float64 range"]


def test_cli_reports_json_nested_past_the_recursion_limit(tmp_path, capsys):
    file = tmp_path / "deep.json"
    file.write_text("[" * 100_000)
    code, out, err = run_cli(capsys, "analyze", str(file))
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: invalid JSON: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--builtin", "star(2,3)", "--q", "1,2,3", "--grid", "12"),
        ("compare", "star(2,3)", "star(2,3)"),
        ("analyze", "--builtin", "hexagonal", "--q", "1,-1", "--refine", "--grid", "12"),
    ],
    ids=["analyze", "compare", "refine"],
)
def test_each_spec_object_builds_its_oriented_edges_once(monkeypatch, capsys, argv):
    # Count the oriented edges built during one call against those of every
    # spec object the call creates: each object builds its list at most once.
    specs, built = [], [0]
    validate = graph._validate

    def recording(spec):
        specs.append(spec)
        return validate(spec)

    class Counting(graph.OrientedEdge):
        def __init__(self, *args):
            built[0] += 1
            super().__init__(*args)

    monkeypatch.setattr(graph, "_validate", recording)
    monkeypatch.setattr(graph, "OrientedEdge", Counting)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert 0 < built[0] <= sum(2 * len(spec.edges) for spec in specs)


def test_save_and_load_round_trip(tmp_path):
    path = tmp_path / "hex.json"
    spec = hexagonal(q=(0.5, -0.5))
    save_graph(spec, path)
    assert load_graph(path) == spec


def test_parse_then_serialize_is_identity_on_canonical_files():
    text = serialize_graph(star(2, 4, q=(0.1, -0.7, 0.0, 3.25)))
    assert serialize_graph(parse_graph(text)) == text


def test_cli_analyze_normalized_kind(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--builtin", "hexagonal", "--kind", "normalized",
        "--grid", "24",
    )
    assert code == 0
    report = json.loads(out)
    assert report["bands"][0]["low"] == pytest.approx(0.0, abs=1e-9)
    assert report["bands"][-1]["high"] == pytest.approx(2.0, abs=1e-9)
    names = [c["name"] for c in report["checks"]]
    assert any("normalized" in n for n in names)


def test_cli_analyze_refine_flag(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--builtin", "triangular", "--grid", "16", "--refine"
    )
    assert code == 0
    report = json.loads(out)
    assert report["bands"][0]["high"] == pytest.approx(9.0, abs=1e-6)


@pytest.mark.parametrize(
    "argv, count",
    [
        (("--builtin", "hexagonal", "--q", "1,-1"), 14),
        (("--builtin", "fcc", "--q", "1,2,3,0", "--grid", "6"), 16),
        (("--builtin", "triangular", "--grid", "16"), 25),
        (("--builtin", "hexagonal", "--kind", "normalized", "--grid", "12"), 12),
    ],
    ids=["hexagonal-two-kinds", "fcc-two-kinds", "triangular-one-kind", "normalized-one-kind"],
)
def test_cli_refine_builds_and_solves_every_kind_once_per_step(calls, capsys, argv, count):
    # One build and solve of the sample, one of the start points and one per
    # round of trials, whatever the number of kinds.  These quotients are
    # small, so a round looks ahead up to 4 sweeps of 2d trials of each
    # descent, in place of the 40 * 2d trial steps taken one at a time.
    builds, solves = calls(spectrum, "fiber_stack"), calls(spectrum, "eigh_stack")
    per_kind = calls(spectrum, "grid_eigenvalues")
    code, _, _ = run_cli(capsys, "analyze", *argv, "--refine")
    assert code == 0
    assert len(builds) == len(solves) == count
    assert per_kind == []


def _report_text(spec, kind, grid, refine):
    """The report's classification, bands, flat bands, gaps, measure and
    check rows as `dumps` writes them."""
    cls, bs, reports = spectrum.estimate_suite(spec, kind, grid, refine=refine)
    return dumps(
        {
            "classification": cli._classification_doc(cls),
            "bands": [cli._band_doc(b) for b in bs.bands],
            "flat_bands": [[fb.value, fb.multiplicity] for fb in bs.flat_bands],
            "gaps": [list(gap) for gap in bs.gaps],
            "spectrum_measure": bs.spectrum_measure,
            "checks": cli._checks_doc(reports),
        }
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(FAMILIES).flatmap(quotients),
    st.sampled_from(("schrodinger", "laplacian", "normalized")),
    st.booleans(),
    st.sampled_from((7, 12, 64)),
)
def test_reports_are_byte_identical_under_edge_reversal(spec, kind, refine, m):
    # Every edge (t, h, n) written (h, t, -n) is the same periodic graph.  At
    # 64 points per axis a 2-D grid has 2,050 theta, -theta pairs, so the
    # band-symmetry search runs; 3-D grids stay at 12 or below.
    grid = TorusGrid(spec.dimension, m if spec.dimension < 3 else min(m, 12))
    text = _report_text(spec, kind, grid, refine)
    assert _report_text(reverse_edges(spec), kind, grid, refine) == text


def test_cli_refine_leaves_a_flip_corner_loop_graph_unchanged(capsys):
    # Its band edges are the rows at theta = 0 and at the flip corner, exactly.
    code, refined, _ = run_cli(capsys, "analyze", "--builtin", "star(2,3)", "--refine")
    plain_code, plain, _ = run_cli(capsys, "analyze", "--builtin", "star(2,3)")
    assert code == plain_code == 0
    assert refined == plain


def test_cli_flat_tol_reaches_flat_band_grouping(capsys):
    # The two flat branches of star(2,4) at 1 differ in their last bits, so
    # --flat-tol 0 keeps them apart where the default merges them.
    code, out, _ = run_cli(capsys, "analyze", "--builtin", "star(2,4)", "--grid", "12")
    assert code == 0
    (flat,) = json.loads(out)["flat_bands"]
    assert flat["multiplicity"] == 2
    assert flat["value"] == pytest.approx(1.0, abs=1e-12)
    code, out, _ = run_cli(
        capsys, "analyze", "--builtin", "star(2,4)", "--grid", "12", "--flat-tol", "0"
    )
    assert code == 0
    expected = compute_band_structure(
        star(2, 4), "schrodinger", TorusGrid(2, 12), flat_tol=0.0
    )
    assert json.loads(out)["flat_bands"] == [
        {"value": fb.value, "multiplicity": fb.multiplicity} for fb in expected.flat_bands
    ]
    assert [fb.multiplicity for fb in expected.flat_bands] == [1, 1]


GAP_ROW = "gap-length-bound:band-hull-minus-bridges<=gap-length-sum"


@pytest.mark.parametrize("q", ["1e6,0,3", "1e9,0,3"])
def test_cli_gap_row_skips_a_flat_band_beyond_the_open_bands(capsys, q):
    # The first potential puts a flat band near it, far above the open
    # bands.  The gap sum is the open bands', and so is the hull the row
    # reads: the gap up to the flat band is in neither.
    code, out, _ = run_cli(capsys, "analyze", "--builtin", "star(2,3)", "--q", q)
    assert code == 0
    report = json.loads(out)
    (row,) = [c for c in report["checks"] if c["name"] == GAP_ROW]
    assert row["lhs"] < report["bands"][-1]["high"] - report["bands"][0]["low"] - 8.0
    assert row["pass"] is True


def test_cli_gap_row_with_every_band_flat(capsys):
    # With no open band the row reads 0 - 2 * bridges against an empty gap
    # sum.  The spectrum measure is 0 too, so the flip-corner measure
    # identity (8 = 2 * bridges) is the one row that fails.
    code, out, _ = run_cli(capsys, "analyze", "--builtin", "star(2,3)", "--flat-tol", "100")
    assert code == 2
    rows = {c["name"]: c for c in json.loads(out)["checks"]}
    assert (rows[GAP_ROW]["lhs"], rows[GAP_ROW]["rhs"], rows[GAP_ROW]["pass"]) == (-8, 0, True)
    assert [name for name, c in rows.items() if not c["pass"]] == [
        "loop-graph-endpoints:flip-corner-measure-identity"
    ]


_INPUT_BLOCK = re.compile(r'^  "input": \{\n.*?^  \},\n', re.DOTALL | re.MULTILINE)


@pytest.mark.parametrize("kind", ["laplacian", "normalized"])
@pytest.mark.parametrize(
    "builtin, q, grid",
    [
        ("star(2,3)", "100,0,0", ("--grid", "12")),
        ("star(2,6)", "3,0,0,0,0,-1", ()),
        ("hexagonal", "1,-1", ()),
        ("bcc", "32,0", ()),
        ("fcc", "1,2,3,0", ("--grid", "12")),
        ("subdivided(2,1)", "0.5,-2,1", ()),
    ],
)
def test_cli_analyze_potential_free_kinds_ignore_potentials(capsys, kind, builtin, q, grid):
    # Only the Schroedinger operator carries potentials, so the Laplacian and
    # normalized reports of a graph with potentials are those of the graph
    # without them; only the input block tells the two calls apart.
    argv = ("analyze", "--builtin", builtin, "--kind", kind, *grid)
    code, with_q, _ = run_cli(capsys, *argv, "--q", q)
    plain_code, plain, _ = run_cli(capsys, *argv)
    assert code == plain_code == 0
    with_q, found = _INPUT_BLOCK.subn("", with_q)
    plain, found_plain = _INPUT_BLOCK.subn("", plain)
    assert found == found_plain == 1
    assert with_q == plain


@pytest.mark.parametrize(
    "argv",
    [
        ("--builtin", "hexagonal"),
        ("--builtin", "hexagonal", "--q", "1,-1"),
        ("--builtin", "cubic(2)"),
        ("--builtin", "bipartite_chain(2,3)"),
        ("--builtin", "cubic(3)"),
    ],
    ids=["potential-free", "with-potentials", "cubic(2)", "bipartite_chain(2,3)", "cubic(3)"],
)
def test_cli_analyze_takes_theta_zero_from_the_grid_solve(capsys, calls, argv):
    # One fiber build and one grid solve serve every band structure
    # (Schroedinger, and Laplacian when potentials are present); theta = 0 is
    # its first row, never re-solved, also not for the mirrored endpoints of
    # bipartite regular loop graphs.
    made = calls(spectrum, "eigh_stack", len)
    built = calls(spectrum, "fiber_stack")
    code, _, _ = run_cli(capsys, "analyze", *argv)
    assert code == 0
    assert len(made) == len(built) == 1
