import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from graphbands import (
    NumericError,
    TorusGrid,
    ValidationError,
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


def test_cli_exit_two_when_tolerance_squeezed(capsys):
    # With zero slack allowed, the tiny negative rounding slack on the exact
    # identity for this lattice must surface as exit code 2, never silently.
    code, out, _ = run_cli(
        capsys, "analyze", "--builtin", "star(2,3)", "--check-tol", "0"
    )
    report = json.loads(out)
    assert code == 2
    assert report["all_checks_pass"] is False


def test_cli_reports_byte_identical_across_interpreters():
    # Fresh interpreters with different string-hash seeds must print the
    # same bytes: no set or dict iteration order may reach the report.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop(cli.GRID_ENV_VAR, None)

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
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --jobs" in err


def test_cli_analyze_subdivided_3_3_is_finite(capsys):
    def reject(token):
        raise AssertionError(f"non-finite number {token} in report")

    code, out, err = run_cli(capsys, "analyze", "--builtin", "subdivided(3,3)")
    assert code == 0, err
    report = json.loads(out, parse_constant=reject)
    numbers = [band[key] for band in report["bands"] for key in ("low", "high")]
    numbers += [row[key] for row in report["checks"] for key in ("lhs", "rhs", "slack")]
    assert all(math.isfinite(x) for x in numbers)


def test_cli_grid_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GRAPHBANDS_GRID", "12")
    code, out, _ = run_cli(capsys, "analyze", "--builtin", "hexagonal")
    assert code == 0
    assert json.loads(out)["grid"]["points_per_axis"] == 12


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

    def capture(spec, thetas, kind):
        seen["thetas"] = thetas
        seen["values"] = transform(solve(spec, thetas, kind))
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
        # 129^2 + 3 = 16,644 rows: one full block of TABLE_BLOCK_ROWS and a
        # partial one that ends with the pi corners of the odd grid.
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
        group = spectrum._orbit_group(spec, grid, ("schrodinger",))
        representatives, index, points = grid.representatives(group)
        assert seen["thetas"].tobytes() == representatives.tobytes()
        table = np.hstack([points, seen["values"][index]])
    if argv[-1] == "129":
        assert graphio.TABLE_BLOCK_ROWS < len(table) < 2 * graphio.TABLE_BLOCK_ROWS
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


def test_stream_rows_joins_every_block(monkeypatch):
    thetas = np.arange(10.0)[:, None] / 3.0
    values = np.array([[-0.0, 1e300], [5e-324, 2.5]])
    index = np.array([0, 1, 1, 0, 0, 1, 0, 1, 1, 1])
    monkeypatch.setattr(graphio, "TABLE_BLOCK_ROWS", 4)
    blocks = list(graphio.stream_rows(format_rows(thetas), format_rows(values), index))
    assert [block.count("\n") for block in blocks] == [4, 4, 2]
    table = np.hstack([thetas, values[index]])
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
    capsys, monkeypatch, kind
):
    solves = []
    solve = spectrum.eigh_stack

    def counting(stack, *args, **kwargs):
        solves.append(len(stack))
        return solve(stack, *args, **kwargs)

    monkeypatch.setattr(spectrum, "eigh_stack", counting)
    argv = ("dispersion", "--builtin", "fcc", "--kind", kind)
    code, with_q, _ = run_cli(capsys, *argv, "--q", "1,2,3,0")
    plain_code, plain, _ = run_cli(capsys, *argv)
    assert code == plain_code == 0
    assert solves == [455, 455]
    assert with_q == plain


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


TOLERANCE_FLAGS = [
    (("analyze", "--builtin", "star(2,3)"), "--flat-tol"),
    (("analyze", "--builtin", "star(2,3)"), "--merge-tol"),
    (("analyze", "--builtin", "star(2,3)"), "--check-tol"),
    (("compare", "star(2,3)", "star(2,3)"), "--check-tol"),
]


@pytest.mark.parametrize("argv, flag", TOLERANCE_FLAGS)
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
    code, _, err = run_cli(capsys, "compare", "hexagonal", "fcc")
    assert code == 1
    assert "mismatch" in err


def test_cli_builtin_listing_stable(capsys):
    code1, out1, _ = run_cli(capsys, "builtins")
    code2, out2, _ = run_cli(capsys, "builtins")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "fcc" in out1
    assert "star(d, nu)" in out1


def test_load_graph_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == 1


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


def test_cli_merge_tol_reaches_flat_band_grouping(capsys):
    # The two flat branches of star(2,4) at 1 differ in their last bits, so
    # --merge-tol 0 keeps them apart where the default merges them.
    code, out, _ = run_cli(
        capsys, "analyze", "--builtin", "star(2,4)", "--grid", "12", "--merge-tol", "0"
    )
    assert code == 0
    expected = compute_band_structure(
        star(2, 4), "schrodinger", TorusGrid(2, 12), merge_tol=0.0
    )
    assert json.loads(out)["flat_bands"] == [
        {"value": fb.value, "multiplicity": fb.multiplicity} for fb in expected.flat_bands
    ]
    assert [fb.multiplicity for fb in expected.flat_bands] == [1, 1]


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
    "argv, solves",
    [
        (("--builtin", "hexagonal"), 1),
        (("--builtin", "hexagonal", "--q", "1,-1"), 2),
        (("--builtin", "cubic(2)"), 1),
        (("--builtin", "bipartite_chain(2,3)"), 1),
        (("--builtin", "cubic(3)"), 1),
    ],
    ids=["potential-free", "with-potentials", "cubic(2)", "bipartite_chain(2,3)", "cubic(3)"],
)
def test_cli_analyze_takes_theta_zero_from_the_grid_solve(capsys, monkeypatch, argv, solves):
    # One grid solve per band structure (Schroedinger, and Laplacian when
    # potentials are present); theta = 0 is its first row, never re-solved,
    # also not for the mirrored endpoints of bipartite regular loop graphs.
    calls = []
    solve = spectrum.eigh_stack

    def counting(stack, *args, **kwargs):
        calls.append(len(stack))
        return solve(stack, *args, **kwargs)

    monkeypatch.setattr(spectrum, "eigh_stack", counting)
    code, _, _ = run_cli(capsys, "analyze", *argv)
    assert code == 0
    assert len(calls) == solves
