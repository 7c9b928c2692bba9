import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from graphbands import NumericError, ValidationError, cli
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
from graphbands.lattices import bipartite_chain, fcc, hexagonal, star, subdivided

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
    argv = ["analyze", "--builtin", "star(2,3)", "--grid", "24"]
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env.pop(cli.GRID_ENV_VAR, None)
        done = subprocess.run(
            [sys.executable, "-m", "graphbands.cli", *argv],
            env=env,
            capture_output=True,
            check=False,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["grid"]["points_per_axis"] == 24


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
    ],
)
def test_cli_dispersion_rows_match_per_cell_formatting(capsys, monkeypatch, argv):
    seen = _capture_grid_eigenvalues(monkeypatch)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rows = _per_cell_rows(np.hstack([seen["thetas"], seen["values"]]))
    assert out.split("\n", 1)[1] == "\n".join(rows) + "\n"


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
    assert format_rows(table) == _per_cell_rows(table)


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
