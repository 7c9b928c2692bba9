"""Command-line surface: analyze, dispersion, compare, builtins.

Exit codes: 0 when every applicable check passes, 1 for input problems,
2 when a verified inequality is violated, the eigensolver fails or a computed
value is not finite (a bug or a tolerance problem, never silent).  Tolerances
must be finite and >= 0.  Reports are byte-deterministic for fixed inputs,
grid and tolerances.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

import numpy as np

from . import graphio
from .errors import (
    GraphbandsError,
    InvariantViolation,
    NumericError,
    ValidationError,
)
from .graph import PeriodicGraphSpec, with_potentials
from .lattices import builtin_catalog, parse_builtin
from .spectrum import (
    CHECK_TOL,
    FLAT_MERGE_TOL,
    TorusGrid,
    _orbit_group,
    estimate_suite,
    grid_eigenvalues,
    stability_constants,
)

GRID_ENV_VAR = "GRAPHBANDS_GRID"


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _tolerance(text: str) -> float:
    """argparse type for the tolerance flags: a finite float >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # rejected below, with the same message
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


# Built on first use, once per process: parsing leaves no state in the
# parser, and building one costs about a millisecond per call of `main`.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="graphbands", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", nargs="?", help="graph file path or builtin id")
        p.add_argument("--builtin", help="builtin generator id, e.g. 'star(2,3)'")
        p.add_argument("--q", help="comma-separated on-site potentials")
        p.add_argument("--grid", type=int, help="points per torus axis")
        p.add_argument(
            "--kind",
            choices=("laplacian", "schrodinger", "normalized"),
            default="schrodinger",
        )
        p.add_argument("--out", help="output path (default: stdout)")

    analyze = sub.add_parser("analyze", help="band structure plus all applicable checks")
    add_input(analyze)
    analyze.add_argument("--flat-tol", type=_tolerance, help="flat-band width tolerance")
    analyze.add_argument(
        "--merge-tol",
        type=_tolerance,
        default=FLAT_MERGE_TOL,
        help="flat-value merge tolerance",
    )
    analyze.add_argument(
        "--check-tol", type=_tolerance, default=CHECK_TOL, help="allowed slack on checks"
    )
    analyze.add_argument(
        "--refine", action="store_true", help="refine band extrema beyond the grid"
    )

    dispersion = sub.add_parser("dispersion", help="tabulate eigenvalue branches")
    add_input(dispersion)
    dispersion.add_argument(
        "--path",
        help="waypoints 'a,b:c,d:...'; components accept pi expressions like 2pi/3",
    )
    dispersion.add_argument(
        "--samples", type=int, help="points per --path segment (default: 50)"
    )

    compare = sub.add_parser("compare", help="stability bounds for two graphs")
    compare.add_argument("input_a", help="graph file path or builtin id")
    compare.add_argument("input_b", help="graph file path or builtin id")
    compare.add_argument("--q-a", help="potentials override for the first graph")
    compare.add_argument("--q-b", help="potentials override for the second graph")
    compare.add_argument("--grid", type=int, help="points per torus axis")
    compare.add_argument("--check-tol", type=_tolerance, default=CHECK_TOL)
    compare.add_argument("--out", help="output path (default: stdout)")

    sub.add_parser("builtins", help="list builtin lattice generators")
    return parser


_PI_TOKEN = re.compile(
    r"^([+-]?)(\d+(?:\.\d*)?|\.\d+)?\s*pi(?:\s*/\s*(\d+(?:\.\d*)?))?$"
)


def _parse_angle(token: str) -> float:
    token = token.strip()
    match = _PI_TOKEN.match(token)
    try:
        if match:
            sign = -1.0 if match.group(1) == "-" else 1.0
            coeff = float(match.group(2)) if match.group(2) else 1.0
            divisor = float(match.group(3)) if match.group(3) else 1.0
            value = sign * coeff * math.pi / divisor
        else:
            value = float(token)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"cannot parse angle {token!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"angle {token!r} is not finite")
    return value


def _parse_csv_floats(text: str, what: str):
    try:
        return tuple(float(piece) for piece in text.split(","))
    except ValueError:
        raise ValidationError(f"cannot parse {what}: {text!r}") from None


def _resolve_spec(positional, builtin, q_text) -> tuple[PeriodicGraphSpec, dict]:
    if builtin is not None and positional is not None:
        raise ValidationError("give either an input file or --builtin, not both")
    source = builtin if builtin is not None else positional
    if source is None:
        raise ValidationError("an input file or --builtin id is required")
    if builtin is None and os.path.exists(source):
        spec = graphio.load_graph(source)
        descriptor = {"file": source}
    else:
        spec = parse_builtin(source)
        descriptor = {"builtin": source}
    if q_text is not None:
        spec = with_potentials(spec, _parse_csv_floats(q_text, "--q"))
        descriptor["q"] = list(spec.potentials())
    return spec, descriptor


def _resolve_grid(spec: PeriodicGraphSpec, flag_value) -> TorusGrid:
    if flag_value is not None:
        return TorusGrid(spec.dimension, flag_value)
    env = os.environ.get(GRID_ENV_VAR)
    if env:
        try:
            return TorusGrid(spec.dimension, int(env))
        except ValueError:
            raise ValidationError(f"{GRID_ENV_VAR} must be an integer") from None
    return TorusGrid.default_for(spec.dimension)


def _write_output(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _band_doc(band):
    return {
        "n": band.n,
        "low": band.low,
        "high": band.high,
        "width": band.width,
        "argmin": band.argmin,
        "argmax": band.argmax,
    }


def _checks_doc(reports):
    rows = []
    for report in reports:
        for check in report.checks:
            rows.append(
                {
                    "name": f"{report.name}:{check.name}",
                    "lhs": check.lhs,
                    "rhs": check.rhs,
                    "slack": check.slack,
                    "pass": check.passed,
                }
            )
    return rows


def _classification_doc(cls):
    return {
        "is_connected": cls.is_connected,
        "is_regular": cls.is_regular,
        "regular_degree": cls.regular_degree,
        "max_degree": cls.max_degree,
        "fundamental_bipartite": cls.fundamental_bipartite,
        "periodic_bipartite": cls.periodic_bipartite,
        "is_loop_graph": cls.is_loop_graph,
        "precise_quasimomentum": cls.precise_quasimomentum,
        "bridge_count": cls.bridge_count,
    }


def _cmd_analyze(args) -> int:
    spec, descriptor = _resolve_spec(args.input, args.builtin, args.q)
    grid = _resolve_grid(spec, args.grid)
    cls, bs, reports = estimate_suite(
        spec,
        kind=args.kind,
        grid=grid,
        check_tol=args.check_tol,
        flat_tol=args.flat_tol,
        merge_tol=args.merge_tol,
        refine=args.refine,
    )
    all_pass = all(report.passed for report in reports)
    document = {
        "format_version": graphio.REPORT_FORMAT_VERSION,
        "command": "analyze",
        "input": descriptor,
        "kind": args.kind,
        "grid": {
            "dimension": grid.dimension,
            "points_per_axis": grid.points_per_axis,
            "total_points": grid.size,
        },
        "classification": _classification_doc(cls),
        "bands": [_band_doc(b) for b in bs.bands],
        "open_bands": [_band_doc(b) for b in bs.open_bands],
        "flat_bands": [
            {"value": fb.value, "multiplicity": fb.multiplicity} for fb in bs.flat_bands
        ],
        "gaps": [[lo, hi] for lo, hi in bs.gaps],
        "spectrum_measure": bs.spectrum_measure,
        "flat_tol": bs.flat_tol,
        "checks": _checks_doc(reports),
        "all_checks_pass": all_pass,
    }
    _write_output(graphio.dumps(document), args.out)
    return 0 if all_pass else 2


def _path_points(text: str, dimension: int, samples: int) -> np.ndarray:
    waypoints = []
    for stop in text.split(":"):
        parts = [p for p in stop.split(",")]
        if len(parts) != dimension:
            raise ValidationError(
                f"path waypoint {stop!r} has {len(parts)} components, expected {dimension}"
            )
        waypoints.append([_parse_angle(p) for p in parts])
    if len(waypoints) < 2:
        raise ValidationError("a path needs at least two waypoints")
    if samples < 1:
        raise ValidationError("--samples must be >= 1")
    rows = []
    for start, stop in zip(waypoints, waypoints[1:]):
        start = np.asarray(start)
        stop = np.asarray(stop)
        for j in range(samples):
            rows.append(start + (stop - start) * (j / samples))
    rows.append(np.asarray(waypoints[-1]))
    return np.asarray(rows)


def _cmd_dispersion(args) -> int:
    if args.path is not None and args.grid is not None:
        raise ValidationError("give either --path or --grid, not both")
    if args.path is None and args.samples is not None:
        raise ValidationError("--samples needs --path")
    spec, _ = _resolve_spec(args.input, args.builtin, args.q)
    if args.path is not None:
        samples = 50 if args.samples is None else args.samples
        thetas = _path_points(args.path, spec.dimension, samples)
        values = grid_eigenvalues(spec, thetas, args.kind)
    else:
        # One solve per band-symmetry orbit, copied to every point of it.
        grid = _resolve_grid(spec, args.grid)
        representatives, index, thetas = grid.representatives(_orbit_group(spec, grid))
        values = grid_eigenvalues(spec, representatives, args.kind)[index]
    lines = [
        "# "
        + "\t".join(
            [f"theta_{s + 1}" for s in range(spec.dimension)]
            + [f"lambda_{n + 1}" for n in range(spec.num_vertices)]
        )
    ]
    lines += graphio.format_rows(np.hstack([thetas, values]))
    lines.append("")  # the trailing newline, without copying the joined text
    _write_output("\n".join(lines), args.out)
    return 0


def _cmd_compare(args) -> int:
    spec_a, desc_a = _resolve_spec(args.input_a, None, args.q_a)
    spec_b, desc_b = _resolve_spec(args.input_b, None, args.q_b)
    grid_a = _resolve_grid(spec_a, args.grid)
    grid_b = _resolve_grid(spec_b, args.grid)
    report = stability_constants(
        spec_a,
        spec_b,
        grid_a=grid_a,
        grid_b=grid_b,
        check_tol=args.check_tol,
    )
    document = {
        "format_version": graphio.REPORT_FORMAT_VERSION,
        "command": "compare",
        "inputs": [desc_a, desc_b],
        "params": report.params,
        "checks": _checks_doc([report]),
        "all_checks_pass": report.passed,
    }
    _write_output(graphio.dumps(document), args.out)
    return 0 if report.passed else 2


def _cmd_builtins() -> int:
    width = max(len(sig) for sig, _ in builtin_catalog()) + 2
    for signature, description in builtin_catalog():
        sys.stdout.write(f"{signature.ljust(width)}{description}\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "dispersion":
            return _cmd_dispersion(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "builtins":
            return _cmd_builtins()
        raise ValidationError(f"unknown command {args.command!r}")
    except (InvariantViolation, NumericError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (GraphbandsError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
