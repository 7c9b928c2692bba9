"""End-to-end acceptance suite.

Each test prints one pass/fail line; tolerances are pinned in the asserts.
"""

import json
import math
from contextlib import contextmanager

import numpy as np

from graphbands import (
    TorusGrid,
    bridge_count,
    check_first_band_nondegenerate,
    classify,
    compute_band_structure,
    dirac_expansion_check,
    estimate_suite,
    fiber_eigenvalues,
    large_coupling_analysis,
    shift_origin,
    stability_constants,
    verify_gap_bound,
    verify_total_band_bound,
    with_potentials,
)
from graphbands.cli import main as cli_main
from graphbands.floquet import fiber_stack
from graphbands.lattices import (
    FiniteGraph,
    bcc,
    bipartite_chain,
    cubic,
    decorate,
    fcc,
    hexagonal,
    star,
    subdivided,
    triangular,
)

from oracles import (
    char_bcc,
    char_cubic,
    char_fcc_laplacian,
    char_hexagonal,
    char_star,
    char_subdivided_mirror,
    char_triangular,
)

PI = math.pi


@contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} [{label}]: FAIL")
        raise
    print(f"criterion {number:2d} [{label}]: PASS")


def run_analyze(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = cli_main(["analyze", *argv, "--out", str(out)])
    return code, json.loads(out.read_text())


def test_criterion_01_cubic_spectra(tmp_path):
    with criterion(1, "cubic lattice spectra"):
        for d in (1, 2, 3):
            code, report = run_analyze(tmp_path, "--builtin", f"cubic({d})")
            assert code == 0
            band = report["bands"][0]
            assert abs(band["low"]) <= 1e-9
            assert abs(band["high"] - 4.0 * d) <= 1e-9
            band_sum = sum(b["width"] for b in report["bands"])
            beta = report["classification"]["bridge_count"]
            assert beta == 2 * d
            assert abs(band_sum - 2.0 * beta) <= 1e-12
            assert abs(band_sum - 4.0 * d) <= 1e-12


def test_criterion_02_hexagonal(tmp_path):
    with criterion(2, "honeycomb bands and potential gap"):
        bs = compute_band_structure(hexagonal(), "laplacian")
        assert abs(bs.bands[0].low) <= 1e-9
        assert abs(bs.bands[0].high - 3.0) <= 1e-9
        assert abs(bs.bands[1].low - 3.0) <= 1e-9
        assert abs(bs.bands[1].high - 6.0) <= 1e-9
        assert bs.gaps == ()

        code, report = run_analyze(
            tmp_path, "--builtin", "hexagonal", "--q", "1,-1"
        )
        assert code == 0
        bands = report["bands"]
        assert abs(bands[0]["low"] - (3.0 - math.sqrt(10.0))) <= 1e-9
        assert abs(bands[0]["high"] - 2.0) <= 1e-9
        assert abs(bands[1]["low"] - 4.0) <= 1e-9
        assert abs(bands[1]["high"] - (3.0 + math.sqrt(10.0))) <= 1e-9
        gap = report["gaps"][0]
        assert abs(gap[0] - 2.0) <= 1e-9 and abs(gap[1] - 4.0) <= 1e-9


def test_criterion_03_triangular():
    with criterion(3, "triangular lattice spectrum"):
        bs = compute_band_structure(triangular(), "laplacian")
        assert abs(bs.bands[0].low) <= 1e-9
        assert abs(bs.bands[0].high - 9.0) <= 1e-9
        cls = classify(triangular())
        assert cls.is_loop_graph
        assert cls.precise_quasimomentum is None


def test_criterion_04_bcc():
    with criterion(4, "body-centered cubic bands"):
        bs = compute_band_structure(bcc(), "laplacian")
        expected = [(0.0, 8.0), (12.0, 20.0)]
        for band, (lo, hi) in zip(bs.bands, expected):
            assert abs(band.low - lo) <= 1e-9
            assert abs(band.high - hi) <= 1e-9

        shifted = compute_band_structure(bcc(q=(32.0, 0.0)))
        root = math.sqrt(320.0)
        assert abs(shifted.bands[0].low - (24.0 - root)) <= 1e-9
        assert abs(shifted.bands[1].high - (24.0 + root)) <= 1e-9
        assert len(shifted.gaps) == 1
        assert abs(shifted.gaps[0][0] - 20.0) <= 1e-9
        assert abs(shifted.gaps[0][1] - 40.0) <= 1e-9


def test_criterion_05_fcc_flat_bands():
    with criterion(5, "face-centered cubic flat bands"):
        bs = compute_band_structure(fcc(), "laplacian")
        opens = [(b.low, b.high) for b in bs.open_bands]
        assert abs(opens[0][0]) <= 1e-9 and abs(opens[0][1] - 4.0) <= 1e-9
        assert abs(opens[1][0] - 16.0) <= 1e-9 and abs(opens[1][1] - 24.0) <= 1e-9
        assert len(bs.flat_bands) == 1
        assert abs(bs.flat_bands[0].value - 4.0) <= 1e-9
        assert bs.flat_bands[0].multiplicity == 2
        flat_widths = [b.width for b in bs.bands if b.width <= bs.flat_tol]
        assert max(flat_widths) <= 1e-9

        partial = compute_band_structure(fcc(q=(1.0, 1.0, 0.0, 0.0)))
        assert [(round(f.value, 9), f.multiplicity) for f in partial.flat_bands] == [
            (5.0, 1)
        ]
        generic = compute_band_structure(fcc(q=(1.0, 2.0, 3.0, 0.0)))
        assert generic.flat_bands == ()


def test_criterion_06_star_graph():
    with criterion(6, "pendant-decorated lattice identities"):
        spec = star(2, 3)
        bs = compute_band_structure(spec, "laplacian")
        x = 5.5
        root = math.sqrt(x * x - 8.0)
        assert abs(bs.bands[0].low) <= 1e-9
        assert abs(bs.bands[0].high - (x - root)) <= 1e-9
        assert abs(bs.flat_bands[0].value - 1.0) <= 1e-9
        assert abs(bs.bands[2].low - 3.0) <= 1e-9
        assert abs(bs.bands[2].high - (x + root)) <= 1e-9
        assert abs(bs.spectrum_measure - 8.0) <= 1e-9

        total = verify_total_band_bound(spec, "laplacian")
        assert total.passed and total.params["equality_attained"]
        gap = verify_gap_bound(spec)
        assert gap.passed
        hull_minus = gap.params["band_hull"] - 2.0 * gap.params["bridge_count"]
        assert abs(gap.params["gap_length_sum"] - hull_minus) <= 1e-9


def test_criterion_07_subdivided_lattices():
    with criterion(7, "subdivided lattice flat bands"):
        for n in (1, 2):
            spec = subdivided(2, n)
            bs = compute_band_structure(spec, "laplacian")
            expected = sorted(
                2.0 - 2.0 * math.cos(PI * k / (n + 1)) for k in range(1, n + 1)
            )
            values = sorted(f.value for f in bs.flat_bands)
            assert len(values) == n
            assert max(abs(a - b) for a, b in zip(values, expected)) <= 1e-9
            assert all(f.multiplicity == 1 for f in bs.flat_bands)
            assert len(bs.open_bands) == n + 1
            endpoints = [b.low for b in bs.open_bands] + [
                b.high for b in bs.open_bands
            ]
            for value in values:
                assert min(abs(value - e) for e in endpoints) <= 1e-9
        condition, nondegenerate = check_first_band_nondegenerate(subdivided(2, 2))
        assert condition is False
        assert nondegenerate is True


BUILTIN_SUITE = (
    cubic(1),
    cubic(2),
    cubic(3),
    triangular(),
    hexagonal(),
    bcc(),
    fcc(),
    star(2, 3),
    star(2, 5),
    subdivided(2, 1),
    subdivided(2, 2),
    bipartite_chain(2, 3),
)


def test_criterion_08_estimate_suite():
    with criterion(8, "inequality chain on builtins and random graphs"):
        for spec in BUILTIN_SUITE:
            _, _, reports = estimate_suite(spec)
            assert all(r.passed for r in reports), spec
        rng = np.random.default_rng(80)
        grid = TorusGrid(2, 48)
        for _ in range(50):
            base = [cubic(2), triangular(), star(2, 2)][int(rng.integers(3))]
            extra = int(rng.integers(2, 5))
            attachment = FiniteGraph(
                extra, tuple((int(rng.integers(0, i)), i) for i in range(1, extra))
            )
            spec = decorate(base, attachment, int(rng.integers(base.num_vertices)))
            spec = with_potentials(
                spec, rng.uniform(-3.0, 3.0, size=spec.num_vertices)
            )
            assert classify(spec).is_loop_graph
            _, _, reports = estimate_suite(spec, grid=grid)
            assert all(r.passed for r in reports)


def test_criterion_09_large_coupling():
    with criterion(9, "strong-coupling asymptotics"):
        hex_spec = hexagonal(q=(1.0, -1.0))
        report = large_coupling_analysis(hex_spec, 400.0)
        assert abs(report.spectrum_measure * 400.0 - 9.0) <= 0.05 * 9.0

        star_spec = star(2, 3, q=(2.0, 4.0, 0.0))
        report = large_coupling_analysis(star_spec, 400.0)
        assert abs(report.band_sum_limit - 8.0) <= 1e-12
        assert abs(report.spectrum_measure - 8.0) <= 1e-2

        deviations = {
            t: large_coupling_analysis(star_spec, t).max_deviation
            for t in (100.0, 200.0, 400.0)
        }
        assert 0.2 <= deviations[200.0] / deviations[100.0] <= 0.3
        assert 0.2 <= deviations[400.0] / deviations[200.0] <= 0.3


def test_criterion_10_stability():
    with criterion(10, "stability bounds"):
        rng = np.random.default_rng(100)
        for _ in range(20):
            qa = rng.uniform(-2.0, 2.0, size=3)
            qb = rng.uniform(-2.0, 2.0, size=3)
            report = stability_constants(
                star(2, 3, q=tuple(qa)), star(2, 3, q=tuple(qb))
            )
            expected = 2.0 * float(np.abs(qa - qb).sum())
            assert abs(report.params["c_total"] - expected) <= 1e-12
            assert report.passed

        mixed = stability_constants(star(2, 3), bipartite_chain(2, 3))
        names = {c.name for c in mixed.checks}
        assert "precise-vs-bipartite-gap-variation<=2C1" in names
        assert "precise-vs-bipartite-band-variation<=2C1" in names
        assert mixed.passed


def test_criterion_11_dirac_point():
    with criterion(11, "conical touching expansion"):
        report = dirac_expansion_check(0.5, 1e-2)
        assert 0.15 <= report.ratio <= 0.35
        assert abs(report.touch_eigenvalues[0] - 2.5) <= 1e-12
        assert abs(report.touch_eigenvalues[1] - 3.5) <= 1e-12


def test_criterion_12_characteristic_polynomial_oracles():
    with criterion(12, "closed-form characteristic polynomials"):
        rng = np.random.default_rng(120)

        def check(closed_value, det):
            assert abs(det - closed_value) <= 1e-8 * max(1.0, abs(closed_value))

        q_hex = float(rng.uniform(-2.0, 2.0))
        q_bcc = float(rng.uniform(-2.0, 2.0))
        q_star = tuple(rng.uniform(-2.0, 2.0, size=3))
        q_star2 = tuple(rng.uniform(-2.0, 2.0, size=2))
        cases = []
        cases.append(("hexagonal", hexagonal(q=(q_hex, -q_hex)), "schrodinger",
                      lambda lam, th: char_hexagonal(lam, th, q_hex)))
        cases.append(("bcc", bcc(q=(q_bcc, 0.0)), "schrodinger",
                      lambda lam, th: char_bcc(lam, th, q_bcc)))
        cases.append(("fcc", fcc(), "laplacian", char_fcc_laplacian))
        cases.append(("star23", star(2, 3, q=q_star), "schrodinger",
                      lambda lam, th: char_star(2, q_star, lam, th)))
        cases.append(("star22", star(2, 2, q=q_star2), "schrodinger",
                      lambda lam, th: char_star(2, q_star2, lam, th)))

        for label, spec, kind, closed in cases:
            for _ in range(100):
                theta = rng.uniform(0.0, 2.0 * PI, size=spec.dimension)
                lam = float(rng.uniform(-5.0, 30.0))
                fiber = fiber_stack(spec, theta[None], kind)[0]
                det = np.linalg.det(fiber - lam * np.eye(fiber.shape[0]))
                check(closed(lam, theta), det)

        # Mirrored subdivided fibers: compare det(lam - (2 - laplacian)).
        for d, n in ((2, 1), (3, 1), (1, 2), (1, 3)):
            spec = subdivided(d, n)
            nu = spec.num_vertices
            for _ in range(100):
                theta = rng.uniform(0.0, 2.0 * PI, size=d)
                lam = float(rng.uniform(-4.0, 4.0))
                fiber = fiber_stack(spec, theta[None], "laplacian")[0]
                mirror = lam * np.eye(nu) - (2.0 * np.eye(nu) - fiber)
                check(char_subdivided_mirror(d, n, lam, theta), np.linalg.det(mirror))

        # Scalar fibers admit direct comparison.
        for d in (1, 2, 3):
            spec = cubic(d)
            for _ in range(100):
                theta = rng.uniform(0.0, 2.0 * PI, size=d)
                lam = float(rng.uniform(-5.0, 30.0))
                fiber = fiber_stack(spec, theta[None], "laplacian")[0]
                value = fiber[0, 0].real - lam
                assert abs(value - char_cubic(d, lam, theta)) <= 1e-10
        for _ in range(100):
            theta = rng.uniform(0.0, 2.0 * PI, size=2)
            lam = float(rng.uniform(-5.0, 30.0))
            fiber = fiber_stack(triangular(), theta[None], "laplacian")[0]
            value = fiber[0, 0].real - lam
            assert abs(value - char_triangular(lam, theta)) <= 1e-10


def test_criterion_13_structural_invariance(tmp_path):
    with criterion(13, "origin-shift invariance and report determinism"):
        rng = np.random.default_rng(130)
        for spec in (hexagonal(), bcc()):
            for _ in range(10):
                offset = rng.uniform(-1.5, 1.5, size=spec.dimension)
                shifted = shift_origin(spec, offset)
                loops = sorted(e.index for e in spec.edges if e.tail == e.head)
                shifted_loops = sorted(
                    e.index for e in shifted.edges if e.tail == e.head
                )
                assert loops == shifted_loops  # loop offsets never move
                for _ in range(5):
                    theta = rng.uniform(0.0, 2.0 * PI, size=spec.dimension)
                    a = fiber_eigenvalues(spec, theta)
                    b = fiber_eigenvalues(shifted, theta)
                    assert np.abs(a - b).max() <= 1e-9

        for builtin, grid in (("hexagonal", "48"), ("bcc", "12")):
            blobs = []
            for run in (1, 2):
                out = tmp_path / f"{builtin}-{run}.json"
                code = cli_main(
                    ["analyze", "--builtin", builtin, "--grid", grid, "--out", str(out)]
                )
                assert code == 0
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1]
