import inspect
import itertools
import math

import numpy as np
import pytest

from graphbands import (
    ParameterError,
    PreconditionError,
    TorusGrid,
    bipartite_loop_endpoints,
    check_first_band_nondegenerate,
    check_flat_band_block,
    classify,
    compute_band_structure,
    dirac_expansion_check,
    estimate_suite,
    fiber_eigenvalues,
    find_uniform_extremizers,
    large_coupling_analysis,
    loop_band_endpoints,
    stability_constants,
    verify_gap_bound,
    verify_total_band_bound,
    with_potentials,
)
from graphbands import EdgeRecord, PeriodicGraphSpec, VertexInfo
from graphbands.floquet import fiber_stack
from graphbands.linalg import eigh_stack
from graphbands import spectrum
from graphbands.spectrum import EXTREMIZER_TIE_TOL, REFINE_ITERATIONS
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

PI = math.pi


def band_tuples(bs):
    return [(b.low, b.high) for b in bs.bands]


def test_grid_contains_corners():
    grid = TorusGrid(3, 5)  # odd count: corners are not native points
    pts = set(map(tuple, grid.points().tolist()))
    for corner in [(0.0, 0.0, 0.0), (PI, PI, PI), (0.0, PI, 0.0)]:
        assert corner in pts
    with pytest.raises(ParameterError):
        TorusGrid(2, 1)


def _points_with_corner_set(grid):
    # Reference: the uniform grid plus every {0, pi}^d corner not already in
    # it, found by exact set membership.
    m = grid.points_per_axis
    axis = 2.0 * math.pi * (np.arange(m) / m)
    mesh = np.meshgrid(*([axis] * grid.dimension), indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    have = set(map(tuple, pts.tolist()))
    extras = [
        corner
        for corner in itertools.product((0.0, math.pi), repeat=grid.dimension)
        if corner not in have
    ]
    if extras:
        pts = np.vstack([pts, np.asarray(extras)])
    return pts


@pytest.mark.parametrize("m", [2, 3, 12, 13])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_points_match_corner_set_reference(d, m):
    pts = TorusGrid(d, m).points()
    ref = _points_with_corner_set(TorusGrid(d, m))
    assert pts.dtype == ref.dtype and pts.shape == ref.shape
    assert pts.tobytes() == ref.tobytes()
    assert TorusGrid(d, m).size == len(pts)


@pytest.mark.parametrize("m", [2, 3, 12, 13])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_representatives_cover_the_grid_up_to_negation(d, m):
    grid = TorusGrid(d, m)
    pts = grid.points()
    reps, index, points = grid.representatives()
    assert points.tobytes() == pts.tobytes()
    expected = (m**d + 2**d) // 2 if m % 2 == 0 else (m**d + 1) // 2 + 2**d - 1
    assert len(reps) == expected
    # Coordinates in units of pi/m are integers for grid points and pi
    # corners alike; negation mod 2*pi is negation mod 2m.
    units = np.rint(pts * m / math.pi).astype(int) % (2 * m)
    rep_units = np.rint(reps * m / math.pi).astype(int) % (2 * m)
    # Each point is represented by itself or by its negation.
    assert len(index) == len(pts)
    for point, rep in zip(units.tolist(), rep_units[index].tolist()):
        negated = [(-c) % (2 * m) for c in point]
        assert rep in (point, negated)
    # Representatives keep grid order: they are a subsequence of points().
    rows = {row: i for i, row in enumerate(map(tuple, pts.tolist()))}
    order = [rows[row] for row in map(tuple, reps.tolist())]
    assert order == sorted(order)


def test_default_grid_sizes():
    assert TorusGrid.default_for(1).points_per_axis == 96
    assert TorusGrid.default_for(2).points_per_axis == 96
    assert TorusGrid.default_for(3).points_per_axis == 24
    assert TorusGrid.default_for(4).points_per_axis == 12


def _full_grid_envelopes(spec, kind, grid):
    # Reference: solve every grid point and take, per branch, the first point
    # within the tie tolerance of the exact minimum or maximum.
    thetas = grid.points()
    values = eigh_stack(fiber_stack(spec, thetas, kind))[0]
    lows, highs = values.min(axis=0), values.max(axis=0)
    tie = EXTREMIZER_TIE_TOL * (1.0 + max(np.abs(lows).max(), np.abs(highs).max()))
    argmins, argmaxs = [], []
    for n in range(values.shape[1]):
        argmins.append(tuple(thetas[np.flatnonzero(values[:, n] <= lows[n] + tie)[0]]))
        argmaxs.append(tuple(thetas[np.flatnonzero(values[:, n] >= highs[n] - tie)[0]]))
    return lows, highs, argmins, argmaxs


# Like the bench set's decorated hexagonal: a 3-vertex tree on vertex 1 and
# distinct potentials, so the group has 6 elements and no -I.
DECORATED_HEXAGONAL = with_potentials(
    decorate(hexagonal(), FiniteGraph(3, ((0, 1), (0, 2))), 1),
    (0.3, -1.7, 1.1, 2.05),
)


# m = None is the default grid (96 in 2-D, 24 in 3-D), where one point is
# solved per orbit of the band-symmetry group; 12 and 13 solve k, -k pairs.
@pytest.mark.parametrize("m", [12, 13, None])
@pytest.mark.parametrize(
    "spec",
    [hexagonal(), hexagonal(q=(1.0, -1.0)), fcc(), star(2, 6), subdivided(2, 4),
     subdivided(3, 3), triangular(), cubic(3), bcc(), DECORATED_HEXAGONAL],
)
def test_half_torus_matches_full_grid_reference(spec, m):
    grid = TorusGrid.default_for(spec.dimension) if m is None else TorusGrid(spec.dimension, m)
    bs = compute_band_structure(spec, "schrodinger", grid)
    lows, highs, argmins, argmaxs = _full_grid_envelopes(spec, "schrodinger", grid)
    assert np.abs(np.array([b.low for b in bs.bands]) - lows).max() <= 1e-12
    assert np.abs(np.array([b.high for b in bs.bands]) - highs).max() <= 1e-12
    assert [b.argmin for b in bs.bands] == argmins
    assert [b.argmax for b in bs.bands] == argmaxs


def test_flat_band_extremizers_are_the_first_grid_point():
    # Every point ties on a flat branch, so the tie rule reports theta = 0
    # whatever the last bits of the eigenvalues are.
    bs = compute_band_structure(fcc(), "laplacian")
    for band in bs.bands[1:3]:
        assert band.argmin == band.argmax == (0.0, 0.0, 0.0)


def test_hexagonal_band_structure():
    bs = compute_band_structure(hexagonal(), "laplacian")
    assert np.allclose(band_tuples(bs), [(0.0, 3.0), (3.0, 6.0)], atol=1e-9)
    assert bs.flat_bands == ()
    assert bs.gaps == ()
    assert bs.spectrum_measure == pytest.approx(6.0, abs=1e-9)


def test_hexagonal_with_staggered_potential():
    bs = compute_band_structure(hexagonal(q=(1.0, -1.0)))
    expected = [(3.0 - math.sqrt(10.0), 2.0), (4.0, 3.0 + math.sqrt(10.0))]
    assert np.allclose(band_tuples(bs), expected, atol=1e-9)
    assert len(bs.gaps) == 1
    assert np.allclose(bs.gaps[0], (2.0, 4.0), atol=1e-9)


def test_bcc_band_structure():
    bs = compute_band_structure(bcc(), "laplacian")
    assert np.allclose(band_tuples(bs), [(0.0, 8.0), (12.0, 20.0)], atol=1e-9)
    assert np.allclose(bs.gaps, [(8.0, 12.0)], atol=1e-9)


def test_fcc_flat_band():
    bs = compute_band_structure(fcc(), "laplacian")
    assert len(bs.flat_bands) == 1
    assert bs.flat_bands[0].value == pytest.approx(4.0, abs=1e-9)
    assert bs.flat_bands[0].multiplicity == 2
    assert np.allclose(
        [(b.low, b.high) for b in bs.open_bands], [(0.0, 4.0), (16.0, 24.0)], atol=1e-9
    )
    assert np.allclose(bs.gaps, [(4.0, 16.0)], atol=1e-9)


def test_subdivided_one_extra_vertex():
    bs = compute_band_structure(subdivided(2, 1), "laplacian")
    assert len(bs.flat_bands) == 1
    assert bs.flat_bands[0].value == pytest.approx(2.0, abs=1e-9)
    assert bs.flat_bands[0].multiplicity == 1
    assert np.allclose(
        [(b.low, b.high) for b in bs.open_bands], [(0.0, 2.0), (4.0, 6.0)], atol=1e-9
    )


def test_star_band_structure():
    bs = compute_band_structure(star(2, 3), "laplacian")
    x = 5.5
    root = math.sqrt(x * x - 8.0)
    assert np.allclose(
        band_tuples(bs), [(0.0, x - root), (1.0, 1.0), (3.0, x + root)], atol=1e-9
    )
    assert bs.flat_bands[0].value == pytest.approx(1.0, abs=1e-9)
    assert bs.spectrum_measure == pytest.approx(8.0, abs=1e-9)
    # The isolated flat value sits inside the gap without splitting it.
    assert len(bs.gaps) == 1
    assert np.allclose(bs.gaps[0], (x - root, 3.0), atol=1e-9)


def test_cubic_band_structures():
    for d in (1, 2, 3):
        bs = compute_band_structure(cubic(d), "laplacian")
        assert np.allclose(band_tuples(bs), [(0.0, 4.0 * d)], atol=1e-9)


def test_triangular_band_structure():
    bs = compute_band_structure(triangular(), "laplacian")
    assert np.allclose(band_tuples(bs), [(0.0, 9.0)], atol=1e-9)


def test_disconnected_cover_rejected():
    spec = PeriodicGraphSpec(
        2,
        (VertexInfo("a"),),
        (EdgeRecord(0, 0, (2, 0)), EdgeRecord(0, 0, (0, 1))),
    )
    with pytest.raises(PreconditionError):
        compute_band_structure(spec)


# Each public spectrum function that takes a grid, called on star(2, 3).
GRID_CALLS = {
    "compute_band_structure": lambda g: compute_band_structure(star(2, 3), grid=g),
    "verify_total_band_bound": lambda g: verify_total_band_bound(star(2, 3), grid=g),
    "verify_gap_bound": lambda g: verify_gap_bound(star(2, 3), g),
    "check_first_band_nondegenerate": lambda g: check_first_band_nondegenerate(star(2, 3), g),
    "loop_band_endpoints": lambda g: loop_band_endpoints(star(2, 3), g),
    "large_coupling_analysis": lambda g: large_coupling_analysis(
        star(2, 3, q=(2.0, 4.0, 0.0)), 100.0, g
    ),
    "find_uniform_extremizers": lambda g: find_uniform_extremizers(star(2, 3), grid=g),
    "stability_constants": lambda g: stability_constants(star(2, 3), star(2, 3), grid_a=g),
    "stability_constants:grid_b": lambda g: stability_constants(
        star(2, 3), star(2, 3), grid_b=g
    ),
    "check_flat_band_block": lambda g: check_flat_band_block(star(2, 3), (0, 2), grid=g),
    "estimate_suite": lambda g: estimate_suite(star(2, 3), grid=g),
}


def test_grid_calls_cover_every_public_grid_function():
    takes_grid = {
        name
        for name, fn in inspect.getmembers(spectrum, inspect.isfunction)
        if fn.__module__ == spectrum.__name__
        and not name.startswith("_")
        and any(p.startswith("grid") for p in inspect.signature(fn).parameters)
    }
    assert takes_grid == {name.split(":")[0] for name in GRID_CALLS}


@pytest.mark.parametrize("name", sorted(GRID_CALLS))
@pytest.mark.parametrize("wrong", [TorusGrid(3, 12), TorusGrid(1, 12)], ids=["3d", "1d"])
def test_grid_of_the_wrong_dimension_rejected(name, wrong):
    with pytest.raises(ParameterError, match="grid dimension does not match the graph"):
        GRID_CALLS[name](wrong)


def test_grid_refinement_containment():
    coarse = compute_band_structure(hexagonal(), "laplacian", TorusGrid(2, 12))
    fine = compute_band_structure(hexagonal(), "laplacian", TorusGrid(2, 24))
    for a, b in zip(coarse.bands, fine.bands):
        assert a.low >= b.low - 1e-12
        assert a.high <= b.high + 1e-12


def test_positional_argument_after_grid_is_rejected():
    # A stale positional argument in the slot `jobs` used to hold must fail
    # loudly, not bind to a tolerance.
    with pytest.raises(TypeError):
        stability_constants(star(2, 3), star(2, 3), None, None, 4)
    with pytest.raises(TypeError):
        loop_band_endpoints(star(2, 3), None, 4)


def test_refine_improves_off_grid_extrema():
    # On a coarse grid missing the true maximizer, refinement must push the
    # top endpoint toward 9 without overshooting.
    coarse = TorusGrid(2, 16)  # 2*pi/3 is not a multiple of 2*pi/16
    plain = compute_band_structure(triangular(), "laplacian", coarse)
    refined = compute_band_structure(triangular(), "laplacian", coarse, refine=True)
    assert plain.bands[0].high < 9.0 - 1e-6
    assert refined.bands[0].high == pytest.approx(9.0, abs=1e-6)
    assert refined.bands[0].high <= 9.0 + 1e-9


def _refine_extremum_reference(spec, kind, branch, theta, step, want_max):
    # The one-trial-per-solve coordinate descent that the lockstep batch
    # replaced; it must give the same bits.
    theta = np.asarray(theta, dtype=float).copy()
    sign = -1.0 if want_max else 1.0
    best = sign * fiber_eigenvalues(spec, theta, kind)[branch]
    for _ in range(REFINE_ITERATIONS):
        moved = False
        for axis in range(theta.shape[0]):
            for delta in (step, -step):
                trial = theta.copy()
                trial[axis] += delta
                value = sign * fiber_eigenvalues(spec, trial, kind)[branch]
                if value < best:
                    best = value
                    theta = trial
                    moved = True
        if not moved:
            step *= 0.5
    return sign * best, tuple(float(x) for x in theta)


def _bits(low, high, argmin, argmax):
    return [float(x).hex() for x in (low, high, *argmin, *argmax)]


@pytest.mark.parametrize(
    "spec, kind, grid",
    [
        (with_potentials(hexagonal(), (1.0, -1.0)), "schrodinger", None),
        (star(2, 3), "schrodinger", None),
        (triangular(), "laplacian", TorusGrid(2, 16)),
        (fcc(), "schrodinger", TorusGrid(3, 6)),
    ],
    ids=["hexagonal-q", "star-2-3", "triangular-16", "fcc-6"],
)
def test_batched_refine_matches_one_trial_per_solve(monkeypatch, spec, kind, grid):
    plain = compute_band_structure(spec, kind, grid)
    step = 2.0 * PI / plain.grid.points_per_axis
    expected = []
    for n, band in enumerate(plain.bands):
        low, argmin = _refine_extremum_reference(spec, kind, n, band.argmin, step, False)
        high, argmax = _refine_extremum_reference(spec, kind, n, band.argmax, step, True)
        expected.append(_bits(low, high, argmin, argmax))

    solves = []
    solve = spectrum.eigh_stack

    def counting(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectrum, "eigh_stack", counting)
    refined = compute_band_structure(spec, kind, grid, refine=True)
    assert [_bits(b.low, b.high, b.argmin, b.argmax) for b in refined.bands] == expected
    # One solve for the grid, one for the start points, one per trial batch.
    assert len(solves) - 1 <= 1 + REFINE_ITERATIONS * 2 * spec.dimension


def test_total_band_bound_reports():
    report = verify_total_band_bound(cubic(2), "laplacian")
    assert report.passed
    assert report.params["equality_attained"]
    assert report.params["band_length_sum"] == pytest.approx(8.0, abs=1e-9)

    report = verify_total_band_bound(hexagonal(), "laplacian")
    assert report.passed
    assert not report.params["equality_attained"]
    assert report.params["band_length_sum"] == pytest.approx(6.0, abs=1e-9)
    assert report.params["bridge_count"] == 4

    report = verify_total_band_bound(triangular(), "laplacian")
    assert report.passed
    assert report.params["band_length_sum"] == pytest.approx(9.0, abs=1e-9)
    assert report.params["bridge_count"] == 6


def test_gap_bound_star_equality():
    report = verify_gap_bound(star(2, 3))
    assert report.passed
    expected = math.sqrt(22.25) - 2.5
    assert report.params["gap_length_sum"] == pytest.approx(expected, abs=1e-9)
    hull_minus = report.params["band_hull"] - 2.0 * report.params["bridge_count"]
    assert report.params["gap_length_sum"] == pytest.approx(hull_minus, abs=1e-9)


def test_gap_bound_bcc_large_potential():
    report = verify_gap_bound(bcc(q=(32.0, 0.0)))
    assert report.passed
    assert report.params["gap_length_sum"] == pytest.approx(20.0, abs=1e-9)


def test_gap_bound_trivial_for_hexagonal():
    report = verify_gap_bound(hexagonal())
    assert report.passed
    assert report.params["gap_length_sum"] == 0.0
    # Hull minus twice the bridge count is negative here.
    assert report.checks[0].lhs < 0.0


@pytest.mark.parametrize(
    "call",
    [
        lambda: estimate_suite(hexagonal(q=(1.0, -1.0))),
        lambda: verify_gap_bound(hexagonal(q=(1.0, -1.0))),
    ],
    ids=["estimate_suite", "verify_gap_bound"],
)
def test_schrodinger_and_laplacian_share_one_torus_sample(monkeypatch, call):
    # With potentials both H and its Laplacian are solved, from one
    # connectivity test, one band-symmetry search and one grid.
    counts = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapped

    for owner, name in (
        (spectrum, "is_connected_periodic"),
        (spectrum, "_orbit_group"),
        (spectrum, "eigh_stack"),
        (TorusGrid, "points"),
    ):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    call()
    assert counts == {"is_connected_periodic": 1, "_orbit_group": 1, "points": 1, "eigh_stack": 2}


def test_first_band_condition_detection():
    assert check_first_band_nondegenerate(cubic(2)) == (True, True)
    assert check_first_band_nondegenerate(hexagonal()) == (True, True)
    condition, nondegenerate = check_first_band_nondegenerate(subdivided(2, 2))
    assert condition is False
    assert nondegenerate is True
    condition, _ = check_first_band_nondegenerate(subdivided(2, 1))
    assert condition is True


def test_loop_band_endpoints_star():
    bs = loop_band_endpoints(star(2, 3))
    x = 5.5
    root = math.sqrt(x * x - 8.0)
    assert np.allclose(
        band_tuples(bs), [(0.0, x - root), (1.0, 1.0), (3.0, x + root)], atol=1e-12
    )
    grid_bs = compute_band_structure(star(2, 3))
    assert np.allclose(band_tuples(bs), band_tuples(grid_bs), atol=1e-9)


def test_loop_band_endpoints_cubic():
    for d in (1, 2, 3):
        bs = loop_band_endpoints(cubic(d))
        assert np.allclose(band_tuples(bs), [(0.0, 4.0 * d)], atol=1e-12)


def test_loop_band_endpoints_requires_loop_graph():
    with pytest.raises(PreconditionError):
        loop_band_endpoints(hexagonal())


def test_loop_band_endpoints_imprecise_fallback():
    bs = loop_band_endpoints(triangular())
    assert np.allclose(band_tuples(bs), [(0.0, 9.0)], atol=1e-9)


def test_loop_band_endpoints_fallback_solves_the_grid_once(monkeypatch):
    # Without a flip corner the zero fiber is row 0 of the grid solve.  The
    # reference solves it on its own, as a second call: LAPACK solves each
    # matrix of a batch alone, so both give the same bits.
    spec = triangular()
    grid = TorusGrid.default_for(2)
    zero = (0.0, 0.0)
    thetas, _, _ = grid.representatives(spectrum._orbit_group(spec, grid))
    _, highs, _, argmaxs = spectrum._envelopes(
        thetas, spectrum.grid_eigenvalues(spec, thetas, "schrodinger")
    )
    expected = spectrum._assemble_structure(
        "schrodinger",
        grid,
        fiber_eigenvalues(spec, zero),
        highs,
        [zero] * spec.num_vertices,
        argmaxs,
        None,
        spectrum.FLAT_MERGE_TOL,
    )
    solves = []
    solve = spectrum.eigh_stack

    def counting(stack, *args, **kwargs):
        solves.append(len(stack))
        return solve(stack, *args, **kwargs)

    monkeypatch.setattr(spectrum, "eigh_stack", counting)
    assert loop_band_endpoints(spec) == expected
    assert solves == [817]


def test_precise_loop_band_sum_identity():
    for spec in (cubic(2), star(2, 4), bipartite_chain(2, 3)):
        cls = classify(spec)
        assert cls.precise_quasimomentum is not None
        bs = loop_band_endpoints(spec)
        assert bs.band_length_sum == pytest.approx(
            2.0 * cls.bridge_count, abs=1e-9
        )


def test_bipartite_loop_endpoints_match_grid():
    for spec in (cubic(2), cubic(3), bipartite_chain(2, 3)):
        mirrored = bipartite_loop_endpoints(spec)
        grid_bs = compute_band_structure(spec, "laplacian")
        assert np.allclose(band_tuples(mirrored), band_tuples(grid_bs), atol=1e-9)


def test_bipartite_loop_endpoints_name_failing_precondition():
    with pytest.raises(PreconditionError, match="bipartite"):
        bipartite_loop_endpoints(triangular())
    with pytest.raises(PreconditionError, match="regular"):
        bipartite_loop_endpoints(star(2, 3))
    with pytest.raises(PreconditionError, match="loop"):
        bipartite_loop_endpoints(hexagonal())


def test_uniform_extremizers():
    # Phase-flipping loop graphs extremize every branch at 0 and the corner.
    assert find_uniform_extremizers(star(2, 3)) == ((0.0, 0.0), (PI, PI))
    assert find_uniform_extremizers(cubic(3)) == ((0.0,) * 3, (PI,) * 3)
    # Hexagonal branches bottom out at different points; no uniform corner.
    assert find_uniform_extremizers(hexagonal(), kind="laplacian") == (None, None)
    # Both branch maxima sit at the all-pi corner even though the minima split.
    minus, plus = find_uniform_extremizers(bcc(), kind="laplacian")
    assert minus is None
    assert plus == (PI, PI, PI)


def test_large_coupling_hexagonal():
    spec = hexagonal(q=(1.0, -1.0))
    for t in (100.0, 400.0):
        report = large_coupling_analysis(spec, t)
        exact = 2.0 * (math.sqrt(9.0 + t * t) - t)
        assert report.spectrum_measure == pytest.approx(exact, rel=1e-9)
        assert report.band_sum_limit == 0.0


def test_large_coupling_star_limit_and_remainder():
    spec = star(2, 3, q=(2.0, 4.0, 0.0))
    deviations = {}
    for t in (100.0, 200.0, 400.0):
        report = large_coupling_analysis(spec, t)
        deviations[t] = report.max_deviation
        assert report.band_sum_limit == pytest.approx(8.0, abs=1e-12)
    assert abs(deviations[400.0] - 8.0) < 8.0  # sanity: deviations shrink
    assert 0.2 <= deviations[200.0] / deviations[100.0] <= 0.3
    assert 0.2 <= deviations[400.0] / deviations[200.0] <= 0.3


def test_large_coupling_requires_distinct_potentials():
    with pytest.raises(PreconditionError):
        large_coupling_analysis(star(2, 3), 100.0)


def test_stability_identical_specs():
    report = stability_constants(star(2, 3), star(2, 3))
    assert report.passed
    assert report.params["c_total"] == 0.0
    for check in report.checks[:2]:
        assert check.lhs == 0.0


def test_stability_potential_difference():
    report = stability_constants(star(2, 3, q=(0.3, 0.0, 0.0)), star(2, 3))
    assert report.passed
    assert report.params["c_total"] == pytest.approx(0.6, abs=1e-12)


def test_stability_mixed_precise_vs_bipartite():
    report = stability_constants(star(2, 3), bipartite_chain(2, 3))
    assert report.passed
    assert "c_precise_vs_bipartite" in report.params
    names = {c.name for c in report.checks}
    assert "precise-vs-bipartite-gap-variation<=2C1" in names


def test_stability_bipartite_pair():
    report = stability_constants(bipartite_chain(2, 3), bipartite_chain(2, 3))
    assert report.passed
    assert "c_bipartite_pair" in report.params


def test_stability_vertex_count_mismatch():
    with pytest.raises(PreconditionError, match="mismatch"):
        stability_constants(hexagonal(), fcc())


def test_stability_requires_uniform_extremizers():
    with pytest.raises(PreconditionError, match="band"):
        stability_constants(hexagonal(), hexagonal())


def _stability_reference(spec_a, spec_b, precise_vs_bipartite):
    # The chosen corners re-solved one at a time, each fiber built on its
    # own, as before the corner scan's batch was reused.
    def fiber(spec, theta, kind="schrodinger"):
        return fiber_stack(spec, np.asarray([theta], dtype=float), kind)[0]

    def l1(x, y):
        return float(np.abs(x - y).sum())

    minus_a, plus_a = find_uniform_extremizers(spec_a)
    minus_b, plus_b = find_uniform_extremizers(spec_b)
    lows_a, highs_a = fiber_eigenvalues(spec_a, minus_a), fiber_eigenvalues(spec_a, plus_a)
    lows_b, highs_b = fiber_eigenvalues(spec_b, minus_b), fiber_eigenvalues(spec_b, plus_b)
    c_total = l1(fiber(spec_a, minus_a), fiber(spec_b, minus_b)) + l1(
        fiber(spec_a, plus_a), fiber(spec_b, plus_b)
    )
    gaps_a = lows_a[1:] - highs_a[:-1]
    gaps_b = lows_b[1:] - highs_b[:-1]
    edge_gap = (
        abs(lows_a[0] - lows_b[0])
        + abs(highs_a[-1] - highs_b[-1])
        + float(np.abs(gaps_a - gaps_b).sum())
    )
    length = float(np.abs((highs_a - lows_a) - (highs_b - lows_b)).sum())
    checks = [
        ("edge-and-gap-variation<=2C", edge_gap, 2.0 * c_total),
        ("band-length-variation<=2C", length, 2.0 * c_total),
    ]
    params = {
        "c_total": c_total,
        "theta_minus_a": minus_a,
        "theta_plus_a": plus_a,
        "theta_minus_b": minus_b,
        "theta_plus_b": plus_b,
    }
    if precise_vs_bipartite:
        kappa = classify(spec_b).regular_degree
        zero = (0.0,) * spec_a.dimension
        base = fiber(spec_b, zero, "laplacian")
        c_mixed = l1(fiber(spec_a, zero), base) + l1(
            fiber(spec_a, classify(spec_a).precise_quasimomentum) + base,
            2.0 * kappa * np.eye(spec_a.num_vertices),
        )
        lhs = abs(lows_a[0]) + abs(2.0 * kappa - highs_a[-1]) + float(np.abs(gaps_a - gaps_b).sum())
        checks.append(("precise-vs-bipartite-gap-variation<=2C1", lhs, 2.0 * c_mixed))
        checks.append(("precise-vs-bipartite-band-variation<=2C1", length, 2.0 * c_mixed))
        params["c_precise_vs_bipartite"] = c_mixed
    return checks, params


def _hex_params(params):
    return {
        key: tuple(x.hex() for x in value) if isinstance(value, tuple) else float(value).hex()
        for key, value in params.items()
    }


@pytest.mark.parametrize(
    "spec_a, spec_b, precise_vs_bipartite",
    [
        (star(2, 3, q=(0.3, -0.2, 0.1)), star(2, 3), False),
        (star(2, 3), bipartite_chain(2, 3), True),
    ],
    ids=["star-q-vs-star", "star-vs-bipartite-chain"],
)
def test_stability_reuses_the_corner_solves(monkeypatch, spec_a, spec_b, precise_vs_bipartite):
    checks, params = _stability_reference(spec_a, spec_b, precise_vs_bipartite)
    solves = []
    solve = spectrum.eigh_stack

    def counting(stack, *args, **kwargs):
        solves.append(len(stack))
        return solve(stack, *args, **kwargs)

    fibers = []
    build = spectrum.fiber_stack

    def building(spec, thetas, kind):
        fibers.append(len(thetas))
        return build(spec, thetas, kind)

    monkeypatch.setattr(spectrum, "eigh_stack", counting)
    monkeypatch.setattr(spectrum, "fiber_stack", building)
    report = stability_constants(spec_a, spec_b)
    # One grid and one batch of the four corners per graph.  Both graphs
    # have 8 band symmetries: 1,225 orbits of the default 96 x 96 grid.
    # The theta = 0 Laplacian fiber of the bipartite side is its corner 0.
    assert solves == fibers == [1225, 4, 1225, 4]
    assert [(c.name, c.lhs.hex(), c.rhs.hex()) for c in report.checks] == [
        (name, float(lhs).hex(), float(rhs).hex()) for name, lhs, rhs in checks
    ]
    assert _hex_params(report.params) == _hex_params(params)


def _dirac_ring_max_reference(q1, r, samples):
    # One fiber per sample point, as before the rings were batched.
    spec = hexagonal(q=(q1, -q1))
    cone = np.array([2.0 * PI / 3.0, -2.0 * PI / 3.0])
    worst = 0.0
    for k in range(samples):
        angle = 2.0 * PI * k / samples
        t1, t2 = r * math.cos(angle), r * math.sin(angle)
        theta = cone + np.array([t1 / math.sqrt(3.0) - t2, -t1 / math.sqrt(3.0) - t2])
        fiber = fiber_stack(spec, theta[None], "schrodinger")[0]
        dirac = np.array([[q1, t1 - 1j * t2], [t1 + 1j * t2, -q1]], dtype=complex)
        delta = fiber - 3.0 * np.eye(2) - dirac
        worst = max(worst, float(np.sqrt((np.abs(delta) ** 2).sum())))
    return worst


@pytest.mark.parametrize("q1, radius, samples", [(0.5, 1e-2, 64), (0.0, 1e-3, 64), (0.25, 0.3, 7)])
def test_dirac_rings_batched_match_per_point_reference(monkeypatch, q1, radius, samples):
    built = []
    build = spectrum.fiber_stack

    def counting(spec, thetas, kind):
        built.append(len(thetas))
        return build(spec, thetas, kind)

    monkeypatch.setattr(spectrum, "fiber_stack", counting)
    report = dirac_expansion_check(q1, radius, samples)
    # The touching point, then one stack per ring.
    assert built == [1, samples, samples]
    assert report.max_error == pytest.approx(
        _dirac_ring_max_reference(q1, radius, samples), abs=1e-12
    )
    assert report.max_error_half == pytest.approx(
        _dirac_ring_max_reference(q1, radius / 2.0, samples), abs=1e-12
    )


def test_dirac_cone_report():
    report = dirac_expansion_check(0.5, 1e-2)
    assert report.touch_eigenvalues[0] == pytest.approx(2.5, abs=1e-12)
    assert report.touch_eigenvalues[1] == pytest.approx(3.5, abs=1e-12)
    assert 0.15 <= report.ratio <= 0.35
    massless = dirac_expansion_check(0.0, 1e-3)
    assert massless.touch_eigenvalues[0] == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(ParameterError):
        dirac_expansion_check(0.5, 0.0)


def test_flat_band_block_fcc():
    found = check_flat_band_block(fcc(), (0, 1, 2))
    assert len(found) == 1
    assert found[0][0] == pytest.approx(4.0, abs=1e-9)
    assert found[0][1] == 3


def test_flat_band_block_subdivided():
    for n in (1, 2):
        spec = subdivided(2, n)
        split = tuple(range(2 * n))
        found = check_flat_band_block(spec, split)
        expected = sorted(2.0 - 2.0 * math.cos(PI * k / (n + 1)) for k in range(1, n + 1))
        assert [round(v, 9) for v, _ in found] == [round(v, 9) for v in expected]
        assert all(mult == 2 for _, mult in found)


def test_flat_band_block_star_with_repeated_potential():
    spec = star(2, 4, q=(0.5, 0.5, 0.0, 0.0))
    found = check_flat_band_block(spec, (0, 1, 2))
    assert (1.5, 2) in [(round(v, 9), m) for v, m in found]


def test_flat_band_block_validates_split():
    with pytest.raises(ParameterError):
        check_flat_band_block(fcc(), (0, 1))
    with pytest.raises(ParameterError):
        check_flat_band_block(fcc(), (0, 1, 9))


def test_spectrum_minimum_at_zero_everywhere():
    rng = np.random.default_rng(31)
    for spec in (hexagonal(), bcc(), fcc(), star(2, 3), subdivided(2, 2)):
        q = rng.uniform(-3.0, 3.0, size=spec.num_vertices)
        shifted = with_potentials(spec, q)
        bs = compute_band_structure(shifted)
        zero_vals = fiber_eigenvalues(shifted, (0.0,) * spec.dimension)
        assert bs.bands[0].low >= zero_vals[0] - 1e-9
        assert bs.bands[0].low == pytest.approx(zero_vals[0], abs=1e-9)


def test_zero_never_flat_for_laplacian():
    for spec in (cubic(2), hexagonal(), fcc(), star(2, 3), subdivided(2, 2)):
        bs = compute_band_structure(spec, "laplacian")
        assert bs.bands[0].width > 1e-6
        assert bs.bands[0].low == pytest.approx(0.0, abs=1e-9)


def test_laplacian_containment():
    for spec in (hexagonal(), bcc(), fcc(), subdivided(2, 1)):
        bs = compute_band_structure(spec, "laplacian")
        kappa = max(d for d in __import__("graphbands").degrees(spec))
        assert bs.bands[0].low >= -1e-9
        assert bs.bands[-1].high <= 2.0 * kappa + 1e-9


def test_adjacency_bound():
    from graphbands import degrees
    from graphbands.spectrum import grid_eigenvalues

    for spec in (hexagonal(), triangular(), star(2, 3)):
        grid = TorusGrid(spec.dimension, 12)
        values = grid_eigenvalues(spec, grid.points(), "adjacency")
        kappa = max(degrees(spec))
        assert values.min() >= -kappa - 1e-9
        assert values.max() <= kappa + 1e-9


def test_shifted_eigenvalue_bounds_with_potential():
    # Potentials normalized to start at zero squeeze each branch between the
    # sorted potential and the potential plus twice the top degree, and
    # between the potential-free branch and branch plus the largest value.
    from graphbands import degrees

    rng = np.random.default_rng(32)
    spec = star(2, 3)
    for _ in range(5):
        q = rng.uniform(0.0, 4.0, size=3)
        q -= q.min()
        shifted = with_potentials(spec, q)
        q_sorted = np.sort(q)
        kappa = max(degrees(spec))
        for _ in range(5):
            theta = rng.uniform(0.0, 2 * PI, size=2)
            vals = fiber_eigenvalues(shifted, theta)
            vals0 = fiber_eigenvalues(spec, theta, "laplacian")
            assert (vals >= q_sorted - 1e-9).all()
            assert (vals <= q_sorted + 2.0 * kappa + 1e-9).all()
            assert (vals >= vals0 - 1e-9).all()
            assert (vals <= vals0 + q_sorted[-1] + 1e-9).all()


def test_loop_lower_endpoints_on_grid():
    for spec in (cubic(2), triangular(), star(2, 4)):
        bs = compute_band_structure(spec)
        zero_vals = fiber_eigenvalues(spec, (0.0,) * spec.dimension)
        lows = np.asarray([b.low for b in bs.bands])
        assert np.abs(lows - zero_vals).max() < 1e-9


def test_flat_bands_touch_open_bands_for_subdivided():
    for n in (1, 2, 3):
        bs = compute_band_structure(subdivided(2, n), "laplacian")
        endpoints = [b.low for b in bs.open_bands] + [b.high for b in bs.open_bands]
        for fb in bs.flat_bands:
            assert min(abs(fb.value - e) for e in endpoints) < 1e-9


def test_bipartite_spectrum_symmetry_with_odd_potential():
    # Staggered potential keeps the honeycomb spectrum symmetric about the
    # degree after combining each point with its reflection.
    spec = hexagonal(q=(0.8, -0.8))
    rng = np.random.default_rng(33)
    for _ in range(8):
        theta = rng.uniform(0.0, 2 * PI, size=2)
        pooled = np.concatenate(
            [fiber_eigenvalues(spec, theta), fiber_eigenvalues(spec, -theta)]
        )
        pooled.sort()
        assert np.abs(pooled + pooled[::-1] - 6.0).max() < 1e-9


def test_decorated_random_graphs_respect_estimates():
    rng = np.random.default_rng(34)
    grid = TorusGrid(2, 24)
    for _ in range(10):
        base = [cubic(2), triangular(), star(2, 2)][int(rng.integers(3))]
        extra = int(rng.integers(2, 5))
        edges = [(i, int(rng.integers(0, i))) for i in range(1, extra)]
        attachment = FiniteGraph(extra, tuple((b, a) for a, b in edges))
        spec = decorate(base, attachment, int(rng.integers(base.num_vertices)))
        spec = with_potentials(spec, rng.uniform(-3.0, 3.0, size=spec.num_vertices))
        report = verify_total_band_bound(spec, grid=grid)
        assert report.passed
        gap_report = verify_gap_bound(spec, grid=grid)
        assert gap_report.passed


def test_band_bookkeeping_invariant():
    # Flat multiplicities and open bands together account for every branch.
    for spec in (fcc(), star(2, 3), subdivided(2, 2), hexagonal(), cubic(2)):
        bs = compute_band_structure(spec, "laplacian")
        total = sum(f.multiplicity for f in bs.flat_bands) + len(bs.open_bands)
        assert total == spec.num_vertices
        lows = [b.low for b in bs.bands]
        highs = [b.high for b in bs.bands]
        assert all(lo <= hi for lo, hi in zip(lows, highs))
        assert lows == sorted(lows)
        assert highs == sorted(highs)


def test_normalized_band_structure_range():
    for spec in (hexagonal(), star(2, 3), bcc()):
        bs = compute_band_structure(spec, "normalized")
        assert bs.bands[0].low >= -1e-9
        assert bs.bands[-1].high <= 2.0 + 1e-9
