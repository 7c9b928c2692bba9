import dataclasses
import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from graphbands import (
    ParameterError,
    PreconditionError,
    TorusGrid,
    classify,
    compute_band_structure,
    estimate_suite,
    fiber_eigenvalues,
    stability_constants,
    verify_gap_bound,
    verify_total_band_bound,
    with_potentials,
)
from graphbands import EdgeRecord, PeriodicGraphSpec, VertexInfo
from graphbands.floquet import fiber_stack
from graphbands.linalg import eigh_stack
from graphbands import spectrum
from graphbands.spectrum import REFINE_ITERATIONS, _rounding_tol
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

import oracles
from oracles import (
    check_first_band_nondegenerate,
    check_flat_band_block,
    dirac_expansion_check,
    large_coupling_analysis,
)
from quotients import FAMILIES, decorated_loop_graphs, quotients

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


def test_grid_of_dimension_zero_rejected():
    with pytest.raises(ParameterError, match="grid dimension must be >= 1"):
        TorusGrid(0, 12)


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
    tie = _rounding_tol(lows, highs)
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
    "stability_constants": lambda g: stability_constants(star(2, 3), star(2, 3), grid=g),
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
    assert takes_grid == set(GRID_CALLS)


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


def test_refine_improves_off_grid_extrema():
    # On a coarse grid missing the true maximizer, refinement must push the
    # top endpoint toward 9 without overshooting.
    coarse = TorusGrid(2, 16)  # 2*pi/3 is not a multiple of 2*pi/16
    plain = compute_band_structure(triangular(), "laplacian", coarse)
    refined = compute_band_structure(triangular(), "laplacian", coarse, refine=True)
    assert plain.bands[0].high < 9.0 - 1e-6
    assert refined.bands[0].high == pytest.approx(9.0, abs=1e-6)
    assert refined.bands[0].high <= 9.0 + 1e-9


@pytest.mark.parametrize(
    "spec, refine, corners",
    [
        (hexagonal(), False, False),
        (star(2, 3), False, True),
        (hexagonal(q=(1.0, -1.0)), True, False),
    ],
    ids=["grid", "corners", "refine"],
)
def test_extremizers_are_tuples_of_exact_floats(spec, refine, corners):
    # graphio.dumps writes exact floats and tuples without isinstance tests.
    assert (spectrum._loop_edge_corners(spec, classify(spec)) is not None) == corners
    bs = compute_band_structure(spec, refine=refine)
    points = [point for band in bs.bands for point in (band.argmin, band.argmax)]
    assert len(points) == 2 * spec.num_vertices
    for point in points:
        assert type(point) is tuple
        assert len(point) == spec.dimension
        assert all(type(x) is float for x in point)


def _bits(low, high, argmin, argmax):
    return [float(x).hex() for x in (low, high, *argmin, *argmax)]


def _band_bits(structures, kinds):
    return {
        kind: [_bits(b.low, b.high, b.argmin, b.argmax) for b in structures[kind][0].bands]
        for kind in kinds
    }


def _reference_band_bits(spec, cls, kinds, grid):
    """Each kind's band bits after the one-trial-per-solve descent from its
    grid extremizers; a flip-corner loop graph keeps its exact edges."""
    plain = spectrum._band_structure(spec, cls, kinds, grid, None, False)[2]
    exact = spectrum._loop_edge_corners(spec, cls) is not None
    expected = {}
    for kind in kinds:
        bs = plain[kind][0]
        step = 2.0 * PI / bs.grid.points_per_axis
        # The descents solve the fibers the sample solved: real ones in the
        # basis of the graph's inversion, where the search found one.
        inversion = spectrum._orbit_group(spec, bs.grid, kinds)[1]
        expected[kind] = []
        for n, band in enumerate(bs.bands):
            low, high, argmin, argmax = band.low, band.high, band.argmin, band.argmax
            if not exact:
                low, argmin = oracles.reference_refine_extremum(
                    spec, kind, n, argmin, step, False, inversion
                )
                high, argmax = oracles.reference_refine_extremum(
                    spec, kind, n, argmax, step, True, inversion
                )
            expected[kind].append(_bits(low, high, argmin, argmax))
    return expected


def _glued_hexagonal(size):
    """hexagonal() with a path of `size` vertices glued on vertex 0 (size - 1
    new vertices) and potentials uniform in [-2, 2]."""
    spec = decorate(hexagonal(), FiniteGraph(size, tuple((i - 1, i) for i in range(1, size))), 0)
    return with_potentials(spec, np.random.default_rng(1).uniform(-2.0, 2.0, spec.num_vertices))


@pytest.mark.parametrize(
    "spec, kinds, grid, count",
    [
        # Real fibers in the bridge gauge (hexagonal, fcc) or in the basis of
        # an inversion (subdivided(2,2)): the descents, its flat bands' in
        # particular, follow the last bits of those fibers, and with them
        # the rounds.
        (with_potentials(hexagonal(), (1.0, -1.0)), ("schrodinger",), None, 12),
        (with_potentials(hexagonal(), (1.0, -1.0)), ("schrodinger", "laplacian"), None, 12),
        (subdivided(2, 2), ("laplacian",), None, 15),
        (triangular(), ("laplacian",), TorusGrid(2, 16), 25),
        (fcc(), ("schrodinger",), TorusGrid(3, 6), 15),
        # nu = 9: D = 2, so a round can end inside a sweep that has moved.
        (subdivided(2, 4), ("laplacian",), TorusGrid(2, 7), 84),
        # nu = 16: 32 descents * 16^3 exceed a round's work, so D = 1 and
        # the descents take one trial per call.
        (_glued_hexagonal(15), ("schrodinger",), TorusGrid(2, 5), 2 + REFINE_ITERATIONS * 2 * 2),
    ],
    ids=[
        "hexagonal-q",
        "hexagonal-q-two-kinds",
        "subdivided-2-2-laplacian",
        "triangular-16",
        "fcc-6",
        "subdivided-2-4-7",
        "glued-hexagonal-16",
    ],
)
def test_batched_refine_matches_one_trial_per_solve(calls, spec, kinds, grid, count):
    cls = classify(spec)
    expected = _reference_band_bits(spec, cls, kinds, grid)
    solves, builds = calls(spectrum, "eigh_stack"), calls(spectrum, "fiber_stack")
    refined = spectrum._band_structure(spec, cls, kinds, grid, None, True)[2]
    assert _band_bits(refined, kinds) == expected
    # One build and solve for the sample, one for the start points and one
    # per round of trials, however many kinds descend: a round looks ahead
    # up to 4 sweeps on these small quotients, one trial on the large one.
    assert len(solves) == len(builds) == count


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(FAMILIES).flatmap(quotients),
    st.sampled_from((("schrodinger", "laplacian"), ("laplacian",), ("normalized",))),
    st.sampled_from((5, 7)),
)
def test_refine_rounds_give_the_bits_of_one_trial_per_solve(spec, kinds, m):
    # Whatever trials a round looks ahead, every refined edge and extremizer
    # is the one the descent of one trial per solve reaches.
    cls = classify(spec)
    grid = TorusGrid(spec.dimension, m)
    refined = spectrum._band_structure(spec, cls, kinds, grid, None, True)[2]
    assert _band_bits(refined, kinds) == _reference_band_bits(spec, cls, kinds, grid)


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


def test_a_band_edge_raised_past_rounding_breaks_the_equality_row():
    # cubic(2) attains band-length-sum = 2 * bridge-count.  An edge raised by
    # 1e-10, about 3,000 times the rounding tolerance of an operator of
    # norm 8, must fail the row and end the equality.
    spec = cubic(2)
    bs = compute_band_structure(spec)
    name = "band-length-sum<=2*bridge-count"

    def row(structure):
        report = spectrum._total_band_report(spec, structure)
        (check,) = [c for c in report.checks if c.name == name]
        return check.passed, report.params["equality_attained"]

    assert row(bs) == (True, True)
    top = bs.bands[-1]
    raised = dataclasses.replace(top, high=top.high + 1e-10)
    assert row(dataclasses.replace(bs, bands=bs.bands[:-1] + (raised,))) == (False, False)


def _narrowest_feature(bs):
    """The narrowest open band, gap or spacing of two flat values."""
    flats = [fb.value for fb in bs.flat_bands]
    widths = [b.width for b in bs.open_bands] + [hi - lo for lo, hi in bs.gaps]
    return min(widths + np.diff(flats).tolist(), default=math.inf)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_constant_potential_shift_keeps_every_pass_flag_and_flat_band(family, data):
    # H + cI has the spectrum of H moved by c.  Its rounding grows with c,
    # and the tolerance must grow with it: no row may fail, and no band turn
    # flat, because of c alone.  A feature narrower than the rounding at
    # scale c cannot be resolved in float64, so such a shift is skipped.
    spec = data.draw(quotients(family))

    def summary(spec):
        _, bs, reports = estimate_suite(spec)
        rows = [(r.name, c.name, c.passed) for r in reports for c in r.checks]
        return rows, [fb.multiplicity for fb in bs.flat_bands], bs

    rows, multiplicities, bs = summary(spec)
    lows = np.asarray([b.low for b in bs.bands])
    highs = np.asarray([b.high for b in bs.bands])
    for c in (1e3, 1e6, 1e9):
        if _narrowest_feature(bs) <= 4.0 * _rounding_tol(lows + c, highs + c):
            continue
        shifted = with_potentials(spec, [q + c for q in spec.potentials()])
        assert summary(shifted)[:2] == (rows, multiplicities), c


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_the_gap_row_passes_at_every_potential_scale_and_kind(family, data):
    # The gap sum is taken over the open bands, so the row reads their hull.
    # Large potentials put flat bands far outside the open bands, where the
    # hull of all bands would grow by the gap up to them.  Only H carries
    # the potentials, and the normalized operator has no gap row.
    spec = data.draw(quotients(family))
    grid = TorusGrid(spec.dimension, 12)
    for kind in ("schrodinger", "laplacian", "normalized"):
        for scale in (0.0, 1.0, 1e3, 1e6, 1e9) if kind == "schrodinger" else (1.0,):
            scaled = with_potentials(spec, [scale * q for q in spec.potentials()])
            _, _, reports = estimate_suite(scaled, kind, grid)
            passed = [
                c.passed
                for r in reports
                for c in r.checks
                if c.name == "band-hull-minus-bridges<=gap-length-sum"
            ]
            assert passed == ([] if kind == "normalized" else [True]), (kind, scale)


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
def test_schrodinger_and_laplacian_share_one_torus_sample(calls, call):
    # With potentials both H and its Laplacian are solved, from one
    # connectivity test, one band-symmetry search, one grid, one fiber build
    # and one eigensolver call.
    seen = {
        name: calls(owner, name)
        for owner, name in (
            (spectrum, "is_connected_periodic"),
            (spectrum, "_orbit_group"),
            (spectrum, "fiber_stack"),
            (spectrum, "eigh_stack"),
            (TorusGrid, "points"),
        )
    }
    call()
    counts = {name: len(made) for name, made in seen.items()}
    assert counts == {
        "is_connected_periodic": 1,
        "_orbit_group": 1,
        "points": 1,
        "fiber_stack": 1,
        "eigh_stack": 1,
    }


@pytest.mark.parametrize("kind", ["laplacian", "normalized"])
def test_potential_free_kinds_solve_the_orbits_of_the_graph_without_potentials(calls, kind):
    # Potentials break fcc's symmetry (2,197 orbits on the default grid), but
    # these operators ignore them and keep the 455 orbits of fcc().
    solves = calls(spectrum, "eigh_stack", len)
    with_q = compute_band_structure(fcc(q=(1.0, 2.0, 3.0, 0.0)), kind)
    plain = compute_band_structure(fcc(), kind)
    assert solves == [455, 455]
    assert with_q == plain


def test_first_band_condition_detection():
    assert check_first_band_nondegenerate(cubic(2)) == (True, True)
    assert check_first_band_nondegenerate(hexagonal()) == (True, True)
    condition, nondegenerate = check_first_band_nondegenerate(subdivided(2, 2))
    assert condition is False
    assert nondegenerate is True
    condition, _ = check_first_band_nondegenerate(subdivided(2, 1))
    assert condition is True


def _loop_corner_rows(spec):
    # Eigenvalues at theta = 0 and at the flip corner of a loop graph.
    corners = spectrum._loop_edge_corners(spec, classify(spec))
    return spectrum.grid_eigenvalues(spec, np.array(corners), "schrodinger")


def test_loop_band_endpoints_star():
    x = 5.5
    root = math.sqrt(x * x - 8.0)
    expected = [(0.0, x - root), (1.0, 1.0), (3.0, x + root)]
    assert np.allclose(np.transpose(_loop_corner_rows(star(2, 3))), expected, atol=1e-12)
    assert np.allclose(band_tuples(compute_band_structure(star(2, 3))), expected, atol=1e-9)


def test_loop_band_endpoints_cubic():
    for d in (1, 2, 3):
        assert np.allclose(np.transpose(_loop_corner_rows(cubic(d))), [(0.0, 4.0 * d)], atol=1e-12)
        assert np.allclose(band_tuples(compute_band_structure(cubic(d))), [(0.0, 4.0 * d)], atol=1e-9)


def test_loop_band_endpoints_requires_loop_graph():
    # hexagonal crosses cells through edges between two vertices.
    _, _, reports = estimate_suite(hexagonal())
    assert "loop-graph-endpoints" not in [r.name for r in reports]


def test_loop_band_endpoints_imprecise_fallback():
    # triangular is a loop graph with no flip corner: its lower edges are the
    # zero fiber's eigenvalues, its upper edges grid maxima.
    spec = triangular()
    assert spectrum._loop_edge_corners(spec, classify(spec)) is None
    bs = compute_band_structure(spec)
    assert np.allclose(band_tuples(bs), [(0.0, 9.0)], atol=1e-9)
    assert bs.bands[0].low == pytest.approx(fiber_eigenvalues(spec, (0.0, 0.0))[0], abs=1e-12)


def test_loop_band_endpoints_fallback_solves_the_grid_once(calls):
    # triangular has no flip corner: one orbit sample serves H and the
    # Laplacian.  star(2,3) solves theta = 0 and its flip corner only.
    solves = calls(spectrum, "eigh_stack", len)
    estimate_suite(triangular())
    estimate_suite(star(2, 3))
    assert solves == [817, 2]


def test_precise_loop_band_sum_identity():
    for spec in (cubic(2), star(2, 4), bipartite_chain(2, 3)):
        cls = classify(spec)
        assert cls.precise_quasimomentum is not None
        zero_row, flip_row = _loop_corner_rows(spec)
        assert (flip_row - zero_row).sum() == pytest.approx(2.0 * cls.bridge_count, abs=1e-9)
        bs = compute_band_structure(spec)
        assert bs.band_length_sum == pytest.approx(2.0 * cls.bridge_count, abs=1e-9)


def test_bipartite_loop_endpoints_match_grid():
    # Laplacian lower edges at the zero fiber, upper edges their mirror
    # through the degree.
    for spec in (cubic(2), cubic(3), bipartite_chain(2, 3)):
        kappa = classify(spec).regular_degree
        zero_row = fiber_eigenvalues(spec, (0.0,) * spec.dimension, "laplacian")
        mirrored = np.transpose([zero_row, 2.0 * kappa - zero_row[::-1]])
        grid_bs = compute_band_structure(spec, "laplacian")
        assert np.allclose(mirrored, band_tuples(grid_bs), atol=1e-9)


def test_bipartite_loop_endpoints_name_failing_precondition():
    # Not bipartite, not regular, not a loop graph: no mirrored-endpoint row.
    for spec in (triangular(), star(2, 3), hexagonal()):
        _, _, reports = estimate_suite(spec)
        names = [c.name for r in reports for c in r.checks]
        assert "bipartite-loop-endpoint-match" not in names


LOOP_ROWS = ["flip-corner-band-length-identity"]
BIPARTITE_LOOP_ROWS = [
    "bipartite-gap-floor<=laplacian-gap-sum",
    "bipartite-band-symmetry",
    "bipartite-loop-endpoint-match",
]


@pytest.mark.parametrize(
    "spec, loop_rows, bipartite_rows",
    [
        (star(2, 3), LOOP_ROWS + ["flip-corner-measure-identity"], []),
        (cubic(2), LOOP_ROWS + ["flip-corner-measure-identity"], BIPARTITE_LOOP_ROWS),
        (bipartite_chain(2, 3), LOOP_ROWS, BIPARTITE_LOOP_ROWS),
        (triangular(), ["loop-lower-endpoints-at-zero-point"], []),
    ],
    ids=["star-2-3", "cubic-2", "bipartite-chain-2-3", "triangular"],
)
def test_loop_and_bipartite_statement_rows(spec, loop_rows, bipartite_rows):
    # The rows each paper statement gets in analyze, and that they pass.
    # A flip corner's band edges are its rows at 0 and at the corner, so only
    # triangular, which has none, checks its lower edges against theta = 0.
    _, _, reports = estimate_suite(spec)
    rows = {r.name: r.checks for r in reports}
    assert [c.name for c in rows["loop-graph-endpoints"]] == loop_rows
    assert [c.name for c in rows.get("bipartite-regular-structure", ())] == bipartite_rows
    assert all(r.passed for r in reports)


def test_rounding_tolerance_of_a_closed_form_structure():
    # cubic(2) has one branch with edges 0 and 8, sampled exactly at theta = 0
    # and (pi, pi), so tau = 16 * nu * eps * (1 + scale) is 16 * 1 * eps * 9.
    _, bs, _ = estimate_suite(cubic(2))
    assert band_tuples(bs) == [(0.0, 8.0)]
    assert bs.flat_tol == bs.rounding_tol == 16 * 1 * np.finfo(float).eps * (1.0 + 8.0)


def test_bipartite_band_symmetry_fails_on_a_moved_band_edge(monkeypatch):
    # hexagonal's Laplacian bands [0, 3] and [3, 6] mirror through the degree
    # 3; with the first upper edge moved to 2.5 they no longer do.
    solve = spectrum._band_structure

    def tampered(*args):
        thetas, fibers, structures = solve(*args)
        structure, values = structures["laplacian"]
        first = dataclasses.replace(structure.bands[0], high=structure.bands[0].high - 0.5)
        bands = (first, *structure.bands[1:])
        structures["laplacian"] = dataclasses.replace(structure, bands=bands), values
        return thetas, fibers, structures

    _, _, reports = estimate_suite(hexagonal())
    rows = {c.name: c for r in reports for c in r.checks}
    assert rows["bipartite-band-symmetry"].passed
    monkeypatch.setattr(spectrum, "_band_structure", tampered)
    _, _, reports = estimate_suite(hexagonal())
    [report] = [r for r in reports if r.name == "bipartite-regular-structure"]
    rows = {c.name: c for c in report.checks}
    assert not rows["bipartite-band-symmetry"].passed
    assert rows["bipartite-band-symmetry"].lhs == pytest.approx(0.5)


def test_uniform_extremizers():
    # Phase-flipping loop graphs extremize every branch at 0 and the corner.
    for spec in (star(2, 3), cubic(3)):
        params = stability_constants(spec, spec).params
        flip = classify(spec).precise_quasimomentum
        assert (params["theta_minus_a"], params["theta_plus_a"]) == ((0.0,) * spec.dimension, flip)
    # The branch minima of hexagonal and of bcc sit at different points.
    for spec in (hexagonal(), bcc()):
        with pytest.raises(PreconditionError, match="lower band endpoint"):
            stability_constants(spec, spec)


# The king's graph: Z^2 with its eight nearest and diagonal neighbours, one
# cell vertex and four crossing loops.  It has no flip corner, so its band
# edges are sampled.  E(theta) = 8 - 2(cos a + cos b + cos(a + b) + cos(a - b))
# has its minimum 0 at theta = 0 only and its maximum 12 at both (0, pi) and
# (pi, 0).  No builtin attains all its lower or all its upper edges at two
# corners of its sample, at the default grid or at grids 12 and 13.
KING = PeriodicGraphSpec(
    2, (VertexInfo("a"),), tuple(EdgeRecord(0, 0, n) for n in ((1, 0), (0, 1), (1, 1), (1, -1)))
)


@pytest.mark.parametrize("m", [12, 13])
def test_stability_takes_the_first_extremizing_corner_of_the_sample(m):
    # Grid 12 samples theta, -theta pairs, so (0, pi) and (pi, 0) are both in
    # the sample; odd grid 13 appends them in corner order.
    grid = TorusGrid(2, m)
    spec_b = with_potentials(KING, (0.5,))
    report = stability_constants(KING, spec_b, grid)
    for spec, side in ((KING, "a"), (spec_b, "b")):
        thetas, _, structures = spectrum._band_structure(
            spec, classify(spec), ("schrodinger",), grid, None, False
        )
        bs, values = structures["schrodinger"]
        at_corner = ((thetas == 0.0) | (thetas == PI)).all(axis=1)
        for key, edge in (("theta_minus_", bs.bands[0].low), ("theta_plus_", bs.bands[0].high)):
            hits = at_corner & (np.abs(values[:, 0] - edge) <= bs.rounding_tol)
            corners = [tuple(theta) for theta in thetas[hits].tolist()]
            assert len(corners) == (1 if key == "theta_minus_" else 2)
            assert report.params[key + side] == corners[0]
    assert report.params["theta_plus_a"] == report.params["theta_plus_b"] == (0.0, PI)


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
    with pytest.raises(PreconditionError, match="vertex count mismatch: 2 != 1"):
        stability_constants(hexagonal(), triangular())


# hexagonal and fcc differ in vertex count too: the dimension is checked first.
@pytest.mark.parametrize(
    "spec_a, spec_b", [(star(2, 3), star(3, 3)), (hexagonal(), fcc())], ids=["star", "hex-fcc"]
)
def test_stability_dimension_mismatch(spec_a, spec_b):
    # The paper compares two operators on one lattice.
    with pytest.raises(PreconditionError, match="dimension mismatch: 2 != 3"):
        stability_constants(spec_a, spec_b)


def test_stability_requires_uniform_extremizers():
    with pytest.raises(PreconditionError, match="band"):
        stability_constants(hexagonal(), hexagonal())


def _stability_reference(spec_a, spec_b, precise_vs_bipartite, grid=None):
    # Each corner solved on its own and matched against the envelopes of the
    # whole grid (the default one when grid is None); the chosen corners'
    # fibers built one at a time.
    def fiber(spec, theta, kind="schrodinger"):
        return fiber_stack(spec, np.asarray([theta], dtype=float), kind)[0]

    def l1(x, y):
        return float(np.abs(x - y).sum())

    def uniform_corners(spec):
        points = (grid or TorusGrid.default_for(spec.dimension)).points()
        values = spectrum.grid_eigenvalues(spec, points, "schrodinger")
        corners = list(itertools.product((0.0, PI), repeat=spec.dimension))
        rows = [fiber_eigenvalues(spec, corner) for corner in corners]
        lows, highs = values.min(axis=0), values.max(axis=0)
        return [
            next(
                corner
                for corner, row in zip(corners, rows)
                if np.abs(row - edges).max() <= _rounding_tol(lows, highs)
            )
            for edges in (lows, highs)
        ]

    minus_a, plus_a = uniform_corners(spec_a)
    minus_b, plus_b = uniform_corners(spec_b)
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


# Each graph builds and solves its band-edge sample once.  Loop graphs with
# a flip corner solve theta = 0 and the flip corner, and read H at their two
# chosen corners from that sample.  fcc is not a loop graph: its samples are
# real in the bridge gauge, so H is built in the vertex basis at the two
# corners.  It has 48 band symmetries and 455 orbits of the default 24^3
# grid; grid 12 solves 868 theta, -theta pairs (too few for the symmetry
# search), and odd grid 13 solves 1,099 pairs plus its 7 appended pi corners.
@pytest.mark.parametrize(
    "spec_a, spec_b, precise_vs_bipartite, grid, solve_batches, fiber_batches",
    [
        (star(2, 3, q=(0.3, -0.2, 0.1)), star(2, 3), False, None, [2, 2], [2, 2]),
        (star(2, 3), bipartite_chain(2, 3), True, None, [2, 2], [2, 2]),
        (fcc(), fcc(), False, None, [455, 455], [455, 2, 455, 2]),
        (fcc(), fcc(), False, TorusGrid(3, 12), [868, 868], [868, 2, 868, 2]),
        (fcc(), fcc(), False, TorusGrid(3, 13), [1106, 1106], [1106, 2, 1106, 2]),
    ],
    ids=[
        "star-q-vs-star",
        "star-vs-bipartite-chain",
        "fcc-vs-fcc",
        "fcc-vs-fcc-grid-12",
        "fcc-vs-fcc-grid-13",
    ],
)
def test_stability_reuses_the_corner_solves(
    calls, spec_a, spec_b, precise_vs_bipartite, grid, solve_batches, fiber_batches
):
    checks, params = _stability_reference(spec_a, spec_b, precise_vs_bipartite, grid)
    solves = calls(spectrum, "eigh_stack", len)
    fibers = calls(spectrum, "fiber_stack", lambda spec, thetas, kind, **options: len(thetas))
    report = stability_constants(spec_a, spec_b, grid)
    # The theta = 0 Laplacian fiber of the bipartite side is its lower corner's.
    assert solves == solve_batches
    assert fibers == fiber_batches
    assert [(c.name, c.lhs.hex(), c.rhs.hex()) for c in report.checks] == [
        (name, float(lhs).hex(), float(rhs).hex()) for name, lhs, rhs in checks
    ]
    assert _hex_params(report.params) == _hex_params(params)


# bench_set's decorated hexagonal graph: a path of three vertices glued on
# the honeycomb, with distinct potentials, so it has no inversion.
DECORATED_HEXAGONAL = with_potentials(
    decorate(hexagonal(), FiniteGraph(3, ((0, 1), (1, 2))), 0), np.linspace(-2.0, 2.0, 4)
)


@pytest.mark.parametrize(
    "spec, grid, dtype",
    [
        (DECORATED_HEXAGONAL, TorusGrid(2, 12), np.float64),
        (DECORATED_HEXAGONAL, None, np.float64),
        (hexagonal(q=(1.0, -1.0)), TorusGrid(2, 12), np.float64),
        (hexagonal(q=(1.0, -1.0)), None, np.float64),
        (subdivided(2, 4), TorusGrid(2, 12), np.complex128),
    ],
    ids=[
        "decorated-12", "decorated-default", "hexagonal-q-12", "hexagonal-q-default", "subdivided-12"
    ],
)
def test_samples_are_real_in_the_bridge_gauge_at_every_size(calls, spec, grid, dtype):
    # The gauge needs no search, so a sample too small to search is real
    # too; subdivided(2,4)'s crossing pairs lie on cycles, and its inversion
    # is looked up only where the search runs.
    solved = calls(spectrum, "eigh_stack", lambda stack: stack.dtype)
    verify_gap_bound(spec, grid)
    assert solved == [dtype]


@pytest.mark.parametrize("spec", [fcc(), fcc(q=(0.0, 0.0, 0.0, 1.0))], ids=["fcc", "fcc-q"])
def test_extremizing_corners_are_the_vertex_basis_fibers(spec):
    # The default sample is real, in fcc's bridge gauge; the entrywise
    # distances of compare read H in the vertex basis.  (With
    # q = (1, 2, 3, 0) no corner attains every lower band edge.)
    assert spectrum._orbit_group(spec, TorusGrid.default_for(3), ("schrodinger",))[1] is not None
    _, points, fibers, _, _ = spectrum._extremizing_corners(spec, None, "A")
    expected = fiber_stack(spec, np.asarray(points), "schrodinger")
    assert fibers.dtype == expected.dtype and fibers.tobytes() == expected.tobytes()


FLIP_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@FLIP_SETTINGS
@given(quotients("flip"), st.integers(2, 6))
def test_loop_graph_grid_envelopes_are_the_zero_and_flip_rows(spec, m):
    # The identity a flip-corner loop graph's band structure rests on, for
    # every operator kind: the envelopes over every point of the grid are the
    # rows at theta = 0 and at the flip corner.
    cls = classify(spec)
    assert cls.is_loop_graph and cls.is_connected
    flip = cls.precise_quasimomentum
    assert flip is not None
    grid = TorusGrid(spec.dimension, m)
    for kind in ("schrodinger", "laplacian", "normalized"):
        values = spectrum.grid_eigenvalues(spec, grid.points(), kind)
        lows, highs = values.min(axis=0), values.max(axis=0)
        zero_row, flip_row = spectrum.grid_eigenvalues(
            spec, np.array([(0.0,) * spec.dimension, flip]), kind
        )
        tol = 1e-12 * (1.0 + max(np.abs(lows).max(), np.abs(highs).max()))
        assert np.abs(lows - zero_row).max() <= tol
        assert np.abs(highs - flip_row).max() <= tol
        bs = compute_band_structure(spec, kind, grid)
        assert np.abs(np.asarray(band_tuples(bs)) - np.transpose([lows, highs])).max() <= tol


@FLIP_SETTINGS
@given(st.integers(1, 3), st.integers(1, 5), st.data())
def test_loop_graph_stability_matches_the_grid_reference(d, nv, data):
    spec_a, spec_b = data.draw(quotients("flip", d, nv)), data.draw(quotients("flip", d, nv))
    # With potentials on A, the only special case left is A precise against
    # a bipartite regular B without potentials.
    assume(any(spec_a.potentials()))
    cls_b = classify(spec_b)
    bipartite_b = cls_b.periodic_bipartite and cls_b.is_regular and not any(spec_b.potentials())
    checks, params = _stability_reference(spec_a, spec_b, bipartite_b)
    report = stability_constants(spec_a, spec_b)
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
def test_dirac_rings_batched_match_per_point_reference(calls, q1, radius, samples):
    built = calls(oracles, "fiber_stack", lambda spec, thetas, kind: len(thetas))
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
    grid = TorusGrid(2, 24)
    for spec in decorated_loop_graphs(34, 10):
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
