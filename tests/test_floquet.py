import dataclasses
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from graphbands import (
    EdgeRecord,
    ParameterError,
    PeriodicGraphSpec,
    VertexInfo,
    bridge_count,
    classify,
    degrees,
    fiber_eigenvalues,
    oriented_edges,
)
from graphbands.floquet import (
    BRIDGE_GAUGE,
    KINDS,
    _edge_phase_sum,
    _phase_table,
    bridge_gauge,
    fiber_stack,
)
from graphbands.linalg import eigh_stack
from graphbands.spectrum import grid_eigenvalues
from graphbands.lattices import (
    FiniteGraph,
    bcc,
    bipartite_chain,
    cubic,
    decorate,
    fcc,
    hexagonal,
    parse_builtin,
    star,
    subdivided,
    triangular,
)
from graphbands.spectrum import ROUNDING_ULPS
from graphbands.symmetry import LatticeSymmetry, _AutomorphismSearch, band_symmetries
from oracles import fluctuation_split, shift_origin
from quotients import FAMILIES, decorated_loop_graphs, quotients, reverse_edges

PI = np.pi

ALL_SPECS = [
    cubic(1),
    cubic(2),
    cubic(3),
    triangular(),
    hexagonal(),
    bcc(),
    fcc(),
    star(2, 3),
    subdivided(2, 2),
    bipartite_chain(2, 3),
]


def eigs(matrix):
    return eigh_stack(matrix)[0][0]


def fiber(spec, theta, kind="schrodinger"):
    return fiber_stack(spec, np.atleast_2d(theta), kind)[0]


def test_hexagonal_adjacency_at_zero():
    mat = fiber(hexagonal(), (0.0, 0.0), "adjacency")
    assert mat[0, 1] == pytest.approx(3.0)
    assert mat[0, 0] == 0.0 and mat[1, 1] == 0.0


def test_square_lattice_adjacency_at_pi():
    mat = fiber(cubic(2), (PI, PI), "adjacency")
    assert mat[0, 0] == pytest.approx(-4.0)


def test_bcc_adjacency_at_zero():
    mat = fiber(bcc(), (0.0, 0.0, 0.0), "adjacency")
    assert mat[0, 1] == pytest.approx(8.0)
    assert mat[1, 1] == pytest.approx(6.0)


def test_laplacian_row_sums_vanish_at_zero():
    for spec in ALL_SPECS:
        mat = fiber(spec, (0.0,) * spec.dimension, "laplacian")
        assert np.abs(mat.sum(axis=1)).max() == pytest.approx(0.0, abs=1e-13)


def test_hexagonal_laplacian_at_zero():
    mat = fiber(hexagonal(), (0.0, 0.0), "laplacian").real
    assert np.allclose(mat, [[3.0, -3.0], [-3.0, 3.0]])
    assert np.allclose(eigs(mat), [0.0, 6.0], atol=1e-13)


def test_fcc_laplacian_at_flip_corner():
    mat = fiber(fcc(), (PI, PI, PI), "laplacian")
    assert abs(mat[0, 3]) == pytest.approx(0.0, abs=1e-12)
    assert abs(mat[1, 3]) == pytest.approx(0.0, abs=1e-12)
    assert abs(mat[2, 3]) == pytest.approx(0.0, abs=1e-12)
    assert mat[3, 3].real == pytest.approx(24.0)


def test_zero_fiber_counts_edge_multiplicities():
    for spec in ALL_SPECS:
        mat = fiber(spec, (0.0,) * spec.dimension, "laplacian")
        deg = degrees(spec)
        multiplicity = np.zeros((spec.num_vertices,) * 2)
        for e in spec.edges:
            multiplicity[e.tail, e.head] += 1
            multiplicity[e.head, e.tail] += 1
        expected = np.diag(deg) - multiplicity
        assert np.array_equal(mat.real, expected)
        assert np.abs(mat.imag).max() == 0.0


def test_schrodinger_adds_potentials():
    spec = hexagonal(q=(0.7, -0.7))
    theta = (0.9, 1.7)
    lap = fiber(spec, theta, "laplacian")
    ham = fiber(spec, theta)
    assert np.allclose(ham - lap, np.diag([0.7, -0.7]))
    hop = -(1.0 + np.exp(1j * theta[0]) + np.exp(1j * theta[1]))
    assert ham[0, 1] == pytest.approx(hop)
    assert ham[0, 0] == pytest.approx(3.7)


def test_normalized_equals_scaled_laplacian_for_regular():
    spec = bipartite_chain(2, 4)
    theta = (1.3, 0.4)
    norm = fiber(spec, theta, "normalized")
    lap = fiber(spec, theta, "laplacian")
    assert np.allclose(norm, lap / 4.0, atol=1e-13)


def test_normalized_hexagonal_range():
    values = fiber_eigenvalues(hexagonal(), (0.0, 0.0), "normalized")
    assert np.allclose(values, [0.0, 2.0], atol=1e-13)


def test_normalized_square_scalar():
    theta = (0.8, 2.2)
    value = fiber(cubic(2), theta, "normalized")[0, 0].real
    expected = (4.0 - 2.0 * np.cos(theta[0]) - 2.0 * np.cos(theta[1])) / 4.0
    assert value == pytest.approx(expected)
    assert 0.0 <= value <= 2.0


def test_fluctuation_split_rebuilds_fiber():
    rng = np.random.default_rng(8)
    for spec in ALL_SPECS:
        for _ in range(3):
            theta = rng.uniform(0.0, 2 * PI, size=spec.dimension)
            mean, fluct = fluctuation_split(spec, theta)
            ham = fiber(spec, theta)
            assert np.abs(mean + fluct - ham).max() < 1e-12


def test_fluctuation_diagonal_for_loop_graphs():
    rng = np.random.default_rng(9)
    for spec in (cubic(3), triangular(), star(2, 4)):
        theta = rng.uniform(0.0, 2 * PI, size=spec.dimension)
        _, fluct = fluctuation_split(spec, theta)
        off = fluct - np.diag(np.diag(fluct))
        assert np.abs(off).max() == 0.0
        assert np.abs(fluct.imag).max() < 1e-15


def test_fluctuation_entry_bound_over_random_points():
    rng = np.random.default_rng(10)
    spec = fcc()
    _, at_zero = fluctuation_split(spec, (0.0, 0.0, 0.0))
    bound = np.abs(at_zero)
    for _ in range(1000):
        theta = rng.uniform(0.0, 2 * PI, size=3)
        _, fluct = fluctuation_split(spec, theta)
        assert (np.abs(fluct) <= bound + 1e-12).all()


@pytest.mark.parametrize(
    "call",
    [
        lambda theta: fiber_stack(hexagonal(), theta[None], "laplacian"),
        lambda theta: fiber_eigenvalues(hexagonal(), theta),
        lambda theta: fluctuation_split(hexagonal(), theta),
    ],
    ids=["fiber_stack", "fiber_eigenvalues", "fluctuation_split"],
)
@pytest.mark.parametrize("d", [1, 3])
def test_quasimomentum_of_the_wrong_dimension_rejected(call, d):
    with pytest.raises(ParameterError, match=f"quasimomentum has {d} components, expected 2"):
        call(np.zeros(d))


@pytest.mark.parametrize("kind", ["hamiltonian", ("laplacian", "Laplacian")], ids=["one", "tuple"])
def test_unknown_kind_rejected_by_name(kind):
    with pytest.raises(ParameterError, match="unknown matrix kind '(hamiltonian|Laplacian)'"):
        fiber_stack(hexagonal(), np.zeros((1, 2)), kind)


def test_an_empty_kind_list_is_rejected_by_name():
    with pytest.raises(ParameterError, match="the list of matrix kinds is empty"):
        fiber_stack(hexagonal(), np.zeros((1, 2)), ())


@pytest.mark.parametrize(
    "call",
    [
        lambda: fiber_stack(hexagonal(), [[np.nan, 0.0]], "schrodinger"),
        lambda: fiber_eigenvalues(hexagonal(), [np.inf, 0.0], "schrodinger"),
        lambda: fiber_stack(star(2, 3), [[0.0, 1.0], [0.5, -np.inf]], "laplacian"),
    ],
    ids=["fiber_stack-nan", "fiber_eigenvalues-inf", "loop-graph-row-2"],
)
def test_a_non_finite_quasimomentum_is_rejected(call):
    # Rejected before any phase is formed: the suite turns a numpy warning
    # into an error, so a NaN matrix or an inf angle would fail differently.
    with pytest.raises(ParameterError, match="quasimomentum has a non-finite component"):
        call()


def test_fibers_are_hermitian_everywhere():
    rng = np.random.default_rng(12)
    for spec in ALL_SPECS:
        for kind in ("adjacency", "laplacian", "schrodinger", "normalized"):
            theta = rng.uniform(0.0, 2 * PI, size=(4, spec.dimension))
            stack = fiber_stack(spec, theta, kind)
            scale = max(np.abs(stack).max(), 1.0)
            assert np.abs(stack - np.conj(np.swapaxes(stack, 1, 2))).max() < 1e-12 * scale


def _two_orientation_adjacency(spec, thetas):
    # Reference: fill both orientations of every edge, then average with the
    # conjugate transpose.  The angles are summed over the axes left to
    # right, as the phase sum sums them.
    out = np.zeros((thetas.shape[0], spec.num_vertices, spec.num_vertices), dtype=complex)
    for e in oriented_edges(spec):
        if any(e.index):
            angles = sum((thetas[:, k] * n for k, n in enumerate(e.index[1:], 1)), thetas[:, 0] * e.index[0])
            out[:, e.tail, e.head] += np.exp(1j * angles)
        else:
            out[:, e.tail, e.head] += 1.0
    return 0.5 * (out + np.conj(np.swapaxes(out, 1, 2)))


# Zero-index and crossing loops, parallel edges, and a loop crossing on two
# axes at once.
LOOPY_SPECS = [
    PeriodicGraphSpec(
        2,
        (VertexInfo("a", 0.5), VertexInfo("b", -1.0), VertexInfo("c", 2.0)),
        (
            EdgeRecord(0, 0, (0, 0)),
            EdgeRecord(0, 0, (1, 0)),
            EdgeRecord(0, 0, (1, 0)),
            EdgeRecord(1, 1, (1, -2)),
            EdgeRecord(0, 1, (0, 0)),
            EdgeRecord(0, 1, (0, 0)),
            EdgeRecord(1, 0, (0, 1)),
            EdgeRecord(0, 1, (0, -1)),
            EdgeRecord(1, 2, (3, 1)),
            EdgeRecord(2, 1, (-3, -1)),
            EdgeRecord(2, 2, (0, 1)),
        ),
    ),
    PeriodicGraphSpec(
        1,
        (VertexInfo("a", 0.0),),
        (EdgeRecord(0, 0, (1,)), EdgeRecord(0, 0, (2,)), EdgeRecord(0, 0, (0,))),
    ),
]


@pytest.mark.parametrize("spec", LOOPY_SPECS + ALL_SPECS)
def test_one_orientation_fill_matches_two_orientation_reference(spec):
    rng = np.random.default_rng(14)
    thetas = np.vstack(
        [rng.uniform(0.0, 2 * PI, size=(16, spec.dimension)), np.zeros((1, spec.dimension))]
    )
    stack = fiber_stack(spec, thetas, "adjacency")
    assert np.abs(stack - _two_orientation_adjacency(spec, thetas)).max() <= 1e-15
    assert np.array_equal(stack, np.conj(np.swapaxes(stack, 1, 2)))
    mean, fluct = fluctuation_split(spec, thetas[0])
    assert np.array_equal(mean, np.conj(mean.T))
    assert np.array_equal(fluct, np.conj(fluct.T))
    ham = fiber(spec, thetas[0])
    assert np.abs(mean + fluct - ham).max() < 1e-14


@pytest.mark.parametrize("spec", LOOPY_SPECS + ALL_SPECS + [star(2, 3, q=(1.0, -2.0, 0.5))])
def test_operator_kinds_are_the_out_of_place_formulas_bit_for_bit(spec):
    # fiber_stack negates and scales the phase sum in place; the bits must
    # be those of the expressions written on fresh arrays.
    rng = np.random.default_rng(16)
    thetas = rng.uniform(0.0, 2 * PI, size=(9, spec.dimension))
    adjacency = fiber_stack(spec, thetas, "adjacency")
    deg = np.asarray(degrees(spec), dtype=float)
    idx = np.arange(spec.num_vertices)
    weights = 1.0 / np.sqrt(deg)
    normalized = -adjacency * weights[None, :, None] * weights[None, None, :]
    normalized[:, idx, idx] += 1.0
    laplacian = -adjacency
    laplacian[:, idx, idx] += deg
    schrodinger = laplacian.copy()
    schrodinger[:, idx, idx] += np.asarray(spec.potentials())
    expected = {"normalized": normalized, "laplacian": laplacian, "schrodinger": schrodinger}
    for kind, reference in expected.items():
        stack = fiber_stack(spec, thetas, kind)
        assert stack.dtype == reference.dtype and stack.tobytes() == reference.tobytes()


def _complex_phase_sum(spec, thetas):
    """The vertex-basis phase sum accumulated into a complex stack, also for
    a loop graph, whose table fills a float64 one."""
    return _edge_phase_sum(_phase_table(spec)._replace(dtype=complex, split=0), thetas)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(quotients("loop"))
def test_loop_graph_fibers_are_real_and_match_the_complex_construction(spec):
    assert classify(spec).is_loop_graph
    rng = np.random.default_rng(15)
    thetas = np.vstack(
        [rng.uniform(0.0, 2 * PI, size=(8, spec.dimension)), np.zeros((1, spec.dimension))]
    )
    reference = _two_orientation_adjacency(spec, thetas)
    assert not reference.imag.any()
    adjacency = fiber_stack(spec, thetas, "adjacency")
    assert adjacency.dtype == np.float64
    assert np.array_equal(adjacency, reference.real)
    assert np.array_equal(adjacency, _complex_phase_sum(spec, thetas))
    for kind in ("laplacian", "schrodinger", "normalized"):
        stack = fiber_stack(spec, thetas, kind)
        assert stack.dtype == np.float64
        values = eigh_stack(stack)[0]
        complex_values = eigh_stack(stack.astype(complex))[0]
        scale = np.abs(complex_values).max()
        assert np.abs(values - complex_values).max() <= 1e-12 * (1.0 + scale)


BENCH_BUILTINS = ("hexagonal", "fcc", "star(2,6)", "subdivided(2,4)")


def _random_thetas(spec, seed, count=7):
    rng = np.random.default_rng(seed)
    return np.vstack(
        [rng.uniform(-2 * PI, 2 * PI, size=(count, spec.dimension)), np.zeros((1, spec.dimension))]
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(quotients("general"))
@example(hexagonal())
@example(fcc())
def test_real_phase_sum_refuses_a_crossing_edge_between_two_vertices(spec):
    # In the vertex basis a float64 stack is chosen for loop graphs only;
    # anywhere else it would drop the imaginary part of a phase, so the fill
    # must raise instead.
    assume(any(any(e.index) and e.tail != e.head for e in spec.edges))
    thetas = _random_thetas(spec, 16)
    nv = spec.num_vertices
    with pytest.raises(TypeError):
        _edge_phase_sum(_phase_table(spec), thetas, np.zeros((len(thetas), nv, nv)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(("loop", "flip")).flatmap(quotients))
def test_real_and_complex_phase_sums_of_a_loop_graph_agree_bit_for_bit(spec):
    thetas = _random_thetas(spec, 17)
    real = _edge_phase_sum(_phase_table(spec), thetas)
    full = _complex_phase_sum(spec, thetas)
    assert real.dtype == np.float64 and full.dtype == np.complex128
    assert not full.imag.any()
    assert real.tobytes() == full.real.tobytes()


def _per_edge_loop_fill(spec, thetas):
    """The float64 phase sum of a loop graph as it was filled before the
    sums were tabled: edge by edge, 1 at (tail, head) and (head, tail) for
    an edge inside the cell, cos <n, theta> twice on the diagonal for a
    crossing loop, its angle summed over the axes left to right."""
    nv = spec.num_vertices
    out = np.zeros((len(thetas), nv, nv))
    for e in spec.edges:
        if not any(e.index):
            out[:, e.tail, e.head] += 1.0
            out[:, e.head, e.tail] += 1.0
            continue
        angles = e.index[0] * thetas[:, 0]
        for k in range(1, spec.dimension):
            angles += e.index[k] * thetas[:, k]
        cosines = np.cos(angles)
        out[:, e.tail, e.tail] += cosines
        out[:, e.tail, e.tail] += cosines
    return out


def _trivial_inversion(spec):
    d = spec.dimension
    return LatticeSymmetry(
        tuple(tuple(-int(i == j) for j in range(d)) for i in range(d)),
        tuple(range(spec.num_vertices)),
        ((0,) * d,) * spec.num_vertices,
    )


@pytest.mark.parametrize(
    "spec",
    [s for s in LOOPY_SPECS if classify(s).is_loop_graph]
    + decorated_loop_graphs(38, 12)
    + [star(2, 6), cubic(3), bipartite_chain(2, 3)],
)
def test_the_trivial_inversion_fill_of_a_loop_graph_is_the_per_edge_fill_bit_for_bit(spec):
    # A loop graph's fibers are the real fill of the trivial inversion (the
    # identity, no shifts) and its bridge gauge: the vertex basis, with the
    # per-edge fill's bits.
    thetas = _random_thetas(spec, 18, count=40)
    reference = _per_edge_loop_fill(spec, thetas)
    assert bridge_gauge(spec) == BRIDGE_GAUGE
    for inversion in (None, _trivial_inversion(spec), BRIDGE_GAUGE):
        adjacency = fiber_stack(spec, thetas, "adjacency", inversion=inversion)
        assert adjacency.dtype == np.float64 and adjacency.tobytes() == reference.tobytes()
    for inversion in (_trivial_inversion(spec), BRIDGE_GAUGE):
        joint = fiber_stack(spec, thetas, KINDS, inversion=inversion)
        assert joint.tobytes() == fiber_stack(spec, thetas, KINDS).tobytes()


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(quotients("general"))
@example(hexagonal())
@example(fcc())
@example(bcc())
@example(subdivided(2, 4))
@example(subdivided(3, 3))
def test_real_fibers_of_an_inversion_have_the_complex_spectrum(spec):
    inversion = band_symmetries(spec)[1]
    assume(inversion is not None)
    _check_real_basis_spectrum(spec, inversion, _random_thetas(spec, 19, count=39))


def _check_real_basis_spectrum(spec, basis, thetas):
    """Real symmetric fibers in `basis` have the eigenvalues of the complex
    vertex-basis solve, within the rounding tolerance, for every kind."""
    nv = spec.num_vertices
    for kinds in (("schrodinger",), ("laplacian",), ("normalized",), ("schrodinger", "laplacian")):
        real = fiber_stack(spec, thetas, kinds, inversion=basis)
        assert real.dtype == np.float64
        if "normalized" not in kinds:
            assert np.array_equal(real, np.swapaxes(real, 1, 2))
        values = eigh_stack(real)[0]
        expected = eigh_stack(fiber_stack(spec, thetas, kinds).astype(complex))[0]
        tol = ROUNDING_ULPS * nv * np.finfo(float).eps * (1.0 + np.abs(expected).max())
        assert np.abs(values - expected).max() <= tol, kinds


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(quotients("general"))
@example(hexagonal())
@example(fcc())
@example(bcc())
@example(decorate(hexagonal(), FiniteGraph(3, ((0, 1), (1, 2))), 0))
def test_real_fibers_of_the_bridge_gauge_have_the_complex_spectrum(spec):
    assume(bridge_gauge(spec) is not None)
    _check_real_basis_spectrum(spec, BRIDGE_GAUGE, _random_thetas(spec, 23, count=39))


# A triangle whose one crossing edge closes a cycle through two edges inside
# the cell.
CROSSING_TRIANGLE = PeriodicGraphSpec(
    1,
    tuple(VertexInfo(label) for label in "abc"),
    (EdgeRecord(0, 1, (0,)), EdgeRecord(1, 2, (0,)), EdgeRecord(2, 0, (1,))),
)


@pytest.mark.parametrize(
    "spec, pair",
    [(subdivided(2, 4), (3, 8)), (CROSSING_TRIANGLE, (0, 2))],
    ids=["subdivided", "triangle"],
)
def test_the_bridge_gauge_refuses_a_crossing_pair_on_a_cycle(spec, pair):
    # Around a cycle the phases of the crossing pairs cannot all be removed.
    assert bridge_gauge(spec) is None
    with pytest.raises(ParameterError, match=f"vertices {pair[0]} and {pair[1]} lies on a cycle"):
        fiber_stack(spec, np.zeros((1, spec.dimension)), "adjacency", inversion=BRIDGE_GAUGE)


def test_the_bridge_gauge_entry_of_a_crossing_pair_is_minus_its_modulus():
    # hexagonal's pair joins edges with indices 0, e1 and e2: its entry is
    # -|1 + exp(i theta_1) + exp(i theta_2)|, the hypot of the cosine sum
    # (the crossing edges' cosines, then 1) and the sine sum, and the
    # diagonal is unchanged.
    thetas = _random_thetas(hexagonal(), 5)
    gauge = fiber_stack(hexagonal(), thetas, "adjacency", inversion=BRIDGE_GAUGE)
    vertex = fiber_stack(hexagonal(), thetas, "adjacency")
    cosines, sines = np.cos(thetas.T), np.sin(thetas.T)
    modulus = np.hypot(cosines[0] + cosines[1] + 1.0, sines[0] + sines[1])
    assert np.allclose(np.abs(vertex[:, 0, 1]), modulus, rtol=0, atol=1e-14)
    assert np.array_equal(gauge[:, 0, 1], -modulus) and np.array_equal(gauge[:, 1, 0], -modulus)
    assert not gauge[:, 0, 0].any() and not gauge[:, 1, 1].any()


@pytest.mark.parametrize(
    "tamper",
    [
        lambda inv: dataclasses.replace(inv, perm=inv.perm[1:] + inv.perm[:1]),
        lambda inv: dataclasses.replace(inv, shifts=((1, 0),) + inv.shifts[1:]),
    ],
    ids=["perm-not-an-involution", "shifts-differ-on-a-pair"],
)
def test_a_tampered_inversion_gives_no_real_form(monkeypatch, tamper):
    spec = subdivided(2, 4)
    inversion = band_symmetries(spec)[1]
    assert inversion.perm[0] != 0 and inversion.shifts[0] == (-1, 0)
    tampered = tamper(inversion)
    assert not tampered.is_inversion
    with pytest.raises(ParameterError, match="not an inversion of this graph"):
        fiber_stack(spec, np.zeros((1, 2)), "schrodinger", inversion=tampered)
    # A search that certified -I with such a map leaves the fibers complex.
    find = _AutomorphismSearch.find
    monkeypatch.setattr(
        _AutomorphismSearch,
        "find",
        lambda self, matrix: tampered if matrix == tampered.matrix else find(self, matrix),
    )
    assert band_symmetries(spec)[1] is None


def test_an_inversion_of_another_graph_is_refused():
    # The identity with no shifts maps hexagonal's edge (0, 1, n) to
    # (0, 1, -n), which is not an edge: taking the real part of its fibers
    # would be silently wrong.
    identity = _trivial_inversion(hexagonal())
    with pytest.raises(ParameterError, match="does not map the graph's edges onto themselves"):
        fiber_stack(hexagonal(), np.zeros((1, 2)), "adjacency", inversion=identity)


def test_an_inversion_that_swaps_unequal_potentials_serves_no_schrodinger_fiber():
    # Found on the graph without potentials, for the kinds that ignore them.
    spec = hexagonal(q=(1.0, -1.0))
    inversion = band_symmetries(hexagonal())[1]
    assert inversion.perm == (1, 0)
    assert fiber_stack(spec, np.zeros((1, 2)), "laplacian", inversion=inversion).dtype == np.float64
    with pytest.raises(ParameterError, match="does not keep the potentials"):
        fiber_stack(spec, np.zeros((1, 2)), "schrodinger", inversion=inversion)


# Every non-empty subset of the kinds, in KINDS order and reversed.
KIND_SUBSETS = [
    subset[::step]
    for size in range(1, len(KINDS) + 1)
    for subset in itertools.combinations(KINDS, size)
    for step in (1, -1)
]


@pytest.mark.parametrize("d", [2, 3])
def test_a_points_fiber_does_not_depend_on_its_batch(d):
    # An index entry of 3 makes the angle <n, theta> a rounded sum of
    # rounded products, where a BLAS product may round a row by its batch:
    # numpy's one-row product rounds differently from its many-row one.
    spec = PeriodicGraphSpec(
        d,
        (VertexInfo("a", 0.5), VertexInfo("b", -1.0)),
        (
            EdgeRecord(0, 1, (0,) * d),
            *(EdgeRecord(0, 0, tuple(int(i == s) for i in range(d))) for s in range(d)),
            EdgeRecord(1, 1, (-1, 3) + (2,) * (d - 2)),
            EdgeRecord(0, 1, (3, -3) + (1,) * (d - 2)),
        ),
    )
    thetas = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, size=(200, d))
    # Its inversion fixes both vertices and shifts b by (3, -3, 1, ...), so
    # the real fill's angles have half-integer coefficients.
    inversion = band_symmetries(spec)[1]
    assert inversion.perm == (0, 1) and any(inversion.shifts[1])
    for options in ({}, {"inversion": inversion}, {"inversion": BRIDGE_GAUGE}):
        batch = fiber_stack(spec, thetas, "schrodinger", **options)
        # Every batch size from 1 to 199, at offsets that vary with it.
        for size in range(1, 200):
            start = 7 * size % (201 - size)
            part = fiber_stack(spec, thetas[start : start + size], "schrodinger", **options)
            assert part.tobytes() == batch[start : start + size].tobytes(), (size, options)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(FAMILIES).flatmap(quotients), st.integers(0, 2**32 - 1))
def test_a_tuple_of_kinds_is_the_single_kind_stacks_concatenated(spec, seed):
    thetas = _random_thetas(spec, seed)
    single = {kind: fiber_stack(spec, thetas, kind) for kind in KINDS}
    for kinds in KIND_SUBSETS:
        joint = fiber_stack(spec, thetas, kinds)
        expected = np.concatenate([single[kind] for kind in kinds])
        assert joint.dtype == expected.dtype and joint.shape == expected.shape
        assert joint.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(FAMILIES).flatmap(quotients), st.integers(0, 2**32 - 1))
def test_one_solve_of_the_joint_stack_is_the_per_kind_solves(spec, seed):
    thetas = _random_thetas(spec, seed)
    joint = eigh_stack(fiber_stack(spec, thetas, KINDS))[0]
    per_kind = np.concatenate([eigh_stack(fiber_stack(spec, thetas, kind))[0] for kind in KINDS])
    assert joint.tobytes() == per_kind.tobytes()


@pytest.mark.parametrize(
    "spec",
    [parse_builtin(b) for b in BENCH_BUILTINS] + LOOPY_SPECS,
    ids=list(BENCH_BUILTINS) + [f"loopy{i}" for i in range(len(LOOPY_SPECS))],
)
def test_edge_reversal_invariance(spec):
    # (t, h, n) -> (h, t, -n) describes the same unoriented periodic graph.
    reversed_spec = reverse_edges(spec)
    assert classify(reversed_spec) == classify(spec)
    count, bridges = bridge_count(spec)
    reversed_count, reversed_bridges = bridge_count(reversed_spec)
    # The same oriented bridges, each pair listed in the other order.
    assert reversed_count == count
    assert Counter(reversed_bridges) == Counter(bridges)
    thetas = np.random.default_rng(16).uniform(0.0, 2 * PI, size=(32, spec.dimension))
    for kind in ("laplacian", "schrodinger", "normalized"):
        a = grid_eigenvalues(spec, thetas, kind)
        b = grid_eigenvalues(reversed_spec, thetas, kind)
        assert np.abs(a - b).max() <= 1e-12


def test_periodicity_after_canonicalization():
    spec = hexagonal()
    base = (2 * PI * 5 / 96, 2 * PI * 17 / 96)
    reference = fiber(spec, base)
    for axis in range(2):
        wrapped = list(base)
        wrapped[axis] += 2 * PI
        canonical = np.mod(wrapped, 2 * PI)
        again = fiber(spec, canonical)
        # One float addition of 2*pi costs at most a couple of ulps.
        assert np.abs(again - reference).max() < 1e-13


def test_laplacian_fiber_positive_semidefinite():
    rng = np.random.default_rng(13)
    for spec in ALL_SPECS:
        theta = rng.uniform(0.0, 2 * PI, size=(6, spec.dimension))
        stack = fiber_stack(spec, theta, "laplacian")
        for mat in stack:
            assert eigs(mat)[0] >= -1e-9


def test_origin_shift_preserves_fiber_spectra():
    rng = np.random.default_rng(14)
    for spec in (hexagonal(), bcc(), fcc()):
        for _ in range(4):
            offset = rng.uniform(-1.5, 1.5, size=spec.dimension)
            shifted = shift_origin(spec, offset)
            for _ in range(4):
                theta = rng.uniform(0.0, 2 * PI, size=spec.dimension)
                a = fiber_eigenvalues(spec, theta)
                b = fiber_eigenvalues(shifted, theta)
                assert np.abs(a - b).max() < 1e-9


def test_some_entry_varies_for_every_spec():
    for spec in ALL_SPECS:
        grid = np.stack(
            [np.zeros(spec.dimension), np.full(spec.dimension, 0.7), np.full(spec.dimension, PI)]
        )
        stack = fiber_stack(spec, grid, "laplacian")
        variation = np.abs(stack - stack[0]).max()
        assert variation > 1e-9


def test_bipartite_regular_fiber_symmetry():
    # Needs the quotient itself to 2-color (a bipartite cover alone only
    # mirrors band endpoints, not every fiber).
    from graphbands import EdgeRecord, PeriodicGraphSpec, VertexInfo

    four_fold = PeriodicGraphSpec(
        2,
        (VertexInfo("a"), VertexInfo("b")),
        (
            EdgeRecord(0, 1, (0, 0)),
            EdgeRecord(0, 1, (1, 0)),
            EdgeRecord(0, 1, (0, 1)),
            EdgeRecord(0, 1, (1, 1)),
        ),
    )
    rng = np.random.default_rng(15)
    for spec, kappa in ((hexagonal(), 3), (four_fold, 4)):
        for _ in range(6):
            theta = rng.uniform(0.0, 2 * PI, size=spec.dimension)
            values = fiber_eigenvalues(spec, theta, "laplacian")
            assert np.abs(values + values[::-1] - 2.0 * kappa).max() < 1e-9
