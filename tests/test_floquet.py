from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
    fluctuation_split,
    oriented_edges,
    shift_origin,
)
from graphbands.floquet import _edge_phase_sum, fiber_stack
from graphbands.linalg import eigh_stack
from graphbands.spectrum import grid_eigenvalues
from graphbands.lattices import (
    bcc,
    bipartite_chain,
    cubic,
    fcc,
    hexagonal,
    parse_builtin,
    star,
    subdivided,
    triangular,
)

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
    # conjugate transpose.
    out = np.zeros((thetas.shape[0], spec.num_vertices, spec.num_vertices), dtype=complex)
    for e in oriented_edges(spec):
        if any(e.index):
            out[:, e.tail, e.head] += np.exp(1j * (thetas @ np.asarray(e.index, dtype=float)))
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


# Random loop graphs: nu <= 5, d <= 3.  A zero-index spanning tree and one
# unit loop per axis keep the cover connected, as in test_symmetry's
# quotients(); the other edges are zero-index edges (loops among them) and
# crossing loops, so every bridge is a loop.
@st.composite
def loop_quotients(draw):
    d = draw(st.integers(1, 3))
    nv = draw(st.integers(1, 5))
    potentials = draw(st.lists(st.floats(-3.0, 3.0), min_size=nv, max_size=nv))
    zero = (0,) * d
    vertex = st.integers(0, nv - 1)
    index = st.tuples(*[st.integers(-3, 3)] * d)
    edges = [(draw(st.integers(0, j - 1)), j, zero) for j in range(1, nv)]
    loop_vertices = draw(st.lists(vertex, min_size=d, max_size=d))
    edges += [(u, u, tuple(int(s == t) for t in range(d))) for s, u in enumerate(loop_vertices)]
    edges += [(t, h, zero) for t, h in draw(st.lists(st.tuples(vertex, vertex), max_size=3))]
    edges += [(u, u, n) for u, n in draw(st.lists(st.tuples(vertex, index), max_size=4))]
    return PeriodicGraphSpec(
        d,
        tuple(VertexInfo(f"v{j}", q) for j, q in enumerate(potentials)),
        tuple(EdgeRecord(t, h, n) for t, h, n in edges),
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(loop_quotients())
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
    assert np.array_equal(adjacency, _edge_phase_sum(spec.num_vertices, spec.edges, thetas))
    for kind in ("laplacian", "schrodinger", "normalized"):
        stack = fiber_stack(spec, thetas, kind)
        assert stack.dtype == np.float64
        values = eigh_stack(stack)[0]
        complex_values = eigh_stack(stack.astype(complex))[0]
        scale = np.abs(complex_values).max()
        assert np.abs(values - complex_values).max() <= 1e-12 * (1.0 + scale)


BENCH_BUILTINS = ("hexagonal", "fcc", "star(2,6)", "subdivided(2,4)")


def _reverse_edges(spec):
    reversed_edges = tuple(
        EdgeRecord(e.head, e.tail, tuple(-x for x in e.index)) for e in spec.edges
    )
    return PeriodicGraphSpec(spec.dimension, spec.vertices, reversed_edges)


@pytest.mark.parametrize(
    "spec",
    [parse_builtin(b) for b in BENCH_BUILTINS] + LOOPY_SPECS,
    ids=list(BENCH_BUILTINS) + [f"loopy{i}" for i in range(len(LOOPY_SPECS))],
)
def test_edge_reversal_invariance(spec):
    # (t, h, n) -> (h, t, -n) describes the same unoriented periodic graph.
    reversed_spec = _reverse_edges(spec)
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
