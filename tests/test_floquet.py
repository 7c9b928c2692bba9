import numpy as np
import pytest

from graphbands import (
    EdgeRecord,
    PeriodicGraphSpec,
    Quasimomentum,
    VertexInfo,
    adjacency_floquet,
    degrees,
    fluctuation_split,
    laplacian_floquet,
    normalized_floquet,
    oriented_edges,
    schrodinger_floquet,
    shift_origin,
)
from graphbands.floquet import adjacency_stack, fiber_stack
from graphbands.linalg import hermitian_eigs
from graphbands.lattices import (
    bcc,
    bipartite_chain,
    cubic,
    fcc,
    hexagonal,
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
    return hermitian_eigs(matrix).values


def test_quasimomentum_canonicalization():
    q = Quasimomentum((-PI, 3 * PI, 0.5))
    assert q.theta[0] == pytest.approx(PI)
    assert q.theta[1] == pytest.approx(PI)
    assert q.theta[2] == 0.5
    assert all(0.0 <= t < 2 * PI for t in q.theta)


def test_quasimomentum_grid_points_unchanged():
    # Values already inside [0, 2*pi) pass through bitwise untouched.
    values = (0.0, PI, 2 * PI * 31 / 96)
    assert Quasimomentum(values).theta == values


def test_hexagonal_adjacency_at_zero():
    mat = adjacency_floquet(hexagonal(), (0.0, 0.0)).entries
    assert mat[0, 1] == pytest.approx(3.0)
    assert mat[0, 0] == 0.0 and mat[1, 1] == 0.0


def test_square_lattice_adjacency_at_pi():
    mat = adjacency_floquet(cubic(2), (PI, PI)).entries
    assert mat[0, 0] == pytest.approx(-4.0)


def test_bcc_adjacency_at_zero():
    mat = adjacency_floquet(bcc(), (0.0, 0.0, 0.0)).entries
    assert mat[0, 1] == pytest.approx(8.0)
    assert mat[1, 1] == pytest.approx(6.0)


def test_laplacian_row_sums_vanish_at_zero():
    for spec in ALL_SPECS:
        mat = laplacian_floquet(spec, (0.0,) * spec.dimension).entries
        assert np.abs(mat.sum(axis=1)).max() == pytest.approx(0.0, abs=1e-13)


def test_hexagonal_laplacian_at_zero():
    mat = laplacian_floquet(hexagonal(), (0.0, 0.0)).entries.real
    assert np.allclose(mat, [[3.0, -3.0], [-3.0, 3.0]])
    assert np.allclose(eigs(mat), [0.0, 6.0], atol=1e-13)


def test_fcc_laplacian_at_flip_corner():
    mat = laplacian_floquet(fcc(), (PI, PI, PI)).entries
    assert abs(mat[0, 3]) == pytest.approx(0.0, abs=1e-12)
    assert abs(mat[1, 3]) == pytest.approx(0.0, abs=1e-12)
    assert abs(mat[2, 3]) == pytest.approx(0.0, abs=1e-12)
    assert mat[3, 3].real == pytest.approx(24.0)


def test_zero_fiber_counts_edge_multiplicities():
    for spec in ALL_SPECS:
        mat = laplacian_floquet(spec, (0.0,) * spec.dimension).entries
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
    lap = laplacian_floquet(spec, theta).entries
    ham = schrodinger_floquet(spec, theta).entries
    assert np.allclose(ham - lap, np.diag([0.7, -0.7]))
    hop = -(1.0 + np.exp(1j * theta[0]) + np.exp(1j * theta[1]))
    assert ham[0, 1] == pytest.approx(hop)
    assert ham[0, 0] == pytest.approx(3.7)


def test_normalized_equals_scaled_laplacian_for_regular():
    spec = bipartite_chain(2, 4)
    theta = (1.3, 0.4)
    norm = normalized_floquet(spec, theta).entries
    lap = laplacian_floquet(spec, theta).entries
    assert np.allclose(norm, lap / 4.0, atol=1e-13)


def test_normalized_hexagonal_range():
    values = eigs(normalized_floquet(hexagonal(), (0.0, 0.0)).entries)
    assert np.allclose(values, [0.0, 2.0], atol=1e-13)


def test_normalized_square_scalar():
    theta = (0.8, 2.2)
    value = normalized_floquet(cubic(2), theta).entries[0, 0].real
    expected = (4.0 - 2.0 * np.cos(theta[0]) - 2.0 * np.cos(theta[1])) / 4.0
    assert value == pytest.approx(expected)
    assert 0.0 <= value <= 2.0


def test_fluctuation_split_rebuilds_fiber():
    rng = np.random.default_rng(8)
    for spec in ALL_SPECS:
        for _ in range(3):
            theta = rng.uniform(0.0, 2 * PI, size=spec.dimension)
            mean, fluct = fluctuation_split(spec, theta)
            ham = schrodinger_floquet(spec, theta).entries
            assert np.abs(mean.entries + fluct.entries - ham).max() < 1e-12


def test_fluctuation_diagonal_for_loop_graphs():
    rng = np.random.default_rng(9)
    for spec in (cubic(3), triangular(), star(2, 4)):
        theta = rng.uniform(0.0, 2 * PI, size=spec.dimension)
        _, fluct = fluctuation_split(spec, theta)
        off = fluct.entries - np.diag(np.diag(fluct.entries))
        assert np.abs(off).max() == 0.0
        assert np.abs(fluct.entries.imag).max() < 1e-15


def test_fluctuation_entry_bound_over_random_points():
    rng = np.random.default_rng(10)
    spec = fcc()
    _, at_zero = fluctuation_split(spec, (0.0, 0.0, 0.0))
    bound = np.abs(at_zero.entries)
    for _ in range(1000):
        theta = rng.uniform(0.0, 2 * PI, size=3)
        _, fluct = fluctuation_split(spec, theta)
        assert (np.abs(fluct.entries) <= bound + 1e-12).all()


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
    stack = adjacency_stack(spec, thetas)
    assert np.abs(stack - _two_orientation_adjacency(spec, thetas)).max() <= 1e-15
    assert np.array_equal(stack, np.conj(np.swapaxes(stack, 1, 2)))
    mean, fluct = fluctuation_split(spec, thetas[0])
    assert np.array_equal(mean.entries, np.conj(mean.entries.T))
    assert np.array_equal(fluct.entries, np.conj(fluct.entries.T))
    ham = schrodinger_floquet(spec, thetas[0]).entries
    assert np.abs(mean.entries + fluct.entries - ham).max() < 1e-14


def test_periodicity_after_canonicalization():
    spec = hexagonal()
    base = (2 * PI * 5 / 96, 2 * PI * 17 / 96)
    reference = schrodinger_floquet(spec, Quasimomentum(base).theta).entries
    for axis in range(2):
        wrapped = list(base)
        wrapped[axis] += 2 * PI
        canonical = Quasimomentum(tuple(wrapped)).theta
        again = schrodinger_floquet(spec, canonical).entries
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
                a = eigs(schrodinger_floquet(spec, theta).entries)
                b = eigs(schrodinger_floquet(shifted, theta).entries)
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
            values = eigs(laplacian_floquet(spec, theta).entries)
            assert np.abs(values + values[::-1] - 2.0 * kappa).max() < 1e-9
