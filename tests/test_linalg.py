import numpy as np
import pytest

from graphbands import (
    NumericError,
    TorusGrid,
    ParameterError,
    block_determinant,
    gf2_solve,
    hermitian_eigs,
    integer_lattice_full,
    is_irreducible,
    spectral_radius_nonneg,
)
from graphbands import linalg
from graphbands.cli import main as cli_main
from graphbands.lattices import cubic, hexagonal, subdivided
from graphbands.floquet import adjacency_floquet, fiber_stack, schrodinger_floquet
from graphbands.linalg import POWER_ITER_MAX, POWER_ITER_TOL, eigh_stack

from oracles import random_hermitian, sturm_eigenvalues


def test_diagonal_matrix_sorted():
    result = hermitian_eigs(np.diag([5.0, -1.0, 2.0]))
    assert result.values.tolist() == [-1.0, 2.0, 5.0]


def test_hexagonal_zero_fiber_with_potential():
    spec = hexagonal(q=(1.0, -1.0))
    mat = schrodinger_floquet(spec, (0.0, 0.0)).entries
    values = hermitian_eigs(mat).values
    expected = np.array([3.0 - np.sqrt(10.0), 3.0 + np.sqrt(10.0)])
    assert np.abs(values - expected).max() < 1e-12


def test_random_hermitian_matches_sturm_oracle():
    rng = np.random.default_rng(7)
    for n in (2, 3, 6, 6, 9):
        mat = random_hermitian(rng, n, scale=3.0)
        mine = hermitian_eigs(mat).values
        oracle = sturm_eigenvalues(mat)
        assert np.abs(mine - oracle).max() < 1e-9


def test_eigenvector_residuals_and_orthonormality():
    rng = np.random.default_rng(11)
    for n in (2, 4, 7, 13):
        mat = random_hermitian(rng, n)
        result = hermitian_eigs(mat, want_vectors=True)
        fro = np.linalg.norm(mat)
        for i in range(n):
            vec = result.vectors[:, i]
            assert np.linalg.norm(mat @ vec - result.values[i] * vec) <= 1e-10 * fro
        gram = result.vectors.conj().T @ result.vectors
        assert np.abs(gram - np.eye(n)).max() <= 1e-10


def test_determinism_bitwise():
    rng = np.random.default_rng(3)
    mat = random_hermitian(rng, 6)
    first = hermitian_eigs(mat).values
    second = hermitian_eigs(mat.copy()).values
    assert first.tolist() == second.tolist()


def test_chunking_is_bitwise_invariant():
    # The subdivided(3,3) fibers at grid 12 include matrices whose tiny
    # off-diagonal entries once overflowed a rotation-based solver to NaN.
    spec = subdivided(3, 3)
    stack = fiber_stack(spec, TorusGrid(3, 12).points(), "schrodinger")
    whole = eigh_stack(stack)[0]
    assert np.isfinite(whole).all()
    for parts in (4, 64):
        chunked = np.concatenate(
            [eigh_stack(chunk)[0] for chunk in np.array_split(stack, parts)]
        )
        assert chunked.tobytes() == whole.tobytes()


def _failing_eigvalsh(mats):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _nan_eigvalsh(mats):
    values = np.zeros(mats.shape[:-1])
    values[0, 0] = np.nan
    return values


@pytest.mark.parametrize("fake", [_failing_eigvalsh, _nan_eigvalsh])
def test_solver_failure_raises_numeric_error(monkeypatch, capsys, fake):
    monkeypatch.setattr(np.linalg, "eigvalsh", fake)
    with pytest.raises(NumericError):
        eigh_stack(np.eye(3)[None])
    assert cli_main(["analyze", "--builtin", "hexagonal", "--grid", "12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "eigensolver" in captured.err


def test_nonfinite_input_rejected():
    bad = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(NumericError):
        hermitian_eigs(bad)


def test_spectral_radius_permutation():
    assert spectral_radius_nonneg([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(1.0)


def test_spectral_radius_locates_spectrum_minimum():
    # Mirroring the zero fiber through the largest degree-plus-potential
    # value yields a nonnegative matrix whose dominant eigenvalue recovers
    # the smallest fiber eigenvalue.
    spec = cubic(2)
    fiber = schrodinger_floquet(spec, (0.0, 0.0)).entries.real
    alpha = 4.0  # max degree + potential for this lattice
    mirrored = alpha * np.eye(fiber.shape[0]) - fiber
    assert mirrored[0, 0] == pytest.approx(4.0)
    rho = spectral_radius_nonneg(mirrored)
    assert alpha - rho == pytest.approx(0.0, abs=1e-12)
    assert hermitian_eigs(fiber).values[0] == pytest.approx(alpha - rho, abs=1e-12)


def test_spectral_radius_hexagonal_adjacency():
    mat = adjacency_floquet(hexagonal(), (0.0, 0.0)).entries.real
    assert spectral_radius_nonneg(mat) == pytest.approx(3.0, abs=1e-11)


def test_spectral_radius_rejects_negative_entries():
    with pytest.raises(ParameterError):
        spectral_radius_nonneg([[0.0, -1.0], [1.0, 0.0]])


def test_spectral_radius_nonconvergence_reported():
    # Symmetric bipartite support with unequal row sums makes the sup-norm
    # ratio oscillate forever.
    mat = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(NumericError):
        spectral_radius_nonneg(mat)


def _bipartite(rng, a, b):
    block = rng.uniform(0.01, 1.0, size=(a, b))
    return np.block([[np.zeros((a, a)), block], [block.T, np.zeros((b, b))]])


def _power_iteration_reference(mat):
    # The loop without the cycle check; None where it runs out.
    x = np.ones(mat.shape[0])
    estimate = -1.0
    for _ in range(POWER_ITER_MAX):
        y = mat @ x
        top = np.abs(y).max()
        if top == 0.0:
            return 0.0
        x = y / top
        if abs(top - estimate) <= POWER_ITER_TOL * top:
            return float(top)
        estimate = top
    return None


def test_spectral_radius_cycle_detected():
    # Bipartite support: the iterate settles into an exact cycle (period 2,
    # or 4 at the last bit for the 3 x 3 block), reported at once instead of
    # after POWER_ITER_MAX steps.
    rng = np.random.default_rng(27)
    for a, b in [(1, 2), (2, 3), (3, 3), (4, 2), (5, 4)]:
        with pytest.raises(NumericError, match="cycles"):
            spectral_radius_nonneg(_bipartite(rng, a, b))


def test_spectral_radius_matches_plain_power_iteration():
    # A small diagonal makes a bipartite matrix converge slowly through a
    # near 2-cycle, which must not be mistaken for one.
    rng = np.random.default_rng(28)
    mats = [
        _bipartite(rng, 3, 4) + 1e-2 * np.eye(7),
        rng.uniform(0.0, 1.0, size=(5, 5)),
        adjacency_floquet(hexagonal(), (0.0, 0.0)).entries.real + np.eye(2),
        np.zeros((3, 3)),
    ]
    for mat in mats:
        expected = _power_iteration_reference(mat)
        assert expected is not None
        assert spectral_radius_nonneg(mat) == expected


def test_spectral_radius_iteration_limit_reported(monkeypatch):
    # The near-bipartite matrix converges only after about 3,100 steps and
    # never recurs exactly, so a small limit is reached without a cycle.
    mat = _bipartite(np.random.default_rng(28), 3, 4) + 1e-2 * np.eye(7)
    monkeypatch.setattr(linalg, "POWER_ITER_MAX", 50)
    with pytest.raises(NumericError, match="did not converge"):
        spectral_radius_nonneg(mat)


def test_irreducibility_cases():
    assert is_irreducible(adjacency_floquet(hexagonal(), (0.0, 0.0)).entries)
    assert not is_irreducible(np.diag([1.0, 2.0]))
    assert not is_irreducible(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert is_irreducible(np.array([[5.0]]))


def test_block_determinant_block_diagonal():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    d = np.array([[4.0, 0.0], [0.0, 5.0]])
    mat = np.block([[a, np.zeros((2, 2))], [np.zeros((2, 2)), d]])
    det = block_determinant(mat, 2)
    assert det == pytest.approx(np.linalg.det(a) * np.linalg.det(d))


def test_block_determinant_matches_numpy_on_random_complex():
    rng = np.random.default_rng(5)
    for n, split in ((3, 1), (4, 2), (5, 3)):
        mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        mine = block_determinant(mat, split)
        ref = np.linalg.det(mat)
        assert abs(mine - ref) <= 1e-10 * max(1.0, abs(ref))


def test_block_determinant_singular_leading_block():
    mat = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NumericError):
        block_determinant(mat, 1)


def test_gf2_identity_system():
    assert gf2_solve([[1, 0], [0, 1]], [1, 0]) == (1, 0)


def test_gf2_inconsistent_system():
    assert gf2_solve([[1, 0], [0, 1], [1, 1]], [1, 1, 1]) is None


def test_gf2_all_axes_odd():
    d = 3
    rows = [[1 if j == s else 0 for j in range(d)] for s in range(d)]
    assert gf2_solve(rows, [1] * d) == (1, 1, 1)


def test_integer_lattice_standard_basis():
    for d in (1, 2, 4):
        basis = [[1 if j == s else 0 for j in range(d)] for s in range(d)]
        assert integer_lattice_full(basis, d)


def test_integer_lattice_index_two_sublattices():
    assert not integer_lattice_full([(2, 0), (0, 1)], 2)
    assert not integer_lattice_full([(1, 1), (1, -1)], 2)
    assert integer_lattice_full([(3, 0), (2, 0), (0, 1)], 2)
    assert not integer_lattice_full([], 2)


def test_weyl_perturbation_bounds():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = random_hermitian(rng, n)
        b = random_hermitian(rng, n)
        ea = hermitian_eigs(a).values
        eb = hermitian_eigs(b).values
        eab = hermitian_eigs(a + b).values
        assert (eab >= ea + eb[0] - 1e-9).all()
        assert (eab <= ea + eb[-1] + 1e-9).all()


def test_monotonicity_under_psd_addition():
    rng = np.random.default_rng(22)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = random_hermitian(rng, n)
        root = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        psd = root @ root.conj().T
        assert (
            hermitian_eigs(a + psd).values >= hermitian_eigs(a).values - 1e-9
        ).all()


def test_cauchy_interlacing_for_bordered_matrices():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        big = random_hermitian(rng, n + 1)
        inner = hermitian_eigs(big[:n, :n]).values
        outer = hermitian_eigs(big).values
        assert (outer[:-1] <= inner + 1e-9).all()
        assert (inner <= outer[1:] + 1e-9).all()


def test_spectral_radius_monotone_in_entry_domination():
    rng = np.random.default_rng(24)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = rng.normal(size=(n, n))
        b = np.abs(a) + rng.uniform(0.0, 1.0, size=(n, n))
        rho_abs = spectral_radius_nonneg(np.abs(a))
        rho_b = spectral_radius_nonneg(b)
        rho_a = np.abs(np.linalg.eigvals(a)).max()
        assert rho_a <= rho_abs + 1e-9
        assert rho_abs <= rho_b + 1e-9


def test_spectral_radius_strictly_grows_for_irreducible():
    rng = np.random.default_rng(25)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        a = rng.uniform(0.1, 1.0, size=(n, n))
        b = np.zeros((n, n))
        b[0, 0] = rng.uniform(0.1, 1.0)
        assert spectral_radius_nonneg(a + b) > spectral_radius_nonneg(a)


def test_eigenvalue_sum_stability():
    rng = np.random.default_rng(26)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        base = random_hermitian(rng, n)
        bump = random_hermitian(rng, n, scale=0.5)
        lhs = np.abs(
            hermitian_eigs(base + bump).values - hermitian_eigs(base).values
        ).sum()
        assert lhs <= 2.0 * np.abs(bump).sum() + 1e-9


def test_row_sum_diagonal_dominates():
    rng = np.random.default_rng(27)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        v = random_hermitian(rng, n)
        dom = np.diag(np.abs(v).sum(axis=1))
        assert hermitian_eigs(dom - v).values[0] >= -1e-9
        assert hermitian_eigs(dom + v).values[0] >= -1e-9
