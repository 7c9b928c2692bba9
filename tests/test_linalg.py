import numpy as np
import pytest

from graphbands import (
    NumericError,
    TorusGrid,
    fiber_eigenvalues,
    gf2_solve,
    integer_lattice_full,
)
from graphbands.cli import main as cli_main
from graphbands.lattices import hexagonal, star, subdivided
from graphbands.floquet import fiber_stack
from graphbands.linalg import eigh_stack

from oracles import random_hermitian, sturm_eigenvalues


def test_diagonal_matrix_sorted():
    values = eigh_stack(np.diag([5.0, -1.0, 2.0]))[0][0]
    assert values.tolist() == [-1.0, 2.0, 5.0]


def test_hexagonal_zero_fiber_with_potential():
    spec = hexagonal(q=(1.0, -1.0))
    values = fiber_eigenvalues(spec, (0.0, 0.0))
    expected = np.array([3.0 - np.sqrt(10.0), 3.0 + np.sqrt(10.0)])
    assert np.abs(values - expected).max() < 1e-12


def test_random_hermitian_matches_sturm_oracle():
    rng = np.random.default_rng(7)
    for n in (2, 3, 6, 6, 9):
        mat = random_hermitian(rng, n, scale=3.0)
        mine = eigh_stack(mat)[0][0]
        oracle = sturm_eigenvalues(mat)
        assert np.abs(mine - oracle).max() < 1e-9


def test_eigenvector_residuals_and_orthonormality():
    rng = np.random.default_rng(11)
    for n in (2, 4, 7, 13):
        mat = random_hermitian(rng, n)
        values, vectors = eigh_stack(mat, want_vectors=True)
        values, vectors = values[0], vectors[0]
        fro = np.linalg.norm(mat)
        for i in range(n):
            vec = vectors[:, i]
            assert np.linalg.norm(mat @ vec - values[i] * vec) <= 1e-10 * fro
        gram = vectors.conj().T @ vectors
        assert np.abs(gram - np.eye(n)).max() <= 1e-10


def test_determinism_bitwise():
    rng = np.random.default_rng(3)
    mat = random_hermitian(rng, 6)
    first = eigh_stack(mat)[0][0]
    second = eigh_stack(mat.copy())[0][0]
    assert first.tolist() == second.tolist()


def _assert_chunking_invariant(stack):
    whole = eigh_stack(stack)[0]
    assert np.isfinite(whole).all()
    for parts in (4, 64):
        chunked = np.concatenate(
            [eigh_stack(chunk)[0] for chunk in np.array_split(stack, parts)]
        )
        assert chunked.tobytes() == whole.tobytes()


def test_chunking_is_bitwise_invariant():
    # The subdivided(3,3) fibers at grid 12 include matrices whose tiny
    # off-diagonal entries once overflowed a rotation-based solver to NaN.
    spec = subdivided(3, 3)
    stack = fiber_stack(spec, TorusGrid(3, 12).points(), "schrodinger")
    assert stack.dtype == complex
    _assert_chunking_invariant(stack)


def test_real_chunking_is_bitwise_invariant():
    # A loop graph's fibers are real, and the real symmetric driver solves
    # each matrix of the stack on its own too.
    spec = star(3, 5, q=(0.5, -1.0, 2.0, 0.25, 0.0))
    stack = fiber_stack(spec, TorusGrid(3, 12).points(), "schrodinger")
    assert stack.dtype == np.float64
    _assert_chunking_invariant(stack)


def test_real_stack_stays_real():
    rng = np.random.default_rng(5)
    mat = rng.normal(size=(3, 5, 5))
    mat = mat + np.swapaxes(mat, 1, 2)
    values, vectors = eigh_stack(mat, want_vectors=True)
    assert vectors.dtype == np.float64
    complex_values, _ = eigh_stack(mat.astype(complex))
    assert np.abs(values - complex_values).max() <= 1e-12 * (1 + np.abs(values).max())
    residual = mat @ vectors - vectors * values[:, None, :]
    assert np.abs(residual).max() <= 1e-12 * (1 + np.abs(values).max())


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
        eigh_stack(bad)


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
        ea = eigh_stack(a)[0][0]
        eb = eigh_stack(b)[0][0]
        eab = eigh_stack(a + b)[0][0]
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
            eigh_stack(a + psd)[0][0] >= eigh_stack(a)[0][0] - 1e-9
        ).all()


def test_cauchy_interlacing_for_bordered_matrices():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        big = random_hermitian(rng, n + 1)
        inner = eigh_stack(big[:n, :n])[0][0]
        outer = eigh_stack(big)[0][0]
        assert (outer[:-1] <= inner + 1e-9).all()
        assert (inner <= outer[1:] + 1e-9).all()


def test_eigenvalue_sum_stability():
    rng = np.random.default_rng(26)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        base = random_hermitian(rng, n)
        bump = random_hermitian(rng, n, scale=0.5)
        lhs = np.abs(
            eigh_stack(base + bump)[0][0] - eigh_stack(base)[0][0]
        ).sum()
        assert lhs <= 2.0 * np.abs(bump).sum() + 1e-9


def test_row_sum_diagonal_dominates():
    rng = np.random.default_rng(27)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        v = random_hermitian(rng, n)
        dom = np.diag(np.abs(v).sum(axis=1))
        assert eigh_stack(dom - v)[0][0][0] >= -1e-9
        assert eigh_stack(dom + v)[0][0][0] >= -1e-9
