"""Batched Hermitian eigensolver plus small exact-arithmetic helpers.

Eigenvalues come from LAPACK through `np.linalg.eigvalsh` / `np.linalg.eigh`,
which solve every matrix of a stack on its own, so a matrix's result does not
depend on what else sits in the same batch.  The integer-lattice and GF(2)
routines work on exact Python integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError

POWER_ITER_TOL = 1e-12
POWER_ITER_MAX = 100_000


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues in ascending order; optional orthonormal column vectors."""

    values: np.ndarray
    vectors: np.ndarray | None = None


def eigh_stack(stack: np.ndarray, want_vectors: bool = False):
    """Eigen-decompose a stack of Hermitian matrices, shape (..., n, n).

    Returns (values, vectors): values shape (batch, n) ascending per matrix,
    vectors shape (batch, n, n) with columns matching values, or None.

    LAPACK reads only the lower triangle of each matrix, so the input must be
    Hermitian: the upper triangle is ignored, not checked.  A LAPACK failure
    or a non-finite output value raises NumericError.
    """
    mats = np.asarray(stack, dtype=complex)
    if mats.ndim == 2:
        mats = mats[None]
    if mats.ndim != 3 or mats.shape[-1] != mats.shape[-2]:
        raise ParameterError("expected a square matrix or a stack of them")
    if not np.isfinite(mats).all():
        raise NumericError("non-finite entries in eigensolver input")
    try:
        if want_vectors:
            values, vecs = np.linalg.eigh(mats)
        else:
            values, vecs = np.linalg.eigvalsh(mats), None
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed: {exc}") from None
    if not np.isfinite(values).all() or (vecs is not None and not np.isfinite(vecs).all()):
        raise NumericError("eigensolver returned non-finite values")
    return values, vecs


def hermitian_eigs(matrix, want_vectors: bool = False) -> EigenResult:
    """All eigenvalues (ascending) of one Hermitian matrix.

    The caller is responsible for symmetrizing; only finiteness is checked.
    """
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ParameterError("hermitian_eigs expects one square matrix")
    values, vectors = eigh_stack(mat[None], want_vectors=want_vectors)
    return EigenResult(values[0], vectors[0] if want_vectors else None)


def spectral_radius_nonneg(matrix) -> float:
    """Dominant eigenvalue of an entrywise nonnegative matrix.

    Power iteration from the all-ones vector; for an irreducible matrix this
    converges to the simple dominant (Perron) root.  Once an iterate comes
    back bit for bit to an earlier one while the ratio still moves, the
    iteration cycles forever (a periodic support oscillates with period 2,
    or a multiple of it at the last bit), so that raises NumericError at once
    instead of after POWER_ITER_MAX steps.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ParameterError("expected a square matrix")
    if (mat < 0).any():
        raise ParameterError("negative entry: spectral_radius_nonneg needs entries >= 0")
    x = np.ones(mat.shape[0])
    estimate = -1.0
    # Brent's cycle detection: compare each iterate with the one saved at the
    # last power-of-two step.
    saved, next_save = None, 1
    for step in range(1, POWER_ITER_MAX + 1):
        y = mat @ x
        top = np.abs(y).max()
        if top == 0.0:
            return 0.0
        if abs(top - estimate) <= POWER_ITER_TOL * top:
            return float(top)
        # From a recurring x, every later step repeats a test that failed.
        if saved is not None and np.array_equal(x, saved):
            raise NumericError("power iteration cycles without converging (matrix may be periodic)")
        if step == next_save:
            saved, next_save = x, 2 * next_save
        x = y / top
        estimate = top
    raise NumericError("power iteration did not converge (matrix may be reducible)")


def is_irreducible(matrix) -> bool:
    """True iff the support digraph of the matrix is strongly connected."""
    mat = np.asarray(matrix)
    n = mat.shape[0]
    if n == 1:
        return True
    support = mat != 0

    def reachable(adj):
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in np.flatnonzero(adj[u]):
                if v not in seen:
                    seen.add(int(v))
                    stack.append(int(v))
        return seen

    return len(reachable(support)) == n and len(reachable(support.T)) == n


def _lu_det(matrix: np.ndarray) -> complex:
    """Determinant via LU with partial pivoting; 0 for a singular input."""
    a = np.array(matrix, dtype=complex)
    n = a.shape[0]
    det = 1.0 + 0.0j
    for k in range(n):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if a[piv, k] == 0.0:
            return 0.0 + 0.0j
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            det = -det
        det *= a[k, k]
        a[k + 1:, k] /= a[k, k]
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:])
    return complex(det)


def _lu_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A X = B by LU with partial pivoting; raises on a singular A."""
    a = np.array(matrix, dtype=complex)
    b = np.array(rhs, dtype=complex)
    n = a.shape[0]
    scale = np.abs(a).max()
    for k in range(n):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if np.abs(a[piv, k]) <= 1e-14 * max(scale, 1.0):
            raise NumericError("singular leading block")
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            b[[k, piv]] = b[[piv, k]]
        factors = a[k + 1:, k] / a[k, k]
        a[k + 1:, k + 1:] -= np.outer(factors, a[k, k + 1:])
        b[k + 1:] -= np.outer(factors, b[k])
    x = np.zeros_like(b)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    return x


def block_determinant(matrix, split: int) -> complex:
    """det(M) via the Schur complement of the leading split x split block.

    Raises NumericError when that block is singular; perturb and retry.
    """
    mat = np.asarray(matrix, dtype=complex)
    n = mat.shape[0]
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ParameterError("expected a square matrix")
    if not 1 <= split <= n - 1:
        raise ParameterError(f"split must lie in [1, {n - 1}], got {split}")
    a = mat[:split, :split]
    b = mat[:split, split:]
    c = mat[split:, :split]
    d = mat[split:, split:]
    schur = d - c @ _lu_solve(a, b)
    return _lu_det(a) * _lu_det(schur)


def gf2_solve(rows, rhs):
    """One solution of a linear system over GF(2), or None if inconsistent.

    Free variables are set to zero.
    """
    mat = [[int(x) & 1 for x in row] for row in rows]
    vec = [int(x) & 1 for x in rhs]
    if len(mat) != len(vec):
        raise ParameterError("row/right-hand-side count mismatch")
    if not mat:
        return ()
    ncols = len(mat[0])
    pivots = []
    row = 0
    for col in range(ncols):
        hit = next((i for i in range(row, len(mat)) if mat[i][col]), None)
        if hit is None:
            continue
        mat[row], mat[hit] = mat[hit], mat[row]
        vec[row], vec[hit] = vec[hit], vec[row]
        for i in range(len(mat)):
            if i != row and mat[i][col]:
                mat[i] = [a ^ b for a, b in zip(mat[i], mat[row])]
                vec[i] ^= vec[row]
        pivots.append((row, col))
        row += 1
        if row == len(mat):
            break
    for i in range(row, len(mat)):
        if vec[i]:
            return None
    solution = [0] * ncols
    for r, c in pivots:
        solution[c] = vec[r]
    return tuple(solution)


def integer_lattice_full(vectors, dimension: int) -> bool:
    """True iff the integer span of the given vectors is all of Z^dimension.

    Row reduction over Z (repeated Euclid steps per column); the span is full
    exactly when every column gets a pivot and the pivot product is 1.
    """
    rows = []
    for vec in vectors:
        row = [int(x) for x in vec]
        if len(row) != dimension:
            raise ParameterError("vector length does not match the dimension")
        rows.append(row)
    index = 1
    top = 0
    for col in range(dimension):
        while True:
            candidates = [i for i in range(top, len(rows)) if rows[i][col] != 0]
            if not candidates:
                pivot = None
                break
            best = min(candidates, key=lambda i: abs(rows[i][col]))
            rows[top], rows[best] = rows[best], rows[top]
            clean = True
            for i in range(top + 1, len(rows)):
                if rows[i][col]:
                    factor = rows[i][col] // rows[top][col]
                    rows[i] = [a - factor * b for a, b in zip(rows[i], rows[top])]
                    if rows[i][col]:
                        clean = False
            if clean:
                pivot = rows[top][col]
                break
        if pivot is None:
            return False
        index *= abs(pivot)
        top += 1
    return index == 1
