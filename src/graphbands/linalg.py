"""Batched Hermitian eigensolver plus small exact-arithmetic helpers.

Eigenvalues come from LAPACK through `np.linalg.eigvalsh` / `np.linalg.eigh`,
which solve every matrix of a stack on its own, so a matrix's result does not
depend on what else sits in the same batch.  A real stack stays real, so
LAPACK runs its real symmetric driver on it; a complex stack gets the
Hermitian one.  The integer-lattice and GF(2) routines work on exact Python
integers.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ParameterError


def eigh_stack(stack: np.ndarray, want_vectors: bool = False):
    """Eigen-decompose a stack of Hermitian matrices, shape (..., n, n).

    Returns (values, vectors): values shape (batch, n) ascending per matrix,
    vectors shape (batch, n, n) with columns matching values, or None.  A
    real stack is solved in real arithmetic and gets real vectors; any other
    stack is solved as complex.

    LAPACK reads only the lower triangle of each matrix, so the input must be
    Hermitian: the upper triangle is ignored, not checked.  A LAPACK failure
    or a non-finite output value raises NumericError.
    """
    mats = np.asarray(stack)
    mats = mats.astype(float if np.isrealobj(mats) else complex, copy=False)
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
