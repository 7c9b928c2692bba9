"""Batched Hermitian eigensolver plus small exact-arithmetic helpers.

Eigenvalues come from LAPACK through `np.linalg.eigvalsh` / `np.linalg.eigh`,
which solve every matrix of a stack on its own, so a matrix's result does not
depend on what else sits in the same batch.  A real stack stays real, so
LAPACK runs its real symmetric driver on it; a complex stack gets the
Hermitian one.  The integer-lattice and GF(2) routines work on exact Python
integers; a GF(2) row is one int, a bitmask of its coefficients.
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


def gf2_solve(rows, rhs, ncols: int):
    """One solution of a linear system over GF(2), or None if inconsistent.

    Row i is the bitmask rows[i], an int whose bit c is the coefficient of
    column c < ncols (higher bits are ignored), with right-hand side
    rhs[i] & 1, kept at bit ncols.  Gauss-Jordan elimination, one row at a
    time: a row is reduced by the pivot rows so far, and its lowest
    remaining column becomes a pivot, eliminated from the other pivot rows.
    A pivot row's lowest bit stays its pivot, so the pivots are the lowest
    bits of the row space: the pivot columns of the reduced row echelon
    form, whatever the order of the rows.  Free variables are set to zero,
    so the solution is the one that form gives.  Returns a tuple of ncols
    bits.
    """
    if len(rows) != len(rhs):
        raise ParameterError("row/right-hand-side count mismatch")
    mask = (1 << ncols) - 1
    pivots = {}  # pivot bit -> its reduced row
    for row, b in zip(rows, rhs):
        r = (int(row) & mask) | (int(b) & 1) << ncols
        for bit, pivot in pivots.items():
            if r & bit:
                r ^= pivot
        if not r & mask:
            if r:
                return None  # the row reduced to 0 = 1
            continue
        bit = r & -r
        for other, pivot in pivots.items():
            if pivot & bit:
                pivots[other] = pivot ^ r
        pivots[bit] = r
    solution = [0] * ncols
    for bit, pivot in pivots.items():
        solution[bit.bit_length() - 1] = pivot >> ncols
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
