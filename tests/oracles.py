"""Independent reference computations used to cross-check the package.

The eigenvalue oracle tridiagonalizes with Householder reflectors and then
locates eigenvalues by bisection on the Sturm sign count, sharing no code
path with the LAPACK solver under test (`np.linalg.eigvalsh`).  The
closed-form characteristic polynomials are hand-derived for the built-in
lattices.
"""

from __future__ import annotations

import math

import numpy as np


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (raw + raw.conj().T)


def _tridiagonalize(matrix: np.ndarray):
    a = np.array(matrix, dtype=complex)
    n = a.shape[0]
    for k in range(n - 2):
        x = a[k + 1:, k].copy()
        norm_x = np.linalg.norm(x)
        if norm_x == 0.0:
            continue
        phase = x[0] / abs(x[0]) if x[0] != 0 else 1.0
        alpha = -phase * norm_x
        v = x.copy()
        v[0] -= alpha
        vnorm = np.linalg.norm(v)
        if vnorm == 0.0:
            continue
        v /= vnorm
        h = np.eye(n, dtype=complex)
        h[k + 1:, k + 1:] -= 2.0 * np.outer(v, v.conj())
        a = h @ a @ h
    diag = np.diag(a).real.copy()
    off = np.abs(np.diag(a, -1)) if n > 1 else np.zeros(0)
    return diag, off


def _count_below(diag: np.ndarray, off: np.ndarray, x: float) -> int:
    count = 0
    q = 1.0
    for i in range(len(diag)):
        coupling = off[i - 1] ** 2 if i > 0 else 0.0
        if q == 0.0:
            q = 1e-300
        q = diag[i] - x - coupling / q
        if q < 0.0:
            count += 1
    return count


def sturm_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix by Sturm-count bisection."""
    diag, off = _tridiagonalize(matrix)
    n = len(diag)
    radius = np.zeros(n)
    for i in range(n):
        radius[i] = (off[i - 1] if i > 0 else 0.0) + (off[i] if i < n - 1 else 0.0)
    lo_all = float((diag - radius).min()) - 1.0
    hi_all = float((diag + radius).max()) + 1.0
    values = []
    for j in range(n):
        lo, hi = lo_all, hi_all
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if _count_below(diag, off, mid) >= j + 1:
                hi = mid
            else:
                lo = mid
        values.append(0.5 * (lo + hi))
    return np.asarray(values)


# Closed-form characteristic polynomials, det(M(theta) - lam * I).


def char_cubic(d: int, lam: complex, theta) -> complex:
    return 2.0 * (d - sum(math.cos(t) for t in theta)) - lam


def char_triangular(lam: complex, theta) -> complex:
    t1, t2 = theta
    return 6.0 - 2.0 * (math.cos(t1) + math.cos(t2) + math.cos(t1 + t2)) - lam


def char_hexagonal(lam: complex, theta, q1: float = 0.0) -> complex:
    t1, t2 = theta
    hop = 1.0 + np.exp(1j * t1) + np.exp(1j * t2)
    return (3.0 + q1 - lam) * (3.0 - q1 - lam) - abs(hop) ** 2


def char_bcc(lam: complex, theta, q1: float = 0.0) -> complex:
    c1, c2, c3 = (math.cos(t) for t in theta)
    c0 = c1 + c2 + c3
    p = q1 / 2.0
    return (
        lam * lam
        - 2.0 * (11.0 - c0 + p) * lam
        - 8.0 * (1.0 + c1) * (1.0 + c2) * (1.0 + c3)
        + 112.0
        - 16.0 * c0
        + 28.0 * p
        - 4.0 * c0 * p
    )


def char_fcc_laplacian(lam: complex, theta) -> complex:
    c1, c2, c3 = (math.cos(t) for t in theta)
    c0 = c1 + c2 + c3
    eta = c1 * c2 + c1 * c3 + c2 * c3
    quad = lam * lam - 2.0 * (11.0 - c0) * lam + 4.0 * (15.0 - eta - 4.0 * c0)
    return (4.0 - lam) ** 2 * quad


def char_star(d: int, q, lam: complex, theta) -> complex:
    """det(H - lam) for the pendant-decorated integer lattice, hub last."""
    pendants = list(q[:-1])
    hub_q = q[-1]
    xi = 2.0 * (d - sum(math.cos(t) for t in theta))
    nu = len(q)
    w = 1.0
    for qi in pendants:
        w *= 1.0 + qi - lam
    cross = 0.0
    for i in range(nu - 1):
        prod = 1.0
        for j in range(nu - 1):
            if j != i:
                prod *= 1.0 + pendants[j] - lam
        cross += prod
    return (nu - 1.0 + xi + hub_q - lam) * w - cross


def chebyshev_second_kind(n: int, lam: complex) -> complex:
    """Determinant of the n x n free path matrix at spectral parameter lam."""
    prev, cur = 1.0, lam
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, lam * cur - prev
    return cur


def char_subdivided_mirror(d: int, n: int, lam: complex, theta) -> complex:
    """det(lam - J(theta)) for J = 2 - Laplacian on the subdivided lattice."""
    c0 = sum(math.cos(t) for t in theta)
    d_n = chebyshev_second_kind(n, lam)
    d_nm1 = chebyshev_second_kind(n - 1, lam)
    return d_n ** (d - 1) * ((lam - 2.0 + 2.0 * d) * d_n - 2.0 * d * d_nm1 - 2.0 * c0)
