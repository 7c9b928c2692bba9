"""Fiber matrices of periodic graph operators at a quasimomentum.

For a quotient graph on nu vertices, each point theta of the torus
[0, 2pi)^d yields a nu x nu Hermitian matrix whose entry (j, k) accumulates
exp(i <index, theta>) over the oriented edges from j to k.  The adjacency,
Laplacian, Schroedinger and degree-normalized variants all derive from that
phase sum.

In a loop graph every cell-crossing edge is a loop, and the two orientations
of a loop with index n add exp(i <n, theta>) + exp(-i <n, theta>) =
2 cos <n, theta> to the diagonal.  Its fibers are real symmetric, so they
are built as float64 stacks, which LAPACK solves with its real symmetric
driver; every other graph gets complex stacks.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, PreconditionError
from .graph import PeriodicGraphSpec, degrees, is_loop_graph

TWO_PI = 2.0 * math.pi


def _theta_rows(spec: PeriodicGraphSpec, theta) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(theta, dtype=float))
    if arr.shape[-1] != spec.dimension:
        raise ParameterError(
            f"quasimomentum has {arr.shape[-1]} components, expected {spec.dimension}"
        )
    return arr


def _edge_phase_sum(nv: int, edges, thetas: np.ndarray) -> np.ndarray:
    """Sum over `edges` of exp(i <index, theta>) at (tail, head) and its
    conjugate at (head, tail), shape (P, nu, nu).

    Each edge is filled once, in one orientation, so the result is exactly
    Hermitian; a loop gets both terms on its diagonal entry.
    """
    out = np.zeros((thetas.shape[0], nv, nv), dtype=complex)
    for e in edges:
        if any(e.index):
            phases = np.exp(1j * (thetas @ np.asarray(e.index, dtype=float)))
            out[:, e.tail, e.head] += phases
            out[:, e.head, e.tail] += np.conj(phases)
        else:
            out[:, e.tail, e.head] += 1.0
            out[:, e.head, e.tail] += 1.0
    return out


def _loop_phase_sum(nv: int, edges, thetas: np.ndarray) -> np.ndarray:
    """`_edge_phase_sum` of edges whose crossing ones are all loops, as a
    real stack: each crossing loop adds cos <index, theta> to its vertex's
    diagonal entry once per orientation.

    That is the real part of `_edge_phase_sum`'s sum, term by term and in
    the same order, so the two stacks agree bit for bit.
    """
    out = np.zeros((thetas.shape[0], nv, nv))
    for e in edges:
        if any(e.index):
            cosines = np.cos(thetas @ np.asarray(e.index, dtype=float))
            out[:, e.tail, e.tail] += cosines
            out[:, e.tail, e.tail] += cosines
        else:
            out[:, e.tail, e.head] += 1.0
            out[:, e.head, e.tail] += 1.0
    return out


def fiber_stack(spec: PeriodicGraphSpec, thetas: np.ndarray, kind: str) -> np.ndarray:
    """Batch of fiber matrices of the requested kind at the given torus points.

    `thetas` has shape (P, d); the result has shape (P, nu, nu), float64 for
    a loop graph and complex otherwise.
    """
    phase_sum = _loop_phase_sum if is_loop_graph(spec) else _edge_phase_sum
    adjacency = phase_sum(spec.num_vertices, spec.edges, _theta_rows(spec, thetas))
    if kind == "adjacency":
        return adjacency
    deg = np.asarray(degrees(spec), dtype=float)
    nv = spec.num_vertices
    idx = np.arange(nv)
    if kind == "normalized":
        if (deg < 1).any():
            raise PreconditionError("normalized operator needs every degree >= 1")
        weights = 1.0 / np.sqrt(deg)
        out = -adjacency * weights[None, :, None] * weights[None, None, :]
        out[:, idx, idx] += 1.0
        return out
    out = -adjacency
    out[:, idx, idx] += deg
    if kind == "laplacian":
        return out
    if kind == "schrodinger":
        out[:, idx, idx] += np.asarray(spec.potentials())
        return out
    raise ParameterError(f"unknown matrix kind {kind!r}")


def fluctuation_split(spec: PeriodicGraphSpec, theta):
    """Split the Schroedinger fiber into its torus average plus the bridge part.

    The average keeps the full degrees and potentials but only zero-index
    edges (every cell-crossing phase integrates to zero); the remainder
    collects -exp(i <index, theta>) over bridges only.  Their sum rebuilds
    the fiber exactly.  Returns the (mean, fluct) pair of nu x nu matrices.
    """
    nv = spec.num_vertices
    thetas = _theta_rows(spec, theta)[:1]
    local = [e for e in spec.edges if not any(e.index)]
    bridges = [e for e in spec.edges if any(e.index)]
    mean = -_edge_phase_sum(nv, local, thetas)[0]
    fluct = -_edge_phase_sum(nv, bridges, thetas)[0]
    idx = np.arange(nv)
    mean[idx, idx] += np.asarray(degrees(spec), dtype=float)
    mean[idx, idx] += np.asarray(spec.potentials())
    return mean, fluct
