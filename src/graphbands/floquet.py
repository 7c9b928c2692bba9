"""Fiber matrices of periodic graph operators at a quasimomentum.

For a quotient graph on nu vertices, each point theta of the torus
[0, 2pi)^d yields a nu x nu Hermitian matrix whose entry (j, k) accumulates
exp(i <index, theta>) over the oriented edges from j to k.  The adjacency,
Laplacian, Schroedinger and degree-normalized variants all derive from that
phase sum, so `fiber_stack` builds several kinds at the same points from one
sum, as one kind-major stack that one eigensolver call takes.

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


def _edge_phase_sum(nv: int, edges, thetas: np.ndarray, out=None) -> np.ndarray:
    """Sum over `edges` of exp(i <index, theta>) at (tail, head) and its
    conjugate at (head, tail), shape (P, nu, nu), accumulated into `out`
    (zeros of that shape, complex) or into a new array.

    Each edge is filled once, in one orientation, so the result is exactly
    Hermitian; a loop gets both terms on its diagonal entry.
    """
    if out is None:
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


def _loop_phase_sum(nv: int, edges, thetas: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`_edge_phase_sum` of edges whose crossing ones are all loops, as a
    real stack accumulated into `out` (float64 zeros): each crossing loop
    adds cos <index, theta> to its vertex's diagonal entry once per
    orientation.

    That is the real part of `_edge_phase_sum`'s sum, term by term and in
    the same order, so the two stacks agree bit for bit.
    """
    for e in edges:
        if any(e.index):
            cosines = np.cos(thetas @ np.asarray(e.index, dtype=float))
            out[:, e.tail, e.tail] += cosines
            out[:, e.tail, e.tail] += cosines
        else:
            out[:, e.tail, e.head] += 1.0
            out[:, e.head, e.tail] += 1.0
    return out


KINDS = ("adjacency", "laplacian", "schrodinger", "normalized")


def fiber_stack(spec: PeriodicGraphSpec, thetas: np.ndarray, kind) -> np.ndarray:
    """Batch of fiber matrices of the requested kind at the given torus points.

    `thetas` has shape (P, d); the result has shape (P, nu, nu), float64 for
    a loop graph and complex otherwise.  `kind` is one of KINDS, or a tuple
    of K of them: then the result holds their stacks at the same points,
    kind-major, shape (K * P, nu, nu), all derived from one phase sum.
    """
    kinds = (kind,) if isinstance(kind, str) else tuple(kind)
    rows = _theta_rows(spec, thetas)
    for name in kinds:
        if name not in KINDS:
            raise ParameterError(f"unknown matrix kind {name!r}")
    deg = np.asarray(degrees(spec), dtype=float)
    if "normalized" in kinds and (deg < 1).any():
        raise PreconditionError("normalized operator needs every degree >= 1")
    nv = spec.num_vertices
    loop = is_loop_graph(spec)
    phase_sum = _loop_phase_sum if loop else _edge_phase_sum
    stacks = np.zeros((len(kinds), rows.shape[0], nv, nv), dtype=float if loop else complex)
    # The phase sum fills the last kind's slot; the other kinds are derived
    # from it first, and the last one in place, so one kind allocates one
    # stack, as many kinds allocate one each.
    adjacency = phase_sum(nv, spec.edges, rows, stacks[-1])
    for name, out in zip(kinds, (*stacks[:-1], adjacency)):
        _operator(spec, name, deg, adjacency, out)
    return stacks.reshape(-1, nv, nv)


def _operator(spec, kind, deg, adjacency, out) -> None:
    """Write the `kind` stack derived from the phase sum `adjacency` into
    `out`, which may be `adjacency` itself.

    The phase sum is negated and scaled into `out`: the same ufuncs on the
    same operands as fresh arrays, so the same bits, without a full-size
    temporary per step.
    """
    if kind == "adjacency":
        if out is not adjacency:
            out[...] = adjacency
        return
    idx = np.arange(spec.num_vertices)
    np.negative(adjacency, out=out)
    if kind == "normalized":
        weights = 1.0 / np.sqrt(deg)
        out *= weights[None, :, None]
        out *= weights[None, None, :]
        out[:, idx, idx] += 1.0
        return
    out[:, idx, idx] += deg
    if kind == "schrodinger":
        out[:, idx, idx] += np.asarray(spec.potentials())
