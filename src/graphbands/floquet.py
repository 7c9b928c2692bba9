"""Fiber matrices of periodic graph operators at a quasimomentum.

For a quotient graph on nu vertices, each point theta of the torus
[0, 2pi)^d yields a nu x nu Hermitian matrix whose entry (j, k) accumulates
exp(i <index, theta>) over the oriented edges from j to k.  The adjacency,
Laplacian, Schroedinger and degree-normalized variants all derive from that
phase sum, so `fiber_stack` builds several kinds at the same points from one
sum, as one kind-major stack that one eigensolver call takes.

The two orientations of a loop with index n add exp(i <n, theta>) +
exp(-i <n, theta>) = 2 cos <n, theta> to its diagonal entry, so the one
phase sum adds the cosine there.  In a loop graph every cell-crossing edge
is a loop, so its fibers are real symmetric: they are built as float64
stacks, which LAPACK solves with its real symmetric driver, and every other
graph gets complex stacks.  That dtype is the only loop-graph choice.
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
    (zeros of that shape) or into a new complex array.

    Each edge is filled once, in one orientation, so the result is exactly
    Hermitian.  A crossing loop adds the real parts of its two terms,
    cos <index, theta> twice, to its diagonal entry, so a graph whose
    crossing edges are all loops can be summed into a float64 `out`; any
    other crossing edge needs a complex one.
    """
    if out is None:
        out = np.zeros((thetas.shape[0], nv, nv), dtype=complex)
    # The angles <index, theta> of the crossing edges, one row per edge, are
    # summed over the axes left to right, elementwise, so a point's angles
    # do not depend on the batch it is built in; a BLAS product may round a
    # lone row, or the rows left over from its blocks, otherwise than the
    # rest.
    crossing = [any(e.index) for e in edges]
    index = np.array([e.index for e, c in zip(edges, crossing) if c], dtype=float)
    index = index.reshape(-1, thetas.shape[1])
    rows = index[:, :1] * thetas[:, 0]
    for k in range(1, thetas.shape[1]):
        rows += index[:, k : k + 1] * thetas[:, k]
    rows = iter(rows)
    for e, c in zip(edges, crossing):
        if not c:
            out[:, e.tail, e.head] += 1.0
            out[:, e.head, e.tail] += 1.0
            continue
        angles = next(rows)
        if e.tail == e.head:
            cosines = np.cos(angles)
            out[:, e.tail, e.tail] += cosines
            out[:, e.tail, e.tail] += cosines
        else:
            phases = np.exp(1j * angles)
            out[:, e.tail, e.head] += phases
            out[:, e.head, e.tail] += np.conj(phases)
    return out


KINDS = ("adjacency", "laplacian", "schrodinger", "normalized")


def fiber_stack(spec: PeriodicGraphSpec, thetas: np.ndarray, kind) -> np.ndarray:
    """Batch of fiber matrices of the requested kind at the given torus points.

    `thetas` has shape (P, d); the result has shape (P, nu, nu).  Every
    graph gets the same phase sum; the loop-graph test picks only its dtype,
    float64 for a loop graph and complex otherwise.  `kind` is one of KINDS,
    or a tuple of K of them: then the result holds their stacks at the same
    points, kind-major, shape (K * P, nu, nu), all derived from one phase sum.
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
    dtype = float if is_loop_graph(spec) else complex
    stacks = np.zeros((len(kinds), rows.shape[0], nv, nv), dtype=dtype)
    # The phase sum fills the last kind's slot; the other kinds are derived
    # from it first, and the last one in place, so one kind allocates one
    # stack, as many kinds allocate one each.
    adjacency = _edge_phase_sum(nv, spec.edges, rows, stacks[-1])
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
