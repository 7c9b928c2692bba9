"""Fiber matrices of periodic graph operators at a quasimomentum.

For a quotient graph on nu vertices, each point theta of the torus
[0, 2pi)^d yields a nu x nu Hermitian matrix whose entry (j, k) accumulates
exp(i <index, theta>) over the oriented edges from j to k.  The adjacency,
Laplacian, Schroedinger and degree-normalized variants all derive from that
phase sum, so `fiber_stack` builds several kinds at the same points from one
sum, as one kind-major stack that one eigensolver call takes.

A graph with an inversion (a band symmetry with matrix -I whose vertex
map is an involution, with equal cell shifts on each swapped pair) gets
real symmetric fibers: composed with complex conjugation the inversion is
an antiunitary map that commutes with every H(theta) and squares to 1, so
H(theta) is real in a basis W(theta) that it gives (module `inversion`).
`fiber_stack` takes the inversion as a keyword and then returns matrices in
that basis; without one it returns vertex-basis matrices.  A loop graph,
whose crossing edges are all loops, has the trivial inversion (the
identity, no shifts, W = I): its vertex-basis fibers are that real fill,
where the two orientations of a loop with index n add cos <n, theta> twice
to its diagonal entry.  Every other graph gets the complex phase sum in the
vertex basis.  Real stacks are half the bytes of complex ones, and LAPACK
solves them with its real symmetric eigensolver.  The real basis changes the
eigenvalues of a graph with a nontrivial inversion in their last bits only
(within a unit or two of nu * eps * (1 + |H|) of the complex solve), and
with them the reports that sample it.

The phase sum of a spec is a table (`_PhaseTable`) of angle rows and of
the entries each value is added to, derived once per spec and inversion and
kept on the spec, as its other derived structure is.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, PreconditionError
from .graph import PeriodicGraphSpec, degrees

TWO_PI = 2.0 * math.pi


def _theta_rows(spec: PeriodicGraphSpec, theta) -> np.ndarray:
    arr = np.asarray(theta, dtype=float)
    if arr.ndim < 2:
        arr = arr.reshape(1, -1)
    if arr.shape[-1] != spec.dimension:
        raise ParameterError(
            f"quasimomentum has {arr.shape[-1]} components, expected {spec.dimension}"
        )
    if not np.isfinite(arr).all():
        raise ParameterError("quasimomentum has a non-finite component")
    return arr


class _PhaseTable(NamedTuple):
    """How the phase sum of one spec, in one basis, fills a stack.

    Row r of `index` is an angle vector m; the sum evaluates <m, theta> at
    every point, adding the products over the axes left to right,
    elementwise, so a point's angles do not depend on the batch it is built
    in (a BLAS product may round a lone row, or the rows left over from its
    blocks, otherwise).  `adds` lists (row, column, value) in the order the
    entries accumulate, edge by edge: value j < len(constants) is
    constants[j], and the rest are per-point values.  An inversion's table
    has `waves` (sine, row, coefficient), one per value, the sines taken of
    its first `split` rows.  A vertex-basis table has none: its first
    `split` rows are phases exp(i <m, theta>), each valued with its
    conjugate after it, and then come the cosines of the other rows, last
    row first; it is complex unless `split` is 0, as for a loop graph.
    `degrees` and `potentials` are the diagonal terms of the kinds, per
    basis position; `potentials` is None when the basis's
    inversion does not keep them, so the sum serves no Schroedinger fiber.
    """

    dtype: type
    size: int
    index: np.ndarray
    split: int
    waves: tuple[tuple[bool, int, float], ...]
    constants: tuple[float, ...]
    adds: list[tuple[int, int, int]]
    degrees: np.ndarray
    potentials: np.ndarray | None


def _vertex_table(spec: PeriodicGraphSpec) -> _PhaseTable:
    """The phase sum in the vertex basis.

    Each edge is filled once, in one orientation, so the result is exactly
    Hermitian: exp(i <index, theta>) at (tail, head) and its conjugate at
    (head, tail), or 1 at both for an edge inside the cell.  A crossing loop
    adds the real parts of its two terms, cos <index, theta> twice, to its
    diagonal entry.  So a loop graph's sum is real, with the bits of the
    real table of its trivial inversion (the identity, no shifts).
    """
    # Values: 1, then each phase followed by its conjugate, then the
    # loops' cosines in reverse, so that loop row r is value ~r = -1 - r
    # and one pass numbers every value.
    zero = (0,) * spec.dimension
    phases, loops, adds = {}, {}, []
    for e in spec.edges:
        t, h, n = e.tail, e.head, e.index
        if n == zero:
            adds += ((t, h, 0), (h, t, 0))
        elif t == h:
            r = loops.setdefault(n, len(loops))
            adds += ((t, t, ~r), (t, t, ~r))
        else:
            r = phases.setdefault(n, len(phases))
            adds += ((t, h, 1 + 2 * r), (h, t, 2 + 2 * r))
    index = np.array([*phases, *loops], dtype=float).reshape(-1, spec.dimension)
    diagonal = np.asarray(degrees(spec), dtype=float), np.asarray(spec.potentials())
    dtype = complex if phases else float
    return _PhaseTable(dtype, spec.num_vertices, index, len(phases), (), (1.0,), adds, *diagonal)


def _phase_table(spec: PeriodicGraphSpec, inversion=None) -> _PhaseTable:
    """The table of `spec` in the basis of `inversion`, or in the vertex
    basis when it is None, built on first use and kept on the spec."""
    tables = spec._phase_tables
    table = tables.get(inversion)
    if table is None:
        if inversion is None:
            table = _vertex_table(spec)
        else:
            from .inversion import inversion_table

            table = inversion_table(spec, inversion)
        tables[inversion] = table
    return table


def _edge_phase_sum(table: _PhaseTable, thetas: np.ndarray, out=None) -> np.ndarray:
    """The phase sum of `table` at `thetas`, shape (P, nu, nu), accumulated
    into `out` (zeros of that shape) or into a new array of the table's
    dtype.  A complex table's values cannot be added to a float64 `out`."""
    if out is None:
        out = np.zeros((thetas.shape[0], table.size, table.size), dtype=table.dtype)
    index = table.index
    angles = index[:, :1] * thetas[:, 0]
    for k in range(1, thetas.shape[1]):
        angles += index[:, k : k + 1] * thetas[:, k]
    values = list(table.constants)
    if table.waves:
        trig = (np.cos(angles), np.sin(angles[: table.split]) if table.split else None)
        values += [trig[sine][r] if k == 1.0 else k * trig[sine][r] for sine, r, k in table.waves]
    else:
        if table.split:
            phases = np.empty((table.split, 2, len(thetas)), dtype=complex)
            np.exp(1j * angles[: table.split], out=phases[:, 0])
            np.conj(phases[:, 0], out=phases[:, 1])
            values += [*phases.reshape(-1, len(thetas))]
        values += [*np.cos(angles[table.split :][::-1])]
    for row, col, value in table.adds:
        out[:, row, col] += values[value]
    return out


KINDS = ("adjacency", "laplacian", "schrodinger", "normalized")


def fiber_stack(spec: PeriodicGraphSpec, thetas: np.ndarray, kind, *, inversion=None) -> np.ndarray:
    """Batch of fiber matrices of the requested kind at the given torus points.

    `thetas` has shape (P, d) and must be finite; the result has shape
    (P, nu, nu).  `kind` is one of KINDS, or a non-empty tuple of K of
    them: then the result holds their stacks at the same points,
    kind-major, shape (K * P, nu, nu), all derived from one phase sum.

    With `inversion` (a `symmetry.LatticeSymmetry` that is an inversion of
    `spec`, see module `inversion`) the matrices are real symmetric, in
    that inversion's basis W(theta): unitarily equivalent to the
    vertex-basis ones, with the same eigenvalues but other entries.
    Without one they are the vertex-basis matrices: float64 for a loop
    graph, complex otherwise.
    """
    kinds = (kind,) if isinstance(kind, str) else tuple(kind)
    if not kinds:
        raise ParameterError("the list of matrix kinds is empty")
    rows = _theta_rows(spec, thetas)
    for name in kinds:
        if name not in KINDS:
            raise ParameterError(f"unknown matrix kind {name!r}")
    table = _phase_table(spec, inversion)
    if "normalized" in kinds and (table.degrees < 1).any():
        raise PreconditionError("normalized operator needs every degree >= 1")
    if "schrodinger" in kinds and table.potentials is None:
        raise ParameterError("the inversion does not keep the potentials of this graph")
    nv = spec.num_vertices
    stacks = np.zeros((len(kinds), rows.shape[0], nv, nv), dtype=table.dtype)
    # The phase sum fills the last kind's slot; the other kinds are derived
    # from it first, and the last one in place, so one kind allocates one
    # stack, as many kinds allocate one each.
    adjacency = _edge_phase_sum(table, rows, stacks[-1])
    for name, out in zip(kinds, (*stacks[:-1], adjacency)):
        _operator(table, name, adjacency, out)
    return stacks.reshape(-1, nv, nv)


def _operator(table, kind, adjacency, out) -> None:
    """Write the `kind` stack derived from the phase sum `adjacency` into
    `out`, which may be `adjacency` itself.

    The phase sum is negated and scaled into `out`: the same ufuncs on the
    same operands as fresh arrays, so the same bits, without a full-size
    temporary per step.  `out` is contiguous, so its diagonals are a
    strided view, updated in place.
    """
    if kind == "adjacency":
        if out is not adjacency:
            out[...] = adjacency
        return
    np.negative(adjacency, out=out)
    diagonals = out.reshape(-1, table.size**2)[:, :: table.size + 1]
    if kind == "normalized":
        weights = 1.0 / np.sqrt(table.degrees)
        out *= weights[None, :, None]
        out *= weights[None, None, :]
        diagonals += 1.0
        return
    diagonals += table.degrees
    if kind == "schrodinger":
        diagonals += table.potentials
