"""Fiber matrices of periodic graph operators at a quasimomentum.

For a quotient graph on nu vertices, each point theta of the torus
[0, 2pi)^d yields a nu x nu Hermitian matrix whose entry (j, k) accumulates
exp(i <index, theta>) over the oriented edges from j to k.  The adjacency,
Laplacian, Schroedinger and degree-normalized variants all derive from that
phase sum, so `fiber_stack` builds several kinds at the same points from one
sum, as one kind-major stack that one eigensolver call takes.

Two bases make the fibers real symmetric, and LAPACK solves real stacks
with its real symmetric eigensolver, on half the bytes.  The bridge gauge
(`bridge_gauge`) applies when every vertex pair u != v joined by a
cell-crossing edge is a bridge of the quotient's simple graph (loops
dropped, parallel edges merged).  A per-theta diagonal unitary then turns
the entry of each such pair into -|sum of exp(i <n, theta>) over its
edges|, the hypot of the pair's cosine and sine sums (an edge inside the
cell adds 1 to the cosine sum): across a bridge the phase of one side is
free, so each pair's phase can be removed without touching another pair.
Every other entry keeps its vertex-basis value.  A loop graph, whose
crossing edges are all loops, has no such pair: its gauge is its vertex
basis, bit for bit, where the two orientations of a loop with index n add
cos <n, theta> twice to its diagonal entry.  A graph with an inversion (a
band symmetry with matrix -I whose vertex map is an involution, with equal
cell shifts on each swapped pair) is real in the basis W(theta) that the
inversion gives (module `inversion`): composed with complex conjugation it
is an antiunitary map that commutes with every H(theta) and squares to 1.
`fiber_stack` takes either basis as its `inversion` keyword and then
returns real matrices in it; without one it returns vertex-basis matrices,
complex unless the graph is a loop graph.  Both bases change the
eigenvalues of a graph that is not a loop graph in their last bits only
(within a unit or two of nu * eps * (1 + |H|) of the complex solve), and
with them the reports that sample it.

The phase sum of a spec is a table (`_PhaseTable`) of angle rows and of
the entries each value is added to, derived once per spec and basis and
kept on the spec, as its other derived structure is.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, PreconditionError
from .graph import PeriodicGraphSpec, degrees

TWO_PI = 2.0 * math.pi

# The `inversion` of `fiber_stack` that asks for the bridge gauge.
BRIDGE_GAUGE = "bridge gauge"


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
    row first; it is complex unless `split` is 0, as for a loop graph.  A
    bridge gauge's table is a vertex-basis one with `moduli` in place of
    the phases: (ones, rows) per crossing pair, valued -hypot(ones + the
    sum of the cosines of `rows`, the sum of their sines), the rows among
    the first `split`.
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
    moduli: tuple[tuple[int, tuple[int, ...]], ...] = ()


def _cycle_pair(spec: PeriodicGraphSpec, crossing) -> tuple[int, int] | None:
    """The first of the `crossing` pairs that lies on a cycle of the
    quotient's simple graph, or None when each of them is a bridge of it.

    One union-find pass: the pairs joined by edges inside the cell alone
    join their ends first; then a crossing pair whose ends are joined
    already closes a cycle, and any other joins them.  A crossing pair is
    one edge of the simple graph however many edges join it."""
    parent = list(range(spec.num_vertices))

    def root(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for e in spec.edges:
        if e.tail != e.head and (min(e.tail, e.head), max(e.tail, e.head)) not in crossing:
            parent[root(e.tail)] = root(e.head)
    for u, w in crossing:
        a, b = root(u), root(w)
        if a == b:
            return u, w
        parent[a] = b
    return None


def bridge_gauge(spec: PeriodicGraphSpec) -> str | None:
    """BRIDGE_GAUGE when it makes the fibers of `spec` real (every vertex
    pair joined by a cell-crossing edge is a bridge of the quotient's
    simple graph; always for a loop graph), else None.  The gauge's table
    is built to tell, and kept on the spec, so a spec that has the gauge
    is tested once."""
    try:
        _phase_table(spec, BRIDGE_GAUGE)
    except ParameterError:
        return None
    return BRIDGE_GAUGE


def _vertex_table(spec: PeriodicGraphSpec, gauge: bool = False) -> _PhaseTable:
    """The phase sum in the vertex basis, or with `gauge` in the bridge
    gauge (ParameterError naming a crossing pair on a cycle if there is one).

    Each edge is filled once, in one orientation, so the result is exactly
    Hermitian: exp(i <index, theta>) at (tail, head) and its conjugate at
    (head, tail), or 1 at both for an edge inside the cell.  A crossing loop
    adds the real parts of its two terms, cos <index, theta> twice, to its
    diagonal entry.  So a loop graph's sum is real, with the bits of the
    real table of its trivial inversion (the identity, no shifts), and its
    gauge is this same table.  In the gauge every edge of a crossing pair
    (u, w), u < w, is a term of the pair's one modulus, its index read
    from u to w; the pair's entries take that value alone.
    """
    zero = (0,) * spec.dimension
    # The gauge's crossing pairs (u, w), u < w, in the order of their first
    # crossing edge, each with the terms of its modulus.
    crossing = {}
    if gauge:
        for e in spec.edges:
            if e.tail != e.head and e.index != zero:
                crossing.setdefault((min(e.tail, e.head), max(e.tail, e.head)), [])
        cycle = _cycle_pair(spec, crossing)
        if cycle is not None:
            raise ParameterError(
                "the bridge gauge needs each vertex pair joined by a cell-crossing edge to "
                f"be a bridge, but the pair of vertices {cycle[0]} and {cycle[1]} lies on a cycle"
            )
    # Values: 1, then each phase followed by its conjugate (each pair's
    # modulus in the gauge, which has no phases), then the loops' cosines
    # in reverse, so that loop row r is value ~r = -1 - r and one pass
    # numbers every value.
    values = {pair: 1 + k for k, pair in enumerate(crossing)}
    phases, loops, adds = {}, {}, []
    for e in spec.edges:
        t, h, n = e.tail, e.head, e.index
        pair = min(t, h), max(t, h)
        terms = crossing.get(pair)
        if terms is not None:
            if not terms:
                adds += ((t, h, values[pair]), (h, t, values[pair]))
            terms.append(n if t < h else tuple(-x for x in n))
        elif n == zero:
            adds += ((t, h, 0), (h, t, 0))
        elif t == h:
            r = loops.setdefault(n, len(loops))
            adds += ((t, t, ~r), (t, t, ~r))
        else:
            r = phases.setdefault(n, len(phases))
            adds += ((t, h, 1 + 2 * r), (h, t, 2 + 2 * r))
    # The gauge's rows: each crossing term's index, once.
    rows = {}
    moduli = tuple(
        (terms.count(zero), tuple(rows.setdefault(n, len(rows)) for n in terms if n != zero))
        for terms in crossing.values()
    )
    index = np.array([*phases, *rows, *loops], dtype=float).reshape(-1, spec.dimension)
    diagonal = np.asarray(degrees(spec), dtype=float), np.asarray(spec.potentials())
    dtype = complex if phases else float
    split = len(phases) + len(rows)
    return _PhaseTable(dtype, spec.num_vertices, index, split, (), (1.0,), adds, *diagonal, moduli)


def _phase_table(spec: PeriodicGraphSpec, inversion=None) -> _PhaseTable:
    """The table of `spec` in the basis of `inversion` (BRIDGE_GAUGE or an
    inversion), or in the vertex basis when it is None, built on first use
    and kept on the spec."""
    tables = spec._phase_tables
    table = tables.get(inversion)
    if table is None:
        if inversion is None or inversion == BRIDGE_GAUGE:
            table = _vertex_table(spec, gauge=inversion is not None)
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
        if table.moduli:
            cosines, sines = np.cos(angles[: table.split]), np.sin(angles[: table.split])
            for ones, rows in table.moduli:
                real, imag = cosines[rows[0]], sines[rows[0]]
                for r in rows[1:]:
                    real, imag = real + cosines[r], imag + sines[r]
                values.append(-np.hypot(real + ones, imag))
        elif table.split:
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

    With `inversion` the matrices are real symmetric, in a basis that is
    unitarily equivalent to the vertex basis, with the same eigenvalues but
    other entries: BRIDGE_GAUGE for the bridge gauge (ParameterError naming
    a cell-crossing vertex pair on a cycle when `bridge_gauge(spec)` is
    None), or a `symmetry.LatticeSymmetry` that is an inversion of `spec`
    for its basis W(theta) (see module `inversion`).  Without one they are
    the vertex-basis matrices: float64 for a loop graph, whose bridge gauge
    they are, complex otherwise.
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
