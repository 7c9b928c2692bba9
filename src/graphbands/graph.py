"""Quotient-graph data model for Z^d-periodic graphs.

A periodic graph is described by its quotient under the translation lattice:
a finite multigraph whose edges carry integer "cell offset" index vectors
recording how many unit cells the edge crosses along each period direction.
Everything spectral in this package is computed from that finite description.
A spec is immutable, so what is derived from it (oriented edges, degrees,
bridges, the GF(2) coloring system, cover connectivity, the classification)
is computed on first use and kept on the spec object: the functions below
read it from there.  The two bipartiteness tests solve the one coloring
system, whose rows are bitmasks, with and without its parity columns.  The
cache is per object, never by value, so each newly parsed spec derives its
own.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

from .errors import ValidationError
from .linalg import gf2_solve, integer_lattice_full


@dataclass(frozen=True)
class VertexInfo:
    """One cell vertex: a label, an on-site potential, optional fractional position."""

    label: str
    potential: float = 0.0
    position: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "potential", float(self.potential))
        if self.position is not None:
            object.__setattr__(self, "position", tuple(float(x) for x in self.position))


@dataclass(frozen=True)
class EdgeRecord:
    """Unoriented edge of the quotient graph; index is its cell-offset vector."""

    tail: int
    head: int
    index: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "tail", int(self.tail))
        object.__setattr__(self, "head", int(self.head))
        object.__setattr__(self, "index", tuple(int(x) for x in self.index))


@dataclass(frozen=True)
class OrientedEdge:
    tail: int
    head: int
    index: tuple[int, ...]


@dataclass(frozen=True)
class PeriodicGraphSpec:
    """Finite description of a Z^d-periodic graph.

    Coordinates (when present) are fractional parts in [0, 1)^d, expressed in
    the period basis.  Loops and parallel edges are allowed; a loop with a
    zero index counts twice toward the degree of its vertex.
    """

    dimension: int
    vertices: tuple[VertexInfo, ...]
    edges: tuple[EdgeRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "dimension", int(self.dimension))
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))
        _validate(self)
        # floquet's phase-sum tables, by basis (None for the vertex basis,
        # floquet.BRIDGE_GAUGE or an inversion), each built on first use.
        # A plain attribute rather than a cached_property: most specs of a
        # command reach it once, and a cached_property's first access costs
        # more than the dictionary.
        object.__setattr__(self, "_phase_tables", {})

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def potentials(self) -> tuple[float, ...]:
        return tuple(v.potential for v in self.vertices)

    # cached_property stores into the instance __dict__, which a frozen
    # dataclass allows; the fields, equality and hash are untouched.
    @cached_property
    def _structure(self) -> _Structure:
        return _derive_structure(self)

    @cached_property
    def _connected(self) -> bool:
        return _cover_connected(self)

    @cached_property
    def _classification(self) -> GraphClassification:
        return _classify(self)


@dataclass(frozen=True)
class GraphClassification:
    """Structural summary used to decide which spectral results apply."""

    is_connected: bool
    is_regular: bool
    regular_degree: int | None
    max_degree: int
    fundamental_bipartite: bool
    periodic_bipartite: bool
    is_loop_graph: bool
    precise_quasimomentum: tuple[float, ...] | None
    bridge_count: int


# Largest edge-index entry in magnitude: every integer up to 2**53 is a
# float64, so the phase <index, theta> is formed from the exact index.
MAX_INDEX_ENTRY = 2**53


def _validate(spec: PeriodicGraphSpec) -> None:
    if spec.dimension < 1:
        raise ValidationError("dimension must be a positive integer")
    if not spec.vertices:
        raise ValidationError("at least one vertex is required")
    nv = len(spec.vertices)
    seen_positions = {}
    for j, vertex in enumerate(spec.vertices):
        if not isinstance(vertex, VertexInfo):
            raise ValidationError(f"vertices[{j}] is not a VertexInfo")
        if not math.isfinite(vertex.potential):
            raise ValidationError(f"vertices[{j}].potential is not finite")
        if vertex.position is not None:
            pos = vertex.position
            if len(pos) != spec.dimension:
                raise ValidationError(f"vertices[{j}].position has wrong length")
            if not all(math.isfinite(x) and 0.0 <= x < 1.0 for x in pos):
                raise ValidationError(f"vertices[{j}].position must lie in [0, 1)^d")
            if pos in seen_positions:
                raise ValidationError(
                    f"vertices[{j}] and vertices[{seen_positions[pos]}] share a position"
                )
            seen_positions[pos] = j
    for i, edge in enumerate(spec.edges):
        if not isinstance(edge, EdgeRecord):
            raise ValidationError(f"edges[{i}] is not an EdgeRecord")
        if not (0 <= edge.tail < nv and 0 <= edge.head < nv):
            raise ValidationError(f"edges[{i}] references an invalid vertex index")
        if len(edge.index) != spec.dimension:
            raise ValidationError(f"edges[{i}].index has wrong length")
        if any(abs(x) > MAX_INDEX_ENTRY for x in edge.index):
            raise ValidationError(f"edges[{i}].index has an entry beyond 2**53 in magnitude")


class _Structure(NamedTuple):
    """What a spec's edges determine, derived once per spec object."""

    oriented: tuple[OrientedEdge, ...]
    degrees: tuple[int, ...]
    bridges: tuple[OrientedEdge, ...]
    is_loop_graph: bool
    # The coloring system of the cover over GF(2): one equation
    # c(tail) + c(head) + <p, index> = 1 per edge, in a cell coloring c and a
    # parity vector p.  Each row is a bitmask: bits 0 to nu - 1 hold the
    # coloring columns (a loop's cancel), bits nu to nu + d - 1 the parities.
    coloring: tuple[int, ...]


def _derive_structure(spec: PeriodicGraphSpec) -> _Structure:
    oriented = []
    for e in spec.edges:
        oriented.append(OrientedEdge(e.tail, e.head, e.index))
        oriented.append(OrientedEdge(e.head, e.tail, tuple(-x for x in e.index)))
    deg = [0] * spec.num_vertices
    for e in oriented:
        deg[e.tail] += 1
    bridges = tuple(e for e in oriented if any(e.index))
    nv = spec.num_vertices
    coloring = tuple(
        (1 << e.tail) ^ (1 << e.head) | _parity_mask(e.index) << nv for e in spec.edges
    )
    return _Structure(
        tuple(oriented), tuple(deg), bridges, all(e.tail == e.head for e in bridges), coloring
    )


def _parity_mask(index) -> int:
    """The parities of an index vector as a bitmask: bit s is index[s] & 1."""
    return sum((x & 1) << s for s, x in enumerate(index))


def oriented_edges(spec: PeriodicGraphSpec) -> tuple[OrientedEdge, ...]:
    """Both orientations of every edge record; the reverse negates the index."""
    return spec._structure.oriented


def degrees(spec: PeriodicGraphSpec) -> tuple[int, ...]:
    """Vertex degrees: the number of oriented edges starting at each vertex."""
    return spec._structure.degrees


def bridge_count(spec: PeriodicGraphSpec) -> tuple[int, tuple[OrientedEdge, ...]]:
    """Oriented edges with a nonzero index, and how many there are.

    Each unoriented cell-crossing edge contributes two oriented bridges (a
    crossing loop likewise contributes two, with opposite indices).
    """
    bridges = spec._structure.bridges
    return len(bridges), bridges


def is_loop_graph(spec: PeriodicGraphSpec) -> bool:
    """True iff every cell-crossing edge is a loop (tail == head)."""
    return spec._structure.is_loop_graph


def _spanning_tree_offsets(spec: PeriodicGraphSpec):
    """BFS potentials: per vertex, the summed index along a tree path from vertex 0.

    Returns (offsets, fully_connected).
    """
    nv = spec.num_vertices
    adjacency = [[] for _ in range(nv)]
    for e in oriented_edges(spec):
        adjacency[e.tail].append(e)
    offsets: list[tuple[int, ...] | None] = [None] * nv
    offsets[0] = (0,) * spec.dimension
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for e in adjacency[u]:
            if offsets[e.head] is None:
                offsets[e.head] = tuple(a + b for a, b in zip(offsets[u], e.index))
                queue.append(e.head)
    return offsets, all(p is not None for p in offsets)


def is_connected_periodic(spec: PeriodicGraphSpec) -> bool:
    """True iff the full periodic cover is one connected component.

    Needs (a) the quotient graph connected, and (b) the integer lattice
    generated by the cycle offsets tau(e) + p(tail) - p(head) to be all of
    Z^d, where p is a spanning-tree potential.
    """
    return spec._connected


def _cover_connected(spec: PeriodicGraphSpec) -> bool:
    offsets, connected = _spanning_tree_offsets(spec)
    if not connected:
        return False
    cycle_vectors = []
    for e in oriented_edges(spec):
        vec = tuple(
            t + pt - ph for t, pt, ph in zip(e.index, offsets[e.tail], offsets[e.head])
        )
        if any(vec):
            cycle_vectors.append(vec)
    if not cycle_vectors:
        return False
    return integer_lattice_full(cycle_vectors, spec.dimension)


def fundamental_bipartite(spec: PeriodicGraphSpec) -> bool:
    """2-colorability of the quotient multigraph, ignoring indices: the
    coloring system of the cover without its parity columns."""
    rows = spec._structure.coloring
    return gf2_solve(rows, [1] * len(rows), spec.num_vertices) is not None


def periodic_bipartite(spec: PeriodicGraphSpec):
    """2-colorability of the periodic cover.

    The cover is bipartite iff there are a cell coloring c and a parity
    vector p with c(tail) + c(head) + <p, index> odd for every edge; that is
    a linear system over GF(2).  Returns (flag, witness) where the witness is
    (coloring, parity) or None.
    """
    nv, d = spec.num_vertices, spec.dimension
    rows = spec._structure.coloring
    solution = gf2_solve(rows, [1] * len(rows), nv + d)
    if solution is None:
        return False, None
    return True, (solution[:nv], solution[nv:])


def _precise_quasimomentum(spec: PeriodicGraphSpec, bridges) -> tuple[float, ...] | None:
    """A corner point of the torus making every bridge phase equal -1, if any.

    Solves <index, x> odd over x in {0, 1}^d and scales the witness by pi.
    Only corner candidates are tried; absence means "not precise under the
    restricted test".  With no bridge the cover is disconnected, H is
    constant and every bridge phase is vacuously -1 at the zero corner,
    which the empty system returns.
    """
    rows = {_parity_mask(e.index) for e in bridges}
    solution = gf2_solve(rows, [1] * len(rows), spec.dimension)
    if solution is None:
        return None
    return tuple(math.pi * bit for bit in solution)


def classify(spec: PeriodicGraphSpec) -> GraphClassification:
    """Aggregate the structural tests the spectral estimates depend on."""
    return spec._classification


def _classify(spec: PeriodicGraphSpec) -> GraphClassification:
    deg = degrees(spec)
    count, bridges = bridge_count(spec)
    loop_graph = is_loop_graph(spec)
    theta0 = _precise_quasimomentum(spec, bridges) if loop_graph else None
    bipartite_cover, _ = periodic_bipartite(spec)
    regular = len(set(deg)) == 1
    return GraphClassification(
        is_connected=is_connected_periodic(spec),
        is_regular=regular,
        regular_degree=deg[0] if regular else None,
        max_degree=max(deg),
        fundamental_bipartite=fundamental_bipartite(spec),
        periodic_bipartite=bipartite_cover,
        is_loop_graph=loop_graph,
        precise_quasimomentum=theta0,
        bridge_count=count,
    )


def with_potentials(spec: PeriodicGraphSpec, potentials) -> PeriodicGraphSpec:
    """Copy of the spec with the on-site potentials replaced."""
    values = tuple(float(q) for q in potentials)
    if len(values) != spec.num_vertices:
        raise ValidationError(
            f"expected {spec.num_vertices} potential values, got {len(values)}"
        )
    new_vertices = tuple(
        replace(v, potential=q) for v, q in zip(spec.vertices, values)
    )
    return PeriodicGraphSpec(spec.dimension, new_vertices, spec.edges)
