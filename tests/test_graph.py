import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from graphbands import (
    EdgeRecord,
    PeriodicGraphSpec,
    PreconditionError,
    ValidationError,
    VertexInfo,
    bridge_count,
    classify,
    degrees,
    fiber_eigenvalues,
    fundamental_bipartite,
    is_connected_periodic,
    oriented_edges,
    periodic_bipartite,
    with_potentials,
)
from graphbands.lattices import (
    FiniteGraph,
    bcc,
    bipartite_chain,
    cubic,
    decorate,
    fcc,
    hexagonal,
    star,
    subdivided,
    triangular,
)
from oracles import shift_origin
from quotients import quotients

PI = np.pi


def eigs_at(spec, theta):
    return fiber_eigenvalues(spec, theta)


def test_validation_rejects_bad_edges():
    with pytest.raises(ValidationError):
        PeriodicGraphSpec(2, (VertexInfo("a"),), (EdgeRecord(0, 3, (0, 0)),))
    with pytest.raises(ValidationError):
        PeriodicGraphSpec(2, (VertexInfo("a"),), (EdgeRecord(0, 0, (0,)),))
    with pytest.raises(ValidationError):
        PeriodicGraphSpec(0, (VertexInfo("a"),), ())


_LOOP = (EdgeRecord(0, 0, (1, 0)),)


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        ((), (), "at least one vertex is required"),
        (("a",), (), r"vertices\[0\] is not a VertexInfo"),
        ((VertexInfo("a", potential=float("nan")),), _LOOP, r"vertices\[0\]\.potential"),
        ((VertexInfo("a", potential=float("inf")),), _LOOP, r"vertices\[0\]\.potential"),
        ((VertexInfo("a", position=(0.5,)),), _LOOP, r"vertices\[0\]\.position has wrong length"),
        ((VertexInfo("a", position=(0.5, 1.0)),), _LOOP, r"vertices\[0\]\.position must lie"),
        ((VertexInfo("a", position=(-0.1, 0.0)),), _LOOP, r"vertices\[0\]\.position must lie"),
        ((VertexInfo("a"),), ((0, 0, (1, 0)),), r"edges\[0\] is not an EdgeRecord"),
    ],
    ids=[
        "no-vertices",
        "vertex-not-vertexinfo",
        "nan-potential",
        "inf-potential",
        "position-length",
        "position-at-1",
        "position-negative",
        "edge-not-edgerecord",
    ],
)
def test_validation_names_the_bad_field(vertices, edges, message):
    with pytest.raises(ValidationError, match=message):
        PeriodicGraphSpec(2, vertices, edges)


@pytest.mark.parametrize(
    "entry", [10**400, 2**53 + 1, -(2**53) - 1], ids=["1e400", "2**53+1", "-2**53-1"]
)
def test_validation_rejects_indices_beyond_float64_integers(entry):
    loops = (EdgeRecord(0, 0, (entry, 1)), EdgeRecord(0, 0, (1, 0)))
    with pytest.raises(ValidationError, match=r"edges\[0\]\.index .*2\*\*53"):
        PeriodicGraphSpec(2, (VertexInfo("a"),), loops)


def test_validation_accepts_indices_up_to_2_pow_53():
    loops = (EdgeRecord(0, 0, (2**53, 1)), EdgeRecord(0, 0, (-(2**53), 0)))
    assert PeriodicGraphSpec(2, (VertexInfo("a"),), loops).edges == loops


def test_validation_rejects_duplicate_positions():
    with pytest.raises(ValidationError):
        PeriodicGraphSpec(
            1,
            (VertexInfo("a", position=(0.25,)), VertexInfo("b", position=(0.25,))),
            (EdgeRecord(0, 1, (0,)),),
        )


def test_oriented_edges_include_inverses():
    spec = hexagonal()
    edges = oriented_edges(spec)
    assert len(edges) == 6
    indices = sorted(e.index for e in edges if e.tail == 0)
    assert indices == [(0, 0), (0, 1), (1, 0)]
    inverse = sorted(e.index for e in edges if e.tail == 1)
    assert inverse == [(-1, 0), (0, -1), (0, 0)]


def test_oriented_loop_comes_in_both_directions():
    spec = PeriodicGraphSpec(2, (VertexInfo("a"),), (EdgeRecord(0, 0, (1, 0)),))
    edges = oriented_edges(spec)
    assert sorted(e.index for e in edges) == [(-1, 0), (1, 0)]


def test_cubic_oriented_loops_span_axes():
    spec = cubic(3)
    edges = oriented_edges(spec)
    assert len(edges) == 6
    assert sorted(e.index for e in edges) == [
        (-1, 0, 0),
        (0, -1, 0),
        (0, 0, -1),
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
    ]


@pytest.mark.parametrize(
    "spec, expected",
    [
        (hexagonal(), (3, 3)),
        (bcc(), (8, 14)),
        (fcc(), (4, 4, 4, 18)),
        (star(2, 5), (1, 1, 1, 1, 8)),
        (bipartite_chain(2, 3), (4, 4, 4)),
    ],
)
def test_degrees(spec, expected):
    assert degrees(spec) == expected


def test_degree_sum_is_twice_edge_count():
    for spec in (hexagonal(), bcc(), fcc(), star(2, 4), subdivided(2, 2)):
        assert sum(degrees(spec)) == 2 * len(spec.edges)


@pytest.mark.parametrize(
    "spec, beta",
    [
        (cubic(1), 2),
        (cubic(2), 4),
        (cubic(3), 6),
        (hexagonal(), 4),
        (triangular(), 6),
        (bcc(), 20),
        (fcc(), 24),
        (subdivided(2, 1), 4),
        (subdivided(2, 3), 4),
    ],
)
def test_bridge_counts(spec, beta):
    count, bridges = bridge_count(spec)
    assert count == beta
    assert len(bridges) == beta


def test_bridge_count_invariant_under_relabeling():
    spec = fcc()
    perm = (2, 0, 3, 1)
    inverse = {old: new for new, old in enumerate(perm)}
    vertices = tuple(spec.vertices[old] for old in perm)
    edges = tuple(
        EdgeRecord(inverse[e.tail], inverse[e.head], e.index) for e in spec.edges
    )
    relabeled = PeriodicGraphSpec(3, vertices, edges)
    assert bridge_count(relabeled)[0] == bridge_count(spec)[0]
    theta = (0.3, 1.1, 2.0)
    assert np.allclose(eigs_at(relabeled, theta), eigs_at(spec, theta), atol=1e-12)


def test_shift_origin_identity():
    spec = hexagonal()
    assert shift_origin(spec, (0.0, 0.0)) == spec


def test_shift_origin_requires_positions():
    with pytest.raises(PreconditionError):
        shift_origin(star(2, 3), (0.1, 0.1))


def test_shift_origin_hexagonal_by_hand():
    # With the cell origin moved by (0.2, 0.2) both endpoints change integer
    # parts differently and every offset gains (1, 1).
    spec = hexagonal()
    shifted = shift_origin(spec, (0.2, 0.2))
    assert sorted(e.index for e in shifted.edges) == [(1, 1), (1, 2), (2, 1)]
    for theta in [(0.0, 0.0), (1.0, 2.0), (PI, PI)]:
        assert np.allclose(eigs_at(shifted, theta), eigs_at(spec, theta), atol=1e-9)


def test_shift_origin_keeps_loop_indices():
    rng = np.random.default_rng(4)
    for spec in (triangular(), bcc()):
        for _ in range(5):
            offset = rng.uniform(-2.0, 2.0, size=spec.dimension)
            shifted = shift_origin(spec, offset)
            original_loops = sorted(
                e.index for e in spec.edges if e.tail == e.head
            )
            shifted_loops = sorted(
                e.index for e in shifted.edges if e.tail == e.head
            )
            assert original_loops == shifted_loops


def test_shift_origin_round_trip_restores_indices():
    spec = hexagonal()
    offset = (0.37, 0.81)
    back = shift_origin(shift_origin(spec, offset), tuple(-b for b in offset))
    assert [e.index for e in back.edges] == [e.index for e in spec.edges]
    for a, b in zip(back.vertices, spec.vertices):
        assert np.allclose(a.position, b.position, atol=1e-12)


def test_connectivity_of_builtins():
    for spec in (cubic(1), cubic(3), hexagonal(), triangular(), bcc(), fcc(),
                 star(2, 3), subdivided(2, 2), bipartite_chain(2, 4)):
        assert is_connected_periodic(spec)


def test_disconnected_cover_detected():
    # Loop offsets (2, 0) and (0, 1) only span an index-2 sublattice.
    spec = PeriodicGraphSpec(
        2,
        (VertexInfo("a"),),
        (EdgeRecord(0, 0, (2, 0)), EdgeRecord(0, 0, (0, 1))),
    )
    assert not is_connected_periodic(spec)


def test_disconnected_quotient_detected():
    spec = PeriodicGraphSpec(
        1,
        (VertexInfo("a"), VertexInfo("b")),
        (EdgeRecord(0, 0, (1,)), EdgeRecord(1, 1, (1,))),
    )
    assert not is_connected_periodic(spec)


def test_fundamental_bipartite():
    assert fundamental_bipartite(hexagonal())
    assert not fundamental_bipartite(cubic(3))
    assert not fundamental_bipartite(star(2, 3))
    assert not fundamental_bipartite(triangular())
    assert fundamental_bipartite(subdivided(2, 1))


@settings(max_examples=150, deadline=None)
@given(quotients("general"))
def test_fundamental_bipartite_is_a_proper_two_coloring(spec):
    # Brute force over the 2^nu colorings, on the quotient and on its
    # loop-free part: the corpus puts a loop on every axis, so only the
    # second can be 2-colorable.
    loop_free = PeriodicGraphSpec(
        spec.dimension, spec.vertices, tuple(e for e in spec.edges if e.tail != e.head)
    )
    for graph in (spec, loop_free):
        expected = any(
            all(c[e.tail] != c[e.head] for e in graph.edges)
            for c in itertools.product((0, 1), repeat=graph.num_vertices)
        )
        assert fundamental_bipartite(graph) == expected


def test_periodic_bipartite_witnesses():
    flag, witness = periodic_bipartite(cubic(3))
    assert flag
    coloring, parity = witness
    assert coloring == (0,)
    assert parity == (1, 1, 1)
    assert not periodic_bipartite(fcc())[0]
    assert not periodic_bipartite(triangular())[0]
    assert periodic_bipartite(bipartite_chain(2, 5))[0]


def test_fundamental_bipartite_implies_periodic_with_zero_parity():
    spec = hexagonal()
    assert fundamental_bipartite(spec)
    flag, (coloring, parity) = periodic_bipartite(spec)
    assert flag
    # Zero parity must satisfy the system whenever the quotient 2-colors.
    for e in spec.edges:
        assert (coloring[e.tail] + coloring[e.head]) % 2 == 1 or any(parity)
    for e in spec.edges:
        assert (coloring[e.tail] + coloring[e.head] + sum(p * t for p, t in zip(parity, e.index))) % 2 == 1


def test_classify_cubic():
    cls = classify(cubic(3))
    assert cls.is_connected and cls.is_regular and cls.regular_degree == 6
    assert cls.is_loop_graph
    assert cls.precise_quasimomentum == (PI, PI, PI)
    assert cls.bridge_count == 6
    assert cls.periodic_bipartite and not cls.fundamental_bipartite


def test_classify_triangular_not_precise():
    cls = classify(triangular())
    assert cls.is_loop_graph
    assert cls.precise_quasimomentum is None


def test_classify_star_precise():
    cls = classify(star(3, 4))
    assert cls.is_loop_graph
    assert cls.precise_quasimomentum == (PI, PI, PI)
    assert cls.max_degree == 3 + 2 * 3


def test_classify_hexagonal_not_loop():
    cls = classify(hexagonal())
    assert not cls.is_loop_graph
    assert cls.precise_quasimomentum is None
    assert cls.fundamental_bipartite and cls.periodic_bipartite


def test_decorated_graph_keeps_loop_classification():
    base = triangular()
    attachment = FiniteGraph(3, ((0, 1), (1, 2)))
    spec = decorate(base, attachment, 0)
    cls = classify(spec)
    assert cls.is_loop_graph
    assert cls.precise_quasimomentum is None
    assert spec.num_vertices == base.num_vertices + 2


def test_with_potentials_replaces_values():
    spec = with_potentials(hexagonal(), (1.5, -1.5))
    assert spec.potentials() == (1.5, -1.5)
    with pytest.raises(ValidationError):
        with_potentials(hexagonal(), (1.0,))


def test_zero_index_only_spec_is_disconnected():
    # Without any cell-crossing edge the cover splits into one copy per cell.
    spec = PeriodicGraphSpec(
        1,
        (VertexInfo("a"), VertexInfo("b")),
        (EdgeRecord(0, 1, (0,)), EdgeRecord(0, 1, (0,))),
    )
    assert not is_connected_periodic(spec)


def test_bridgeless_quotient_classifies_at_the_zero_corner():
    # No bridge, so every bridge phase is vacuously -1 at theta = 0.
    spec = PeriodicGraphSpec(2, (VertexInfo("a"), VertexInfo("b")), (EdgeRecord(0, 1, (0, 0)),))
    cls = classify(spec)
    assert cls.precise_quasimomentum == (0.0, 0.0)
    assert not cls.is_connected
