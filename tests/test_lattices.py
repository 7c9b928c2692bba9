import numpy as np
import pytest

from graphbands import (
    ParameterError,
    ValidationError,
    bridge_count,
    classify,
    degrees,
    fiber_eigenvalues,
    is_connected_periodic,
)
from graphbands.graphio import serialize_graph
from graphbands.lattices import (
    FiniteGraph,
    bcc,
    bipartite_chain,
    builtin_catalog,
    cubic,
    decorate,
    fcc,
    hexagonal,
    parse_builtin,
    star,
    subdivided,
    triangular,
)


def test_bcc_shape():
    spec = bcc()
    assert degrees(spec) == (8, 14)
    assert len(spec.edges) == 11


def test_fcc_shape():
    spec = fcc()
    assert degrees(spec) == (4, 4, 4, 18)
    assert len(spec.edges) == 15


def test_star_hub_degree():
    spec = star(2, 5)
    assert degrees(spec)[-1] == 4 + 2 * 2
    assert all(d == 1 for d in degrees(spec)[:-1])


def test_every_builtin_has_connected_cover():
    for spec in (
        cubic(1),
        cubic(2),
        cubic(4),
        triangular(),
        hexagonal(),
        bcc(),
        fcc(),
        star(1, 2),
        star(3, 4),
        subdivided(2, 1),
        subdivided(3, 2),
        bipartite_chain(1, 2),
        bipartite_chain(2, 6),
    ):
        assert is_connected_periodic(spec)


def test_star_and_cubic_classify_precise():
    for d in (1, 2, 3):
        assert classify(cubic(d)).precise_quasimomentum == (np.pi,) * d
        assert classify(star(d, 3)).precise_quasimomentum == (np.pi,) * d
    assert classify(triangular()).precise_quasimomentum is None
    assert classify(triangular()).is_loop_graph


def test_generation_is_deterministic():
    assert serialize_graph(fcc()) == serialize_graph(fcc())
    assert serialize_graph(star(2, 4)) == serialize_graph(star(2, 4))
    assert fcc() == fcc()


def test_subdivided_bridge_count_independent_of_length():
    for d in (1, 2, 3):
        for n in (1, 2, 3):
            assert bridge_count(subdivided(d, n))[0] == 2 * d


def test_bipartite_chain_classification():
    cls = classify(bipartite_chain(2, 3))
    assert cls.is_regular and cls.regular_degree == 4
    assert cls.periodic_bipartite
    assert cls.is_loop_graph
    assert cls.precise_quasimomentum == (np.pi, np.pi)


def test_decorate_single_pendant_matches_star():
    decorated = decorate(cubic(2), FiniteGraph(2, ((0, 1),)), 0)
    reference = star(2, 2)
    assert sorted(degrees(decorated)) == sorted(degrees(reference))
    rng = np.random.default_rng(2)
    for _ in range(5):
        theta = rng.uniform(0.0, 2 * np.pi, size=2)
        a = fiber_eigenvalues(decorated, theta)
        b = fiber_eigenvalues(reference, theta)
        assert np.abs(a - b).max() < 1e-12


def test_decorate_star_shape():
    attachment = FiniteGraph(4, ((0, 1), (0, 2), (0, 3)))
    decorated = decorate(cubic(2), attachment, 0)
    reference = star(2, 4)
    assert sorted(degrees(decorated)) == sorted(degrees(reference))


def test_decorate_rejects_disconnected_attachment():
    with pytest.raises(ValidationError):
        decorate(cubic(2), FiniteGraph(3, ((0, 1),)), 0)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        cubic(0)
    with pytest.raises(ParameterError):
        star(2, 1)
    with pytest.raises(ParameterError):
        subdivided(2, 0)
    with pytest.raises(ParameterError):
        bipartite_chain(3, 4)


_PENDANT = FiniteGraph(2, ((0, 1),))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: star(0, 3), "star lattice needs dimension >= 1"),
        (lambda: subdivided(0, 2), "subdivided lattice needs dimension >= 1"),
        (lambda: bipartite_chain(2, 1), "bipartite chain needs at least 2 cell vertices"),
        (lambda: FiniteGraph(0, ()), "attachment graph needs at least one vertex"),
        (lambda: FiniteGraph(2, ((0, 2),)), "attachment edge references an invalid vertex"),
        (lambda: FiniteGraph(2, ((0, 1),), (1.0,)), "attachment potential count mismatch"),
        (lambda: decorate(cubic(2), _PENDANT, 1), "attach_vertex is out of range"),
        (lambda: decorate(cubic(2), _PENDANT, 0, 2), "glue_vertex is out of range"),
        (lambda: decorate(cubic(2), _PENDANT, -1), "attach_vertex is out of range"),
    ],
    ids=[
        "star-dimension-0",
        "subdivided-dimension-0",
        "bipartite-chain-nu-1",
        "finite-graph-size-0",
        "finite-graph-bad-edge",
        "finite-graph-potential-count",
        "decorate-attach-vertex",
        "decorate-glue-vertex",
        "decorate-negative-attach-vertex",
    ],
)
def test_parameter_error_names_the_parameter(make, message):
    with pytest.raises(ParameterError, match=message):
        make()


def test_scalar_potential_is_broadcast():
    assert cubic(2, q=1.5).potentials() == (1.5,)
    assert hexagonal(q=-2).potentials() == (-2.0, -2.0)


def test_decorate_puts_attachment_potentials_on_the_new_vertices():
    # The glue vertex is the base vertex, which keeps its own potential.
    attachment = FiniteGraph(3, ((0, 1), (1, 2)), potentials=(9.0, 2.0, -3.0))
    decorated = decorate(cubic(2, q=0.5), attachment, 0)
    assert decorated.potentials() == (0.5, 2.0, -3.0)
    glued_at_1 = decorate(cubic(2, q=0.5), attachment, 0, glue_vertex=1)
    assert glued_at_1.potentials() == (0.5, 9.0, -3.0)


def test_parse_builtin_roundtrip():
    assert parse_builtin("fcc") == fcc()
    assert parse_builtin("star(2, 3)") == star(2, 3)
    assert parse_builtin("cubic(3)") == cubic(3)
    with pytest.raises(ValidationError):
        parse_builtin("nosuch")
    with pytest.raises(ValidationError):
        parse_builtin("star(2)")
    with pytest.raises(ValidationError):
        parse_builtin("star(a,b)")


def test_builtin_catalog_is_stable():
    first = builtin_catalog()
    second = builtin_catalog()
    assert first == second
    signatures = [sig for sig, _ in first]
    assert "fcc" in signatures
    assert "star(d, nu)" in signatures
