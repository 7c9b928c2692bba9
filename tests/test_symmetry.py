"""The certified band-symmetry group and the orbit representatives it gives."""

import gc
import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphbands import EdgeRecord, NumericError, PeriodicGraphSpec, TorusGrid, VertexInfo
from graphbands import graphio, spectrum
from graphbands import symmetry
from graphbands.cli import main
from graphbands.symmetry import _AutomorphismSearch, _candidate_matrices, band_symmetry_group
from graphbands.lattices import (
    FiniteGraph,
    bcc,
    bipartite_chain,
    cubic,
    decorate,
    fcc,
    hexagonal,
    parse_builtin,
    star,
    subdivided,
    triangular,
)
from oracles import (
    ReferenceAutomorphismSearch,
    reference_band_symmetry_group,
    reference_representatives,
)
from quotients import FAMILIES, quotients, reverse_edges


def _edge_multiset(edges):
    # Reference: each unoriented edge counted under one orientation key.
    return Counter(
        min((tail, head, tuple(index)), (head, tail, tuple(-x for x in index)))
        for tail, head, index in edges
    )


def _maps_graph_onto_itself(spec, sym):
    if sym is None:  # the search found no certificate
        return False
    a = np.asarray(sym.matrix)
    shifts = np.asarray(sym.shifts)
    images = [
        (
            sym.perm[e.tail],
            sym.perm[e.head],
            tuple(int(x) for x in a @ e.index + shifts[e.head] - shifts[e.tail]),
        )
        for e in spec.edges
    ]
    potentials = spec.potentials()
    edges = [(e.tail, e.head, e.index) for e in spec.edges]
    return _edge_multiset(images) == _edge_multiset(edges) and all(
        potentials[sym.perm[u]] == potentials[u] for u in range(spec.num_vertices)
    )


def _decorated_hexagonal():
    # A pendant on one sublattice breaks the sublattice swap, -I among it.
    return decorate(hexagonal(), FiniteGraph(2, ((0, 1),)), 0)


@pytest.mark.parametrize(
    "spec, order",
    [
        (hexagonal(), 12),
        (triangular(), 12),
        (star(2, 6), 8),
        (subdivided(2, 4), 8),
        (star(2, 3), 8),
        (bipartite_chain(2, 3), 8),
        (fcc(), 48),
        (bcc(), 48),
        (cubic(3), 48),
        (subdivided(3, 3), 48),
        (hexagonal(q=(1.0, -1.0)), 6),
        (_decorated_hexagonal(), 6),
    ],
    ids=lambda x: str(x) if isinstance(x, int) else None,
)
def test_group_orders_of_the_builtins(spec, order):
    group = band_symmetry_group(spec)
    assert len(group) == len(set(group)) == order
    assert np.array_equal(group[0], np.eye(spec.dimension, dtype=int))
    search = _AutomorphismSearch(spec)
    assert all(_maps_graph_onto_itself(spec, search.find(a)) for a in group)


@pytest.mark.parametrize("spec", [hexagonal(q=(1.0, -1.0)), _decorated_hexagonal()])
def test_time_reversal_completes_a_group_without_minus_identity(spec):
    # |G| = 6 without -I; adding theta -> -theta gives the 12 of hexagonal.
    matrices = band_symmetry_group(spec)
    assert ((-1, 0), (0, -1)) not in matrices
    assert len(TorusGrid(2, 96).representatives(matrices)[0]) == 817


def test_shear_is_rejected_for_hexagonal():
    shear = ((1, 1), (0, 1))
    assert _AutomorphismSearch(hexagonal()).find(shear) is None
    assert shear not in band_symmetry_group(hexagonal())


@pytest.mark.parametrize(
    "spec, orbits",
    [(hexagonal(), 817), (star(2, 6), 1225), (subdivided(2, 4), 1225), (fcc(), 455)],
)
def test_orbit_counts_on_the_default_grids(spec, orbits):
    grid = TorusGrid.default_for(spec.dimension)
    group = spectrum._orbit_group(spec, grid, ("schrodinger",))[0]
    assert len(grid.representatives(group)[0]) == orbits


def test_no_symmetry_beyond_time_reversal_gives_the_half_torus():
    # Distinct potentials and a lopsided edge set leave only +-I.
    spec = PeriodicGraphSpec(
        2,
        (VertexInfo("a", 0.0), VertexInfo("b", 1.0)),
        tuple(
            EdgeRecord(0, 1, n) for n in ((0, 0), (1, 0), (0, 1), (1, 1))
        ) + (EdgeRecord(0, 0, (1, 2)),),
    )
    group = band_symmetry_group(spec)
    assert group == (((1, 0), (0, 1)), ((-1, 0), (0, -1)))
    for m in (12, 13, 96):
        grid = TorusGrid(2, m)
        for ours, half in zip(grid.representatives(group), grid.representatives()):
            assert ours.tobytes() == half.tobytes()


@pytest.mark.parametrize("spec, m", [(hexagonal(), 96), (triangular(), 13), (fcc(), 7), (cubic(1), 9)])
def test_orbit_map_is_the_same_in_32_and_64_bit_indices(monkeypatch, spec, m):
    # And in 16-bit ones: each of these grids has at most 2^15 - 1 points.
    grid = TorusGrid(spec.dimension, m)
    group = band_symmetry_group(spec)
    narrow = grid.representatives(group)
    # A grid reported above 2^15 - 1 points takes the int32 path, and one
    # above 2^31 - 1 the intp path.
    monkeypatch.setattr(TorusGrid, "size", property(lambda self: 2**15))
    middle = grid.representatives(group)
    monkeypatch.setattr(TorusGrid, "size", property(lambda self: 2**31))
    wide = grid.representatives(group)
    assert narrow[1].dtype == np.int16
    assert middle[1].dtype == np.int32 and wide[1].dtype == np.intp
    assert np.array_equal(narrow[1], middle[1]) and np.array_equal(narrow[1], wide[1])
    assert narrow[0].tobytes() == middle[0].tobytes() == wide[0].tobytes()


@pytest.mark.parametrize(
    "spec, found, failed",
    [
        (fcc(), 3, 0),
        (bcc(), 3, 0),
        (cubic(3), 3, 0),
        (subdivided(3, 3), 3, 0),
        # 2-D: the searches of the table order, which the 2-D table keeps.
        (hexagonal(), 3, 4),
        (triangular(), 3, 7),
        (star(2, 6), 3, 9),
        (subdivided(2, 4), 3, 9),
        (star(2, 3), 3, 9),
        (bipartite_chain(2, 3), 3, 9),
    ],
    ids=lambda x: str(x) if isinstance(x, int) else None,
)
def test_certificate_searches_per_group(monkeypatch, spec, found, failed):
    # The 3-D table tries the elements of highest order first, so three
    # successful searches certify the 48 elements of the cube's group.
    searches = Counter()
    find = _AutomorphismSearch.find

    def counted(self, matrix):
        result = find(self, matrix)
        searches[result is not None] += 1
        return result

    monkeypatch.setattr(_AutomorphismSearch, "find", counted)
    band_symmetry_group(spec)
    assert searches[True] <= found and searches[False] <= failed


def test_candidate_tables_are_built_once():
    assert _candidate_matrices(3) is _candidate_matrices(3)
    assert len(_candidate_matrices(2)) == 24 and len(set(_candidate_matrices(3))) == 48


def test_a_false_certificate_stops_the_closure_at_the_size_bound(monkeypatch, capsys):
    # A search that certifies every candidate lets the 2-D closure multiply
    # matrices whose products have infinite order.  The closure must stop at
    # 12 elements, after a few products, not grow without end.
    products = 0
    matmul = symmetry._matmul

    def counted(left, right):
        nonlocal products
        products += 1
        assert products < 10_000, "the closure does not stop"
        return matmul(left, right)

    monkeypatch.setattr(symmetry, "_matmul", counted)
    monkeypatch.setattr(_AutomorphismSearch, "_consistent", lambda *args: True)
    with pytest.raises(NumericError, match="2-D graph reached [0-9]+ matrices, more than the 12"):
        band_symmetry_group(cubic(2))
    # A full-grid dispersion runs the search; the CLI ends with one error line.
    assert main(["dispersion", "--builtin", "cubic(2)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: band-symmetry group") and captured.err.count("\n") == 1


@pytest.mark.parametrize("spec, m", [(fcc(), 24), (hexagonal(), 13), (cubic(1), 9)])
def test_orbit_map_leaves_no_reference_cycles(spec, m):
    # Its arrays are freed on return, not kept until the collector runs.
    grid = TorusGrid(spec.dimension, m)
    group = band_symmetry_group(spec)
    gc.collect()
    gc.disable()
    try:
        grid.representatives(group)
        grid.representatives()
        assert gc.collect() == 0
    finally:
        gc.enable()


BUILTIN_IDS = (
    "hexagonal", "bcc", "fcc", "triangular", "subdivided(2,4)", "subdivided(3,3)", "star(2,6)", "cubic(3)"
)


@pytest.mark.parametrize("builtin", BUILTIN_IDS)
def test_every_builtin_has_an_inversion(builtin):
    spec = parse_builtin(builtin)
    group, inversion = symmetry.band_symmetries(spec)
    assert group == band_symmetry_group(spec)
    assert inversion.is_inversion and inversion.matrix in group
    assert len(inversion.perm) == spec.num_vertices


def test_a_graph_without_minus_identity_has_no_inversion():
    # A pendant path glued on one honeycomb vertex breaks the swap of the
    # two sublattices, and with it every certificate of -I.
    spec = decorate(hexagonal(), FiniteGraph(3, ((0, 1), (1, 2))), 0)
    group, inversion = symmetry.band_symmetries(spec)
    assert ((-1, 0), (0, -1)) not in group and inversion is None


def test_small_grids_skip_the_search(monkeypatch):
    monkeypatch.setattr(symmetry, "band_symmetry_group", lambda spec: pytest.fail("searched"))
    assert spectrum._orbit_group(fcc(), TorusGrid(3, 12), ("schrodinger",)) == ((), None)


PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@PROPERTY_SETTINGS
@given(quotients())
def test_every_certified_element_is_an_automorphism(spec):
    group = band_symmetry_group(spec)
    matrices = set(group)
    assert len(matrices) == len(group)
    # Every matrix, products included, gets its own certificate from the
    # search, checked against the reference multiset.
    search = _AutomorphismSearch(spec)
    for a in group:
        assert _maps_graph_onto_itself(spec, search.find(a))
        assert round(abs(np.linalg.det(np.asarray(a, dtype=float)))) == 1
    # Closed under products: a group, as `representatives` requires.
    for x in matrices:
        for y in matrices:
            assert tuple(map(tuple, np.asarray(x) @ np.asarray(y))) in matrices


@PROPERTY_SETTINGS
@given(quotients(), st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3))
def test_spectra_agree_at_theta_and_its_images(spec, theta):
    theta = np.asarray(theta[: spec.dimension])
    images = [
        np.linalg.solve(np.asarray(a, dtype=float).T, theta)
        for a in band_symmetry_group(spec)
    ]
    for kind in ("schrodinger", "laplacian"):
        values = spectrum.grid_eigenvalues(spec, np.vstack([theta] + images), kind)
        assert np.abs(values - values[0]).max() <= 1e-12


@PROPERTY_SETTINGS
@given(quotients(), st.integers(2, 6))
def test_orbit_minima_give_the_half_torus_envelopes(spec, m):
    grid = TorusGrid(spec.dimension, m if spec.dimension < 3 else min(m, 4))
    group = band_symmetry_group(spec)
    half = grid.representatives()[0]
    orbit = grid.representatives(group)[0]
    kept = set(map(tuple, half.tolist()))
    assert all(tuple(row) in kept for row in orbit.tolist())
    lows, highs, argmins, argmaxs, _ = spectrum._envelopes(
        orbit, spectrum.grid_eigenvalues(spec, orbit, "schrodinger")
    )
    ref_lows, ref_highs, ref_argmins, ref_argmaxs, _ = spectrum._envelopes(
        half, spectrum.grid_eigenvalues(spec, half, "schrodinger")
    )
    assert np.abs(lows - ref_lows).max() <= 1e-12
    assert np.abs(highs - ref_highs).max() <= 1e-12
    assert argmins == ref_argmins and argmaxs == ref_argmaxs


def _rows_of(points, subset):
    rows = {row: i for i, row in enumerate(map(tuple, points.tolist()))}
    return np.array([rows[row] for row in map(tuple, subset.tolist())])


@PROPERTY_SETTINGS
@given(quotients(), st.integers(2, 7))
def test_orbit_index_spreads_representative_solves_over_the_grid(spec, m):
    grid = TorusGrid(spec.dimension, m if spec.dimension < 3 else min(m, 5))
    m = grid.points_per_axis
    points = grid.points()
    # In units of pi/m, grid points and the pi corners of odd grids alike
    # have integer coordinates mod 2m, on which +-A^{-T} acts linearly.
    units = np.rint(points * m / np.pi).astype(int) % (2 * m)
    direct = {
        kind: spectrum.grid_eigenvalues(spec, points, kind)
        for kind in ("schrodinger", "laplacian")
    }
    for group in (band_symmetry_group(spec), ()):
        reps, index, rows = grid.representatives(group)
        assert rows.tobytes() == points.tobytes()
        assert index.shape == (len(points),)
        images = [
            np.rint(sign * np.linalg.inv(np.asarray(a, dtype=float)).T).astype(int)
            for a in group or [np.eye(spec.dimension, dtype=int)]
            for sign in (1, -1)
        ]
        rep_units = np.rint(reps * m / np.pi).astype(int) % (2 * m)
        for point, rep in zip(units, rep_units[index]):
            assert tuple(rep) in {tuple(image @ point % (2 * m)) for image in images}
        # Kept points represent themselves, and a representative comes no
        # later in grid order than the points it stands for.
        kept = _rows_of(points, reps)
        assert np.array_equal(index[kept], np.arange(len(reps)))
        assert (kept[index] <= np.arange(len(points))).all()
        for kind, values in direct.items():
            spread = spectrum.grid_eigenvalues(spec, reps, kind)[index]
            assert np.abs(spread - values).max() <= 1e-12 * (1.0 + np.abs(values).max())


def test_a_disconnected_cover_gets_the_identity_alone(tmp_path, capsys, calls):
    # Loops along axis 1 only: the cover is one chain per row of cells.
    document = {
        "format_version": 1,
        "dimension": 2,
        "vertices": [{"label": "a", "q": 0.0}, {"label": "b", "q": 0.0}],
        "edges": [
            {"tail": 0, "head": 0, "index": [1, 0]},
            {"tail": 1, "head": 1, "index": [1, 0]},
            {"tail": 0, "head": 1, "index": [0, 0]},
        ],
    }
    path = tmp_path / "chains.json"
    path.write_text(json.dumps(document))
    spec = graphio.load_graph(path)
    grid = TorusGrid.default_for(2)
    # The default grid is above the search threshold, so the search runs.
    groups = calls(symmetry, "band_symmetry_group")
    assert spectrum._orbit_group(spec, grid, ("schrodinger",)) == ((((1, 0), (0, 1)),), None)
    assert len(groups) == 1

    assert main(["dispersion", str(path)]) == 0
    assert len(groups) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9217
    table = np.array([line.split("\t") for line in lines[1:]], dtype=float)
    points = grid.points()
    assert np.array_equal(table[:, :2], points)
    direct = spectrum.grid_eigenvalues(spec, points, "schrodinger")
    scale = np.abs(direct).max()
    assert np.abs(table[:, 2:] - direct).max() <= 1e-12 * (1.0 + scale)

    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: periodic cover is disconnected\n"


def test_importing_the_cli_leaves_the_search_unloaded():
    # The search module is imported on the first grid that needs it, so a
    # start-up does not compile it.
    src = os.path.dirname(os.path.dirname(spectrum.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, graphbands.cli; sys.exit('graphbands.symmetry' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@PROPERTY_SETTINGS
@given(quotients())
def test_search_matches_the_reference_search(spec):
    group = band_symmetry_group(spec)
    reference = reference_band_symmetry_group(spec)
    assert group[0] == reference[0]
    assert len(group) == len(reference) and set(group) == set(reference)


@PROPERTY_SETTINGS
@given(quotients(), st.integers(2, 40), st.booleans())
def test_orbit_map_matches_the_reference_orbit_map(spec, m, with_group):
    # Even and odd m, d <= 3, with the drawn graph's group or with time
    # reversal alone.
    grid = TorusGrid(spec.dimension, m)
    group = band_symmetry_group(spec) if with_group else ()
    theta, index, points = grid.representatives(group)
    ref_theta, ref_index, ref_points = reference_representatives(grid, group)
    assert theta.tobytes() == ref_theta.tobytes()
    assert points.tobytes() == ref_points.tobytes()
    assert np.array_equal(index, ref_index)
    assert index.dtype == (np.int16 if grid.size < 2**15 else np.int32)


@PROPERTY_SETTINGS
@given(quotients())
def test_each_candidate_search_agrees_with_the_reference_search(spec):
    # The placement checks are the certificate: whatever the search returns
    # maps the graph onto itself, and it finds a symmetry for every matrix
    # the reference search, which also checks the whole edge multiset, does.
    search, reference = _AutomorphismSearch(spec), ReferenceAutomorphismSearch(spec)
    for a in _candidate_matrices(spec.dimension):
        found = search.find(a)
        assert (found is None) == (reference.find(a) is None)
        assert found is None or _maps_graph_onto_itself(spec, found)


def _edges_mapped(spec, edge, vertices=None):
    return PeriodicGraphSpec(
        spec.dimension,
        spec.vertices if vertices is None else vertices,
        tuple(EdgeRecord(*edge(e.tail, e.head, e.index)) for e in spec.edges),
    )


@pytest.mark.parametrize("family", FAMILIES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_relabelling_reversal_shifts_and_bases_keep_groups_and_spectra(family, data):
    spec = data.draw(quotients(family))
    d, nv = spec.dimension, spec.num_vertices
    perm = data.draw(st.permutations(range(nv)))
    shifts = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=nv, max_size=nv))
    basis = np.asarray(data.draw(st.sampled_from(_candidate_matrices(d))))
    thetas = data.draw(st.lists(st.floats(-np.pi, np.pi), min_size=3 * d, max_size=3 * d))
    thetas = np.reshape(thetas, (3, d))
    vertices = [None] * nv
    for j, vertex in enumerate(spec.vertices):
        vertices[perm[j]] = vertex
    # Three descriptions of the same periodic graph: relabelled vertices,
    # reversed edges (t, h, n) -> (h, t, -n), and vertex j moved by shifts[j].
    same = [
        _edges_mapped(spec, lambda t, h, n: (perm[t], perm[h], n), tuple(vertices)),
        reverse_edges(spec),
        _edges_mapped(spec, lambda t, h, n: (t, h, np.add(n, shifts[h]) - shifts[t])),
    ]
    # Indices B n give H_B(theta) = H(B^T theta).  The 2-D group is searched
    # in a fixed candidate table, so it is not basis-covariant: spectra only.
    based = _edges_mapped(spec, lambda t, h, n: (t, h, basis @ n))
    for kind in ("schrodinger", "laplacian", "normalized"):
        values = spectrum.grid_eigenvalues(spec, thetas, kind)
        cases = [(other, values) for other in same]
        cases.append((based, spectrum.grid_eigenvalues(spec, thetas @ basis, kind)))
        for other, expected in cases:
            error = spectrum.grid_eigenvalues(other, thetas, kind) - expected
            assert np.abs(error).max() <= 1e-12 * (1.0 + np.abs(expected).max())
    group = set(band_symmetry_group(spec))
    assert all(set(band_symmetry_group(other)) == group for other in same)
