"""Independent reference computations used to cross-check the package.

The eigenvalue oracle tridiagonalizes with Householder reflectors and then
locates eigenvalues by bisection on the Sturm sign count, sharing no code
path with the LAPACK solver under test (`np.linalg.eigvalsh`).  The
closed-form characteristic polynomials are hand-derived for the built-in
lattices.  The fluctuation split writes a fiber as its torus average plus
its bridge part, and the origin shift re-expresses a quotient in a cell
whose origin has moved, for the invariance tests.  The statement checks at
the end (first-band nondegeneracy, flat-band blocks, strong coupling, the
honeycomb's conical point) are paper statements that no report row
verifies; they sample the theta, -theta pairs of the default grid and
assert what the paper guarantees.  `reference_dumps` is the report writer
as it was before `graphio.dumps` wrote in one typed pass: a recursive
writer with an `isinstance` chain per scalar, kept as the reference its
output and errors must match.  `reference_refine_extremum` is the band-edge
descent with one fiber solve per trial, the schedule whose bits the batched
`spectrum._refine_extrema` must reproduce.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections import Counter
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from graphbands import (
    EdgeRecord,
    NumericError,
    ParameterError,
    PeriodicGraphSpec,
    PreconditionError,
    TorusGrid,
    ValidationError,
    compute_band_structure,
    degrees,
)
from graphbands.floquet import TWO_PI, _theta_rows, fiber_stack
from graphbands.graph import is_connected_periodic, oriented_edges
from graphbands.graphio import format_float
from graphbands.lattices import hexagonal
from graphbands.spectrum import REFINE_ITERATIONS, _flat_groups, _rounding_tol, grid_eigenvalues


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


# Statement checks.


ENTRY_VARIATION_TOL = 1e-9


def fluctuation_split(spec, theta):
    """Split the Schroedinger fiber into its torus average plus the bridge part.

    The average keeps the full degrees and potentials but only zero-index
    edges (every cell-crossing phase integrates to zero); the remainder
    collects -exp(i <index, theta>) over bridges only.  Their sum rebuilds
    the fiber exactly.  Returns the (mean, fluct) pair of nu x nu matrices.
    """
    nv = spec.num_vertices
    thetas = _theta_rows(spec, theta)[:1]

    def adjacency(edges):
        part = PeriodicGraphSpec(spec.dimension, spec.vertices, tuple(edges))
        return fiber_stack(part, thetas, "adjacency")[0]

    mean = -adjacency(e for e in spec.edges if not any(e.index))
    fluct = -adjacency(e for e in spec.edges if any(e.index))
    idx = np.arange(nv)
    mean[idx, idx] += np.asarray(degrees(spec), dtype=float)
    mean[idx, idx] += np.asarray(spec.potentials())
    return mean, fluct


def shift_origin(spec: PeriodicGraphSpec, offset) -> PeriodicGraphSpec:
    """Re-express the quotient graph in a coordinate system moved by `offset`.

    Positions become fractional parts of (position - offset) and each edge
    index picks up the difference of the integer parts at its endpoints.
    Loop indices never change.
    """
    if any(v.position is None for v in spec.vertices):
        raise PreconditionError("positions required: every vertex needs one to shift the origin")
    shift = tuple(float(x) for x in offset)
    if len(shift) != spec.dimension:
        raise ParameterError(f"shift vector has length {len(shift)}, expected {spec.dimension}")
    floors = []
    new_vertices = []
    for vertex in spec.vertices:
        moved = tuple(p - b for p, b in zip(vertex.position, shift))
        floor = tuple(math.floor(x) for x in moved)
        floors.append(floor)
        new_vertices.append(replace(vertex, position=tuple(x - f for x, f in zip(moved, floor))))
    new_edges = []
    for e in spec.edges:
        delta = tuple(t + fh - ft for t, fh, ft in zip(e.index, floors[e.head], floors[e.tail]))
        new_edges.append(EdgeRecord(e.tail, e.head, delta))
    return PeriodicGraphSpec(spec.dimension, tuple(new_vertices), tuple(new_edges))


def _pairs(spec) -> np.ndarray:
    """The theta, -theta representatives of the default grid."""
    return TorusGrid.default_for(spec.dimension).representatives()[0]


def check_first_band_nondegenerate(spec):
    """(entry-modulus variation found, first band open).

    A varying entry modulus forces an open first band; the converse can fail,
    so both flags are returned.  The implication itself is asserted.
    """
    moduli = np.abs(fiber_stack(spec, _pairs(spec), "laplacian"))
    condition = bool((moduli.max(axis=0) - moduli.min(axis=0) > ENTRY_VARIATION_TOL).any())
    nondegenerate = bool(compute_band_structure(spec).bands[0].width > ENTRY_VARIATION_TOL)
    assert nondegenerate or not condition, "an entry modulus varies but the first band is flat"
    return condition, nondegenerate


def check_flat_band_block(spec, split, kind="schrodinger"):
    """Constant eigenvalues of the fiber block on `split` force flat bands.

    `split` leaves out one border vertex.  Every constant block eigenvalue of
    multiplicity m >= 2 is returned as (value, m), after asserting that the
    full operator has a flat band there of multiplicity at least m - 1.
    """
    split = list(split)
    values = np.linalg.eigvalsh(fiber_stack(spec, _pairs(spec), kind)[:, split][:, :, split])
    lows, highs = values.min(axis=0), values.max(axis=0)
    _, groups = _flat_groups(lows.tolist(), highs.tolist(), _rounding_tol(lows, highs))
    found = tuple((value, mult) for value, mult in groups if mult >= 2)
    flats = compute_band_structure(spec, kind).flat_bands
    for value, mult in found:
        assert any(
            abs(fb.value - value) <= 1e-6 and fb.multiplicity >= mult - 1 for fb in flats
        ), f"block eigenvalue {value} of multiplicity {mult} is not a flat band"
    return found


class LargeCouplingReport(NamedTuple):
    """Spectrum of the strongly coupled operator versus its two-term expansion."""

    band_sum_limit: float
    spectrum_measure: float
    max_deviation: float


def large_coupling_analysis(spec, t: float) -> LargeCouplingReport:
    """Compare the bands of L + t*Q, for pairwise distinct potentials Q,
    with the expansion t*q_n + L_nn(theta) - (1/t) sum_j |L_jn|^2 / (q_j - q_n).
    """
    potentials = np.asarray(spec.potentials())
    lap = fiber_stack(spec, _pairs(spec), "laplacian")
    idx = np.arange(spec.num_vertices)
    coupled = lap.copy()
    coupled[:, idx, idx] += t * potentials
    values = np.linalg.eigvalsh(coupled)

    expansion = np.empty_like(values)
    for rank, vertex in enumerate(np.argsort(potentials, kind="stable")):
        others = idx != vertex
        correction = (
            np.abs(lap[:, others, vertex]) ** 2 / (potentials[others] - potentials[vertex])
        ).sum(axis=1)
        expansion[:, rank] = t * potentials[vertex] + lap[:, vertex, vertex].real - correction / t
    diagonal = lap[:, idx, idx].real
    limit = float((diagonal.max(axis=0) - diagonal.min(axis=0)).sum())

    # Measure of the union of the band intervals.
    measure, top = 0.0, -math.inf
    for low, high in zip(values.min(axis=0), values.max(axis=0)):
        measure += max(high - max(low, top), 0.0)
        top = max(top, high)
    return LargeCouplingReport(limit, float(measure), float(np.abs(values - expansion).max()))


class DiracConeReport(NamedTuple):
    """Quadratic-remainder audit of the conical touching in the honeycomb fiber."""

    max_error: float
    max_error_half: float
    ratio: float
    touch_eigenvalues: tuple[float, float]


def dirac_expansion_check(q1: float, radius: float, samples: int = 64) -> DiracConeReport:
    """Expand the honeycomb fiber around its conical point.

    With staggered potential (q1, -q1) the fiber equals 3*I plus the 2-D
    Dirac symbol sigma_1 t_1 + sigma_2 t_2 + q1 sigma_3 up to O(|t|^2); this
    measures the remainder on circles |t| = radius and radius/2.
    """
    spec = hexagonal(q=(q1, -q1))
    cone = np.array([TWO_PI / 3.0, -TWO_PI / 3.0])
    touch = np.linalg.eigvalsh(fiber_stack(spec, cone[None], "schrodinger")[0])
    root3 = math.sqrt(3.0)

    def ring_max(r: float) -> float:
        angles = TWO_PI * np.arange(samples) / samples
        t1 = r * np.cos(angles)
        t2 = r * np.sin(angles)
        # Inverse of t1 = sqrt(3)(s1 - s2)/2, t2 = -(s1 + s2)/2, the linear
        # momentum map under which the off-diagonal entry is t1 - i*t2 up to
        # quadratic terms.
        thetas = cone + np.stack([t1 / root3 - t2, -t1 / root3 - t2], axis=-1)
        dirac = np.empty((angles.size, 2, 2), dtype=complex)
        dirac[:, 0, 0] = q1
        dirac[:, 0, 1] = t1 - 1j * t2
        dirac[:, 1, 0] = t1 + 1j * t2
        dirac[:, 1, 1] = -q1
        delta = fiber_stack(spec, thetas, "schrodinger") - 3.0 * np.eye(2) - dirac
        return float(np.sqrt((np.abs(delta) ** 2).sum(axis=(1, 2))).max(initial=0.0))

    max_error = ring_max(radius)
    max_error_half = ring_max(radius / 2.0)
    ratio = max_error_half / max_error if max_error > 0.0 else math.nan
    return DiracConeReport(max_error, max_error_half, ratio, (float(touch[0]), float(touch[1])))


def path_points_per_sample(waypoints, samples: int) -> np.ndarray:
    """The sampled `dispersion --path`, one row per sample: sample j of the
    segment from a to b is a + (b - a) * (j / samples), and the last waypoint
    closes the path."""
    rows = []
    for start, stop in zip(waypoints, waypoints[1:]):
        start = np.asarray(start, dtype=float)
        stop = np.asarray(stop, dtype=float)
        for j in range(samples):
            rows.append(start + (stop - start) * (j / samples))
    rows.append(np.asarray(waypoints[-1], dtype=float))
    return np.asarray(rows)


def reference_dumps(document) -> str:
    """Render a JSON document with deterministic float formatting."""
    pieces: list[str] = []
    _emit(document, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def _located(exc: NumericError, step: str) -> NumericError:
    """`exc` with `step` prefixed to the report path its message ends with."""
    message, _, path = str(exc).partition(" at ")
    return NumericError(f"{message} at {step}{path}")


def _emit(node, out: list[str], depth: int) -> None:
    """Append the text of `node`.  A NumericError raised below names the
    path of the value it failed on, such as `flat_bands[2].value`."""
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if isinstance(node, dict):
        if not node:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(node.items()):
            out.append(f"{inner}{json.dumps(str(key))}: ")
            try:
                _emit(value, out, depth + 1)
            except NumericError as exc:
                raise _located(exc, f".{key}" if depth else str(key)) from None
            out.append(",\n" if i < len(node) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(node, (list, tuple)):
        if not node:
            out.append("[]")
            return
        flat = all(not isinstance(x, (dict, list, tuple)) for x in node)
        if flat:
            try:
                out.append("[" + ", ".join(_scalar(x) for x in node) + "]")
            except NumericError as exc:
                bad = next(
                    i for i, x in enumerate(node) if isinstance(x, float) and not math.isfinite(x)
                )
                raise _located(exc, f"[{bad}]") from None
            return
        out.append("[\n")
        for i, value in enumerate(node):
            out.append(inner)
            try:
                _emit(value, out, depth + 1)
            except NumericError as exc:
                raise _located(exc, f"[{i}]") from None
            out.append(",\n" if i < len(node) - 1 else "\n")
        out.append(pad + "]")
    else:
        out.append(_scalar(node))


def _scalar(node) -> str:
    if node is None:
        return "null"
    if isinstance(node, bool):
        return "true" if node else "false"
    if isinstance(node, int):
        return str(node)
    if isinstance(node, float):
        return format_float(node)
    if isinstance(node, str):
        return json.dumps(node)
    raise ValidationError(f"cannot serialize value of type {type(node).__name__}")


def reference_refine_extremum(spec, kind, branch, theta, step, want_max, inversion=None):
    """(edge, extremizer) of branch `branch` of `kind` after the coordinate
    descent from `theta` with initial step `step`, one trial per solve, of
    the fibers in the basis of `inversion` (`floquet.fiber_stack`).

    REFINE_ITERATIONS sweeps of +step and -step along each axis in turn; a
    trial that lowers lambda_branch (raises it when `want_max`) is taken, and
    a sweep that takes none halves the step.
    """
    theta = np.asarray(theta, dtype=float).copy()
    sign = -1.0 if want_max else 1.0
    best = sign * grid_eigenvalues(spec, theta[None], kind, inversion=inversion)[0, branch]
    for _ in range(REFINE_ITERATIONS):
        moved = False
        for axis in range(theta.shape[0]):
            for delta in (step, -step):
                trial = theta.copy()
                trial[axis] += delta
                values = grid_eigenvalues(spec, trial[None], kind, inversion=inversion)
                value = sign * values[0, branch]
                if value < best:
                    best = value
                    theta = trial
                    moved = True
        if not moved:
            step *= 0.5
    return sign * best, tuple(float(x) for x in theta)


# Reference orbit map and band-symmetry search: the implementations from
# before the orbit map shared partial sums and the search mapped each edge
# index once per candidate, kept so that the package's must return the same
# theta bytes, index and matrix set.


def reference_representatives(grid: TorusGrid, group=()):
    """(theta, index, points) of `TorusGrid.representatives`: one full-grid
    term per (image row, coordinate) and one full pass per image."""
    pts = grid.points()
    m, d = grid.points_per_axis, grid.dimension
    strides = [m ** (d - 1 - j) for j in range(d)]
    identity = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    images = {tuple(zip(*matrix)) for matrix in group} | {identity}
    images |= {tuple(tuple(-x for x in row) for row in matrix) for matrix in images}
    images.discard(identity)
    dtype = np.int32 if grid.size <= np.iinfo(np.int32).max else np.intp
    shape = (m,) * d
    axis = np.arange(m)
    terms = {}
    for row, j in {(row, j) for matrix in images for j, row in enumerate(matrix)}:
        coordinate = sum(
            (c * axis % m).astype(dtype).reshape([m if i == s else 1 for i in range(d)])
            for s, c in enumerate(row)
            if c
        )
        term = np.empty(shape, dtype=dtype)
        term[...] = coordinate % m * strides[j]
        terms[row, j] = term.ravel()
    orbit_min = np.arange(m**d, dtype=dtype)
    buffer = np.empty(m**d, dtype=dtype)
    for matrix in images:
        image = terms[matrix[0], 0]
        for j in range(1, d):
            image = np.add(image, terms[matrix[j], j], out=buffer)
        np.minimum(orbit_min, image, out=orbit_min)
    keep = np.ones(pts.shape[0], dtype=bool)
    keep[: m**d] = orbit_min == np.arange(m**d, dtype=dtype)
    index = np.cumsum(keep, dtype=dtype) - 1
    index[: m**d] = index[orbit_min]
    return pts[keep], index, pts


def _ref_matvec(matrix, vector):
    return tuple(sum(map(operator.mul, row, vector)) for row in matrix)


def _ref_matmul(left, right):
    columns = tuple(zip(*right))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in columns) for row in left)


def reference_candidate_matrices(dimension: int) -> list:
    """The 24 finite-order matrices with entries in {-1, 0, 1} in 2-D, else
    the signed permutations, in the order the reference search tries them."""
    if dimension == 2:
        return [
            ((a, b), (c, d))
            for a, b, c, d in itertools.product((-1, 0, 1), repeat=4)
            if (a * d - b * c == -1 and a + d == 0)
            or (a * d - b * c == 1 and (abs(a + d) <= 1 or (b == c == 0 and a == d)))
        ]
    return [
        tuple(
            tuple(sign if col == p else 0 for col in range(dimension))
            for p, sign in zip(perm, signs)
        )
        for perm in itertools.permutations(range(dimension))
        for signs in itertools.product((1, -1), repeat=dimension)
    ]


def _ref_canonical_edge(tail, head, index):
    return min((tail, head, index), (head, tail, tuple(-x for x in index)))


class ReferenceAutomorphismSearch:
    """The backtracking search of `symmetry._AutomorphismSearch`, mapping
    each edge index through the matrix wherever it is read."""

    def __init__(self, spec: PeriodicGraphSpec):
        nv = spec.num_vertices
        self.zero = (0,) * spec.dimension
        deg = degrees(spec)
        self.vertex_class = [(v.potential, deg[j]) for j, v in enumerate(spec.vertices)]
        self.out = [[] for _ in range(nv)]
        self.between = [{} for _ in range(nv)]
        for e in oriented_edges(spec):
            self.out[e.tail].append((e.head, e.index))
            self.between[e.tail].setdefault(e.head, []).append(e.index)
        for row in self.between:
            for indices in row.values():
                indices.sort()
        self.edges = sorted(_ref_canonical_edge(e.tail, e.head, e.index) for e in spec.edges)
        sizes = Counter(self.vertex_class)
        root = min(range(nv), key=lambda v: (sizes[self.vertex_class[v]], v))
        self.order = [root]
        self.tree = {}
        stack = [(root, iter(self.out[root]))]
        while stack:
            for w, n in stack[-1][1]:
                if w not in self.tree and w != root:
                    self.tree[w] = (stack[-1][0], n)
                    self.order.append(w)
                    stack.append((w, iter(self.out[w])))
                    break
            else:
                stack.pop()

    def _options(self, depth, matrix, perm, shifts, used):
        v = self.order[depth]
        if depth == 0:
            same = [w for w in range(len(perm)) if self.vertex_class[w] == self.vertex_class[v]]
            return iter([(w, self.zero) for w in same])
        parent, n = self.tree[v]
        image_n = _ref_matvec(matrix, n)
        options = {}
        for w, m in self.out[perm[parent]]:
            if not used[w] and self.vertex_class[w] == self.vertex_class[v]:
                shift = tuple(a - b + c for a, b, c in zip(m, image_n, shifts[parent]))
                options.setdefault((w, shift), None)
        return iter(options)

    def _consistent(self, v, matrix, perm, shifts) -> bool:
        w, tv = perm[v], shifts[v]
        target = self.between[w]
        for u, indices in self.between[v].items():
            if perm[u] < 0:
                continue
            tu = shifts[u]
            mapped = sorted(
                tuple(a + b - c for a, b, c in zip(_ref_matvec(matrix, n), tu, tv))
                for n in indices
            )
            if mapped != target.get(perm[u]):
                return False
        return True

    def find(self, matrix):
        """(perm, shifts) of a symmetry with this matrix, or None."""
        nv = len(self.order)
        perm, shifts, used = [-1] * nv, [None] * nv, [False] * nv
        stack = [self._options(0, matrix, perm, shifts, used)]
        while stack:
            depth = len(stack) - 1
            v = self.order[depth]
            if perm[v] >= 0:
                used[perm[v]] = False
                perm[v], shifts[v] = -1, None
            for w, shift in stack[-1]:
                if used[w]:
                    continue
                perm[v], shifts[v], used[w] = w, shift, True
                if self._consistent(v, matrix, perm, shifts):
                    break
                used[w] = False
                perm[v], shifts[v] = -1, None
            else:
                stack.pop()
                continue
            if depth + 1 < nv:
                stack.append(self._options(depth + 1, matrix, perm, shifts, used))
                continue
            if self._maps_edges_onto_themselves(matrix, perm, shifts):
                return tuple(perm), tuple(shifts)
        return None

    def _maps_edges_onto_themselves(self, matrix, perm, shifts) -> bool:
        image = sorted(
            _ref_canonical_edge(
                perm[t],
                perm[h],
                tuple(a + b - c for a, b, c in zip(_ref_matvec(matrix, n), shifts[h], shifts[t])),
            )
            for t, h, n in self.edges
        )
        return image == self.edges


def reference_band_symmetry_group(spec: PeriodicGraphSpec) -> tuple:
    """The matrices of `symmetry.band_symmetry_group`, identity first: the
    candidates in table order, closed by Dimino's algorithm."""
    d = spec.dimension
    identity = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    if not is_connected_periodic(spec):
        return (identity,)
    group = {identity: None}
    search = ReferenceAutomorphismSearch(spec)
    generators = []
    failed = set()
    for matrix in reference_candidate_matrices(d):
        if matrix in group or matrix in failed:
            continue
        if search.find(matrix) is None:
            failed.update(_ref_matmul(matrix, h) for h in group)
            continue
        generators.append(matrix)
        old = list(group)
        pending = [matrix]
        while pending:
            r = pending.pop()
            if r in group:
                continue
            group.update(dict.fromkeys(_ref_matmul(r, h) for h in old))
            pending.extend(p for p in (_ref_matmul(g, r) for g in generators) if p not in group)
    return tuple(group)
