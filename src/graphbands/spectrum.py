"""Band structures over the torus and the quantitative spectral checks.

A band structure samples the fiber matrix on a uniform grid (always extended
by the 2^d corner points with components in {0, pi}), sorts the eigenvalues
at each sampled point, and takes per-branch envelopes.  Potentials are real
and edges carry unit weight, so H(-theta) = conj(H(theta)) has the spectrum
of H(theta), and each matrix A of the graph's band-symmetry group
(`symmetry.band_symmetry_group`, certified by a vertex permutation and cell
shifts that an exact search finds) makes H(A^{-T} theta) unitarily
equivalent to H(theta).  Band envelopes therefore solve one grid point per
orbit of the group together with theta -> -theta (`TorusGrid.representatives`);
on grids below SYMMETRY_SEARCH_MIN_POINTS, and for a graph with no symmetry
beyond that, the orbits are the pairs theta, -theta.  The checks that read
single fiber entries or vertex blocks, which a vertex permutation moves,
solve those pairs only.  A full-grid dispersion solves one point per orbit
too and copies its eigenvalues to the rest of the orbit, through the index
that `TorusGrid.representatives` returns.  Envelopes are the exact minima
and maxima; the extremizer reported for a branch is the first grid point,
in grid order, within EXTREMIZER_TIE_TOL * (1 + scale) of the envelope, so
ties between symmetry-equivalent points do not depend on the last bits of
the eigensolver.
Branches of numerically zero width are flat bands; gaps are the maximal open
intervals missing from the union of the open bands.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    InvariantViolation,
    ParameterError,
    PreconditionError,
)
from .floquet import TWO_PI, fiber_stack
from .graph import (
    PeriodicGraphSpec,
    bridge_count,
    classify,
    degrees,
    is_connected_periodic,
    is_loop_graph,
    periodic_bipartite,
    with_potentials,
)
from .linalg import eigh_stack

FLAT_TOL_COEFF = 1e-9
FLAT_MERGE_TOL = 1e-7
CHECK_TOL = 1e-8
UNIFORM_EXTREMIZER_TOL = 1e-8
EXTREMIZER_TIE_TOL = 1e-12
ENTRY_VARIATION_TOL = 1e-9
REFINE_ITERATIONS = 40
# Below this many theta, -theta pairs ((m^d + 2^d)/2 for even m) the
# band-symmetry search and the orbit map cost more than the solves they
# save, and only the pairs are merged.  Measured crossover, analyze on the
# decorated graphs of the point_calls benchmark (one OpenBLAS thread): the
# search pays from 300-1,150 pairs in 2-D and 1,400-2,050 in 3-D.  The
# default grids (4,610 and 6,916 pairs) lie above, grid 12 (74, 868) below.
SYMMETRY_SEARCH_MIN_POINTS = 2000


@dataclass(frozen=True)
class TorusGrid:
    """Uniform per-axis sampling of the torus plus the {0, pi}^d corner set."""

    dimension: int
    points_per_axis: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ParameterError("grid dimension must be >= 1")
        if self.points_per_axis < 2:
            raise ParameterError("grid needs at least 2 points per axis")

    @staticmethod
    def default_for(dimension: int) -> "TorusGrid":
        # Divisible by 12, so multiples of pi/2 and 2*pi/3 land exactly on
        # grid points and the closed-form extremizers are sampled exactly.
        if dimension <= 2:
            m = 96
        elif dimension == 3:
            m = 24
        else:
            m = 12
        return TorusGrid(dimension, m)

    def points(self) -> np.ndarray:
        axis = TWO_PI * (np.arange(self.points_per_axis) / self.points_per_axis)
        mesh = np.meshgrid(*([axis] * self.dimension), indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=-1)
        if self.points_per_axis % 2 == 0:
            # TWO_PI * 0.5 == math.pi exactly, so every corner is a grid point.
            return pts
        # Odd m: pi is not an axis value, so append each corner holding a pi.
        extras = [
            corner
            for corner in itertools.product((0.0, math.pi), repeat=self.dimension)
            if math.pi in corner
        ]
        return np.vstack([pts, np.asarray(extras)])

    @property
    def size(self) -> int:
        """Number of rows of `points()`, without building them."""
        m, d = self.points_per_axis, self.dimension
        return m**d + (2**d - 1 if m % 2 else 0)

    def representatives(self, group=()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(theta, index, points): one point per orbit of a band-symmetry group.

        `group` holds the integer matrices A of a group, closed under
        products, such as `symmetry.band_symmetry_group` returns.
        H(A^{-T} theta) is unitarily equivalent to H(theta), and
        H(-theta) = conj(H(theta)) has the spectrum of H(theta), so every
        point of an orbit of k -> +-A^{-T} k (mod m) carries the same
        eigenvalues.  A uniform point k is kept when its linear index is the
        smallest over its orbit; the work is exact integer arithmetic on grid
        coordinates.  As the group is closed under inverses, the orbits of
        the transposes A^T are the same.  The pi corners appended to an odd
        grid are all kept.  With no group, the orbits are the pairs k, -k:
        (m^d + 2^d)/2 points for even m.

        theta holds the kept rows of `points()` in grid order.  index gives,
        for each row of `points()`, the row of theta that represents it, so
        `values[index]` spreads values solved at theta over the whole grid.
        points is `points()` itself, built once for both.
        """
        pts = self.points()
        m, d = self.points_per_axis, self.dimension
        strides = [m ** (d - 1 - j) for j in range(d)]
        identity = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
        images = {tuple(zip(*matrix)) for matrix in group} | {identity}
        images |= {tuple(tuple(-x for x in row) for row in matrix) for matrix in images}
        images.discard(identity)
        # Image coordinate j of k is (row_j . k) mod m.  The matrices share
        # few rows, so each (row, j) term is built once, on the axes the row
        # touches, and then spread over the grid in index order.
        shape = (m,) * d
        axes = [np.arange(m).reshape([m if i == s else 1 for i in range(d)]) for s in range(d)]
        terms = {}
        for row, j in {(row, j) for matrix in images for j, row in enumerate(matrix)}:
            term = np.empty(shape, dtype=np.intp)
            term[...] = (sum(c * axes[i] for i, c in enumerate(row) if c) % m) * strides[j]
            terms[row, j] = term.ravel()
        orbit_min = np.arange(m**d)
        for matrix in images:
            image = terms[matrix[0], 0]
            for j in range(1, d):
                image = image + terms[matrix[j], j]
            np.minimum(orbit_min, image, out=orbit_min)
        keep = np.ones(pts.shape[0], dtype=bool)
        keep[: m**d] = orbit_min == np.arange(m**d)
        # The row of each kept point in theta, then of each point's minimum.
        index = np.cumsum(keep) - 1
        index[: m**d] = index[orbit_min]
        return pts[keep], index, pts


@dataclass(frozen=True)
class BandInterval:
    """Envelope of one sorted eigenvalue branch, with its extremizers."""

    n: int
    low: float
    high: float
    argmin: tuple[float, ...] | None = None
    argmax: tuple[float, ...] | None = None

    @property
    def width(self) -> float:
        return self.high - self.low


@dataclass(frozen=True)
class FlatBand:
    value: float
    multiplicity: int


@dataclass(frozen=True)
class BandStructure:
    """Per-branch envelopes plus the separated open-band / flat-band view."""

    kind: str
    bands: tuple[BandInterval, ...]
    open_bands: tuple[BandInterval, ...]
    flat_bands: tuple[FlatBand, ...]
    gaps: tuple[tuple[float, float], ...]
    spectrum_measure: float
    flat_tol: float
    grid: TorusGrid | None = None

    @property
    def band_length_sum(self) -> float:
        return float(sum(b.width for b in self.bands))

    @property
    def gap_length_sum(self) -> float:
        return float(sum(hi - lo for lo, hi in self.gaps))

    @property
    def hull(self) -> tuple[float, float]:
        return self.bands[0].low, self.bands[-1].high


@dataclass(frozen=True)
class InequalityCheck:
    """One verified relation lhs <= rhs, with the raw slack preserved."""

    name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool


@dataclass(frozen=True)
class EstimateReport:
    name: str
    checks: tuple[InequalityCheck, ...]
    params: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check(name: str, lhs: float, rhs: float, tol: float = CHECK_TOL) -> InequalityCheck:
    slack = float(rhs) - float(lhs)
    return InequalityCheck(name, float(lhs), float(rhs), slack, slack >= -tol)


def _deviation(name: str, deviation: float, tol: float) -> InequalityCheck:
    # Equality-style check: |deviation| must vanish up to tol.
    dev = abs(float(deviation))
    return InequalityCheck(name, dev, 0.0, -dev, dev <= tol)


def _grid_for(spec: PeriodicGraphSpec, grid: TorusGrid | None) -> TorusGrid:
    """`grid`, or the default grid of the graph's dimension when it is None."""
    if grid is None:
        return TorusGrid.default_for(spec.dimension)
    if grid.dimension != spec.dimension:
        raise ParameterError("grid dimension does not match the graph")
    return grid


def _default_flat_tol(lows, highs) -> float:
    """Flat-band width tolerance relative to the largest band-edge magnitude."""
    scale = max(float(np.abs(lows).max()), float(np.abs(highs).max()))
    return FLAT_TOL_COEFF * (1.0 + scale)


def grid_eigenvalues(spec: PeriodicGraphSpec, thetas: np.ndarray, kind: str) -> np.ndarray:
    """Sorted fiber eigenvalues at every torus point, shape (P, nu)."""
    return eigh_stack(fiber_stack(spec, thetas, kind))[0]


def _envelopes(thetas: np.ndarray, values: np.ndarray):
    """Per-branch (lows, highs, argmins, argmaxs) over sampled points.

    lows and highs are the exact minima and maxima; each extremizer is the
    first point, in row order, within EXTREMIZER_TIE_TOL * (1 + scale) of
    its envelope.
    """
    lows = values.min(axis=0)
    highs = values.max(axis=0)
    scale = max(float(np.abs(lows).max()), float(np.abs(highs).max()))
    tie = EXTREMIZER_TIE_TOL * (1.0 + scale)
    low_idx = (values <= lows + tie).argmax(axis=0)
    high_idx = (values >= highs - tie).argmax(axis=0)
    argmins = [tuple(float(x) for x in thetas[i]) for i in low_idx]
    argmaxs = [tuple(float(x) for x in thetas[i]) for i in high_idx]
    return lows, highs, argmins, argmaxs


def fiber_eigenvalues(spec: PeriodicGraphSpec, theta, kind: str = "schrodinger") -> np.ndarray:
    """Sorted eigenvalues of one fiber matrix."""
    return grid_eigenvalues(spec, np.atleast_2d(np.asarray(theta, dtype=float)), kind)[0]


def _interval_union(opens, min_gap: float):
    """Measure of a union of closed intervals and the open gaps between them."""
    if not opens:
        return 0.0, ()
    measure = 0.0
    gaps = []
    cur_lo, cur_hi = opens[0]
    for lo, hi in opens[1:]:
        if lo > cur_hi + min_gap:
            gaps.append((cur_hi, lo))
            measure += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    measure += cur_hi - cur_lo
    return float(measure), tuple(gaps)


def _flat_groups(lows, highs, tol: float, merge_tol: float):
    """(indices of open branches, [(value, multiplicity)] of flat bands).

    A branch is flat when its width is at most tol; adjacent flat branches
    whose midpoints differ by at most merge_tol form one flat band valued at
    the mean of their midpoints.
    """
    opens = []
    groups: list[list[float]] = []
    previous_flat = False
    for n, (low, high) in enumerate(zip(lows, highs)):
        if high - low <= tol:
            value = 0.5 * (low + high)
            if previous_flat and abs(groups[-1][-1] - value) <= merge_tol:
                groups[-1].append(value)
            else:
                groups.append([value])
            previous_flat = True
        else:
            opens.append(n)
            previous_flat = False
    return opens, [(float(sum(g) / len(g)), len(g)) for g in groups]


def _assemble_structure(
    kind: str,
    grid: TorusGrid | None,
    lows: np.ndarray,
    highs: np.ndarray,
    argmins,
    argmaxs,
    flat_tol: float | None,
    merge_tol: float,
) -> BandStructure:
    nu = len(lows)
    tol = flat_tol if flat_tol is not None else _default_flat_tol(lows, highs)
    bands = tuple(
        BandInterval(
            n + 1,
            float(lows[n]),
            float(highs[n]),
            argmins[n] if argmins is not None else None,
            argmaxs[n] if argmaxs is not None else None,
        )
        for n in range(nu)
    )
    opens, groups = _flat_groups(
        [b.low for b in bands], [b.high for b in bands], tol, merge_tol
    )
    open_bands = [bands[n] for n in opens]
    flats = tuple(FlatBand(value, mult) for value, mult in groups)
    measure, gaps = _interval_union([(b.low, b.high) for b in open_bands], tol)
    return BandStructure(
        kind=kind,
        bands=bands,
        open_bands=tuple(open_bands),
        flat_bands=flats,
        gaps=gaps,
        spectrum_measure=measure,
        flat_tol=tol,
        grid=grid,
    )


def _refine_extrema(spec, kind, starts, branches, signs, step):
    """Coordinate descents from grid points, halving each step on a stall.

    Descent j minimizes signs[j] * lambda_{branches[j]} from starts[j].  The
    descents run in lockstep: the trials of one (sweep, axis, direction) are
    solved in one batch.  Returns the extrema and the points attaining them.
    """
    thetas = np.array(starts, dtype=float)
    rows = np.arange(len(thetas))

    def objective(points):
        return signs * grid_eigenvalues(spec, points, kind)[rows, branches]

    best = objective(thetas)
    steps = np.full(len(thetas), step)
    for _ in range(REFINE_ITERATIONS):
        moved = np.zeros(len(thetas), dtype=bool)
        for axis in range(thetas.shape[1]):
            for delta in (steps, -steps):
                trials = thetas.copy()
                trials[:, axis] += delta
                values = objective(trials)
                better = values < best
                best[better] = values[better]
                thetas[better] = trials[better]
                moved |= better
        steps[~moved] *= 0.5
    return signs * best, [tuple(float(x) for x in theta) for theta in thetas]


def _orbit_group(spec: PeriodicGraphSpec, grid: TorusGrid, kinds) -> tuple:
    """The matrices of the band-symmetry group of the operator `kinds`, or ()
    when the grid is too small for the search to pay
    (SYMMETRY_SEARCH_MIN_POINTS).

    Only H carries the potentials, so without "schrodinger" among `kinds`
    the group is searched on the graph without them, which can only add
    symmetries.
    """
    if (grid.size + 2**grid.dimension) // 2 < SYMMETRY_SEARCH_MIN_POINTS:
        return ()
    if "schrodinger" not in kinds and any(spec.potentials()):
        spec = with_potentials(spec, (0.0,) * spec.num_vertices)
    # Imported here, on first use: importing the search with the package
    # would add its compile time to every start-up that reads no bytecode
    # cache, also for calls that never search.
    from .symmetry import band_symmetry_group

    return band_symmetry_group(spec)


def _band_structure(spec, kinds, grid, flat_tol, merge_tol, refine):
    """{kind: (structure, eigenvalues at theta = 0)} for each of `kinds`.

    A symmetry of the graph keeps degrees and potentials, so the band-symmetry
    group of H is one of every operator kind, and one orbit sample of the
    torus serves them all; theta = 0 is its first row.  Without H among
    `kinds` the group of the graph without potentials is used (`_orbit_group`).
    With no potentials the Laplacian is H, and a Laplacian asked for with H is
    H's structure.
    """
    if not is_connected_periodic(spec):
        raise PreconditionError("periodic cover is disconnected")
    grid = _grid_for(spec, grid)
    thetas, _, _ = grid.representatives(_orbit_group(spec, grid, kinds))
    structures = {}
    for kind in dict.fromkeys(kinds):
        if kind == "laplacian" and "schrodinger" in structures and not any(spec.potentials()):
            structures[kind] = structures["schrodinger"]
            continue
        values = grid_eigenvalues(spec, thetas, kind)
        lows, highs, argmins, argmaxs = _envelopes(thetas, values)
        if refine:
            nu = len(lows)
            extrema, points = _refine_extrema(
                spec,
                kind,
                argmins + argmaxs,
                np.tile(np.arange(nu), 2),
                np.repeat([1.0, -1.0], nu),
                TWO_PI / grid.points_per_axis,
            )
            lows, highs = extrema[:nu], extrema[nu:]
            argmins, argmaxs = points[:nu], points[nu:]
        structure = _assemble_structure(kind, grid, lows, highs, argmins, argmaxs, flat_tol, merge_tol)
        structures[kind] = structure, values[0]
    return structures


def compute_band_structure(
    spec: PeriodicGraphSpec,
    kind: str = "schrodinger",
    grid: TorusGrid | None = None,
    flat_tol: float | None = None,
    merge_tol: float = FLAT_MERGE_TOL,
    refine: bool = False,
) -> BandStructure:
    """Sample the fiber over the torus grid and extract bands, flats and gaps.

    One point is solved per orbit of the graph's certified band-symmetry
    group (`TorusGrid.representatives`).
    """
    return _band_structure(spec, (kind,), grid, flat_tol, merge_tol, refine)[kind][0]


def _total_band_report(spec, bs: BandStructure, check_tol: float) -> EstimateReport:
    count, _ = bridge_count(spec)
    band_sum = bs.band_length_sum
    checks = (
        _check("spectrum-measure<=band-length-sum", bs.spectrum_measure, band_sum, check_tol),
        _check("band-length-sum<=2*bridge-count", band_sum, 2.0 * count, check_tol),
    )
    return EstimateReport(
        "total-band-length-bound",
        checks,
        {
            "bridge_count": count,
            "band_length_sum": band_sum,
            "spectrum_measure": bs.spectrum_measure,
            "equality_attained": abs(band_sum - 2.0 * count) <= check_tol,
        },
    )


def verify_total_band_bound(
    spec: PeriodicGraphSpec,
    kind: str = "schrodinger",
    grid: TorusGrid | None = None,
    *,
    check_tol: float = CHECK_TOL,
) -> EstimateReport:
    """Spectrum measure <= total band length <= twice the oriented bridge count."""
    return _total_band_report(spec, compute_band_structure(spec, kind, grid), check_tol)


def _gap_report(spec, bs: BandStructure, laplacian: BandStructure, check_tol: float) -> EstimateReport:
    """The gap bound of the operator whose structure is `bs` and whose
    potentials are those of `spec`; `laplacian` is the Laplacian's structure."""
    count, _ = bridge_count(spec)
    potentials = spec.potentials()
    spread = max(potentials) - min(potentials)
    hull_lo, hull_hi = bs.hull
    hull = hull_hi - hull_lo
    top_laplacian = laplacian.bands[-1].high
    floor = max(top_laplacian - spread, spread - 2.0 * max(degrees(spec)))
    checks = (
        _check("band-hull-minus-bridges<=gap-length-sum", hull - 2.0 * count, bs.gap_length_sum, check_tol),
        _check("potential-degree-floor<=band-hull", floor, hull, check_tol),
    )
    return EstimateReport(
        "gap-length-bound",
        checks,
        {
            "bridge_count": count,
            "gap_length_sum": bs.gap_length_sum,
            "band_hull": hull,
            "floor_constant": floor,
            "potential_spread": spread,
        },
    )


def verify_gap_bound(
    spec: PeriodicGraphSpec,
    grid: TorusGrid | None = None,
    *,
    check_tol: float = CHECK_TOL,
) -> EstimateReport:
    """Total gap length dominates the hull length minus twice the bridge count."""
    structures = _band_structure(spec, ("schrodinger", "laplacian"), grid, None, FLAT_MERGE_TOL, False)
    return _gap_report(spec, structures["schrodinger"][0], structures["laplacian"][0], check_tol)


def check_first_band_nondegenerate(spec: PeriodicGraphSpec, grid: TorusGrid | None = None):
    """(entry-modulus variation found, first band open).

    A varying entry modulus forces an open first band; the converse can fail,
    so both flags are reported.  The implication itself is enforced.
    """
    grid = _grid_for(spec, grid)
    moduli = np.abs(fiber_stack(spec, grid.representatives()[0], "laplacian"))
    variation = moduli.max(axis=0) - moduli.min(axis=0)
    condition = bool((variation > ENTRY_VARIATION_TOL).any())
    bs = compute_band_structure(spec, "schrodinger", grid)
    nondegenerate = bool(bs.bands[0].width > ENTRY_VARIATION_TOL)
    if condition and not nondegenerate:
        raise InvariantViolation(
            "an entry modulus varies but the first band is numerically degenerate"
        )
    return condition, nondegenerate


def loop_band_endpoints(
    spec: PeriodicGraphSpec,
    grid: TorusGrid | None = None,
    *,
    flat_tol: float | None = None,
    merge_tol: float = FLAT_MERGE_TOL,
) -> BandStructure:
    """Band envelopes of a loop graph from at most two eigendecompositions.

    Lower endpoints always come from the zero fiber.  Upper endpoints come
    from the phase-flipping corner when the classifier found one; otherwise
    they fall back to grid maxima, and the zero fiber is the first row of
    that grid solve.
    """
    cls = classify(spec)
    if not cls.is_loop_graph:
        raise PreconditionError("not a loop graph: a cell-crossing edge is not a loop")
    sampled = _grid_for(spec, grid)  # checked even when the flip corner leaves it unused
    zero = (0.0,) * spec.dimension
    argmins = [zero] * spec.num_vertices
    flip = cls.precise_quasimomentum
    if flip is not None:
        lows, highs = grid_eigenvalues(spec, np.array([zero, flip]), "schrodinger")
        argmaxs = [flip] * spec.num_vertices
    else:
        grid = sampled
        thetas, _, _ = grid.representatives(_orbit_group(spec, grid, ("schrodinger",)))
        values = grid_eigenvalues(spec, thetas, "schrodinger")
        lows = values[0]
        _, highs, _, argmaxs = _envelopes(thetas, values)
    return _assemble_structure(
        "schrodinger", grid, lows, highs, argmins, argmaxs, flat_tol, merge_tol
    )


def _mirrored_endpoints(zero_values: np.ndarray, kappa: int):
    """(lows, highs) of a bipartite regular loop graph of degree kappa: the
    zero-fiber Laplacian eigenvalues and their mirror through kappa."""
    return zero_values, 2.0 * kappa - zero_values[::-1]


def bipartite_loop_endpoints(
    spec: PeriodicGraphSpec,
    flat_tol: float | None = None,
    merge_tol: float = FLAT_MERGE_TOL,
) -> BandStructure:
    """Laplacian band envelopes of a bipartite regular loop graph.

    Lower endpoints are the zero-fiber eigenvalues; upper endpoints mirror
    them through the regular degree.
    """
    bipartite, _ = periodic_bipartite(spec)
    if not bipartite:
        raise PreconditionError("periodic cover is not bipartite")
    deg = degrees(spec)
    if len(set(deg)) != 1:
        raise PreconditionError("graph is not regular")
    if not is_loop_graph(spec):
        raise PreconditionError("not a loop graph: a cell-crossing edge is not a loop")
    zero = (0.0,) * spec.dimension
    lows, highs = _mirrored_endpoints(fiber_eigenvalues(spec, zero, "laplacian"), deg[0])
    argmins = [zero] * spec.num_vertices
    return _assemble_structure(
        "laplacian", None, lows, highs, argmins, None, flat_tol, merge_tol
    )


@dataclass(frozen=True)
class LargeCouplingReport:
    """Spectrum of the strongly coupled operator versus its two-term expansion."""

    t: float
    band_sum_limit: float
    spectrum_measure: float
    measure_minus_limit: float
    max_deviation: float


def large_coupling_analysis(
    spec: PeriodicGraphSpec,
    t: float,
    grid: TorusGrid | None = None,
) -> LargeCouplingReport:
    """Compare exact bands of the operator with potential scaled by t against
    the expansion t*q_n + diag_n(theta) - (1/t) * sum_j |offdiag_jn|^2 / (q_j - q_n).
    """
    potentials = np.asarray(spec.potentials())
    if len(set(potentials.tolist())) != spec.num_vertices:
        raise PreconditionError("potentials must be pairwise distinct")
    if t == 0.0:
        raise ParameterError("coupling constant t must be nonzero")
    thetas, _, _ = _grid_for(spec, grid).representatives()
    lap = fiber_stack(spec, thetas, "laplacian")
    idx = np.arange(spec.num_vertices)
    coupled = lap.copy()
    coupled[:, idx, idx] += t * potentials
    values = eigh_stack(coupled)[0]

    order = np.argsort(potentials, kind="stable")
    expansion = np.empty_like(values)
    for rank, vertex in enumerate(order):
        diag = lap[:, vertex, vertex].real
        correction = np.zeros(len(thetas))
        for j in range(spec.num_vertices):
            if j == vertex:
                continue
            correction += np.abs(lap[:, j, vertex]) ** 2 / (
                potentials[j] - potentials[vertex]
            )
        expansion[:, rank] = t * potentials[vertex] + diag - correction / t
    deviation = float(np.abs(values - expansion).max())

    diag_ranges = [
        float(lap[:, n, n].real.max() - lap[:, n, n].real.min())
        for n in range(spec.num_vertices)
    ]
    limit = float(sum(diag_ranges))
    lows = values.min(axis=0)
    highs = values.max(axis=0)
    tol = _default_flat_tol(lows, highs)
    measure, _ = _interval_union(list(zip(lows.tolist(), highs.tolist())), tol)
    return LargeCouplingReport(float(t), limit, measure, measure - limit, deviation)


class _CornerScan(NamedTuple):
    """The {0, pi}^d corners, their fibers and sorted eigenvalue rows, and the
    indices of the chosen lower and upper extremizing corners (or None)."""

    corners: list[tuple[float, ...]]
    fibers: np.ndarray
    values: np.ndarray
    lower: int | None
    upper: int | None


def _scan_corners(spec, kind, bs, tol, label=None) -> _CornerScan:
    """Solve the 2^d corners in one batch and find the uniform extremizers.

    The chosen lower (resp. upper) corner is the first one at which every
    branch is within tol of its lower (resp. upper) band edge.  With a
    `label`, a side without such a corner raises PreconditionError naming the
    graph and the corner that comes closest.
    """
    corners = list(itertools.product((0.0, math.pi), repeat=spec.dimension))
    fibers = fiber_stack(spec, np.asarray(corners), kind)
    values = eigh_stack(fibers)[0]
    lows = np.asarray([b.low for b in bs.bands])
    highs = np.asarray([b.high for b in bs.bands])
    chosen = []
    for side, edges in (("lower", lows), ("upper", highs)):
        deviation = np.abs(values - edges)
        worst = deviation.max(axis=1)
        hits = np.flatnonzero(worst <= tol)
        if hits.size:
            chosen.append(int(hits[0]))
        elif label is None:
            chosen.append(None)
        else:
            best = int(worst.argmin())
            raise PreconditionError(
                f"graph {label}: no corner point attains every {side} band endpoint "
                f"(best corner {corners[best]} misses band "
                f"{int(deviation[best].argmax()) + 1} by {float(worst[best]):.3e})"
            )
    return _CornerScan(corners, fibers, values, *chosen)


def find_uniform_extremizers(
    spec: PeriodicGraphSpec,
    kind: str = "schrodinger",
    grid: TorusGrid | None = None,
    *,
    tol: float = UNIFORM_EXTREMIZER_TOL,
):
    """Corner points minimizing (resp. maximizing) every branch at once.

    Scans {0, pi}^d; either entry is None when no corner works.
    """
    bs = compute_band_structure(spec, kind, grid)
    scan = _scan_corners(spec, kind, bs, tol)
    return tuple(None if i is None else scan.corners[i] for i in (scan.lower, scan.upper))


def _entry_l1(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).sum())


def stability_constants(
    spec_a: PeriodicGraphSpec,
    spec_b: PeriodicGraphSpec,
    grid_a: TorusGrid | None = None,
    grid_b: TorusGrid | None = None,
    *,
    check_tol: float = CHECK_TOL,
) -> EstimateReport:
    """Band-edge and gap-length variation between two graphs, bounded by the
    entrywise l1 distance of their fiber matrices at the shared extremizers.

    Both graphs must admit uniform lower and upper extremizing corners.  When
    the pair is additionally bipartite-regular (potential-free) or
    precise-vs-bipartite, the specialized two-sided bounds are checked too.
    The band edges and fibers at the extremizers are those of the corner scan.
    """
    if spec_a.num_vertices != spec_b.num_vertices:
        raise PreconditionError(
            f"vertex count mismatch: {spec_a.num_vertices} != {spec_b.num_vertices}"
        )

    def scan(spec, grid, label):
        bs = compute_band_structure(spec, "schrodinger", grid)
        return _scan_corners(spec, "schrodinger", bs, UNIFORM_EXTREMIZER_TOL, label)

    scan_a, scan_b = scan(spec_a, grid_a, "A"), scan(spec_b, grid_b, "B")
    lows_a, highs_a = scan_a.values[scan_a.lower], scan_a.values[scan_a.upper]
    lows_b, highs_b = scan_b.values[scan_b.lower], scan_b.values[scan_b.upper]
    c_total = _entry_l1(scan_a.fibers[scan_a.lower], scan_b.fibers[scan_b.lower]) + _entry_l1(
        scan_a.fibers[scan_a.upper], scan_b.fibers[scan_b.upper]
    )

    gaps_a = lows_a[1:] - highs_a[:-1]
    gaps_b = lows_b[1:] - highs_b[:-1]
    edge_gap_variation = (
        abs(lows_a[0] - lows_b[0])
        + abs(highs_a[-1] - highs_b[-1])
        + float(np.abs(gaps_a - gaps_b).sum())
    )
    length_variation = float(
        np.abs((highs_a - lows_a) - (highs_b - lows_b)).sum()
    )
    checks = [
        _check("edge-and-gap-variation<=2C", edge_gap_variation, 2.0 * c_total, check_tol),
        _check("band-length-variation<=2C", length_variation, 2.0 * c_total, check_tol),
    ]
    params = {
        "c_total": c_total,
        "theta_minus_a": scan_a.corners[scan_a.lower],
        "theta_plus_a": scan_a.corners[scan_a.upper],
        "theta_minus_b": scan_b.corners[scan_b.lower],
        "theta_plus_b": scan_b.corners[scan_b.upper],
    }

    cls_a = classify(spec_a)
    cls_b = classify(spec_b)
    zero_a = all(q == 0.0 for q in spec_a.potentials())
    zero_b = all(q == 0.0 for q in spec_b.potentials())

    # A bipartite side has no potentials, so corner 0 (theta = 0) of its
    # scan holds its Laplacian zero fiber.
    bip_a = cls_a.periodic_bipartite and cls_a.is_regular and cls_a.is_loop_graph and zero_a
    bip_b = cls_b.periodic_bipartite and cls_b.is_regular and cls_b.is_loop_graph and zero_b
    if bip_a and bip_b and cls_a.regular_degree == cls_b.regular_degree:
        c_pair = _entry_l1(scan_a.fibers[0], scan_b.fibers[0])
        checks.append(
            _check(
                "bipartite-pair-gap-variation<=4C0",
                float(np.abs(gaps_a - gaps_b).sum()),
                4.0 * c_pair,
                check_tol,
            )
        )
        checks.append(
            _check(
                "bipartite-pair-band-variation<=4C0",
                length_variation,
                4.0 * c_pair,
                check_tol,
            )
        )
        params["c_bipartite_pair"] = c_pair

    def mixed_case(precise_scan, precise_cls, lows_p, highs_p, gaps_p, bip_scan, bip_cls, gaps_q):
        kappa = bip_cls.regular_degree
        # The flip point is one of the corners.
        flip = precise_scan.corners.index(precise_cls.precise_quasimomentum)
        base = bip_scan.fibers[0]
        c_mixed = _entry_l1(precise_scan.fibers[0], base) + _entry_l1(
            precise_scan.fibers[flip] + base,
            2.0 * kappa * np.eye(len(base)),
        )
        lhs_edges = (
            abs(lows_p[0])
            + abs(2.0 * kappa - highs_p[-1])
            + float(np.abs(gaps_p - gaps_q).sum())
        )
        checks.append(
            _check("precise-vs-bipartite-gap-variation<=2C1", lhs_edges, 2.0 * c_mixed, check_tol)
        )
        checks.append(
            _check("precise-vs-bipartite-band-variation<=2C1", length_variation, 2.0 * c_mixed, check_tol)
        )
        params["c_precise_vs_bipartite"] = c_mixed

    if cls_a.precise_quasimomentum is not None and bip_b:
        mixed_case(scan_a, cls_a, lows_a, highs_a, gaps_a, scan_b, cls_b, gaps_b)
    elif cls_b.precise_quasimomentum is not None and bip_a:
        mixed_case(scan_b, cls_b, lows_b, highs_b, gaps_b, scan_a, cls_a, gaps_a)

    return EstimateReport("stability-bounds", tuple(checks), params)


@dataclass(frozen=True)
class DiracConeReport:
    """Quadratic-remainder audit of the conical touching in the honeycomb fiber."""

    radius: float
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
    from .lattices import hexagonal

    if radius <= 0.0:
        raise ParameterError("radius must be positive")
    spec = hexagonal(q=(q1, -q1))
    cone = np.array([TWO_PI / 3.0, -TWO_PI / 3.0])
    touch = fiber_eigenvalues(spec, cone, "schrodinger")

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
    return DiracConeReport(
        radius, max_error, max_error_half, ratio, (float(touch[0]), float(touch[1]))
    )


def check_flat_band_block(
    spec: PeriodicGraphSpec,
    split,
    kind: str = "schrodinger",
    grid: TorusGrid | None = None,
):
    """Constant eigenvalues of the fiber block on `split` force flat bands.

    `split` must leave out exactly one border vertex.  Every constant block
    eigenvalue of multiplicity m >= 2 is returned as (value, m) after
    checking the full operator exhibits it as a flat band of multiplicity at
    least m - 1.
    """
    split = tuple(int(i) for i in split)
    nv = spec.num_vertices
    if len(split) != nv - 1 or len(set(split)) != len(split):
        raise ParameterError("split must isolate exactly one border vertex")
    if not all(0 <= i < nv for i in split):
        raise ParameterError("split references an invalid vertex index")
    grid = _grid_for(spec, grid)
    stack = fiber_stack(spec, grid.representatives()[0], kind)
    block = stack[:, split, :][:, :, split]
    values = eigh_stack(block)[0]
    lows = values.min(axis=0)
    highs = values.max(axis=0)
    tol = _default_flat_tol(lows, highs)
    _, groups = _flat_groups(lows.tolist(), highs.tolist(), tol, FLAT_MERGE_TOL)
    found = [(value, mult) for value, mult in groups if mult >= 2]
    bs = compute_band_structure(spec, kind, grid)
    for value, mult in found:
        matched = any(
            abs(fb.value - value) <= 1e-6 and fb.multiplicity >= mult - 1
            for fb in bs.flat_bands
        )
        if not matched:
            raise InvariantViolation(
                f"block eigenvalue {value} of multiplicity {mult} is not a flat band "
                f"of multiplicity >= {mult - 1}"
            )
    return tuple(found)


def estimate_suite(
    spec: PeriodicGraphSpec,
    kind: str = "schrodinger",
    grid: TorusGrid | None = None,
    *,
    check_tol: float = CHECK_TOL,
    flat_tol: float | None = None,
    merge_tol: float = FLAT_MERGE_TOL,
    refine: bool = False,
):
    """Classification, band structure, and every applicable estimate report.

    The band structures of the operator and of the Laplacian come from one
    orbit sample of the torus, and their theta = 0 eigenvalues from its first
    row (`_band_structure`).  The Laplacian and normalized operators carry no
    potential, so for those kinds the reports read the graph without one.
    Returns (classification, band_structure, reports).
    """
    cls = classify(spec)
    if kind != "schrodinger":
        # Only H carries the potentials; the reports describe the operator analyzed.
        spec = with_potentials(spec, (0.0,) * spec.num_vertices)
    kinds = (kind,) if kind == "normalized" else (kind, "laplacian")
    structures = _band_structure(spec, kinds, grid, flat_tol, merge_tol, refine)
    bs, zero_vals = structures[kind]
    reports = []

    if kind == "normalized":
        checks = (
            _check("0<=normalized-min", 0.0, bs.bands[0].low, check_tol),
            _check("normalized-max<=2", bs.bands[-1].high, 2.0, check_tol),
            _deviation("minimum-attained-at-zero-point", bs.bands[0].low - zero_vals[0], check_tol),
        )
        reports.append(EstimateReport("normalized-containment", checks))
        return cls, bs, tuple(reports)

    bs0, zero_vals0 = structures["laplacian"]
    reports.append(_total_band_report(spec, bs, check_tol))
    reports.append(_gap_report(spec, bs, bs0, check_tol))

    containment = (
        _check("0<=laplacian-min", 0.0, bs0.bands[0].low, check_tol),
        _check("laplacian-max<=2*max-degree", bs0.bands[-1].high, 2.0 * cls.max_degree, check_tol),
        _deviation("laplacian-zero-eigenvalue-at-zero-point", zero_vals0[0], check_tol),
        _deviation("minimum-attained-at-zero-point", bs.bands[0].low - zero_vals[0], check_tol),
    )
    reports.append(EstimateReport("spectral-containment", containment))

    if cls.is_loop_graph:
        lows = np.asarray([b.low for b in bs.bands])
        dev = float(np.abs(lows - zero_vals).max())
        checks = [_deviation("loop-lower-endpoints-at-zero-point", dev, check_tol)]
        params = {}
        if cls.precise_quasimomentum is not None:
            two_beta = 2.0 * cls.bridge_count
            checks.append(
                _deviation(
                    "flip-corner-band-length-identity",
                    bs.band_length_sum - two_beta,
                    check_tol,
                )
            )
            _, bridges = bridge_count(spec)
            single_vertex = len({e.tail for e in bridges}) <= 1
            params["bridges_at_single_vertex"] = single_vertex
            if single_vertex:
                checks.append(
                    _deviation(
                        "flip-corner-measure-identity",
                        bs.spectrum_measure - two_beta,
                        check_tol,
                    )
                )
        reports.append(EstimateReport("loop-graph-endpoints", tuple(checks), params))

    if cls.periodic_bipartite and cls.is_regular:
        kappa = cls.regular_degree
        checks = [
            _check(
                "bipartite-gap-floor<=laplacian-gap-sum",
                2.0 * (kappa - cls.bridge_count),
                bs0.gap_length_sum,
                check_tol,
            )
        ]
        if cls.fundamental_bipartite or cls.is_loop_graph:
            # Band endpoints mirror through the degree only when the quotient
            # 2-colors (every fiber is symmetric) or when endpoints come from
            # the zero fiber and its mirror.
            lows0 = np.asarray([b.low for b in bs0.bands])
            highs0 = np.asarray([b.high for b in bs0.bands])
            symmetry_dev = float(np.abs(lows0 + highs0[::-1] - 2.0 * kappa).max())
            checks.append(_deviation("bipartite-band-symmetry", symmetry_dev, check_tol))
        if cls.is_loop_graph:
            # bipartite_loop_endpoints, with the zero fiber from the grid solve
            lows_m, highs_m = _mirrored_endpoints(zero_vals0, kappa)
            dev = max(
                float(np.abs(lows_m - lows0).max()),
                float(np.abs(highs_m - highs0).max()),
            )
            checks.append(_deviation("bipartite-loop-endpoint-match", dev, check_tol))
        reports.append(EstimateReport("bipartite-regular-structure", tuple(checks)))

    return cls, bs, tuple(reports)
