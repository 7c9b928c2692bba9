"""Band structures over the torus and the quantitative spectral checks.

A loop graph with a flip corner theta* takes the band edges of every
operator kind from theta = 0 and theta* exactly (`_loop_edge_corners`), and
its grid is validated but not sampled.  Any other band structure samples
the fiber matrix on a uniform grid (always extended by the 2^d corner points
with components in {0, pi}), sorts the eigenvalues at each sampled point,
and takes per-branch envelopes.  Potentials are real and edges carry unit
weight, so H(-theta) = conj(H(theta)) has the spectrum of H(theta), and
each matrix A of the graph's band-symmetry group
(`symmetry.band_symmetry_group`, certified by a vertex permutation and cell
shifts that an exact search finds) makes H(A^{-T} theta) unitarily
equivalent to H(theta).  Band envelopes therefore solve one grid point per
orbit of the group together with theta -> -theta (`TorusGrid.representatives`);
on grids below SYMMETRY_SEARCH_MIN_POINTS, and for a graph with no symmetry
beyond that, the orbits are the pairs theta, -theta.  Where the search
runs and the group holds -I, the certificate of -I is looked up too: if it
is an inversion (an involution whose shifts agree on each swapped pair),
the sample, the --refine trials and a full-grid dispersion are built as
real symmetric fibers in its basis (`floquet`), which LAPACK's real
symmetric eigensolver takes; their eigenvalues, and so the band edges,
differ from the complex solve's in the last bits.  A loop graph's fibers
are real in the vertex basis already; any other graph, and every smaller
sample, is solved as complex.  Every operator kind a call needs is built at
that sample from one phase sum and solved in one eigensolver call, and
`stability_constants` reads H at its chosen corners from the same stack, or
builds it there in the vertex basis when the sample is real in another
basis.  `_refine_extrema` moves the edges of every kind off the sample
together, in rounds of one phase sum and one solve: a round looks ahead
up to four sweeps of each descent's trials on a small quotient and one
trial on a large one, and gives the bits of one trial per solve.  A
full-grid dispersion solves one point per orbit too and copies its
eigenvalues to the rest of the orbit, through the index that
`TorusGrid.representatives` returns.  Envelopes are the exact minima and
maxima; the extremizer reported for a branch is the first grid point, in
grid order, within `_rounding_tol` of the envelope, so ties between
symmetry-equivalent points do not depend on the last bits of the
eigensolver.
Branches of numerically zero width are flat bands; gaps are the maximal open
intervals missing from the union of the open bands.  One tolerance, the
structure's flat_tol, decides which branches are flat, which adjacent flat
branches share one value, and which open bands touch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ParameterError, PreconditionError
from .floquet import TWO_PI, fiber_stack
from .graph import (
    PeriodicGraphSpec,
    bridge_count,
    classify,
    degrees,
    is_connected_periodic,
    is_loop_graph,
    with_potentials,
)
from .linalg import eigh_stack

# Rounding allowance of `_rounding_tol`, in units of nu * eps * (1 + scale).
# LAPACK returns each eigenvalue within a small multiple of nu * eps * ||H||,
# and ||H|| is the largest band-edge magnitude, so one tolerance that scales
# with it serves as the default flat_tol, the extremizer tie, the corner
# match and the slack of every check.
ROUNDING_ULPS = 16
REFINE_ITERATIONS = 40
# Work of one round of `_refine_extrema`, in units of nu^3: each live descent
# looks ahead D = _REFINE_ROUND_WORK // (live descents * nu^3) trials, at
# least 1 and at most 4 sweeps.  A round pays about 50 us of fixed
# `fiber_stack` and `eigh_stack` overhead and 20-30 us of bookkeeping, and
# the trials after a descent's first improving one are solved for nothing.
# Measured against one trial per descent per call (in process, one OpenBLAS
# thread, 2 vCPUs) on 23 quotients of nu = 1-9 (builtins, and hexagonal,
# triangular, bcc, fcc and cubic(3) with a tree glued on and potentials):
# at 32,768 they took 0.14-1.01 of the time (hexagonal with potentials 0.22
# at D = 16; only triangular with 7 glued vertices, at D = 2, above 0.99).
# A larger value moves D = 1 to larger quotients, but hexagonal with 4-6
# glued vertices (nu = 6-8), which accepts many steps, then looks ahead too
# far: 1.1-1.4 of the time at 131,072-262,144 (D = 8-16).  With two kinds from nu = 9,
# with one from nu = 10, D is 1 at the start and the descents take their
# trials in lockstep; there the bookkeeping makes a refine up to 1.17 times
# as slow as one trial per call (nu = 10 in 3-D), less as nu grows.
_REFINE_ROUND_WORK = 32768
# Below this many theta, -theta pairs ((m^d + 2^d)/2 for even m) only the
# pairs are merged, without the band-symmetry search and the orbit map.
# Measured crossover of analyze with the search forced on and off (one
# OpenBLAS thread, 2 vCPUs): on the 24 decorated 2-D graphs of the
# point_calls benchmark (seed 11) that sample a grid, the search pays from
# 130-1,570 pairs (mostly 290-1,154); on 8 decorated fcc and bcc graphs
# drawn the same way and on fcc, bcc and subdivided(3,2), from 260-1,376
# (fcc 504, bcc 1,376).  The search used to pay from 290-1,570 and
# 504-2,920.  The threshold stays at 2,000, where the search pays for every
# graph measured: lowering it would change which grids are orbit-sampled
# and so the last bits of their reports.  The default grids (4,610 and
# 6,916 pairs) lie above, grid 12 (74, 868) below.
SYMMETRY_SEARCH_MIN_POINTS = 2000


def _least_partial_index(tails, d, term, least_of):
    """The least partial linear index, over coordinates d - t to d - 1, of
    the images whose last t rows are one of `tails`.

    It is the minimum over the next row of (its `term(row, j)` + the least
    over the tails that follow that row).  Images that share leading rows
    share one partial sum, and equal sets of tails one minimum, kept in
    `least_of`; a minimum of integers does not depend on how it is grouped.
    A module function rather than a nested one: a nested function that
    calls itself is a reference cycle, which would keep every call's arrays
    until the garbage collector runs.
    """
    if tails in least_of:
        return least_of[tails]
    j = d - len(next(iter(tails)))
    following: dict = {}
    for tail in tails:
        following.setdefault(tail[0], set()).add(tail[1:])
    best = None
    for row, rest in following.items():
        index = term(row, j)
        if j + 1 < d:
            index = index + _least_partial_index(frozenset(rest), d, term, least_of)
        best = index if best is None else np.minimum(best, index)
    least_of[tails] = best
    return best


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

    def axis(self) -> np.ndarray:
        """The m values of each axis; `points()` begins with axis^d in row-major order."""
        return TWO_PI * (np.arange(self.points_per_axis) / self.points_per_axis)

    def points(self) -> np.ndarray:
        m, d = self.points_per_axis, self.dimension
        # Odd m: pi is not an axis value, so each corner holding a pi is
        # appended.  For even m, TWO_PI * 0.5 == math.pi exactly, so every
        # corner is a grid point.
        extras = [
            corner
            for corner in itertools.product((0.0, math.pi), repeat=d)
            if m % 2 and math.pi in corner
        ]
        # One array: coordinate j of the uniform rows is the axis along grid
        # dimension j, broadcast over the others.
        pts = np.empty((m**d + len(extras), d))
        uniform = pts[: m**d].reshape((m,) * d + (d,))
        axis = self.axis()
        for j in range(d):
            uniform[..., j] = axis.reshape([m if i == j else 1 for i in range(d)])
        if extras:
            pts[m**d :] = extras
        return pts

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

        The orbit minimum is taken over the images' rows as a tree: images
        that share their leading rows share one partial sum, a row with one
        nonzero entry (every row of a signed permutation) stays an axis
        array broadcast over the grid, so the full-grid passes are one add
        and one minimum per distinct first row (6 for the 48 elements of
        the cube's group) rather than per image.  Indices are int16 for
        grids of at most 32,767 points, int32 up to 2^31 - 1, else intp.

        theta holds the kept rows of `points()` in grid order.  index gives,
        for each row of `points()`, the row of theta that represents it, so
        `values[index]` spreads values solved at theta over the whole grid.
        points is `points()` itself, built once for both.  theta is taken
        from it rather than rebuilt from the kept indices: `points()` is the
        first full-grid allocation, so an oversized grid fails there before
        any orbit array is built, and it is the one call that makes the
        grid's points.
        """
        pts = self.points()
        m, d = self.points_per_axis, self.dimension
        n = m**d
        strides = [m ** (d - 1 - j) for j in range(d)]
        # The narrowest of int16 and int32 that holds every row count
        # (<= size) holds every integer below: each is a reduced coordinate
        # (< m), a sum of two of them (< 2m <= m^d; rows have one nonzero
        # entry when d = 1), a partial linear index or a linear index
        # (< m^d).  The products c*k of a matrix entry and an
        # axis value are taken in intp on the m axis values and reduced mod
        # m before they meet the narrow type.
        dtype = np.int16 if self.size < 2**15 else np.int32 if self.size < 2**31 else np.intp
        identity = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
        images = frozenset(tuple(zip(*matrix)) for matrix in group) | {identity}
        rows = {row for image in images for row in image}
        negated = {row: tuple(-x for x in row) for row in rows}
        if tuple(map(negated.get, identity)) not in images:
            # k -> -k is not in the group yet: join it.
            images |= {tuple(map(negated.get, image)) for image in images}
        axis = np.arange(m)
        entries = {sign * c for row in rows for c in row if c for sign in (1, -1)}
        residues = {c: (c * axis % m).astype(dtype) for c in entries}
        shapes = [[m if i == s else 1 for i in range(d)] for s in range(d)]

        def term(row, j):
            # (row . k mod m) * stride_j on the axes the row touches,
            # broadcast along the others: a row with one nonzero entry
            # gives an axis array, not a full-grid one.
            touched = [residues[c].reshape(shapes[s]) for s, c in enumerate(row) if c]
            coordinate = touched[0]
            for other in touched[1:]:
                # Two residues add up to less than 2m: one masked subtraction
                # reduces the sum, cheaper than a remainder, which divides.
                coordinate = coordinate + other
                np.subtract(coordinate, m, out=coordinate, where=coordinate >= m)
            return coordinate * strides[j]

        # The identity is among the images, so the least linear index over
        # the orbit of k is at most k.
        least = _least_partial_index(images, d, term, {})
        orbit_min = np.broadcast_to(least, (m,) * d).reshape(n)
        keep = np.ones(pts.shape[0], dtype=bool)
        keep[:n] = orbit_min == np.arange(n, dtype=dtype)
        kept = np.flatnonzero(keep)
        # The row of each kept point in theta, then of each point's minimum,
        # which is kept.
        index = np.empty(pts.shape[0], dtype=dtype)
        index[kept] = np.arange(len(kept), dtype=dtype)
        index[:n] = index.take(orbit_min)
        return pts.take(kept, axis=0), index, pts


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
    """Per-branch envelopes plus the separated open-band / flat-band view.

    rounding_tol is the `_rounding_tol` of the band edges: the default
    flat_tol, and the slack of every check that reads the structure."""

    kind: str
    bands: tuple[BandInterval, ...]
    open_bands: tuple[BandInterval, ...]
    flat_bands: tuple[FlatBand, ...]
    gaps: tuple[tuple[float, float], ...]
    spectrum_measure: float
    flat_tol: float
    rounding_tol: float
    grid: TorusGrid

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


def _check(name: str, lhs: float, rhs: float, tol: float) -> InequalityCheck:
    slack = float(rhs) - float(lhs)
    return InequalityCheck(name, float(lhs), float(rhs), slack, slack >= -tol)


def _deviation(name: str, deviation: float, tol: float) -> InequalityCheck:
    # Equality-style check: |deviation| must vanish up to tol.
    dev = abs(float(deviation))
    return InequalityCheck(name, dev, 0.0, -dev, dev <= tol)


def _connected_grid(spec: PeriodicGraphSpec, grid: TorusGrid | None) -> TorusGrid:
    """`grid`, or the default grid of the graph's dimension when it is None,
    after the cover-connectivity test that every band computation starts with."""
    if not is_connected_periodic(spec):
        raise PreconditionError("periodic cover is disconnected")
    if grid is None:
        return TorusGrid.default_for(spec.dimension)
    if grid.dimension != spec.dimension:
        raise ParameterError("grid dimension does not match the graph")
    return grid


def _loop_edge_corners(spec: PeriodicGraphSpec, cls) -> tuple | None:
    """(0, theta*) for a loop graph with a flip corner theta*, else None.

    In a loop graph every cell-crossing edge is a loop, so
    H(theta) = H(0) + diag_v sum 2(1 - cos<n, theta>) over the loops n at v.
    At the flip corner cos<n, theta*> = -1 for every loop, hence
    H(0) <= H(theta) <= H(theta*) in Loewner order and, by Weyl's
    monotonicity, lambda_n(0) <= lambda_n(theta) <= lambda_n(theta*): the
    eigenvalues of H at the two points are the band edges exactly.
    """
    if not cls.is_loop_graph or cls.precise_quasimomentum is None:
        return None
    return (0.0,) * spec.dimension, cls.precise_quasimomentum


def _rounding_tol(lows, highs) -> float:
    """ROUNDING_ULPS * nu * eps * (1 + scale) for the band edges lows and
    highs of nu branches, scale being the largest band-edge magnitude."""
    scale = max(float(np.abs(lows).max()), float(np.abs(highs).max()))
    return ROUNDING_ULPS * len(lows) * float(np.finfo(float).eps) * (1.0 + scale)


def grid_eigenvalues(
    spec: PeriodicGraphSpec, thetas: np.ndarray, kind: str, *, inversion=None
) -> np.ndarray:
    """Sorted fiber eigenvalues at every torus point, shape (P, nu); with an
    `inversion` of `spec`, solved as real symmetric fibers (`fiber_stack`)."""
    return eigh_stack(fiber_stack(spec, thetas, kind, inversion=inversion))[0]


def _envelopes(thetas: np.ndarray, values: np.ndarray):
    """Per-branch (lows, highs, argmins, argmaxs, tie) over sampled points.

    lows and highs are the exact minima and maxima; each extremizer is the
    first point, in row order, within tie = `_rounding_tol` of its envelope.
    """
    lows = values.min(axis=0)
    highs = values.max(axis=0)
    tie = _rounding_tol(lows, highs)
    low_idx = (values <= lows + tie).argmax(axis=0)
    high_idx = (values >= highs - tie).argmax(axis=0)
    argmins = list(map(tuple, thetas[low_idx].tolist()))
    argmaxs = list(map(tuple, thetas[high_idx].tolist()))
    return lows, highs, argmins, argmaxs, tie


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


def _flat_groups(lows, highs, tol: float):
    """(indices of open branches, [(value, multiplicity)] of flat bands).

    A branch is flat when its width is at most tol; adjacent flat branches
    whose midpoints differ by at most tol form one flat band valued at the
    mean of their midpoints.
    """
    opens = []
    groups: list[list[float]] = []
    previous_flat = False
    for n, (low, high) in enumerate(zip(lows, highs)):
        if high - low <= tol:
            value = 0.5 * (low + high)
            if previous_flat and abs(groups[-1][-1] - value) <= tol:
                groups[-1].append(value)
            else:
                groups.append([value])
            previous_flat = True
        else:
            opens.append(n)
            previous_flat = False
    return opens, [(float(sum(g) / len(g)), len(g)) for g in groups]


def _assemble_structure(kind: str, grid: TorusGrid, edges, flat_tol) -> BandStructure:
    """The structure of the band edges `edges`, an `_envelopes` tuple
    (lows, highs, argmins, argmaxs, rounding_tol)."""
    lows, highs, argmins, argmaxs, rounding_tol = edges
    tol = flat_tol if flat_tol is not None else rounding_tol
    bands = tuple(
        BandInterval(n + 1, float(lows[n]), float(highs[n]), argmins[n], argmaxs[n])
        for n in range(len(lows))
    )
    opens, groups = _flat_groups([b.low for b in bands], [b.high for b in bands], tol)
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
        rounding_tol=rounding_tol,
        grid=grid,
    )


def _descend_in_rounds(thetas, best, steps, nu, objective) -> None:
    """Run the descents of `_refine_extrema` from thetas, with objective
    values best and steps, in speculative rounds; updates all three in place.

    A round gives each live descent its next D trials of the schedule as if
    all were rejected: trial j is the current theta plus +-step 2^-h along
    its axis, h the sweeps ended before it that halve the step.
    `objective(points, owner)` evaluates every trial, of descent owner[i]
    at points[i], in one call.  Each descent then takes its first improving
    trial, with the step the one-trial loop has there, and drops the rest,
    or takes up all D when none improves.
    """
    count, d = thetas.shape
    sweep, total = 2 * d, REFINE_ITERATIONS * 2 * d
    # The axis, sign and sweep of each trial of the schedule, and the sweep
    # of the position after the last.
    schedule = np.arange(total + 1)
    axis_of = schedule % sweep // 2
    sign_of = np.where(schedule % 2, -1.0, 1.0)
    sweep_of = schedule // sweep
    # shrink[t, h] = 2^-max(sweep_of[t] - h, 0): the factor by which the
    # ends of sweeps h, h + 1, ... have halved a step by trial t.
    shrink = np.ldexp(1.0, np.minimum(np.arange(REFINE_ITERATIONS + 1) - sweep_of[:, None], 0))
    lookahead = np.arange(4 * sweep)
    rows = np.arange(count * 4 * sweep)
    work = _REFINE_ROUND_WORK // nu**3
    # Per descent: the trials taken so far, and the first sweep whose end
    # halves its step, the current one or, once that has taken a trial, the
    # next.  A finished descent has taken every trial and halves no more.
    taken = np.zeros(count, dtype=np.intp)
    halving = np.zeros(count, dtype=np.intp)
    live = count
    while live:
        ahead = min(max(work // live, 1), 4 * sweep)
        block = taken[:, None] + lookahead[:ahead]
        keep = block < total
        owner = keep.nonzero()[0]
        trial = block[keep]
        sizes = steps[owner] * shrink[trial, halving[owner]]
        points = thetas[owner]
        points[rows[: len(owner)], axis_of[trial]] += sign_of[trial] * sizes
        values = objective(points, owner)
        # Every descent takes up its trials; then each that improved goes
        # back to its first improving trial, which it takes.
        taken += ahead
        np.minimum(taken, total, out=taken)
        steps *= shrink[taken, halving]
        np.maximum(halving, sweep_of[taken], out=halving)
        hits = (values < best[owner]).nonzero()[0]
        lead = np.ones(len(hits), dtype=bool)
        lead[1:] = owner[hits[1:]] != owner[hits[:-1]]
        first = hits[lead]
        better = owner[first]
        thetas[better] = points[first]
        best[better] = values[first]
        steps[better] = sizes[first]
        taken[better] = trial[first] + 1
        halving[better] = sweep_of[trial[first]] + 1
        live = np.count_nonzero(taken < total)


def _refine_extrema(spec, kinds, edges, step, inversion):
    """Coordinate descents from grid extremizers, halving each step on a stall.

    edges holds the `_envelopes` of each of `kinds`; the lower (upper) edge
    of branch n descends on lambda_n (-lambda_n) of its kind.  Each descent
    runs REFINE_ITERATIONS sweeps of 2d trials, +step and then -step along
    each axis in turn; a trial that lowers its objective is taken, and a
    sweep that takes none halves the step.  Every kind is built at all of a
    round's trial points in one `fiber_stack` call, whose row of each
    trial's own kind is solved in one `eigh_stack` call; with `inversion`
    the stacks are real, in its basis.

    The 2 K nu descents look ahead D = _REFINE_ROUND_WORK // (live descents
    * nu^3) trials per round, at least 1 and at most 4 sweeps
    (`_descend_in_rounds`).  With D = 1 for all of them at the start, the
    rounds are the schedule's trial steps, taken in lockstep.  A trial is
    the same point, to the bit, as in the one-trial loop (halving a step k
    times is multiplying it by 2^-k), and LAPACK and the phase sum compute
    each matrix on its own, so the refined edges and extremizers do not
    depend on D.  Returns them as `_envelopes` tuples.
    """
    nu = len(edges[0][0])
    thetas = np.array([p for _, _, argmins, argmaxs, _ in edges for p in argmins + argmaxs])
    count = len(thetas)
    rows = np.arange(count)
    # Descent j reads branch j mod nu of kind j // (2 nu): its trial at row r
    # of P points reads row (j // (2 nu)) * P + r of the kind-major stack.
    kind_of = rows // (2 * nu)
    branches = rows % nu
    signs = np.where(rows // nu % 2, -1.0, 1.0)

    def objective(points, owner):
        at = np.arange(len(points))
        stacks = fiber_stack(spec, points, kinds, inversion=inversion)
        stack = stacks[kind_of[owner] * len(points) + at]
        return signs[owner] * eigh_stack(stack)[0][at, branches[owner]]

    best = objective(thetas, rows)
    steps = np.full(count, step)
    _descend_in_rounds(thetas, best, steps, nu, objective)
    points = thetas.reshape(len(edges), 2, nu, -1).tolist()
    return [
        (lows, highs, list(map(tuple, mins)), list(map(tuple, maxs)), _rounding_tol(lows, highs))
        for (lows, highs), (mins, maxs) in zip((signs * best).reshape(-1, 2, nu), points)
    ]


def _orbit_group(spec: PeriodicGraphSpec, grid: TorusGrid, kinds) -> tuple:
    """(group, inversion): the matrices of the band-symmetry group of the
    operator `kinds`, and an inversion of the graph that certifies -I in it
    (`symmetry.band_symmetries`), in whose basis `fiber_stack` builds real
    fibers of `kinds`, or None; ((), None) when the grid is too small for
    the search to pay (SYMMETRY_SEARCH_MIN_POINTS).

    Only H carries the potentials, so without "schrodinger" among `kinds`
    the group is searched on the graph without them, which can only add
    symmetries.  A loop graph gets no inversion: its vertex-basis fibers
    are real already, so -I is not searched for again.
    """
    if (grid.size + 2**grid.dimension) // 2 < SYMMETRY_SEARCH_MIN_POINTS:
        return (), None
    if "schrodinger" not in kinds and any(spec.potentials()):
        spec = with_potentials(spec, (0.0,) * spec.num_vertices)
    # Imported here, on first use: importing the search with the package
    # would add its compile time to every start-up that reads no bytecode
    # cache, also for calls that never search.
    from .symmetry import band_symmetries, band_symmetry_group

    if is_loop_graph(spec):
        return band_symmetry_group(spec), None
    return band_symmetries(spec)


def _band_structure(spec, cls, kinds, grid, flat_tol, refine):
    """(thetas, fibers, {kind: (structure, values)}) for each of `kinds`: the
    sample solved, the fiber stack solved there, or None when it is real in
    the basis of an inversion (`_orbit_group`), and the sorted eigenvalue
    rows of each kind there.

    `cls` classifies `spec`.  With a flip corner theta* (`_loop_edge_corners`)
    every kind is a constant matrix minus a nonnegative diagonal times the
    loops' cosines, so its rows at theta = 0 and theta* are its band edges
    exactly.  Else one orbit sample serves every kind: a graph symmetry keeps
    degrees and potentials, so the band-symmetry group of H is one of every
    kind; without H among `kinds` the group of the graph without potentials
    is used (`_orbit_group`).  With no potentials a Laplacian asked for with
    H is H's structure.  Four steps: the sample, whose kinds are built from
    one phase sum and solved in one eigensolver call (fibers holds their
    stacks, kind-major in the order of `kinds` less that Laplacian; theta = 0
    is the first row); each kind's envelopes; with `refine`, one
    `_refine_extrema` call that moves every kind's edges off the sample
    (thetas and values stay the sample's); the structures.
    """
    grid = _connected_grid(spec, grid)
    corners = _loop_edge_corners(spec, cls)
    inversion = None
    if corners is None:
        group, inversion = _orbit_group(spec, grid, kinds)
        thetas = grid.representatives(group)[0]
    else:
        thetas, refine = np.asarray(corners), False
    kinds = tuple(dict.fromkeys(kinds))
    laplacian_is_h = "schrodinger" in kinds and not any(spec.potentials())
    solved = tuple(kind for kind in kinds if not (laplacian_is_h and kind == "laplacian"))
    fibers = fiber_stack(spec, thetas, solved, inversion=inversion)
    rows = eigh_stack(fibers)[0].reshape(len(solved), len(thetas), -1)
    edges = [_envelopes(thetas, values) for values in rows]
    if refine:
        edges = _refine_extrema(spec, solved, edges, TWO_PI / grid.points_per_axis, inversion)
    structures = {
        kind: (_assemble_structure(kind, grid, edge, flat_tol), values)
        for kind, edge, values in zip(solved, edges, rows)
    }
    if laplacian_is_h and "laplacian" in kinds:
        structures["laplacian"] = structures["schrodinger"]
    return thetas, fibers if inversion is None else None, structures


def compute_band_structure(
    spec: PeriodicGraphSpec,
    kind: str = "schrodinger",
    grid: TorusGrid | None = None,
    flat_tol: float | None = None,
    refine: bool = False,
) -> BandStructure:
    """Bands, flat bands and gaps of the fiber over the torus.

    A flip-corner loop graph's edges are exact at theta = 0 and theta*; its
    grid is validated, not sampled, and `refine` has no effect.  Any other
    graph solves one grid point per band-symmetry orbit (`TorusGrid.representatives`).
    """
    return _band_structure(spec, classify(spec), (kind,), grid, flat_tol, refine)[2][kind][0]


def _total_band_report(spec, bs: BandStructure) -> EstimateReport:
    count, _ = bridge_count(spec)
    band_sum = bs.band_length_sum
    tol = bs.rounding_tol
    checks = (
        _check("spectrum-measure<=band-length-sum", bs.spectrum_measure, band_sum, tol),
        _check("band-length-sum<=2*bridge-count", band_sum, 2.0 * count, tol),
    )
    return EstimateReport(
        "total-band-length-bound",
        checks,
        {
            "bridge_count": count,
            "band_length_sum": band_sum,
            "spectrum_measure": bs.spectrum_measure,
            "equality_attained": abs(band_sum - 2.0 * count) <= tol,
        },
    )


def verify_total_band_bound(
    spec: PeriodicGraphSpec,
    kind: str = "schrodinger",
    grid: TorusGrid | None = None,
) -> EstimateReport:
    """Spectrum measure <= total band length <= twice the oriented bridge count."""
    return _total_band_report(spec, compute_band_structure(spec, kind, grid))


def _gap_report(spec, bs: BandStructure, laplacian: BandStructure) -> EstimateReport:
    """The gap bound of the operator whose structure is `bs` and whose
    potentials are those of `spec`; `laplacian` is the Laplacian's structure.

    The gap sum is the open bands', so the gap row reads their hull (a flat
    band beyond it adds as much to the all-band hull as to the gaps of
    sigma(H)).  The floor row and `band_hull` read the hull of all bands."""
    count, _ = bridge_count(spec)
    potentials = spec.potentials()
    spread = max(potentials) - min(potentials)
    hull_lo, hull_hi = bs.hull
    hull = hull_hi - hull_lo
    opens = bs.open_bands
    hull_minus = (opens[-1].high - opens[0].low if opens else 0.0) - 2.0 * count
    top_laplacian = laplacian.bands[-1].high
    floor = max(top_laplacian - spread, spread - 2.0 * max(degrees(spec)))
    tol = max(bs.rounding_tol, laplacian.rounding_tol)
    checks = (
        _check("band-hull-minus-bridges<=gap-length-sum", hull_minus, bs.gap_length_sum, tol),
        _check("potential-degree-floor<=band-hull", floor, hull, tol),
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


def verify_gap_bound(spec: PeriodicGraphSpec, grid: TorusGrid | None = None) -> EstimateReport:
    """Total gap length dominates the open bands' hull length minus twice the
    bridge count."""
    kinds = ("schrodinger", "laplacian")
    structures = _band_structure(spec, classify(spec), kinds, grid, None, False)[2]
    return _gap_report(spec, structures["schrodinger"][0], structures["laplacian"][0])


def _extremizing_corners(spec, grid, label):
    """(cls, points, fibers, rows, tol): the classification of `spec`, its
    lower and upper extremizing corners in that order, H and its sorted
    eigenvalue rows there, and the rounding_tol of its band structure.

    The band edges of H are solved as `compute_band_structure` solves them,
    and the corners are matched among the corners of that sample: all of
    {0, pi}^d, or the first of each symmetry orbit in grid order, or
    theta = 0 and theta* alone for a flip-corner loop graph, whose other
    corners miss its upper edges.  The lower (resp. upper) corner is the
    first one at which every branch is within rounding_tol of its lower
    (resp. upper) band edge.  A graph without such a corner raises
    PreconditionError naming the graph `label` and the corner that comes
    closest.  H at the two chosen corners is read from the sample's fibers,
    or built at them when the sample is real in an inversion's basis: the
    entrywise distances of `stability_constants` are taken in the vertex
    basis.
    """
    cls = classify(spec)
    thetas, fibers, structures = _band_structure(spec, cls, ("schrodinger",), grid, None, False)
    bs, values = structures["schrodinger"]
    at_corner = np.flatnonzero(((thetas == 0.0) | (thetas == math.pi)).all(axis=1))
    corners, rows = thetas[at_corner], values[at_corner]
    lows = np.asarray([b.low for b in bs.bands])
    highs = np.asarray([b.high for b in bs.bands])
    chosen = []
    for side, target in (("lower", lows), ("upper", highs)):
        deviation = np.abs(rows - target)
        worst = deviation.max(axis=1)
        hits = np.flatnonzero(worst <= bs.rounding_tol)
        if not hits.size:
            best = int(worst.argmin())
            raise PreconditionError(
                f"graph {label}: no corner point attains every {side} band endpoint "
                f"(best corner {tuple(corners[best].tolist())} misses band "
                f"{int(deviation[best].argmax()) + 1} by {float(worst[best]):.3e})"
            )
        chosen.append(int(hits[0]))
    picked = at_corner[chosen]
    points = thetas[picked]
    fibers = fiber_stack(spec, points, "schrodinger") if fibers is None else fibers[picked]
    return cls, list(map(tuple, points.tolist())), fibers, values[picked], bs.rounding_tol


def _entry_l1(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).sum())


def stability_constants(
    spec_a: PeriodicGraphSpec,
    spec_b: PeriodicGraphSpec,
    grid: TorusGrid | None = None,
) -> EstimateReport:
    """Band-edge and gap-length variation between two graphs on one lattice,
    bounded by the entrywise l1 distance of their fiber matrices at the
    shared extremizers.

    Both graphs must have one dimension and one vertex count, and both are
    sampled on `grid` (the default grid of their dimension when None).  Each
    must admit uniform lower and upper extremizing corners
    (`_extremizing_corners`).  When the pair is additionally
    bipartite-regular (potential-free) or precise-vs-bipartite, the
    specialized two-sided bounds are checked too.  Every row's slack is the
    larger rounding_tol of the two graphs.  A constant that overflows
    float64 raises NumericError.
    """
    if spec_a.dimension != spec_b.dimension:
        raise PreconditionError(f"dimension mismatch: {spec_a.dimension} != {spec_b.dimension}")
    if spec_a.num_vertices != spec_b.num_vertices:
        raise PreconditionError(
            f"vertex count mismatch: {spec_a.num_vertices} != {spec_b.num_vertices}"
        )
    cls_a, points_a, fibers_a, (lows_a, highs_a), tol_a = _extremizing_corners(spec_a, grid, "A")
    cls_b, points_b, fibers_b, (lows_b, highs_b), tol_b = _extremizing_corners(spec_b, grid, "B")
    tol = max(tol_a, tol_b)
    # Finite band edges and fibers can still be too far apart to subtract or
    # sum in float64; such a report is refused below, as one error.
    with np.errstate(over="ignore", invalid="ignore"):
        c_total = _entry_l1(fibers_a[0], fibers_b[0]) + _entry_l1(fibers_a[1], fibers_b[1])
        gaps_a = lows_a[1:] - highs_a[:-1]
        gaps_b = lows_b[1:] - highs_b[:-1]
        gap_variation = float(np.abs(gaps_a - gaps_b).sum())
        edge_gap_variation = (
            abs(lows_a[0] - lows_b[0]) + abs(highs_a[-1] - highs_b[-1]) + gap_variation
        )
        length_variation = float(np.abs((highs_a - lows_a) - (highs_b - lows_b)).sum())
        checks = [
            _check("edge-and-gap-variation<=2C", edge_gap_variation, 2.0 * c_total, tol),
            _check("band-length-variation<=2C", length_variation, 2.0 * c_total, tol),
        ]
        params = {
            "c_total": c_total,
            "theta_minus_a": points_a[0],
            "theta_plus_a": points_a[1],
            "theta_minus_b": points_b[0],
            "theta_plus_b": points_b[1],
        }

        # theta = 0 attains a loop graph's lower edges and is its first sample
        # row, so it is a loop graph's lower corner.  A bipartite side has no
        # potentials, so its lower fiber is its Laplacian zero fiber.
        bip_a, bip_b = (
            c.periodic_bipartite and c.is_regular and c.is_loop_graph and not any(s.potentials())
            for c, s in ((cls_a, spec_a), (cls_b, spec_b))
        )
        if bip_a and bip_b and cls_a.regular_degree == cls_b.regular_degree:
            c_pair = _entry_l1(fibers_a[0], fibers_b[0])
            checks += [
                _check("bipartite-pair-gap-variation<=4C0", gap_variation, 4.0 * c_pair, tol),
                _check("bipartite-pair-band-variation<=4C0", length_variation, 4.0 * c_pair, tol),
            ]
            params["c_bipartite_pair"] = c_pair

        # The precise side P is a flip-corner loop graph, so its corners are
        # theta = 0 and theta*; the other side Q is bipartite.  When both
        # orders qualify, A is the precise side.
        side_a = (cls_a, fibers_a, lows_a, highs_a, bip_a)
        side_b = (cls_b, fibers_b, lows_b, highs_b, bip_b)
        for (cls_p, fibers_p, lows_p, highs_p, _), (cls_q, fibers_q, *_, bip_q) in (
            (side_a, side_b),
            (side_b, side_a),
        ):
            if cls_p.precise_quasimomentum is None or not bip_q:
                continue
            kappa = cls_q.regular_degree
            base = fibers_q[0]
            c_mixed = _entry_l1(fibers_p[0], base) + _entry_l1(
                fibers_p[1] + base, 2.0 * kappa * np.eye(len(base))
            )
            lhs_edges = abs(lows_p[0]) + abs(2.0 * kappa - highs_p[-1]) + gap_variation
            checks += [
                _check("precise-vs-bipartite-gap-variation<=2C1", lhs_edges, 2.0 * c_mixed, tol),
                _check(
                    "precise-vs-bipartite-band-variation<=2C1", length_variation, 2.0 * c_mixed, tol
                ),
            ]
            params["c_precise_vs_bipartite"] = c_mixed
            break
    for check in checks:
        if not (math.isfinite(check.lhs) and math.isfinite(check.rhs)):
            raise NumericError(f"stability constants: {check.name} overflows float64")
    return EstimateReport("stability-bounds", tuple(checks), params)


def estimate_suite(
    spec: PeriodicGraphSpec,
    kind: str = "schrodinger",
    grid: TorusGrid | None = None,
    *,
    flat_tol: float | None = None,
    refine: bool = False,
):
    """Classification, band structure, and every applicable estimate report.

    The operator's and the Laplacian's band structures and theta = 0 rows
    come from one `_band_structure` call.  The Laplacian and normalized
    operators carry no potential, so for those kinds the reports read the
    graph without one.
    Returns (classification, band_structure, reports).
    """
    cls = classify(spec)
    if kind != "schrodinger":
        # Only H carries the potentials; the reports describe the operator analyzed.
        spec = with_potentials(spec, (0.0,) * spec.num_vertices)
    kinds = (kind,) if kind == "normalized" else (kind, "laplacian")
    solved = _band_structure(spec, cls, kinds, grid, flat_tol, refine)[2]
    structures = {k: (structure, values[0]) for k, (structure, values) in solved.items()}
    bs, zero_vals = structures[kind]
    # Every row's slack: the largest rounding tolerance of the structures read.
    tol = max(structure.rounding_tol for structure, _ in structures.values())
    reports = []

    if kind == "normalized":
        checks = (
            _check("0<=normalized-min", 0.0, bs.bands[0].low, tol),
            _check("normalized-max<=2", bs.bands[-1].high, 2.0, tol),
            _deviation("minimum-attained-at-zero-point", bs.bands[0].low - zero_vals[0], tol),
        )
        reports.append(EstimateReport("normalized-containment", checks))
        return cls, bs, tuple(reports)

    bs0, zero_vals0 = structures["laplacian"]
    reports.append(_total_band_report(spec, bs))
    reports.append(_gap_report(spec, bs, bs0))

    containment = (
        _check("0<=laplacian-min", 0.0, bs0.bands[0].low, tol),
        _check("laplacian-max<=2*max-degree", bs0.bands[-1].high, 2.0 * cls.max_degree, tol),
        _deviation("laplacian-zero-eigenvalue-at-zero-point", zero_vals0[0], tol),
        _deviation("minimum-attained-at-zero-point", bs.bands[0].low - zero_vals[0], tol),
    )
    reports.append(EstimateReport("spectral-containment", containment))

    if cls.is_loop_graph:
        checks, params = [], {}
        if cls.precise_quasimomentum is None:
            # Sampled edges: the lower ones must be the zero fiber's.
            lows = np.asarray([b.low for b in bs.bands])
            dev = float(np.abs(lows - zero_vals).max())
            checks.append(_deviation("loop-lower-endpoints-at-zero-point", dev, tol))
        else:
            two_beta = 2.0 * cls.bridge_count
            checks.append(
                _deviation("flip-corner-band-length-identity", bs.band_length_sum - two_beta, tol)
            )
            _, bridges = bridge_count(spec)
            single_vertex = len({e.tail for e in bridges}) <= 1
            params["bridges_at_single_vertex"] = single_vertex
            if single_vertex:
                checks.append(
                    _deviation("flip-corner-measure-identity", bs.spectrum_measure - two_beta, tol)
                )
        reports.append(EstimateReport("loop-graph-endpoints", tuple(checks), params))

    if cls.periodic_bipartite and cls.is_regular:
        kappa = cls.regular_degree
        floor = 2.0 * (kappa - cls.bridge_count)
        checks = [_check("bipartite-gap-floor<=laplacian-gap-sum", floor, bs0.gap_length_sum, tol)]
        if cls.fundamental_bipartite or cls.is_loop_graph:
            # Band endpoints mirror through the degree only when the quotient
            # 2-colors (every fiber is symmetric) or when endpoints come from
            # the zero fiber and its mirror.
            lows0 = np.asarray([b.low for b in bs0.bands])
            highs0 = np.asarray([b.high for b in bs0.bands])
            symmetry_dev = float(np.abs(lows0 + highs0[::-1] - 2.0 * kappa).max())
            checks.append(_deviation("bipartite-band-symmetry", symmetry_dev, tol))
        if cls.is_loop_graph:
            # Lower edges are the zero fiber's eigenvalues, upper edges their
            # mirror through kappa.
            dev = max(
                float(np.abs(zero_vals0 - lows0).max()),
                float(np.abs(2.0 * kappa - zero_vals0[::-1] - highs0).max()),
            )
            checks.append(_deviation("bipartite-loop-endpoint-match", dev, tol))
        reports.append(EstimateReport("bipartite-regular-structure", tuple(checks)))

    return cls, bs, tuple(reports)
