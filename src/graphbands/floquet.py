"""Fiber matrices of periodic graph operators at a quasimomentum.

For a quotient graph on nu vertices, each point theta of the torus
[0, 2pi)^d yields a nu x nu Hermitian matrix whose entry (j, k) accumulates
exp(i <index, theta>) over the oriented edges from j to k.  The adjacency,
Laplacian, Schroedinger and degree-normalized variants all derive from that
phase sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PreconditionError
from .graph import PeriodicGraphSpec, degrees

MATRIX_KINDS = ("adjacency", "laplacian", "schrodinger", "normalized", "fluctuation")

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Quasimomentum:
    """A torus point, canonicalized componentwise into [0, 2pi)."""

    theta: tuple[float, ...]

    def __post_init__(self):
        canon = []
        for x in self.theta:
            r = math.fmod(float(x), TWO_PI)
            if r < 0.0:
                r += TWO_PI
            if r >= TWO_PI:
                r = 0.0
            canon.append(r)
        object.__setattr__(self, "theta", tuple(canon))

    @property
    def dimension(self) -> int:
        return len(self.theta)


@dataclass(frozen=True)
class FloquetMatrix:
    """A dense Hermitian fiber matrix together with which operator it represents."""

    kind: str
    entries: np.ndarray

    def __post_init__(self):
        if self.kind not in MATRIX_KINDS:
            raise ParameterError(f"unknown matrix kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _theta_rows(spec: PeriodicGraphSpec, theta) -> np.ndarray:
    if isinstance(theta, Quasimomentum):
        theta = theta.theta
    arr = np.atleast_2d(np.asarray(theta, dtype=float))
    if arr.shape[-1] != spec.dimension:
        raise ParameterError(
            f"quasimomentum has {arr.shape[-1]} components, expected {spec.dimension}"
        )
    return arr


def _edge_phase_sum(nv: int, edges, thetas: np.ndarray) -> np.ndarray:
    """Sum over `edges` of exp(i <index, theta>) at (tail, head) and its
    conjugate at (head, tail), shape (P, nu, nu).

    Each edge is filled once, in one orientation, so the result is exactly
    Hermitian; a loop gets both terms on its diagonal entry.
    """
    out = np.zeros((thetas.shape[0], nv, nv), dtype=complex)
    for e in edges:
        if any(e.index):
            phases = np.exp(1j * (thetas @ np.asarray(e.index, dtype=float)))
            out[:, e.tail, e.head] += phases
            out[:, e.head, e.tail] += np.conj(phases)
        else:
            out[:, e.tail, e.head] += 1.0
            out[:, e.head, e.tail] += 1.0
    return out


def adjacency_stack(spec: PeriodicGraphSpec, thetas: np.ndarray) -> np.ndarray:
    """Phase-summed adjacency matrices for a batch of torus points, (P, nu, nu)."""
    return _edge_phase_sum(spec.num_vertices, spec.edges, thetas)


def fiber_stack(spec: PeriodicGraphSpec, thetas: np.ndarray, kind: str) -> np.ndarray:
    """Batch of fiber matrices of the requested kind at the given torus points."""
    adjacency = adjacency_stack(spec, thetas)
    if kind == "adjacency":
        return adjacency
    deg = np.asarray(degrees(spec), dtype=float)
    nv = spec.num_vertices
    idx = np.arange(nv)
    if kind == "normalized":
        if (deg < 1).any():
            raise PreconditionError("normalized operator needs every degree >= 1")
        weights = 1.0 / np.sqrt(deg)
        out = -adjacency * weights[None, :, None] * weights[None, None, :]
        out[:, idx, idx] += 1.0
        return out
    out = -adjacency
    out[:, idx, idx] += deg
    if kind == "laplacian":
        return out
    if kind == "schrodinger":
        out[:, idx, idx] += np.asarray(spec.potentials())
        return out
    raise ParameterError(f"unknown matrix kind {kind!r}")


def _single(spec: PeriodicGraphSpec, theta, kind: str) -> FloquetMatrix:
    stack = fiber_stack(spec, _theta_rows(spec, theta), kind)
    return FloquetMatrix(kind, stack[0])


def adjacency_floquet(spec: PeriodicGraphSpec, theta) -> FloquetMatrix:
    """Phase-summed adjacency matrix at one torus point."""
    return _single(spec, theta, "adjacency")


def laplacian_floquet(spec: PeriodicGraphSpec, theta) -> FloquetMatrix:
    """diag(degrees) minus the phase-summed adjacency; positive semidefinite."""
    return _single(spec, theta, "laplacian")


def schrodinger_floquet(spec: PeriodicGraphSpec, theta) -> FloquetMatrix:
    """Laplacian fiber plus the diagonal of on-site potentials."""
    return _single(spec, theta, "schrodinger")


def normalized_floquet(spec: PeriodicGraphSpec, theta) -> FloquetMatrix:
    """Identity minus the degree-normalized adjacency; spectrum within [0, 2]."""
    return _single(spec, theta, "normalized")


def fluctuation_split(spec: PeriodicGraphSpec, theta):
    """Split the Schroedinger fiber into its torus average plus the bridge part.

    The average keeps the full degrees and potentials but only zero-index
    edges (every cell-crossing phase integrates to zero); the remainder
    collects -exp(i <index, theta>) over bridges only.  Their sum rebuilds
    the fiber exactly.
    """
    nv = spec.num_vertices
    thetas = _theta_rows(spec, theta)[:1]
    local = [e for e in spec.edges if not any(e.index)]
    bridges = [e for e in spec.edges if any(e.index)]
    mean = -_edge_phase_sum(nv, local, thetas)[0]
    fluct = -_edge_phase_sum(nv, bridges, thetas)[0]
    idx = np.arange(nv)
    mean[idx, idx] += np.asarray(degrees(spec), dtype=float)
    mean[idx, idx] += np.asarray(spec.potentials())
    return FloquetMatrix("schrodinger", mean), FloquetMatrix("fluctuation", fluct)
