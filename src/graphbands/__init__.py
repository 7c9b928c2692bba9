"""Spectra of Laplace and Schroedinger operators on Z^d-periodic graphs.

The package models a periodic graph by its finite quotient (vertices with
on-site potentials, edges with integer cell-offset indices), assembles the
Hermitian fiber matrices over the torus of quasimomenta, and computes band
structures, flat bands, gaps and the quantitative estimates relating them to
the graph's combinatorics.
"""

from .errors import (
    GraphbandsError,
    NumericError,
    ParameterError,
    PreconditionError,
    ValidationError,
)
from .graph import (
    EdgeRecord,
    GraphClassification,
    OrientedEdge,
    PeriodicGraphSpec,
    VertexInfo,
    bridge_count,
    classify,
    degrees,
    fundamental_bipartite,
    is_connected_periodic,
    oriented_edges,
    periodic_bipartite,
    with_potentials,
)
from .spectrum import (
    BandInterval,
    BandStructure,
    EstimateReport,
    FlatBand,
    InequalityCheck,
    TorusGrid,
    compute_band_structure,
    estimate_suite,
    fiber_eigenvalues,
    stability_constants,
    verify_gap_bound,
    verify_total_band_bound,
)
from . import lattices

__version__ = "0.1.0"

__all__ = [
    "BandInterval",
    "BandStructure",
    "EdgeRecord",
    "EstimateReport",
    "FlatBand",
    "GraphClassification",
    "GraphbandsError",
    "InequalityCheck",
    "NumericError",
    "OrientedEdge",
    "ParameterError",
    "PeriodicGraphSpec",
    "PreconditionError",
    "TorusGrid",
    "ValidationError",
    "VertexInfo",
    "bridge_count",
    "classify",
    "compute_band_structure",
    "degrees",
    "estimate_suite",
    "fiber_eigenvalues",
    "fundamental_bipartite",
    "is_connected_periodic",
    "lattices",
    "oriented_edges",
    "periodic_bipartite",
    "stability_constants",
    "verify_gap_bound",
    "verify_total_band_bound",
    "with_potentials",
]
