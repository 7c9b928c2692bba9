"""Spectra of Laplace and Schroedinger operators on Z^d-periodic graphs.

The package models a periodic graph by its finite quotient (vertices with
on-site potentials, edges with integer cell-offset indices), assembles the
Hermitian fiber matrices over the torus of quasimomenta, and computes band
structures, flat bands, gaps and the quantitative estimates relating them to
the graph's combinatorics.
"""

from .errors import (
    GraphbandsError,
    InvariantViolation,
    NumericError,
    ParameterError,
    PreconditionError,
    ValidationError,
)
from .floquet import fluctuation_split
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
    minimize_bridges,
    oriented_edges,
    periodic_bipartite,
    shift_origin,
    with_potentials,
)
from .linalg import gf2_solve, integer_lattice_full
from .spectrum import (
    BandInterval,
    BandStructure,
    DiracConeReport,
    EstimateReport,
    FlatBand,
    InequalityCheck,
    LargeCouplingReport,
    TorusGrid,
    bipartite_loop_endpoints,
    check_first_band_nondegenerate,
    check_flat_band_block,
    compute_band_structure,
    dirac_expansion_check,
    estimate_suite,
    fiber_eigenvalues,
    find_uniform_extremizers,
    large_coupling_analysis,
    loop_band_endpoints,
    stability_constants,
    verify_gap_bound,
    verify_total_band_bound,
)
from . import lattices

__version__ = "0.1.0"

__all__ = [
    "BandInterval",
    "BandStructure",
    "DiracConeReport",
    "EdgeRecord",
    "EstimateReport",
    "FlatBand",
    "GraphClassification",
    "GraphbandsError",
    "InequalityCheck",
    "InvariantViolation",
    "LargeCouplingReport",
    "NumericError",
    "OrientedEdge",
    "ParameterError",
    "PeriodicGraphSpec",
    "PreconditionError",
    "TorusGrid",
    "ValidationError",
    "VertexInfo",
    "bipartite_loop_endpoints",
    "bridge_count",
    "check_first_band_nondegenerate",
    "check_flat_band_block",
    "classify",
    "compute_band_structure",
    "degrees",
    "dirac_expansion_check",
    "estimate_suite",
    "fiber_eigenvalues",
    "find_uniform_extremizers",
    "fluctuation_split",
    "fundamental_bipartite",
    "gf2_solve",
    "integer_lattice_full",
    "is_connected_periodic",
    "large_coupling_analysis",
    "lattices",
    "loop_band_endpoints",
    "minimize_bridges",
    "oriented_edges",
    "periodic_bipartite",
    "shift_origin",
    "stability_constants",
    "verify_gap_bound",
    "verify_total_band_bound",
    "with_potentials",
]
