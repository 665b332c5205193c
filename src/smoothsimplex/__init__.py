"""Smooth standard simplices, their deformation retractions, and bounded
model-category checks on finite simplicial sets."""

from .engine import (
    FactorizationStage,
    GeneratingSet,
    LiftingProblem,
    edge_group_rank,
    fill_horn_numeric,
    igc_factor,
    pi0,
    rlp_check,
)
from .geometry import (
    AffineSimplexMap,
    Bary,
    BasedMap,
    ChartDecomp,
    OutOfDomain,
    barycentric_grid,
    beta_map,
    chart_decompose,
    chart_transition,
    concat_product,
    gamma_map,
    good_nbhd_Phi,
    good_nbhd_Phi_inverse,
    in_good_neighborhood,
    phi_chart,
)
from .homotopy import (
    EvaluableHomotopy,
    build_boundary_homotopy_T,
    build_full_horn_deformation,
    build_halfopen_deformation,
)
from .probe import smoothness_probe
from .realization import (
    RealPoint,
    canonical_injection,
    normalize,
    realize_map,
    witness_not_single_generated,
)
from .simplicial import (
    FiniteSimplicialSet,
    SimplexRef,
    SimplicialMap,
    boundary_complex,
    cone,
    enumerate_simplices,
    horn_complex,
    is_kan_up_to,
    pushout,
    standard_simplicial_set,
)
from .steps import SmoothStep

__version__ = "0.1.0"

__all__ = [
    "AffineSimplexMap", "Bary", "BasedMap", "ChartDecomp",
    "EvaluableHomotopy", "FactorizationStage", "FiniteSimplicialSet",
    "GeneratingSet", "LiftingProblem", "OutOfDomain", "RealPoint",
    "SimplexRef", "SimplicialMap", "SmoothStep",
    "barycentric_grid", "beta_map", "boundary_complex",
    "build_boundary_homotopy_T", "build_full_horn_deformation",
    "build_halfopen_deformation", "canonical_injection", "chart_decompose",
    "chart_transition", "concat_product", "cone", "edge_group_rank",
    "enumerate_simplices", "fill_horn_numeric", "gamma_map",
    "good_nbhd_Phi", "good_nbhd_Phi_inverse", "horn_complex", "igc_factor",
    "in_good_neighborhood", "is_kan_up_to", "normalize", "phi_chart",
    "pi0", "pushout", "realize_map", "rlp_check", "smoothness_probe",
    "standard_simplicial_set", "witness_not_single_generated",
]
