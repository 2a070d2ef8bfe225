"""Discrete Wasserstein barycenters of finitely supported measures via
interchangeable sparse LP formulations."""

from .measures import (
    DiscreteMeasure,
    GridSpec,
    InvariantError,
    ParseError,
    Problem,
    WeightError,
    load_problem,
    uniform_weights,
    validate_measure,
    validate_problem,
)
from .support import (
    CombinationBlowupError,
    GridRegimeError,
    HybridSplit,
    SupportAtlas,
    build_atlas_exact,
    build_atlas_grid,
    combination_chunks,
    count_dice,
    hybrid_split,
)
from .models import (
    FormulationError,
    LpModel,
    SizePrediction,
    build_general,
    build_hybrid,
    build_original,
    build_reduced,
    predict_sizes,
    variable_reduction,
)
from .solver import (
    BarycenterSolution,
    ExtractionError,
    LpSolution,
    VerificationReport,
    export_mps,
    extract_barycenter,
    solution_json,
    solve,
    verify_solution,
)

__version__ = "0.1.0"
