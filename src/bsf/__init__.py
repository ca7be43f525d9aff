"""Bezier simplex fitting for simplex-structured Pareto front samples."""

from .bezier import BezierSimplex, face_indices, multi_indices, multinomial
from .fitting import (
    FitConfig,
    FitResult,
    fit_all_at_once,
    fit_inductive_skeleton,
    initialize_control_net,
    project_parameter,
    solve_control_points,
    sse,
)
from .metrics import gd, gd_igd, grid_sample, igd
from .pareto import (
    SampleSet,
    dominates,
    load_sample,
    nondominated_filter,
    save_sample,
    skeleton_decompose,
    subsample,
)
from .problems import get_problem, make_training_set
from .response_surface import fit_response_surface

__version__ = "0.1.0"

__all__ = [
    "BezierSimplex",
    "FitConfig",
    "FitResult",
    "SampleSet",
    "dominates",
    "face_indices",
    "fit_all_at_once",
    "fit_inductive_skeleton",
    "fit_response_surface",
    "gd",
    "gd_igd",
    "get_problem",
    "grid_sample",
    "igd",
    "initialize_control_net",
    "load_sample",
    "make_training_set",
    "multi_indices",
    "multinomial",
    "nondominated_filter",
    "project_parameter",
    "save_sample",
    "skeleton_decompose",
    "solve_control_points",
    "sse",
    "subsample",
]
