"""causticlab: caustic normal forms, oscillatory integrals, and scaling experiments."""

from .catalog import (
    SingularityType,
    PhaseFunction,
    build_phase,
    caustic_order,
    threshold,
)
from .amplitudes import AmplitudeProfile, make_amplitude, bump, check_symbol_order
from .oscint import IntegralSpec, IntegralResult, evaluate
from .scaling import ScanPlan, ExponentFit, supnorm_scan, fit_exponent, threshold_sweep, geometric_grid
from .torus import CapQuery, ball_count, sphere_cap_count, dyadic_lower_bound_search
from .fold import fold_plan, sharp_exponent, run_fold, fold_family, l2_from_coefficients, lemma_62_suite

__version__ = "0.1.0"

__all__ = [
    "SingularityType", "PhaseFunction",
    "build_phase", "caustic_order", "threshold",
    "AmplitudeProfile", "make_amplitude", "bump",
    "check_symbol_order",
    "IntegralSpec", "IntegralResult", "evaluate",
    "ScanPlan", "ExponentFit", "supnorm_scan", "fit_exponent", "threshold_sweep",
    "geometric_grid",
    "CapQuery", "ball_count", "sphere_cap_count", "dyadic_lower_bound_search",
    "fold_plan", "sharp_exponent", "run_fold", "fold_family",
    "l2_from_coefficients", "lemma_62_suite",
    "__version__",
]
