"""Tail-risk (superquantile / CVaR) training for linear models.

Minimize the average of the worst (1-p) fraction of per-sample losses with
exact subgradient or smoothed gradient oracles and batch first-order solvers.
"""

from .core import (
    Dataset,
    EvaluationError,
    MarginLoss,
    Penalty,
    RiskParams,
    batch_losses,
    check_dual_weights,
    jacobian_transpose_apply,
)
from .superquantile import (
    ExactOracleOutput,
    exact_oracle,
    exact_subgradient_weights,
    quantile,
    superquantile,
)
from .smoothing import (
    SmoothedOracleOutput,
    smoothed_oracle,
    smoothed_weights_entropic,
    smoothed_weights_euclidean,
)
from .models import LinearLeastSquares, LinearLogistic, SingularSystemError, ols_closed_form
from .solvers import (
    Algorithm,
    SolverConfig,
    SolverResult,
    Termination,
    run_solver,
    tune_initial_step,
)
from .dataio import (
    QuantileReport,
    SyntheticSpec,
    append_intercept,
    generate_low_rank,
    generate_targets,
    load_csv,
    residual_quantile_report,
    save_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Algorithm",
    "Dataset",
    "EvaluationError",
    "ExactOracleOutput",
    "LinearLeastSquares",
    "LinearLogistic",
    "MarginLoss",
    "Penalty",
    "QuantileReport",
    "RiskParams",
    "SingularSystemError",
    "SmoothedOracleOutput",
    "SolverConfig",
    "SolverResult",
    "SyntheticSpec",
    "Termination",
    "append_intercept",
    "batch_losses",
    "check_dual_weights",
    "exact_oracle",
    "exact_subgradient_weights",
    "generate_low_rank",
    "generate_targets",
    "jacobian_transpose_apply",
    "load_csv",
    "ols_closed_form",
    "quantile",
    "residual_quantile_report",
    "run_solver",
    "save_csv",
    "smoothed_oracle",
    "smoothed_weights_entropic",
    "smoothed_weights_euclidean",
    "superquantile",
    "tune_initial_step",
]
