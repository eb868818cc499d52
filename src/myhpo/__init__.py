"""Bi-level hyperparameter optimization toolkit.

Solvers for tuning a scalar log-scale regularization weight by descending
the validation loss through an affine best-response hypernetwork:

- :mod:`myhpo.moreau` -- the Moreau-Yosida regularized consensus solver
  (constant-step, backtracking, and exact-minimization variants);
- :mod:`myhpo.sho` -- the stochastic alternating-gradient baseline;
- :mod:`myhpo.search` -- random and grid search over fixed-lambda training;
- :mod:`myhpo.model` -- losses, gradients, and the hypernetwork algebra;
- :mod:`myhpo.data` -- loaders, splits, and the ill-conditioned generator;
- :mod:`myhpo.bench` -- the budgeted benchmark harness behind the
  ``myhpo-bench`` command line.
"""

from .model import (
    LEAST_SQUARES,
    LOGISTIC,
    BestResponse,
    Dataset,
    DimensionMismatch,
    LossSpec,
    NonFiniteIterate,
    SplitDegenerate,
    best_response,
    grad_lambda_val,
    grad_w_train,
    grad_w_val,
    split_best_response,
    train_loss,
    val_loss,
)
from .moreau import (
    InnerSolveFailed,
    MyhpoConfig,
    MyhpoState,
    Residuals,
    check_stationarity,
    my_step_backtracking,
    my_step_full,
    my_step_simplified,
    myhpo_run,
    residuals,
)
from .search import (
    SearchConfig,
    SearchResult,
    grid_candidates,
    random_candidates,
    search_run,
    train_model,
)
from .sho import ShoConfig, ShoState, sho_run, sho_step
from .trace import RunTrace, TraceRow

__all__ = [
    "LEAST_SQUARES",
    "LOGISTIC",
    "BestResponse",
    "Dataset",
    "DimensionMismatch",
    "InnerSolveFailed",
    "LossSpec",
    "MyhpoConfig",
    "MyhpoState",
    "NonFiniteIterate",
    "Residuals",
    "RunTrace",
    "SearchConfig",
    "SearchResult",
    "ShoConfig",
    "ShoState",
    "SplitDegenerate",
    "TraceRow",
    "best_response",
    "check_stationarity",
    "grad_lambda_val",
    "grad_w_train",
    "grad_w_val",
    "grid_candidates",
    "my_step_backtracking",
    "my_step_full",
    "my_step_simplified",
    "myhpo_run",
    "random_candidates",
    "residuals",
    "search_run",
    "sho_run",
    "sho_step",
    "split_best_response",
    "train_loss",
    "train_model",
    "val_loss",
]

__version__ = "0.1.0"
