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

The package re-exports the names its examples use; every other public
name is imported from its module.
"""

from .model import Dataset, LossSpec, val_loss
from .moreau import MyhpoConfig, MyhpoState, check_stationarity, my_step_full, myhpo_run
from .search import SearchConfig, grid_candidates, random_candidates, search_run
from .sho import ShoConfig, ShoState, sho_run

__all__ = [
    "Dataset",
    "LossSpec",
    "MyhpoConfig",
    "MyhpoState",
    "SearchConfig",
    "ShoConfig",
    "ShoState",
    "check_stationarity",
    "grid_candidates",
    "my_step_full",
    "myhpo_run",
    "random_candidates",
    "search_run",
    "sho_run",
    "val_loss",
]

__version__ = "0.1.0"
