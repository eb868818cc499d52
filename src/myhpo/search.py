"""Black-box baselines: fixed-lambda training plus random and grid search.

Each candidate hyperparameter gets the same treatment: train a model from
zero with ``n_t`` plain gradient steps on the regularized training loss,
then score it on the validation split. The winner is the candidate with
the smallest validation loss (ties go to the smaller lambda, i.e. the
stronger regularizer). The gradient ledger is exactly ``n_s * n_t``:
budget is reserved per candidate and a divergent candidate does not
refund its share, it just surfaces with non-finite losses and ranks last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Dataset, LossSpec, _exp, _grad_w_train, _require_role, report_block
from .rng import RandomStream


@dataclass
class SearchConfig:
    """Search range, candidate count, and the per-candidate training recipe.

    ``alpha_train`` of zero is accepted so no-op training can be used as a
    diagnostic.
    """

    lo: float = -10.0
    hi: float = 5.0
    n_s: int = 2
    n_t: int = 1000
    alpha_train: float = 0.001
    seed: int = 0

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("lo must be strictly below hi")
        if self.n_s < 1:
            raise ValueError("n_s must be at least 1")
        if self.n_t < 1:
            raise ValueError("n_t must be at least 1")
        if self.alpha_train < 0:
            raise ValueError("alpha_train must be nonnegative")


def train_model(
    spec: LossSpec, lam: float, train: Dataset, alpha_train: float, n_t: int
) -> np.ndarray:
    """Exactly ``n_t`` gradient steps on L_T(., lam) from w = 0.

    Never stops early: a blown-up iterate propagates as NaN so the
    per-candidate gradient count stays exact.
    """
    _require_role(train, ("train",))
    w, X, exp_lam = np.zeros(train.d), train.X, _exp(lam)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_t):
            w = w - alpha_train * _grad_w_train(spec, w, X @ w, exp_lam, train)
    return w


def grid_candidates(cfg: SearchConfig) -> list[float]:
    """``n_s`` linearly spaced points, endpoints inclusive; n_s = 1 gives [lo]."""
    return [float(x) for x in np.linspace(cfg.lo, cfg.hi, cfg.n_s)]


def random_candidates(cfg: SearchConfig) -> list[float]:
    """``n_s`` uniform draws on [lo, hi) from the seeded stream."""
    rng = RandomStream(cfg.seed)
    return [rng.uniform(cfg.lo, cfg.hi) for _ in range(cfg.n_s)]


@dataclass
class CandidateEval:
    lam: float
    w: np.ndarray
    train_loss: float
    val_loss: float
    test_loss: float | None
    diverged: bool

    def rank_key(self):
        # diverged candidates last, then validation loss, ties to smaller lam
        return (self.diverged, self.val_loss if not self.diverged else math.inf, self.lam)


@dataclass
class SearchResult:
    candidates: list[CandidateEval]  # in evaluation order
    winner: CandidateEval
    grad_count: int  # n_s * n_t, the reserved budget


def search_run(
    spec: LossSpec,
    candidates: list[float],
    train: Dataset,
    val: Dataset,
    test: Dataset | None,
    cfg: SearchConfig,
) -> SearchResult:
    """Train every candidate, score them all with one ``report_block`` and
    pick the validation argmin."""
    ws = [train_model(spec, lam, train, cfg.alpha_train, cfg.n_t) for lam in candidates]
    tl, vl, sl = report_block(spec, np.stack(ws), candidates, train, val, test)
    evals = []
    for k, (lam, w) in enumerate(zip(candidates, ws)):
        finite = bool(np.all(np.isfinite(w))) and math.isfinite(tl[k]) and math.isfinite(vl[k])
        evals.append(
            CandidateEval(lam=lam, w=w, train_loss=float(tl[k]), val_loss=float(vl[k]),
                          test_loss=None if sl is None else float(sl[k]), diverged=not finite)
        )
    winner = min(evals, key=CandidateEval.rank_key)
    return SearchResult(candidates=evals, winner=winner,
                        grad_count=len(candidates) * cfg.n_t)
