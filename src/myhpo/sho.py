"""Alternating-gradient baseline with stochastic hyperparameter perturbation (SHO).

One outer iteration perturbs the hyperparameter with Gaussian noise,
descends the training loss through the hypernetwork parameters at the
perturbed value, then descends the validation loss through the
hyperparameter at the unperturbed value::

    lam_hat = lam + sigma * z,   z ~ N(0, 1)
    g       = grad_w L_T(G(lam_hat), lam_hat)
    phi1   -= alpha * lam_hat * g        # chain rule: d G / d phi1 = lam_hat * I
    phi0   -= alpha * g                  #             d G / d phi0 = I
    lam    -= beta * phi1 . grad_w L_V(G(lam))

The two block updates run in sequence (the lam update sees the fresh phi),
and each iteration costs exactly two d-dimensional gradient evaluations,
so ``grad_count == 2 * iter`` always holds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .model import (
    LAMBDA0,
    BestResponse,
    Dataset,
    LossSpec,
    _check_w,
    _exp,
    _fit_grad,
    _grad_w_train,
    _require_role,
    best_response,
    offload_report,
    report_block,
    require_finite,
)
from .rng import PRNG_ID, RandomStream
from .trace import RunTrace, TraceRow, record_run

STEP_COST = 2  # training gradient + validation gradient


@dataclass
class ShoConfig:
    """Step sizes and perturbation scale for the alternating-gradient loop.

    ``alpha`` and ``beta`` of zero are accepted so degenerate no-op runs can
    be used as diagnostics.
    """

    alpha: float = 0.01
    beta: float = 0.01
    sigma: float = 1e-4
    max_iters: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("step sizes must be nonnegative")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class ShoState:
    br: BestResponse
    lam: float
    iter: int = 0
    grad_count: int = 0

    @classmethod
    def initial(cls, d: int, lam0: float = LAMBDA0) -> "ShoState":
        return cls(br=BestResponse(np.zeros(d), np.zeros(d)), lam=lam0)


def sho_step(
    state: ShoState,
    spec: LossSpec,
    train: Dataset,
    val: Dataset,
    cfg: ShoConfig,
    rng: RandomStream,
) -> ShoState:
    """One alternating-gradient iteration; raises NonFiniteIterate on blowup.
    Checks the splits' roles and ``state.br``'s length once, not per gradient."""
    _require_role(train, ("train",))
    _require_role(val, ("validation",))
    br = state.br
    _check_w(br.phi1, train)
    _check_w(br.phi1, val)
    lam_hat = state.lam + cfg.sigma * rng.normal()
    w_hat = best_response(br, lam_hat)
    g = _grad_w_train(spec, w_hat, train.X @ w_hat, _exp(lam_hat), train)
    br_new = BestResponse._of(br.phi1 - cfg.alpha * lam_hat * g, br.phi0 - cfg.alpha * g)
    gw = best_response(br_new, state.lam)
    lam_new = state.lam - cfg.beta * float(br_new.phi1.dot(_fit_grad(spec, val.X @ gw, val)))
    new = ShoState(
        br=br_new,
        lam=lam_new,
        iter=state.iter + 1,
        grad_count=state.grad_count + STEP_COST,
    )
    require_finite(new.iter, new.lam, new.br.phi1, new.br.phi0)
    return new


def sho_run(
    init: ShoState,
    spec: LossSpec,
    train: Dataset,
    val: Dataset,
    cfg: ShoConfig,
    budget: int,
    test: Dataset | None = None,
    label: str = "sho",
    meta: dict | None = None,
) -> RunTrace:
    """Iterate ``sho_step`` under a gradient budget and record a trace.

    Stops when another iteration would exceed ``budget`` gradient
    evaluations or ``cfg.max_iters`` is reached. A non-finite iterate or
    loss marks the trace diverged and keeps the rows recorded so far.
    Losses are reported at ``G(lam)``, ``BLOCK`` rows per ``report_block``
    call (``trace.record_run``, on a worker thread if ``offload_report``);
    steps taken past the first non-finite loss are discarded.
    """
    if budget < 2:
        raise ValueError("budget must be at least 2")
    params = asdict(cfg)
    del params["seed"]  # recorded in the header's own seed line
    trace = RunTrace(solver="sho", label=label, seed=cfg.seed, prng=PRNG_ID,
                     meta={**params, "budget": budget, "lambda0": init.lam, **(meta or {})})
    return record_run(trace, _sho_rows(init, spec, train, val, cfg, budget),
                      lambda W, lams: report_block(spec, W, lams, train, val, test),
                      offload=offload_report(train, val, test))


def _sho_rows(state, spec, train, val, cfg, budget):
    """Step ``state`` under the budget, yielding each iteration's row and
    its best response ``G(lam)``."""
    rng = RandomStream(cfg.seed)
    while state.grad_count + STEP_COST <= budget and state.iter < cfg.max_iters:
        state = sho_step(state, spec, train, val, cfg, rng)
        yield (TraceRow(state.iter, state.grad_count, state.lam),
               best_response(state.br, state.lam))
