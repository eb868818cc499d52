"""Moreau-Yosida regularized bi-level hyperparameter solver (MY-HPO).

The bi-level problem is rewritten as a constrained split

    min_{w, lam}  L_T(w, lam) + L_V(G(lam))    s.t.  w = G(lam) = lam * phi1 + phi0

and attacked with four block updates per outer iteration:

1. descend (or minimize) the training loss in an auxiliary iterate ``v``
   and refresh the affine best response by mean-splitting ``v``;
2. descend (or minimize) the augmented training objective

       L_T(w, lam) + u.(w - G(lam)) + (rho/2) ||w - G(lam)||^2

   in ``w``, reusing the step-1 training gradient so the iteration cost
   stays at two d-dimensional gradients;
3. descend (or minimize) the augmented validation objective

       L_V(G(t)) + u.(w - G(t)) + (rho/2) ||w - G(t)||^2

   in the scalar ``t = lam``;
4. accumulate the remaining constraint violation into the consensus dual:
   ``u += rho * (w - G(lam_new))``.

The quadratic coupling turns steps 2-3 into gradient steps on
Moreau-Yosida envelopes of the two losses, which tolerates larger step
sizes than plain alternating descent on ill-conditioned problems. The
step order (v, w, lam, u) is fixed: swapping steps 2 and 3 changes the
stationary points.

Progress is measured by two residuals,

    r = w - G(lam_new)                (consensus violation)
    s = rho * (lam_new - lam_old) * phi1   (drift of the coupled variable)

and a run stops once ``max(||r||, ||s||) < eps_tol``. At a fixed point
both vanish and the iterate satisfies the stationarity system checked by
``check_stationarity`` (with dual ``u = 0``). The converse does not hold
for the simplified variants: ``r`` and ``s`` measure only the consensus
gap and the drift in ``lam``, not the ``v`` and ``w`` blocks, which take
one gradient step per iteration, so the rule can fire far from any fixed
point. ``max(||r||, ||s||) < eps_tol`` is a stopping rule, not a
certificate; ``check_stationarity`` is the certificate.

Variants
--------
- ``simplified_constant``: one fixed-step gradient update per block.
- ``simplified_backtracking``: same directions; each block halves its own
  step until its merit function strictly decreases (factor 0.5, capped by
  ``max_halvings``; a block that never decreases is skipped for that
  iteration). Merit re-evaluations are loss evaluations and are tracked in
  ``loss_eval_count``, never in the gradient ledger.

  Both take each product, slack and dot once. The training gradient and
  the merits at ``v`` and ``w`` reuse the terms (``X x``, data fit, ``x.x``)
  the previous step took at the points it accepted, carried in the state.
  The lam derivative and the merit at ``lam`` share ``X_val @ G(lam)`` and
  the accepted ``w``'s slack ``w - G(lam)``, and the accepted ``lam``'s
  slack is the residual ``r``. So a constant step makes four passes over a
  data matrix (``X v``, ``X^T r`` and their validation pair), and a
  backtracking step whose blocks all evaluate makes E, one per merit
  evaluation; a run's first step adds two, for the initial ``v`` and ``w``.
  ``loss_eval_count`` counts evaluations, not passes.
- ``full``: exact block minimization. Least-squares subproblems are
  closed-form spectral solves, ``Q ((Q^T b) / (s + c))`` with the
  training Gram matrix's eigendecomposition ``(s, Q)``: O(d^2) each after
  one O(d^3) ``eigh`` per training split; logistic ones use damped
  gradient descent; the scalar lam subproblem takes Newton steps (gradient
  steps once Newton fails) in a bisected sign bracket. The gradient ledger
  counts every d-dimensional derivative evaluation (gradients and Newton
  curvature forms); spectral solves evaluate no gradients and add nothing.
  The lam solve makes two passes over the validation matrix per derivative
  (``X_val @ G(lam)`` and ``X_val^T r``), and one more, ``X_val @ phi1``,
  once Newton evaluates a curvature: each curvature reuses its
  derivative's ``X_val @ G(lam)``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .model import (
    LAMBDA0,
    LEAST_SQUARES,
    _check_w,
    _exp,
    _fit_curvature,
    _fit_grad,
    _fit_loss,
    _require_role,
    BestResponse,
    Dataset,
    LossSpec,
    SplitDegenerate,
    best_response,
    grad_w_train,
    grad_w_val,
    offload_report,
    report_block,
    require_finite,
    split_best_response,
)
from .trace import RunTrace, TraceRow, record_run

# variant -> the solver name that labels its traces and config blocks
VARIANT_SOLVERS = {
    "simplified_constant": "myhpo_c",
    "simplified_backtracking": "myhpo_bt",
    "full": "myhpo_full",
}
VARIANTS = tuple(VARIANT_SOLVERS)


class InnerSolveFailed(RuntimeError):
    """An inner minimization exhausted its iteration cap above tolerance."""


@dataclass
class MyhpoConfig:
    rho: float = 1.0
    alpha: float = 0.05
    beta: float = 0.1
    delta: float = 0.5
    variant: str = "simplified_constant"
    max_iters: int = 1000
    eps_tol: float = 1e-10
    max_halvings: int = 30
    inner_tol: float = 1e-8
    inner_max_iters: int = 500

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError("rho must be nonnegative")
        if min(self.alpha, self.beta, self.delta) <= 0:
            raise ValueError("step sizes must be positive")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.eps_tol <= 0:
            raise ValueError("eps_tol must be positive")
        if self.max_halvings < 1:
            raise ValueError("max_halvings must be at least 1")


# solver name -> the MyhpoConfig fields its step never reads (a config may only restate them)
UNREAD_FIELDS = {
    "myhpo_c": ("max_halvings", "inner_tol", "inner_max_iters"),
    "myhpo_bt": ("inner_tol", "inner_max_iters"),
    "myhpo_full": ("alpha", "beta", "max_halvings"),
}


@dataclass
class BlockOutcome:
    """Result of one backtracked block update."""

    step: float | None  # accepted step size, None if the block stalled or was a no-op
    merit_before: float
    merit_after: float
    evals: int
    stalled: bool


@dataclass
class MyhpoState:
    v: np.ndarray
    w: np.ndarray
    lam: float
    u: np.ndarray
    br: BestResponse | None = None
    iter: int = 0
    grad_count: int = 0
    loss_eval_count: int = 0
    last_backtrack: tuple | None = field(default=None, repr=False, compare=False)
    # (v, its terms, w, its terms) from the step that made this state: a
    # point's training terms (X @ x, data fit at it, x.x), None where that
    # step took none; used only while v and w are still this state's arrays
    _carried: tuple = field(default=(None,) * 4, init=False, repr=False, compare=False)

    @classmethod
    def initial(cls, d: int, lam0: float = LAMBDA0) -> "MyhpoState":
        return cls(v=np.zeros(d), w=np.zeros(d), lam=lam0, u=np.zeros(d))


@dataclass
class Residuals:
    """The consensus and drift residuals of one iteration, with their ``_norm``s."""

    r: np.ndarray
    s: np.ndarray
    r_norm: float
    s_norm: float


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` of a float vector, bit for bit: numpy takes ``sqrt(x.dot(x))``."""
    return math.sqrt(x.dot(x))


def residuals(state_new: MyhpoState, lambda_old: float, rho: float) -> Residuals:
    """Consensus residual r and drift residual s after one iteration."""
    gw = best_response(state_new.br, state_new.lam)
    r = state_new.w - gw
    s = rho * (state_new.lam - lambda_old) * state_new.br.phi1
    return Residuals(r, s, _norm(r), _norm(s))


def _advance(state, v_new, w_new, lam_new, br, rho, grads, res=None, outcomes=None, evals=0,
             carried=(None,) * 4):
    """Close an iteration: the residuals ``res`` unless the step took them,
    then the consensus dual update ``u += rho * r`` from the same gap ``r``.

    ``grads`` is the step's ledger cost, ``outcomes`` its backtracked block
    outcomes and ``evals`` their merit evaluations, which join
    ``loss_eval_count``. ``carried`` is the state's ``_carried``.
    """
    new = MyhpoState(v=v_new, w=w_new, lam=lam_new, u=state.u, br=br, iter=state.iter + 1,
                     grad_count=state.grad_count + grads,
                     loss_eval_count=state.loss_eval_count + evals, last_backtrack=outcomes)
    if res is None:
        res = residuals(new, state.lam, rho)
    new.u = state.u + rho * res.r
    new._carried = carried
    require_finite(new.iter, new.lam, new.v, new.w, new.u)
    return new, res


def _step_cost(cfg: MyhpoConfig) -> int:
    """Gradients a step needs. A simplified step spends exactly this: training
    and validation. A full step spends at least one and stops at its cap."""
    return 1 if cfg.variant == "full" else 2


def _lam_direction(spec, br, lam, slack, u, rho, val, z) -> float:
    """Derivative in lam of the augmented validation objective at ``lam``, from
    ``slack = w_new - G(lam)`` and ``z = val.X @ G(lam)``: one d-dimensional
    validation gradient."""
    phi1 = br.phi1
    return (float(phi1.dot(_fit_grad(spec, z, val))) - float(u.dot(phi1))
            - rho * float(phi1.dot(slack)))


def _lam_curvature(spec, br, rho, val, z, xp) -> float:
    """Second lam derivative of that objective, from ``z`` and ``xp = val.X @ phi1``."""
    return _fit_curvature(spec, z, xp, val) + rho * float(br.phi1.dot(br.phi1))


def _backtrack(x0, direction, step0: float, merit, max_halvings: int):
    """Halve the step until ``merit(x0 - t * direction)`` strictly decreases.

    ``merit(x)`` returns ``(value, extra)``, ``extra`` being what it took on
    the way that the caller reuses at the point it keeps. Returns that point,
    its ``extra`` and the block's outcome. A zero direction (a NaN one is not
    zero) is already stationary for the block and returns ``x0`` at once,
    with ``extra`` None and no merit evaluated. If no halving produces a
    decrease the block stalls and ``x0`` is kept.
    """
    if not (np.count_nonzero(direction) if isinstance(direction, np.ndarray) else direction):
        return x0, None, BlockOutcome(step=None, merit_before=math.nan, merit_after=math.nan,
                                      evals=0, stalled=False)
    m0, extra0 = merit(x0)
    evals, t = 1, step0
    for _ in range(max_halvings + 1):
        cand = x0 - t * direction
        mc, extra = merit(cand)
        evals += 1
        if mc < m0:
            return cand, extra, BlockOutcome(step=t, merit_before=m0, merit_after=mc,
                                             evals=evals, stalled=False)
        t *= 0.5
    return x0, extra0, BlockOutcome(step=None, merit_before=m0, merit_after=m0,
                                    evals=evals, stalled=True)


def _simplified_step(state, spec, train, val, cfg, backtracking):
    """The four block updates, each one gradient step: a constant one, or one
    that ``_backtrack`` halves on the block's merit function.

    Merit functions are block-coordinate: the v block uses the training
    loss, the w block the augmented training objective, the lam block the
    augmented validation objective. The w block reuses the step-1 training
    gradient. Each product, slack and dot is taken once and reused wherever
    the math repeats it (see Variants), bit for bit the value the public
    model functions would compute. The splits' roles and the points' shapes
    are checked once per step, never per product; the caller's state is
    read, never changed.
    """
    _require_role(train, ("train",))
    _require_role(val, ("validation",))
    v, w = _check_w(state.v, train), _check_w(state.w, train)
    lam, u, rho, X = state.lam, state.u, cfg.rho, train.X
    cv, tv, cw, tw = state._carried
    tv, tw = tv if cv is v else None, tw if cw is w else None
    zv = X @ v if tv is None else tv[0]
    exp_lam = _exp(lam)
    g_t = _fit_grad(spec, zv, train) + 2.0 * exp_lam * v

    def at(x, z=None):  # the training terms of a point: (X @ x, data fit, x.x)
        z = X @ x if z is None else z
        return z, _fit_loss(spec, z, train), float(x.dot(x))

    if backtracking:
        def v_merit(x):  # the training loss; extra: the point's terms
            tx = (tv or at(v, zv)) if x is v else at(x)
            return tx[1] + exp_lam * tx[2], tx

        v_new, extra, out_v = _backtrack(v, g_t, cfg.alpha, v_merit, cfg.max_halvings)
        tv = extra or tv
    else:
        v_new = v - cfg.alpha * g_t
    br = split_best_response(v_new, lam)
    phi1, phi0 = br.phi1, br.phi0
    gw = _check_w(lam * phi1 + phi0, val)  # G(lam); the validation points' one check

    # slack = w_new - G(lam), with u.slack and slack.slack once a merit took them
    slack = w - gw
    w_dir = g_t + u + rho * slack
    us = ss = None
    if backtracking:
        def w_merit(x):  # the augmented training objective; extra: (terms, slack, u.s, s.s)
            tx, s = (tw or at(w), slack) if x is w else (at(x), x - gw)
            us, ss = float(u.dot(s)), float(s.dot(s))
            return tx[1] + exp_lam * tx[2] + us + 0.5 * rho * ss, (tx, s, us, ss)

        w_new, extra, out_w = _backtrack(w, w_dir, cfg.beta, w_merit, cfg.max_halvings)
        if extra:
            tw, slack, us, ss = extra
        if us is None:  # the w block evaluated no merit
            us, ss = float(u.dot(slack)), float(slack.dot(slack))
    else:
        w_new = w - cfg.beta * w_dir
        slack = w_new - gw

    # r = w_new - G(lam_new), the consensus residual, and rr = r.r
    zg = val.X @ gw
    lam_dir = _lam_direction(spec, br, lam, slack, u, rho, val, zg)
    if backtracking:
        def lam_merit(t):  # the augmented validation objective; extra: (r, r.r) at t
            if t == lam:  # at lam itself, G(lam) is gw, with its product and slack taken
                z, r, ur, rr = zg, slack, us, ss
            else:
                g = t * phi1 + phi0
                z, r = val.X @ g, w_new - g
                ur, rr = float(u.dot(r)), float(r.dot(r))
            return _fit_loss(spec, z, val) + ur + 0.5 * rho * rr, (r, rr)

        lam_new, extra, out_l = _backtrack(lam, lam_dir, cfg.delta, lam_merit, cfg.max_halvings)
        r, rr = extra or (slack, ss)
        outcomes = (out_v, out_w, out_l)
        evals, carried = out_v.evals + out_w.evals + out_l.evals, (v_new, tv, w_new, tw)
    else:
        lam_new = lam - cfg.delta * lam_dir
        r = w_new - (lam_new * phi1 + phi0)
        rr, outcomes, evals, carried = float(r.dot(r)), None, 0, (v_new, None, w_new, None)
    s = rho * (lam_new - lam) * phi1
    return _advance(state, v_new, w_new, lam_new, br, rho, _step_cost(cfg),
                    Residuals(r, s, math.sqrt(rr), _norm(s)), outcomes, evals, carried)


def my_step_simplified(state: MyhpoState, spec: LossSpec, train: Dataset, val: Dataset,
                       cfg: MyhpoConfig) -> tuple[MyhpoState, Residuals]:
    """One constant-step iteration of the four block updates."""
    return _simplified_step(state, spec, train, val, cfg, False)


def my_step_backtracking(state: MyhpoState, spec: LossSpec, train: Dataset, val: Dataset,
                         cfg: MyhpoConfig) -> tuple[MyhpoState, Residuals]:
    """Simplified step where each block backtracks on its own merit function.

    Directions, gradient reuse and the gradient ledger are identical to the
    constant-step variant; ``last_backtrack`` holds the three block outcomes.
    """
    return _simplified_step(state, spec, train, val, cfg, True)


class _Ledger:
    """Counts d-dimensional derivative evaluations against an optional cap."""

    def __init__(self, cap: int | None = None):
        self.spent = 0
        self.cap = cap

    def spend(self, units: int = 1):
        self.spent += units

    @property
    def exhausted(self) -> bool:
        return self.cap is not None and self.spent >= self.cap


def _minimize_train(spec, lam, train, x0, cfg, ledger, rho=0.0, shift=None):
    """Minimize L_T(x, lam) [+ u.x + (rho/2)||x - target||^2] over x.

    ``shift`` bundles the augmentation as (u, target); least squares is a
    single spectral solve on the training split, logistic runs damped
    gradient descent from x0 and returns its current iterate once the
    ledger is exhausted.
    """
    exp_lam = _exp(lam)
    if spec.kind == LEAST_SQUARES:
        if shift is None:
            return train.solve_shifted(2.0 * exp_lam + rho)
        u, target = shift
        return train.solve_shifted(2.0 * exp_lam + rho, train.xty + (rho * target - u))

    # logistic curvature is at most 1/4 of the Gram matrix's
    lip = train.gram_norm / 4.0 + 2.0 * exp_lam + rho
    x = np.asarray(x0, dtype=float)
    for _ in range(cfg.inner_max_iters):
        if ledger.exhausted:
            return x
        g = grad_w_train(spec, x, lam, train)
        if shift is not None:
            u, target = shift
            g = g + u + rho * (x - target)
        ledger.spend(1)
        if float(np.linalg.norm(g)) <= cfg.inner_tol:
            return x
        x = x - g / lip
    raise InnerSolveFailed(
        f"gradient norm above {cfg.inner_tol:g} after {cfg.inner_max_iters} inner iterations"
    )


def _minimize_lambda(spec, br, w_new, u, lam0, rho, val, cfg, ledger):
    """Scalar subproblem solve: bracketed Newton on the lam derivative.

    Each of at most 50 derivatives narrows a sign bracket. The next lam is
    the Newton step, or, from the first time Newton gives no finite step, a
    gradient step at delta with no more curvature; a step that leaves a
    bracket with two finite ends becomes its midpoint. Returns the current
    lam once the ledger is exhausted. Raises ``InnerSolveFailed`` after 50
    derivatives, or once the next lam would be an end of the bracket (lam
    itself or an evaluated point), so no point is evaluated twice.
    """
    _require_role(val, ("validation",))
    _check_w(br.phi1, val)
    lam = float(lam0)
    lo, hi = -math.inf, math.inf
    newton = True
    xp = None  # val.X @ phi1, taken at the first curvature
    for _ in range(50):
        if ledger.exhausted:
            return lam
        gw = best_response(br, lam)
        z = val.X @ gw
        g = _lam_direction(spec, br, lam, w_new - gw, u, rho, val, z)
        ledger.spend(1)
        if abs(g) <= cfg.inner_tol:
            return lam
        lo, hi = (lo, lam) if g > 0 else (lam, hi)
        if newton:
            if ledger.exhausted:
                return lam
            if xp is None:
                xp = val.X @ br.phi1
            curv = _lam_curvature(spec, br, rho, val, z, xp)
            ledger.spend(1)
            cand = lam - g / curv if curv > 1e-300 else math.nan
            newton = math.isfinite(cand)
        if not newton:
            cand = lam - cfg.delta * g
        if not (lo < cand < hi) and math.isfinite(lo) and math.isfinite(hi):
            cand = 0.5 * (lo + hi)
        if not lo < cand < hi:  # an end of the bracket: lam, or a point already evaluated
            break
        lam = cand
    raise InnerSolveFailed(f"lam derivative above {cfg.inner_tol:g} after Newton and fallback")


def my_step_full(
    state: MyhpoState,
    spec: LossSpec,
    train: Dataset,
    val: Dataset,
    cfg: MyhpoConfig,
    grad_cap: int | None = None,
) -> tuple[MyhpoState, Residuals]:
    """One exact-minimization iteration.

    ``grad_cap`` bounds the ledger units this step may spend; inner solves
    stop early once it is hit. All four blocks always execute, so a
    truncated step still leaves a consistent state.
    """
    lam = state.lam
    ledger = _Ledger(grad_cap)

    v_new = _minimize_train(spec, lam, train, state.v, cfg, ledger)
    br = split_best_response(v_new, lam)
    gw_old = best_response(br, lam)

    w_new = _minimize_train(
        spec, lam, train, state.w, cfg, ledger,
        rho=cfg.rho, shift=(state.u, gw_old),
    )
    lam_new = _minimize_lambda(spec, br, w_new, state.u, lam, cfg.rho, val, cfg, ledger)
    return _advance(state, v_new, w_new, lam_new, br, cfg.rho, ledger.spent)


def myhpo_run(
    init: MyhpoState,
    spec: LossSpec,
    train: Dataset,
    val: Dataset,
    cfg: MyhpoConfig,
    budget: int,
    test: Dataset | None = None,
    label: str | None = None,
    meta: dict | None = None,
    seed: int = 0,
) -> RunTrace:
    """Run the configured variant under a gradient budget.

    The solver itself is deterministic; ``seed`` only tags the trace header
    so runs on seeded data can be grouped downstream.

    Stops when the budget or ``cfg.max_iters`` is exhausted or the
    convergence error ``max(||r||, ||s||)`` falls below ``cfg.eps_tol``.
    For the simplified variants that stop does not imply stationarity,
    since ``r`` and ``s`` do not measure the one-step ``v`` and ``w``
    blocks; ``check_stationarity`` on the final state is the certificate.
    Non-finite iterates mark the trace diverged; a degenerate split or a
    failed inner solve stops the run with the reason in the trace note.
    Losses are reported at the consensus iterate ``w``, ``BLOCK`` rows per
    ``report_block`` call (``trace.record_run``, on a thread if ``offload_report``):
    the trace ends at the first non-finite loss, and the up to ``BLOCK - 1``
    (``2 * BLOCK - 1`` on a thread) steps taken past it are discarded.
    """
    if budget < 2:
        raise ValueError("budget must be at least 2")
    solver = VARIANT_SOLVERS[cfg.variant]
    trace = RunTrace(solver=solver, label=label or solver, seed=seed,
                     meta={**asdict(cfg), "budget": budget, "lambda0": init.lam, **(meta or {})})
    rows = _myhpo_rows(init, spec, train, val, cfg, budget)
    return record_run(trace, rows, lambda W, lams: report_block(spec, W, lams, train, val, test),
                      stop_errors=(SplitDegenerate, InnerSolveFailed),
                      offload=offload_report(train, val, test))


def _myhpo_rows(state, spec, train, val, cfg, budget):
    """Step ``state`` under the budget, yielding each iteration's row and
    its consensus iterate ``w``."""
    step_cost = _step_cost(cfg)
    step = my_step_backtracking if cfg.variant == "simplified_backtracking" else my_step_simplified
    while state.iter < cfg.max_iters and state.grad_count + step_cost <= budget:
        if cfg.variant == "full":
            state, res = my_step_full(state, spec, train, val, cfg,
                                      grad_cap=budget - state.grad_count)
        else:
            state, res = step(state, spec, train, val, cfg)
        yield TraceRow(state.iter, state.grad_count, state.lam,
                       r_norm=res.r_norm, s_norm=res.s_norm,
                       u_norm=_norm(state.u),
                       loss_eval_count=state.loss_eval_count), state.w
        if max(res.r_norm, res.s_norm) < cfg.eps_tol:
            return


@dataclass
class StationarityReport:
    """Residual magnitudes of the stationarity system at an iterate.

    ``train_grad_norm``    ||grad_w L_T(w, lam) + u||
    ``lam_grad_abs``       |phi1 . grad_w L_V(G(lam)) - u . phi1|
    ``consensus_gap``      ||w - G(lam)||
    ``hypernet_grad_norm`` ||(lam * g, g)|| with g = grad_w L_T(G(lam), lam)

    ``ok`` compares the four residuals and ``u_norm`` with one absolute
    ``tol``, which every near-zero model passes. ``relative_residual`` is the
    largest residual relative to the size of its terms: each norm of a sum
    over the summed norms of its terms (the data-fit and regularizer parts
    of a training gradient), and the lam residual over
    ``||phi1|| (||grad_w L_V|| + ||u||)``. It stays near 1 where the
    hypernetwork equation has no root however small the model is.
    """

    train_grad_norm: float
    lam_grad_abs: float
    consensus_gap: float
    hypernet_grad_norm: float
    u_norm: float
    ok: bool
    relative_residual: float


def _relative(residual: float, scale: float) -> float:
    """``residual / scale``, 0 where the scale, and so the residual, vanishes."""
    return residual / scale if scale else 0.0


def check_stationarity(
    spec: LossSpec,
    state: MyhpoState,
    train: Dataset,
    val: Dataset,
    tol: float,
) -> StationarityReport:
    """Evaluate the four stationarity residuals plus ||u|| at ``state``'s
    iterate ``(w, lam, u)`` through its best response ``br``."""
    w, lam, u, br = state.w, state.lam, state.u, state.br
    gw = best_response(br, lam)
    two_exp = 2.0 * _exp(lam)
    u_norm = float(np.linalg.norm(u))
    g_w = grad_w_train(spec, w, lam, train)
    e_train = float(np.linalg.norm(g_w + u))
    g_val = grad_w_val(spec, gw, val)
    e_lam = abs(float(br.phi1 @ g_val) - float(u @ br.phi1))
    e_gap = float(np.linalg.norm(w - gw))
    g_at_gw = grad_w_train(spec, gw, lam, train)
    e_phi = float(np.linalg.norm(np.concatenate([lam * g_at_gw, g_at_gw])))
    ok = max(e_train, e_lam, e_gap, e_phi, u_norm) <= tol

    def train_scale(g, x):  # ||fit part|| + ||regularizer part|| of a training gradient
        reg = two_exp * x
        return float(np.linalg.norm(g - reg) + np.linalg.norm(reg))

    relative = max(
        _relative(e_train, train_scale(g_w, w) + u_norm),
        _relative(e_lam, float(np.linalg.norm(br.phi1))
                  * (float(np.linalg.norm(g_val)) + u_norm)),
        _relative(e_gap, float(np.linalg.norm(w) + np.linalg.norm(gw))),
        _relative(e_phi, math.hypot(lam, 1.0) * train_scale(g_at_gw, gw)),
    )
    return StationarityReport(
        train_grad_norm=e_train,
        lam_grad_abs=e_lam,
        consensus_gap=e_gap,
        hypernet_grad_norm=e_phi,
        u_norm=u_norm,
        ok=ok,
        relative_residual=relative,
    )
