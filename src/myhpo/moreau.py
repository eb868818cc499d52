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

  Both take each point's ``X @ x`` once. The training gradient and the
  merits at ``v`` and ``w`` reuse the products the previous step took at
  the points it accepted, carried in the state, and the lam derivative and
  the merit at ``lam`` share ``X_val @ G(lam)``. So a constant step makes
  four passes over a data matrix (``X v``, ``X^T r`` and their validation
  pair), and a backtracking step whose blocks all evaluate makes E, one per
  merit evaluation; a run's first step adds two, for the initial ``v`` and
  ``w``. ``loss_eval_count`` counts evaluations, not passes.
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
    _grad_w_train,
    _require_role,
    _train_loss,
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
    # (point, train X @ point) pairs of the step that made this state, for
    # its v and w; used only while they are still this state's arrays
    _carried: tuple = field(default=(), init=False, repr=False, compare=False)

    @classmethod
    def initial(cls, d: int, lam0: float = LAMBDA0) -> "MyhpoState":
        return cls(v=np.zeros(d), w=np.zeros(d), lam=lam0, u=np.zeros(d))


@dataclass
class Residuals:
    r: np.ndarray
    s: np.ndarray
    r_norm: float = field(init=False)
    s_norm: float = field(init=False)

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.s = np.asarray(self.s, dtype=float)
        self.r_norm = float(np.linalg.norm(self.r))
        self.s_norm = float(np.linalg.norm(self.s))


def residuals(state_new: MyhpoState, lambda_old: float, rho: float) -> Residuals:
    """Consensus residual r and drift residual s after one iteration."""
    gw = best_response(state_new.br, state_new.lam)
    r = state_new.w - gw
    s = rho * (state_new.lam - lambda_old) * state_new.br.phi1
    return Residuals(r=r, s=s)


def _advance(state, v_new, w_new, lam_new, br, rho, grads, outcomes=None, carried=()):
    """Close an iteration: the residuals, then the consensus dual update
    ``u += rho * r`` from the same gap ``r``.

    ``grads`` is the step's ledger cost and ``outcomes`` its backtracked
    block outcomes, whose merit evaluations join ``loss_eval_count``.
    ``carried`` holds the training products the next step may reuse.
    """
    new = MyhpoState(
        v=v_new,
        w=w_new,
        lam=lam_new,
        u=state.u,
        br=br,
        iter=state.iter + 1,
        grad_count=state.grad_count + grads,
        loss_eval_count=state.loss_eval_count + sum(o.evals for o in outcomes or ()),
        last_backtrack=outcomes,
    )
    res = residuals(new, state.lam, rho)
    new.u = state.u + rho * res.r
    new._carried = carried
    require_finite(new.iter, new.lam, new.v, new.w, new.u)
    return new, res


def _step_cost(cfg: MyhpoConfig) -> int:
    """Gradients a step needs. A simplified step spends exactly this: training
    and validation. A full step spends at least one and stops at its cap."""
    return 1 if cfg.variant == "full" else 2


def _augmented(f: float, u: np.ndarray, rho: float, slack: np.ndarray) -> float:
    """Coupled merit ``f + u.slack + (rho/2)||slack||^2``, summed in that order."""
    return f + float(u @ slack) + 0.5 * rho * float(slack @ slack)


def _lam_direction(spec, br, lam, w_new, u, rho, val, gw, z) -> float:
    """Derivative in lam of the augmented validation objective at ``lam``, from
    ``gw = G(lam)`` and ``z = val.X @ gw``: one d-dimensional validation gradient."""
    df = float(br.phi1 @ _fit_grad(spec, z, val))
    return df - float(u @ br.phi1) - rho * float(br.phi1 @ (w_new - gw))


def _lam_curvature(spec, br, rho, val, z, xp) -> float:
    """Second lam derivative of that objective, from ``z`` and ``xp = val.X @ phi1``."""
    return _fit_curvature(spec, z, xp, val) + rho * float(br.phi1 @ br.phi1)


def _backtrack(x0, direction, step0: float, merit, max_halvings: int):
    """Halve the step until ``merit(x0 - t * direction)`` strictly decreases.

    A zero direction is already stationary for the block and returns
    immediately without evaluating the merit. If no halving produces a
    decrease the block stalls and ``x0`` is kept.
    """
    if not np.any(direction):
        return x0, BlockOutcome(step=None, merit_before=math.nan, merit_after=math.nan,
                                evals=0, stalled=False)
    m0 = merit(x0)
    evals = 1
    t = step0
    for _ in range(max_halvings + 1):
        cand = x0 - t * direction
        mc = merit(cand)
        evals += 1
        if mc < m0:
            return cand, BlockOutcome(step=t, merit_before=m0, merit_after=mc,
                                      evals=evals, stalled=False)
        t *= 0.5
    return x0, BlockOutcome(step=None, merit_before=m0, merit_after=m0,
                            evals=evals, stalled=True)


def _constant(x0, direction, step0: float, merit, max_halvings: int):
    """Take the full step ``x0 - step0 * direction``; the merit is never evaluated."""
    return x0 - step0 * direction, None


class _Products:
    """``data.X @ x`` for each point a step evaluates, taken once per point.

    Points are keyed by identity, starting from the ``carried`` (point,
    product) pairs, so an equal but distinct array gets its own product.
    Every lookup repeats the public model functions' role and shape checks.
    """

    def __init__(self, data: Dataset, roles: tuple[str, ...], carried=()):
        self.data, self.roles = data, roles
        self.known = {id(x): (x, z) for x, z in carried}

    def __call__(self, x) -> tuple[np.ndarray, np.ndarray]:
        """``(x, data.X @ x)``, with ``x`` as the shape check returns it."""
        _require_role(self.data, self.roles)
        x = _check_w(x, self.data)
        pair = self.known.get(id(x))
        if pair is None:
            pair = self.known[id(x)] = (x, self.data.X @ x)
        return pair


def _simplified_step(state, spec, train, val, cfg, line_search):
    """The four block updates, each stepping along its gradient by ``line_search``.

    Merit functions are block-coordinate: the v block uses the training
    loss, the w block the augmented training objective, the lam block the
    augmented validation objective. The w block reuses the step-1 training
    gradient.
    Each point's ``X @ x`` is taken once (see Variants), bit for bit the
    value the public model functions would compute.
    """
    lam, u, rho = state.lam, state.u, cfg.rho
    xt = _Products(train, ("train",), state._carried)
    xv = _Products(val, ("validation",))

    def loss_t(x):
        return _train_loss(spec, *xt(x), lam, train)

    g_t = _grad_w_train(spec, *xt(state.v), lam, train)
    v_new, out_v = line_search(state.v, g_t, cfg.alpha, loss_t, cfg.max_halvings)
    br = split_best_response(v_new, lam)
    gw_old = best_response(br, lam)

    def w_merit(x):
        return _augmented(loss_t(x), u, rho, x - gw_old)

    w_dir = g_t + u + rho * (state.w - gw_old)
    w_new, out_w = line_search(state.w, w_dir, cfg.beta, w_merit, cfg.max_halvings)

    def lam_merit(t):  # at lam itself, G(lam) is gw_old, whose product the derivative took
        gw, z = xv(gw_old if t == lam else best_response(br, t))
        return _augmented(_fit_loss(spec, z, val), u, rho, w_new - gw)

    lam_dir = _lam_direction(spec, br, lam, w_new, u, rho, val, *xv(gw_old))
    lam_new, out_l = line_search(lam, lam_dir, cfg.delta, lam_merit, cfg.max_halvings)
    outcomes = None if out_v is None else (out_v, out_w, out_l)
    carried = tuple(xt.known[id(x)] for x in (v_new, w_new) if id(x) in xt.known)
    return _advance(state, v_new, w_new, float(lam_new), br, rho, _step_cost(cfg), outcomes,
                    carried)


def my_step_simplified(
    state: MyhpoState,
    spec: LossSpec,
    train: Dataset,
    val: Dataset,
    cfg: MyhpoConfig,
) -> tuple[MyhpoState, Residuals]:
    """One constant-step iteration of the four block updates."""
    return _simplified_step(state, spec, train, val, cfg, _constant)


def my_step_backtracking(
    state: MyhpoState,
    spec: LossSpec,
    train: Dataset,
    val: Dataset,
    cfg: MyhpoConfig,
) -> tuple[MyhpoState, Residuals]:
    """Simplified step where each block backtracks on its own merit function.

    Directions, gradient reuse and the gradient ledger are identical to the
    constant-step variant; ``last_backtrack`` holds the three block outcomes.
    """
    return _simplified_step(state, spec, train, val, cfg, _backtrack)


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
        b = train.xty
        if shift is not None:
            u, target = shift
            b = b + (rho * target - u)
        return train.solve_shifted(2.0 * exp_lam + rho, b)

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
    xv = _Products(val, ("validation",))
    lam = float(lam0)
    lo, hi = -math.inf, math.inf
    newton = True
    for _ in range(50):
        if ledger.exhausted:
            return lam
        gw, z = xv(best_response(br, lam))
        g = _lam_direction(spec, br, lam, w_new, u, rho, val, gw, z)
        ledger.spend(1)
        if abs(g) <= cfg.inner_tol:
            return lam
        lo, hi = (lo, lam) if g > 0 else (lam, hi)
        if newton:
            if ledger.exhausted:
                return lam
            curv = _lam_curvature(spec, br, rho, val, z, xv(br.phi1)[1])
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
                       u_norm=float(np.linalg.norm(state.u)),
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
