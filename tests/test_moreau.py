import math

import numpy as np
import pytest

from myhpo import moreau
from myhpo.data import SplitSpec, SyntheticSpec, split, synthesize
from myhpo.model import (
    BestResponse,
    Dataset,
    LossSpec,
    NonFiniteIterate,
    best_response,
    grad_w_train,
    grad_w_val,
    split_best_response,
    train_loss,
    val_loss,
)
from myhpo.moreau import (
    InnerSolveFailed,
    MyhpoConfig,
    MyhpoState,
    _backtrack,
    check_stationarity,
    my_step_backtracking,
    my_step_full,
    my_step_simplified,
    myhpo_run,
    residuals,
)
from conftest import random_regression


def one_d_sets():
    return Dataset([[1.0]], [1.0], "train"), Dataset([[1.0]], [1.0], "validation")


def zero_target_instance(d=3, n=4, seed=0):
    """y = 0 makes (v=w=u=0, any lam) an exact stationary point."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    train = Dataset(x, np.zeros(n), "train")
    xv = rng.standard_normal((n, d))
    val = Dataset(xv, rng.standard_normal(n), "validation")
    return train, val


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MyhpoConfig(rho=-1.0)
        with pytest.raises(ValueError):
            MyhpoConfig(alpha=0.0)
        with pytest.raises(ValueError):
            MyhpoConfig(variant="fast")
        with pytest.raises(ValueError):
            MyhpoConfig(eps_tol=0.0)


class TestResiduals:
    def test_fixed_point_is_zero(self):
        br = split_best_response(np.array([1.0, 3.0]), -1.0)
        state = MyhpoState(v=np.array([1.0, 3.0]), w=best_response(br, -1.0),
                           lam=-1.0, u=np.zeros(2), br=br)
        res = residuals(state, lambda_old=-1.0, rho=1.0)
        assert res.r_norm == 0.0 and res.s_norm == 0.0

    def test_rho_zero_kills_s(self):
        br = BestResponse(np.array([1.0, 0.0]), np.zeros(2))
        state = MyhpoState(v=np.zeros(2), w=np.zeros(2), lam=2.0, u=np.zeros(2), br=br)
        res = residuals(state, lambda_old=1.0, rho=0.0)
        assert res.s_norm == 0.0

    def test_constructed_values(self):
        phi0 = np.array([0.3, -0.4])
        br = BestResponse(np.array([1.0, 0.0]), phi0)
        w = 2.0 * br.phi1 + phi0
        state = MyhpoState(v=w.copy(), w=w, lam=2.0, u=np.zeros(2), br=br)
        res = residuals(state, lambda_old=1.0, rho=1.0)
        assert np.allclose(res.r, [0.0, 0.0])
        assert np.allclose(res.s, [1.0, 0.0])


class TestSimplifiedStep:
    def test_one_d_hand_trace(self, ls_spec):
        train, val = one_d_sets()
        cfg = MyhpoConfig(rho=1.0, alpha=0.1, beta=0.1, delta=0.1)
        state = MyhpoState.initial(1)
        new, res = my_step_simplified(state, ls_spec, train, val, cfg)
        # g = -1; v = 0.1; phi0 = [0.1], phi1 = [0]; w = 0.11; lam unchanged; u = 0.01
        assert np.allclose(new.v, [0.1])
        assert np.array_equal(new.br.phi1, [0.0])
        assert np.allclose(new.br.phi0, [0.1])
        assert np.allclose(new.w, [0.11])
        assert new.lam == -1.0
        assert np.allclose(new.u, [0.01])
        assert np.allclose(res.r, [0.01])
        assert res.s_norm == 0.0
        assert new.grad_count == 2 and new.iter == 1

    def test_matches_scripted_formulas(self, ls_spec):
        rng = np.random.default_rng(5)
        train = random_regression(rng, 12, 4)
        val = random_regression(rng, 6, 4, role="validation")
        cfg = MyhpoConfig(rho=0.7, alpha=0.03, beta=0.05, delta=0.2)
        state = MyhpoState(v=rng.standard_normal(4), w=rng.standard_normal(4),
                           lam=-1.3, u=0.1 * rng.standard_normal(4))
        new, res = my_step_simplified(state, ls_spec, train, val, cfg)

        # independent line-by-line evaluation of the four updates
        lam = state.lam
        g = grad_w_train(ls_spec, state.v, lam, train)
        v1 = state.v - cfg.alpha * g
        mean = v1.mean()
        phi0, phi1 = np.full(4, mean), (v1 - mean) / lam
        gw = lam * phi1 + phi0
        w1 = state.w - cfg.beta * (g + state.u + cfg.rho * (state.w - gw))
        lam_dir = (float(phi1 @ grad_w_val(ls_spec, lam * phi1 + phi0, val))
                   - float(state.u @ phi1)
                   - cfg.rho * float(phi1 @ (w1 - lam * phi1 - phi0)))
        lam1 = lam - cfg.delta * lam_dir
        u1 = state.u + cfg.rho * (w1 - (lam1 * phi1 + phi0))

        assert np.allclose(new.v, v1, atol=0, rtol=0)
        assert np.allclose(new.w, w1, atol=0, rtol=0)
        assert new.lam == lam1
        assert np.allclose(new.u, u1, atol=0, rtol=0)
        assert np.allclose(res.r, w1 - (lam1 * phi1 + phi0))
        assert np.allclose(res.s, cfg.rho * (lam1 - lam) * phi1)

    def test_rho_zero_reduces_to_decoupled_descent(self, ls_spec):
        # with rho = 0 and u = 0 the v and w sequences are plain gradient
        # descent on the training loss and the lam sequence follows the
        # hypernetwork validation flow
        rng = np.random.default_rng(8)
        train = random_regression(rng, 10, 3)
        val = random_regression(rng, 5, 3, role="validation")
        cfg = MyhpoConfig(rho=0.0, alpha=0.04, beta=0.04, delta=0.1)
        state = MyhpoState.initial(3)
        v_ref, lam_ref = np.zeros(3), -1.0
        for _ in range(30):
            state, _ = my_step_simplified(state, ls_spec, train, val, cfg)
            g = grad_w_train(ls_spec, v_ref, lam_ref, train)
            v_ref = v_ref - cfg.alpha * g
            mean = v_ref.mean()
            phi1 = (v_ref - mean) / lam_ref
            gw = lam_ref * phi1 + mean
            lam_ref = lam_ref - cfg.delta * float(phi1 @ grad_w_val(ls_spec, gw, val))
            assert np.allclose(state.v, v_ref, atol=1e-14)
            assert np.allclose(state.w, state.v, atol=1e-12)
            assert abs(state.lam - lam_ref) <= 1e-12
            assert np.array_equal(state.u, np.zeros(3))

    def test_fresh_w_gradient_costs_extra(self, ls_spec):
        train, val = one_d_sets()
        cfg = MyhpoConfig(fresh_w_gradient=True)
        state, _ = my_step_simplified(MyhpoState.initial(1), ls_spec, train, val, cfg)
        assert state.grad_count == 3

    def test_nonfinite_raises(self, ls_spec):
        train, val = one_d_sets()
        cfg = MyhpoConfig(alpha=1e300, beta=1e300, delta=1.0)
        state = MyhpoState(v=np.array([1e300]), w=np.array([0.0]), lam=-1.0, u=np.zeros(1))
        with pytest.raises(NonFiniteIterate):
            with np.errstate(over="ignore", invalid="ignore"):
                my_step_simplified(state, ls_spec, train, val, cfg)


class TestBacktracking:
    def test_halving_rule_hand_trace(self):
        x, out = _backtrack(1.0, 2.0, 1.0, lambda z: z * z, max_halvings=10)
        assert x == 0.0
        assert out.step == 0.5
        assert out.evals == 3  # baseline + rejected t=1 + accepted t=0.5
        assert not out.stalled

    def test_zero_direction_is_noop(self):
        x, out = _backtrack(np.array([1.0, 2.0]), np.zeros(2), 1.0,
                            lambda z: float(z @ z), max_halvings=5)
        assert np.array_equal(x, [1.0, 2.0])
        assert out.evals == 0 and not out.stalled

    def test_stall_keeps_point(self):
        # at the minimum of z^2 every nonzero step increases the merit
        x, out = _backtrack(0.0, 1.0, 1.0, lambda z: z * z, max_halvings=8)
        assert x == 0.0
        assert out.stalled
        assert out.evals == 1 + 9  # baseline + max_halvings + 1 trials

    def test_accepted_first_try_matches_constant_variant(self, ls_spec):
        rng = np.random.default_rng(2)
        train = random_regression(rng, 10, 3)
        val = random_regression(rng, 5, 3, role="validation")
        cfg = MyhpoConfig(rho=1.0, alpha=0.01, beta=0.01, delta=0.01)
        s_const, _ = my_step_simplified(MyhpoState.initial(3), ls_spec, train, val, cfg)
        s_bt, _ = my_step_backtracking(MyhpoState.initial(3), ls_spec, train, val, cfg)
        for out in s_bt.last_backtrack:
            assert out.step is not None and not out.stalled
        assert np.array_equal(s_bt.v, s_const.v)
        assert np.array_equal(s_bt.w, s_const.w)
        assert s_bt.lam == s_const.lam
        assert np.array_equal(s_bt.u, s_const.u)
        assert s_bt.grad_count == s_const.grad_count == 2

    def test_accepted_blocks_strictly_decrease_merits(self, ls_spec):
        table = synthesize(SyntheticSpec(n=30, d=10, kappa=1e4, noise_std=0.1, seed=4))
        train, val, _ = split(table, SplitSpec(seed=4))
        cfg = MyhpoConfig(variant="simplified_backtracking",
                          rho=1.0, alpha=2.0, beta=2.0, delta=2.0)
        state = MyhpoState.initial(10)
        halved = 0
        for _ in range(40):
            state, _ = my_step_backtracking(state, ls_spec, train, val, cfg)
            for out in state.last_backtrack:
                if out.step is not None:
                    assert out.merit_after < out.merit_before
                    if out.step < 2.0:
                        halved += 1
        assert halved > 0  # the oversized steps actually exercised the halving

    def test_loss_eval_accounting(self, ls_spec):
        train, val = one_d_sets()
        cfg = MyhpoConfig(rho=1.0, alpha=0.01, beta=0.01, delta=0.01)
        state, _ = my_step_backtracking(MyhpoState.initial(1), ls_spec, train, val, cfg)
        assert state.loss_eval_count == sum(o.evals for o in state.last_backtrack)
        assert state.grad_count == 2


class TestFullStep:
    def test_step1_step2_match_independent_solves(self, ls_spec):
        rng = np.random.default_rng(21)
        train = random_regression(rng, 20, 6)
        val = random_regression(rng, 10, 6, role="validation")
        state = MyhpoState(v=rng.standard_normal(6), w=rng.standard_normal(6),
                           lam=-0.8, u=0.2 * rng.standard_normal(6))
        cfg = MyhpoConfig(variant="full", rho=1.3, inner_tol=1e-12)
        new, _ = my_step_full(state, ls_spec, train, val, cfg)

        # oracle route: stacked least-squares solves, not plain linear solves
        exp_lam = math.exp(state.lam)
        a1 = np.vstack([train.X / math.sqrt(train.n), math.sqrt(2 * exp_lam) * np.eye(6)])
        b1 = np.concatenate([train.y / math.sqrt(train.n), np.zeros(6)])
        v_oracle = np.linalg.lstsq(a1, b1, rcond=None)[0]
        assert np.linalg.norm(new.v - v_oracle) <= 1e-8

        br = split_best_response(new.v, state.lam)
        gw = best_response(br, state.lam)
        coef = 2 * exp_lam + cfg.rho
        a2 = np.vstack([train.X / math.sqrt(train.n), math.sqrt(coef) * np.eye(6)])
        b2 = np.concatenate([
            train.y / math.sqrt(train.n),
            (cfg.rho * gw - state.u) / math.sqrt(coef),
        ])
        w_oracle = np.linalg.lstsq(a2, b2, rcond=None)[0]
        assert np.linalg.norm(new.w - w_oracle) <= 1e-8

    def test_rho_zero_makes_steps_identical(self, ls_spec):
        rng = np.random.default_rng(23)
        train = random_regression(rng, 15, 4)
        val = random_regression(rng, 8, 4, role="validation")
        cfg = MyhpoConfig(variant="full", rho=0.0)
        state = MyhpoState.initial(4)
        new, _ = my_step_full(state, ls_spec, train, val, cfg)
        assert np.allclose(new.v, new.w, atol=1e-12)

    def test_lambda_subproblem_stationary(self, ls_spec):
        rng = np.random.default_rng(29)
        train = random_regression(rng, 15, 4)
        val = random_regression(rng, 8, 4, role="validation")
        cfg = MyhpoConfig(variant="full", rho=1.0, inner_tol=1e-10)
        state = MyhpoState(v=rng.standard_normal(4), w=rng.standard_normal(4),
                           lam=-1.0, u=np.zeros(4))
        new, _ = my_step_full(state, ls_spec, train, val, cfg)
        br = new.br
        gw = best_response(br, new.lam)
        slack = new.w - gw
        deriv = (float(br.phi1 @ grad_w_val(ls_spec, gw, val))
                 - float(state.u @ br.phi1)
                 - cfg.rho * float(br.phi1 @ slack))
        assert abs(deriv) <= 1e-8

    def test_logistic_inner_solver_reaches_tolerance(self, logit_spec):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((20, 3))
        y = np.sign(x @ np.array([1.0, -1.0, 0.5]) + 0.1 * rng.standard_normal(20))
        train = Dataset(x, y, "train")
        val = Dataset(x[:8], y[:8], "validation")
        cfg = MyhpoConfig(variant="full", rho=1.0, inner_tol=1e-8, inner_max_iters=20000)
        new, _ = my_step_full(MyhpoState.initial(3), logit_spec, train, val, cfg)
        g = grad_w_train(logit_spec, new.v, -1.0, train)
        assert np.linalg.norm(g) <= 1e-8
        assert new.grad_count > 2  # iterative solves are ledgered honestly

    def test_inner_solve_failure_raises(self, logit_spec):
        rng = np.random.default_rng(37)
        x = rng.standard_normal((10, 2))
        y = np.sign(x @ np.ones(2) + 0.1)
        train = Dataset(x, y, "train")
        val = Dataset(x, y, "validation")
        cfg = MyhpoConfig(variant="full", inner_tol=1e-14, inner_max_iters=2)
        with pytest.raises(InnerSolveFailed):
            my_step_full(MyhpoState.initial(2), logit_spec, train, val, cfg)

    def test_zero_curvature_falls_back_then_fails(self, logit_spec):
        """Validation margins of size ~1e6 saturate the sigmoid to exactly 0 or 1, so
        with rho = 0 the lam curvature is 0 and the Newton candidate is NaN.
        Newton gives up; the gradient fallback, whose step is too small to move
        lam, runs its 50 steps and the solve fails."""
        x = np.array([[2.0, 1.0], [1.0, 3.0], [-2.0, -1.0], [-1.0, -2.5]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        train = Dataset(x, y, "train")
        val = Dataset(-1e6 * x, y, "validation")
        cfg = MyhpoConfig(variant="full", rho=0.0, delta=1e-300)
        with pytest.raises(InnerSolveFailed, match="after Newton and fallback"):
            my_step_full(MyhpoState.initial(2), logit_spec, train, val, cfg)

    def test_fallback_stays_inside_the_sign_bracket(self, logit_spec, monkeypatch):
        """The zero-curvature instance at the default delta: the first gradient
        step overshoots to a positive derivative, and every later step would
        leave the bracket the signs have built. The fallback bisects instead."""
        x = np.array([[2.0, 1.0], [1.0, 3.0], [-2.0, -1.0], [-1.0, -2.5]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        train = Dataset(x, y, "train")
        val = Dataset(-1e6 * x, y, "validation")
        seen = []  # (lam, derivative) at every point the lam solve evaluates
        direction = moreau._lam_direction

        def spy(spec, br, lam, *rest):
            g = direction(spec, br, lam, *rest)
            seen.append((lam, g))
            return g

        monkeypatch.setattr(moreau, "_lam_direction", spy)
        cfg = MyhpoConfig(variant="full", rho=0.0)
        with pytest.raises(InnerSolveFailed, match="after Newton and fallback"):
            my_step_full(MyhpoState.initial(2), logit_spec, train, val, cfg)
        assert len(seen) == 51 and seen[2][1] > 0 > seen[0][1]
        lo, hi = -math.inf, math.inf
        for lam, g in seen:
            assert lo <= lam <= hi
            lo, hi = (lo, lam) if g > 0 else (lam, hi)

    def test_newton_overshoot_bisects_the_bracket(self, logit_spec, monkeypatch):
        """Two copies of one validation row with opposite labels make the
        validation loss along G(t) equal 2 log(2 cosh(s/2)), s = x0.G(t), whose
        derivative is a tanh. Started at |s| ~ 5, Newton jumps past the root;
        its next candidate leaves the sign bracket, which is then halved."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 3))
        train = Dataset(x, np.sign(x @ np.array([1.0, -1.0, 0.5])), "train")
        x0 = 30.0 * rng.standard_normal(3)
        val = Dataset(np.vstack([x0, x0]), [1.0, -1.0], "validation")
        seen = []  # (lam, derivative) at every point the lam solve evaluates
        direction = moreau._lam_direction

        def spy(spec, br, lam, *rest):
            g = direction(spec, br, lam, *rest)
            seen.append((lam, g))
            return g

        monkeypatch.setattr(moreau, "_lam_direction", spy)
        cfg = MyhpoConfig(variant="full", rho=1.0, inner_tol=1e-10)
        my_step_full(MyhpoState.initial(3), logit_spec, train, val, cfg)
        lo, hi, bisected = -math.inf, math.inf, False
        for (lam, g), (nxt, _) in zip(seen, seen[1:]):
            lo, hi = (lo, lam) if g > 0 else (lam, hi)
            bisected |= nxt == 0.5 * (lo + hi)
        assert bisected
        assert abs(seen[-1][1]) <= cfg.inner_tol


class TestFixedPoint:
    def test_every_variant_maps_stationary_point_to_itself(self, ls_spec):
        train, val = zero_target_instance()
        for variant, step in (
            ("simplified_constant", my_step_simplified),
            ("simplified_backtracking", my_step_backtracking),
        ):
            cfg = MyhpoConfig(variant=variant, rho=1.0, alpha=0.2, beta=0.2, delta=0.2)
            state = MyhpoState.initial(3, lam0=-1.0)
            new, res = step(state, ls_spec, train, val, cfg)
            assert np.array_equal(new.v, state.v)
            assert np.array_equal(new.w, state.w)
            assert new.lam == state.lam
            assert np.array_equal(new.u, state.u)
            assert res.r_norm == 0.0 and res.s_norm == 0.0
        cfg = MyhpoConfig(variant="full", rho=1.0)
        new, res = my_step_full(MyhpoState.initial(3, lam0=-1.0), ls_spec, train, val, cfg)
        assert np.array_equal(new.v, np.zeros(3))
        assert np.array_equal(new.w, np.zeros(3))
        assert new.lam == -1.0
        assert res.r_norm == 0.0 and res.s_norm == 0.0


class TestRun:
    def test_huge_eps_tol_stops_after_one_iteration(self, ls_spec):
        train, val = one_d_sets()
        cfg = MyhpoConfig(eps_tol=1e30, max_iters=100)
        trace = myhpo_run(MyhpoState.initial(1), ls_spec, train, val, cfg, budget=100)
        assert len(trace.rows) == 1

    def test_budget_arithmetic(self, ls_spec):
        train, val = one_d_sets()
        cfg = MyhpoConfig(eps_tol=1e-30, max_iters=10**6, alpha=1e-5, beta=1e-5, delta=1e-5)
        trace = myhpo_run(MyhpoState.initial(1), ls_spec, train, val, cfg, budget=2000)
        assert len(trace.rows) == 1000
        assert trace.rows[-1].n_grad == 2000
        assert all(r.n_grad == 2 * r.iter for r in trace.rows)

    def test_full_variant_budget_cap_respected(self, ls_spec):
        rng = np.random.default_rng(41)
        train = random_regression(rng, 10, 3)
        val = random_regression(rng, 5, 3, role="validation")
        cfg = MyhpoConfig(variant="full", eps_tol=1e-30, max_iters=10**6)
        trace = myhpo_run(MyhpoState.initial(3), ls_spec, train, val, cfg, budget=20)
        assert trace.rows[-1].n_grad <= 20

    def test_logistic_full_variant_spends_budget_exactly(self, logit_spec):
        """A budget that runs out inside an inner solve, at any point of the
        train solves or the Newton loop, ends the run at exactly the budget."""
        rng = np.random.default_rng(31)
        x = rng.standard_normal((20, 3))
        y = np.sign(x @ np.array([1.0, -1.0, 0.5]) + 0.1 * rng.standard_normal(20))
        train, val = Dataset(x, y, "train"), Dataset(x[:8], y[:8], "validation")
        cfg = MyhpoConfig(variant="full", eps_tol=1e-30, max_iters=10**6)

        def run(budget):
            return myhpo_run(MyhpoState.initial(3), logit_spec, train, val, cfg, budget)

        first, second = (r.n_grad for r in run(10**3).rows[:2])
        assert first > 2  # the first step alone spans many inner gradients
        for budget in range(2, second + 1):
            rows = run(budget).rows
            assert rows[-1].n_grad == budget
            assert len(rows) == (1 if budget <= first else 2)

    def test_divergence_recorded_not_raised(self, ls_spec):
        table = synthesize(SyntheticSpec(n=30, d=10, kappa=10.0, noise_std=0.1, seed=2))
        train, val, _ = split(table, SplitSpec(seed=2))
        cfg = MyhpoConfig(variant="simplified_constant", alpha=1e4, beta=1e4, delta=1e4,
                          eps_tol=1e-30, max_iters=1000)
        trace = myhpo_run(MyhpoState.initial(10), ls_spec, train, val, cfg, budget=2000)
        assert trace.diverged

    def test_convergence_on_strongly_convex_instance(self, ls_spec):
        table = synthesize(SyntheticSpec(n=12, d=2, kappa=5.0, noise_std=0.6, seed=6))
        train, val, _ = split(table, SplitSpec(train_fraction=0.34, val_fraction=0.33, seed=6))
        cfg = MyhpoConfig(variant="full", rho=1.0, eps_tol=1e-6, max_iters=3000,
                          inner_tol=1e-10)
        trace = myhpo_run(MyhpoState.initial(2), ls_spec, train, val, cfg, budget=10**6)
        last = trace.rows[-1]
        assert max(last.r_norm, last.s_norm) < 1e-6

    def test_residuals_stay_below_tolerance_once_converged(self, ls_spec):
        # run past first crossing with a tiny eps_tol, then check the tail
        table = synthesize(SyntheticSpec(n=12, d=2, kappa=5.0, noise_std=0.6, seed=6))
        train, val, _ = split(table, SplitSpec(train_fraction=0.34, val_fraction=0.33, seed=6))
        cfg = MyhpoConfig(variant="full", rho=1.0, eps_tol=1e-9, max_iters=400,
                          inner_tol=1e-12)
        trace = myhpo_run(MyhpoState.initial(2), ls_spec, train, val, cfg, budget=10**6)
        errs = [max(r.r_norm, r.s_norm) for r in trace.rows]
        assert min(errs) < 1e-6
        assert all(e < 1e-6 for e in errs[-10:])

    def test_degenerate_split_stops_with_note(self, ls_spec):
        train, val = one_d_sets()
        trace = myhpo_run(MyhpoState.initial(1, lam0=0.0), ls_spec, train, val,
                          MyhpoConfig(), budget=100)
        assert trace.note.startswith("SplitDegenerate: ")
        assert not trace.rows and not trace.diverged

    def test_inner_solve_failure_stops_with_note(self, logit_spec):
        rng = np.random.default_rng(37)
        x = rng.standard_normal((10, 2))
        y = np.sign(x @ np.ones(2) + 0.1)
        train, val = Dataset(x, y, "train"), Dataset(x, y, "validation")
        cfg = MyhpoConfig(variant="full", inner_max_iters=3)
        trace = myhpo_run(MyhpoState.initial(2), logit_spec, train, val, cfg, budget=100)
        assert trace.note.startswith("InnerSolveFailed: ")
        assert not trace.rows and not trace.diverged

    def test_nonfinite_first_step_marks_diverged(self, ls_spec):
        rng = np.random.default_rng(43)
        train = random_regression(rng, 10, 3)
        val = random_regression(rng, 5, 3, role="validation")
        cfg = MyhpoConfig(alpha=1e300)
        with pytest.raises(NonFiniteIterate):
            with np.errstate(over="ignore", invalid="ignore"):
                my_step_simplified(MyhpoState.initial(3), ls_spec, train, val, cfg)
        trace = myhpo_run(MyhpoState.initial(3), ls_spec, train, val, cfg, budget=100)
        assert trace.diverged and not trace.rows and trace.note == ""


class TestStationarity:
    def test_ridge_point_with_zero_dual(self, ls_spec):
        rng = np.random.default_rng(43)
        train = random_regression(rng, 20, 4)
        val = random_regression(rng, 10, 4, role="validation")
        lam = -0.6
        a = train.X.T @ train.X / train.n + 2 * math.exp(lam) * np.eye(4)
        w = np.linalg.solve(a, train.X.T @ train.y / train.n)
        br = split_best_response(w, lam)
        state = MyhpoState(v=w, w=w, lam=lam, u=np.zeros(4), br=br)
        rep = check_stationarity(ls_spec, state, train, val, tol=1e-4)
        assert rep.train_grad_norm <= 1e-8
        assert rep.hypernet_grad_norm <= 1e-8
        assert rep.consensus_gap <= 1e-12

    def test_constructed_dual_kills_first_residual(self, ls_spec):
        rng = np.random.default_rng(47)
        train = random_regression(rng, 10, 3)
        val = random_regression(rng, 6, 3, role="validation")
        w = rng.standard_normal(3)
        lam = -1.2
        u = -grad_w_train(ls_spec, w, lam, train)
        br = split_best_response(w, lam)
        state = MyhpoState(v=w, w=w, lam=lam, u=u, br=br)
        rep = check_stationarity(ls_spec, state, train, val, tol=1e-4)
        assert rep.train_grad_norm == 0.0

    def test_converged_run_passes(self, ls_spec):
        table = synthesize(SyntheticSpec(n=12, d=2, kappa=5.0, noise_std=0.6, seed=6))
        train, val, _ = split(table, SplitSpec(train_fraction=0.34, val_fraction=0.33, seed=6))
        cfg = MyhpoConfig(variant="full", rho=1.0, eps_tol=1e-6, max_iters=3000,
                          inner_tol=1e-10)
        state = MyhpoState.initial(2)
        for _ in range(3000):
            state, res = my_step_full(state, ls_spec, train, val, cfg)
            if max(res.r_norm, res.s_norm) < cfg.eps_tol:
                break
        rep = check_stationarity(ls_spec, state, train, val, tol=1e-4)
        assert rep.ok
        assert rep.u_norm <= 1e-4
