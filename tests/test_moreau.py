import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest

from myhpo import moreau
from myhpo.data import SplitSpec, SyntheticSpec, split, synthesize
from myhpo.model import (
    BestResponse,
    Dataset,
    DimensionMismatch,
    LossSpec,
    NonFiniteIterate,
    best_response,
    grad_lambda_val,
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
from conftest import random_classification, random_regression, ridge_solution


def one_d_sets():
    return Dataset([[1.0]], [1.0], "train"), Dataset([[1.0]], [1.0], "validation")


def lam_solve_sets(case):
    """(train, validation, d) of the constructed lam-solve instances: saturated
    validation margins (every case but one), or a validation loss whose lam
    derivative is a tanh that Newton overshoots (``overshoot``)."""
    if case != "overshoot":
        x = np.array([[2.0, 1.0], [1.0, 3.0], [-2.0, -1.0], [-1.0, -2.5]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        return Dataset(x, y, "train"), Dataset(-1e6 * x, y, "validation"), 2
    rng = np.random.default_rng(5)
    x = rng.standard_normal((8, 3))
    train = Dataset(x, np.sign(x @ np.array([1.0, -1.0, 0.5])), "train")
    x0 = 30.0 * rng.standard_normal(3)
    return train, Dataset(np.vstack([x0, x0]), [1.0, -1.0], "validation"), 3


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

    def test_nonfinite_raises(self, ls_spec):
        train, val = one_d_sets()
        cfg = MyhpoConfig(alpha=1e300, beta=1e300, delta=1.0)
        state = MyhpoState(v=np.array([1e300]), w=np.array([0.0]), lam=-1.0, u=np.zeros(1))
        with pytest.raises(NonFiniteIterate):
            with np.errstate(over="ignore", invalid="ignore"):
                my_step_simplified(state, ls_spec, train, val, cfg)


def square(z):
    """A merit for ``_backtrack``: ``z * z``, with ``("at", z)`` as its extra."""
    return z * z, ("at", z)


class TestBacktracking:
    def test_halving_rule_hand_trace(self):
        x, extra, out = _backtrack(1.0, 2.0, 1.0, square, max_halvings=10)
        assert x == 0.0
        assert extra == ("at", 0.0)  # the accepted candidate's
        assert out.step == 0.5
        assert out.evals == 3  # baseline + rejected t=1 + accepted t=0.5
        assert not out.stalled

    def test_zero_direction_is_noop(self):
        x, extra, out = _backtrack(np.array([1.0, 2.0]), np.zeros(2), 1.0,
                                   lambda z: (float(z @ z), z), max_halvings=5)
        assert np.array_equal(x, [1.0, 2.0])
        assert extra is None
        assert out.evals == 0 and not out.stalled

    def test_stall_keeps_point(self):
        # at the minimum of z^2 every nonzero step increases the merit
        x, extra, out = _backtrack(0.0, 1.0, 1.0, square, max_halvings=8)
        assert x == 0.0
        assert extra == ("at", 0.0)  # the kept point's, not the last candidate's
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
        Newton gives up; the gradient step is too small to move lam, so the
        solve fails at once."""
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
        # all 50 evaluations run: the bracket ends about 1e-11 wide around
        # lam 41.83, far wider than two adjacent floats
        assert len(seen) == 50 and seen[1][1] > 0 > seen[0][1]
        lo, hi = -math.inf, math.inf
        for lam, g in seen:
            assert lo <= lam <= hi
            lo, hi = (lo, lam) if g > 0 else (lam, hi)

    def test_fallback_stops_once_its_bracket_collapses(self, logit_spec, monkeypatch):
        """The zero-curvature instance with a scripted lam derivative that
        jumps from -s to +s at c and never vanishes: the fallback brackets c
        and bisects until the bracket's ends are adjacent floats, then raises
        without evaluating either end again."""
        x = np.array([[2.0, 1.0], [1.0, 3.0], [-2.0, -1.0], [-1.0, -2.5]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        train = Dataset(x, y, "train")
        val = Dataset(-1e6 * x, y, "validation")
        s, c = 2.0 ** -20, -1.0 + 2.0 ** -22
        seen = []

        def jump(spec, br, lam, *rest):
            seen.append(lam)
            return -s if lam < c else s

        monkeypatch.setattr(moreau, "_lam_direction", jump)
        with pytest.raises(InnerSolveFailed, match="after Newton and fallback"):
            my_step_full(MyhpoState.initial(2), logit_spec, train,
                         val, MyhpoConfig(variant="full", rho=0.0))
        # Newton evaluates -1.0 once; the gradient steps never return to it
        assert seen[0] == -1.0 and len(set(seen)) == len(seen)
        assert len(seen) == 34
        lo = max(lam for lam in seen if lam < c)
        hi = min(lam for lam in seen if lam >= c)
        assert np.nextafter(lo, math.inf) == hi

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

    @pytest.mark.parametrize("case", ["saturated", "saturated-tiny-delta", "jump-rho0",
                                      "jump-rho1", "overshoot"])
    def test_lam_solve_evaluates_each_point_once(self, logit_spec, monkeypatch, case):
        """Every lam the solve evaluates is new and lies inside the sign bracket
        the earlier derivatives set. A step that cannot move lam (delta =
        1e-300) fails after one derivative; a bracket collapsed onto the
        scripted jump, with Newton curvature at rho = 1, fails once its ends
        are adjacent floats."""
        train, val, d = lam_solve_sets(case)
        cfg = MyhpoConfig(variant="full", rho=1.0 if case in ("jump-rho1", "overshoot") else 0.0,
                          delta=1e-300 if case == "saturated-tiny-delta" else 0.5,
                          inner_tol=1e-10 if case == "overshoot" else 1e-8)
        s, c = 2.0 ** -20, -1.0 + 2.0 ** -22
        direction = moreau._lam_direction
        seen = []  # (lam, derivative) at every point the lam solve evaluates

        def spy(spec, br, lam, *rest):
            if case.startswith("jump"):
                g = -s if lam < c else s
            else:
                g = direction(spec, br, lam, *rest)
            seen.append((lam, g))
            return g

        monkeypatch.setattr(moreau, "_lam_direction", spy)
        if case == "overshoot":
            my_step_full(MyhpoState.initial(d), logit_spec, train, val, cfg)
            assert abs(seen[-1][1]) <= cfg.inner_tol
        else:
            with pytest.raises(InnerSolveFailed, match="after Newton and fallback"):
                my_step_full(MyhpoState.initial(d), logit_spec, train, val, cfg)
        lams = [lam for lam, _ in seen]
        assert len(set(lams)) == len(lams)
        lo, hi = -math.inf, math.inf
        for lam, g in seen:
            assert lo < lam < hi
            lo, hi = (lo, lam) if g > 0 else (lam, hi)
        expected = {"saturated-tiny-delta": 1, "jump-rho0": 34, "jump-rho1": 45}
        if case in expected:
            assert len(seen) == expected[case]
        if case == "jump-rho1":
            assert np.nextafter(lo, math.inf) == hi


def reference_step(state, spec, train, val, cfg, backtracking):
    """One simplified step from the public model functions alone, each merit
    and gradient computing its own products: ``(v, w, lam, u, outcomes)``, with
    each block's outcome as ``(step, merit_before, merit_after, evals, stalled)``."""
    v, w, lam, u, rho = state.v, state.w, state.lam, state.u, cfg.rho

    def search(x0, direction, step0, merit):
        if not backtracking:
            return x0 - step0 * direction, None
        if not np.any(direction):
            return x0, (None, math.nan, math.nan, 0, False)
        m0, t = merit(x0), step0
        for k in range(cfg.max_halvings + 1):
            cand = x0 - t * direction
            mc = merit(cand)
            if mc < m0:
                return cand, (t, m0, mc, k + 2, False)
            t *= 0.5
        return x0, (None, m0, m0, cfg.max_halvings + 2, True)

    def augmented(f, slack):
        return f + float(u @ slack) + 0.5 * rho * float(slack @ slack)

    g_t = grad_w_train(spec, v, lam, train)
    v1, out_v = search(v, g_t, cfg.alpha, lambda x: train_loss(spec, x, lam, train))
    br = split_best_response(v1, lam)
    gw_old = best_response(br, lam)
    w1, out_w = search(w, g_t + u + rho * (w - gw_old), cfg.beta,
                       lambda x: augmented(train_loss(spec, x, lam, train), x - gw_old))
    lam_dir = (grad_lambda_val(spec, br, lam, val) - float(u @ br.phi1)
               - rho * float(br.phi1 @ (w1 - best_response(br, lam))))
    lam1, out_l = search(lam, lam_dir, cfg.delta, lambda t: augmented(
        val_loss(spec, best_response(br, t), val), w1 - best_response(br, t)))
    u1 = u + rho * (w1 - best_response(br, lam1))
    return v1, w1, float(lam1), u1, (out_v, out_w, out_l)


def comparable(outcome):
    """A block outcome as a tuple in which NaN equals NaN."""
    return tuple("nan" if x != x else x for x in outcome)


class CountingMatrix(np.ndarray):
    """A feature matrix that counts its matrix products, ``X @ x`` and ``X.T @ r``."""

    products = 0

    def __matmul__(self, other):
        CountingMatrix.products += 1
        return np.matmul(self.view(np.ndarray), other)


def product_reuse_sets(kind):
    """(spec, train, validation) of a 30 x 6 problem whose splits count their products."""
    rng = np.random.default_rng(3)
    make = random_regression if kind == "least_squares" else random_classification
    train, val = make(rng, 30, 6), make(rng, 15, 6, role="validation")
    for data in (train, val):
        data.X = data.X.view(CountingMatrix)
    return LossSpec(kind), train, val


class TestProductReuse:
    """The simplified step takes each point's ``X @ x`` once and carries the
    accepted points' products to the next step, without moving a bit."""

    CASES = {  # case -> MyhpoConfig arguments; halvings and stalls need backtracking
        "least_squares": dict(delta=0.1),
        "logistic": dict(delta=0.1),
        "zero-direction": dict(delta=0.1),
        "halving-least_squares": dict(alpha=2.0, beta=2.0, delta=20.0),
        "halving-logistic": dict(alpha=2.0, beta=2.0, delta=20.0),
        "stalled": dict(alpha=2.0, beta=2.0, delta=20.0, max_halvings=1),
    }

    @pytest.mark.parametrize("backtracking,case", [
        *((True, case) for case in CASES),
        *((False, case) for case in ("least_squares", "logistic", "zero-direction")),
    ])
    def test_matches_the_reference_step_bit_for_bit(self, case, backtracking):
        """200 steps from the initial state, each compared with the reference
        step taken from the reference's own previous iterate. The residuals a
        step returns, which reuse its slacks and dots, are the bits that
        ``residuals`` computes afresh from the new state."""
        spec, train, val = product_reuse_sets("logistic" if case.endswith("logistic")
                                              else "least_squares")
        cfg = MyhpoConfig(**self.CASES[case])
        state = MyhpoState.initial(6)
        if case == "zero-direction":
            # zero training targets keep v at 0 and phi1 at 0: the v and lam
            # directions vanish while w moves toward G(lam) = 0
            train = Dataset(train.X, np.zeros(train.n), "train")
            state = MyhpoState(v=np.zeros(6), w=np.linspace(-1.0, 1.0, 6), lam=-1.0,
                               u=np.zeros(6))
        step = my_step_backtracking if backtracking else my_step_simplified
        ref, evals, kinds = state, 0, set()
        for _ in range(200):
            v, w, lam, u, outcomes = reference_step(ref, spec, train, val, cfg, backtracking)
            lam_old = state.lam
            state, res = step(state, spec, train, val, cfg)
            fresh = residuals(state, lam_old, cfg.rho)
            assert res.r.tobytes() == fresh.r.tobytes() and res.s.tobytes() == fresh.s.tobytes()
            assert same_bits(res.r_norm, fresh.r_norm) and same_bits(res.s_norm, fresh.s_norm)
            assert np.array_equal(state.v, v) and np.array_equal(state.w, w)
            assert state.lam == lam and np.array_equal(state.u, u)
            ref = MyhpoState(v=v, w=w, lam=lam, u=u)
            if backtracking:
                assert [comparable(dataclasses.astuple(o)) for o in state.last_backtrack] == [
                    comparable(o) for o in outcomes]
                evals += sum(o[3] for o in outcomes)
                kinds |= {"stalled" if o[4] else "zero" if o[3] == 0 else
                          "halved" if o[3] > 2 else "first-try" for o in outcomes}
            assert state.loss_eval_count == evals
        assert state.grad_count == 200 * 2
        expected = {"stalled": "stalled", "zero-direction": "zero",
                    "halving-least_squares": "halved", "halving-logistic": "halved"}
        if backtracking and case in expected:
            assert expected[case] in kinds

    @staticmethod
    def counted_step(step, state, spec, train, val, cfg):
        """``step``'s new state and the matrix products it made."""
        CountingMatrix.products = 0
        new, _ = step(state, spec, train, val, cfg)
        return new, CountingMatrix.products

    @pytest.mark.parametrize("kind", ["least_squares", "logistic"])
    def test_backtracking_step_makes_one_product_per_merit_evaluation(self, kind):
        """A step whose blocks all evaluate merits makes E products, E its merit
        evaluations: the training gradient's ``X.T @ r``, one ``X @ x`` per
        candidate and the lam derivative's two. The first step also takes the
        products at the initial v and w."""
        spec, train, val = product_reuse_sets(kind)
        cfg = MyhpoConfig(rho=1.0, alpha=0.1, beta=0.5, delta=0.75)
        state = MyhpoState.initial(6)
        for k in range(30):
            state, products = self.counted_step(my_step_backtracking, state, spec, train,
                                                val, cfg)
            evals = [o.evals for o in state.last_backtrack]
            assert min(evals) > 0
            assert products == sum(evals) + (2 if k == 0 else 0)

    @pytest.mark.parametrize("kind", ["least_squares", "logistic"])
    def test_constant_step_makes_four_products(self, kind):
        spec, train, val = product_reuse_sets(kind)
        cfg = MyhpoConfig(delta=0.1)
        state = MyhpoState.initial(6)
        for _ in range(10):
            state, products = self.counted_step(my_step_simplified, state, spec, train,
                                                val, cfg)
            assert products == 4

    def test_caller_built_state_recomputes_its_products(self):
        """A state rebuilt from equal but distinct arrays carries no products:
        it steps to the same state, paying for its v and w products again."""
        spec, train, val = product_reuse_sets("logistic")
        cfg = MyhpoConfig(rho=1.0, alpha=0.1, beta=0.5, delta=0.75)
        state = MyhpoState.initial(6)
        for _ in range(5):
            state, _ = my_step_backtracking(state, spec, train, val, cfg)
        rebuilt = MyhpoState(v=state.v.copy(), w=state.w.copy(), lam=state.lam,
                             u=state.u.copy(), br=state.br, iter=state.iter,
                             grad_count=state.grad_count,
                             loss_eval_count=state.loss_eval_count)
        carried, n_carried = self.counted_step(my_step_backtracking, state, spec, train,
                                               val, cfg)
        fresh, n_fresh = self.counted_step(my_step_backtracking, rebuilt, spec, train, val,
                                           cfg)
        for name in ("v", "w", "u"):
            assert np.array_equal(getattr(fresh, name), getattr(carried, name))
        assert fresh.lam == carried.lam
        assert (fresh.iter, fresh.grad_count, fresh.loss_eval_count) == (
            carried.iter, carried.grad_count, carried.loss_eval_count)
        assert fresh.last_backtrack == carried.last_backtrack
        assert n_fresh == n_carried + 2

    def test_a_step_checks_its_inputs_once_not_per_product(self, monkeypatch):
        """The roles are checked when a step binds its splits and the shapes
        when it takes its points, never per product: a backtracking step whose
        blocks each evaluate 8 merits makes the checks of one whose blocks
        evaluate 2. The caller's state is left as it was."""
        spec, train, val = product_reuse_sets("least_squares")
        calls = []
        for name in ("_check_w", "_require_role"):
            def counted(*args, fn=getattr(moreau, name), name=name):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(moreau, name, counted)
        checks = {}
        for steps, evals in ((dict(alpha=1e-3, beta=1e-3, delta=1e-3), 2),
                             (dict(alpha=60.0, beta=30.0, delta=10.0), 8)):
            state = MyhpoState(v=np.full(6, 0.1), w=np.zeros(6), lam=-1.0, u=np.ones(6))
            before = dataclasses.astuple(state)
            calls.clear()
            new, _ = my_step_backtracking(state, spec, train, val, MyhpoConfig(**steps))
            assert [o.evals for o in new.last_backtrack] == [evals] * 3
            checks[evals] = sorted(calls)
            assert all(np.array_equal(a, b) for a, b in zip(dataclasses.astuple(state), before))
        assert checks[2] == checks[8] and checks[2]

    @pytest.mark.parametrize("kind,per_step", [("least_squares", 5), ("logistic", 7)])
    def test_full_lam_solve_reuses_its_validation_products(self, kind, per_step, monkeypatch):
        """The full variant's lam solve makes two validation passes per
        derivative, ``X_val @ G(lam)`` and ``X_val.T @ r``, plus ``X_val @ phi1``
        once: each Newton curvature reuses its derivative's ``X_val @ G(lam)``."""
        spec, train, val = product_reuse_sets(kind)
        train.X = train.X.view(np.ndarray)  # count the validation split only
        calls = dict.fromkeys(("_lam_direction", "_fit_curvature"), 0)
        for name in calls:
            def counted(*args, fn=getattr(moreau, name), name=name):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(moreau, name, counted)
        state = MyhpoState.initial(6)
        for _ in range(5):
            calls.update(dict.fromkeys(calls, 0))
            state, products = self.counted_step(my_step_full, state, spec, train, val,
                                                MyhpoConfig(variant="full"))
            assert calls["_fit_curvature"] > 0
            assert products == 2 * calls["_lam_direction"] + 1 == per_step


@pytest.mark.parametrize("step", [my_step_simplified, my_step_backtracking, my_step_full],
                         ids=lambda step: step.__name__)
def test_every_step_refuses_a_wrong_split_or_state_length(step, ls_spec):
    """A validation split passed as ``train`` raises the role check's
    ``ValueError``, and a state of the wrong length ``DimensionMismatch``,
    before any solve."""
    rng = np.random.default_rng(4)
    train, val = random_regression(rng, 12, 4), random_regression(rng, 8, 4, role="validation")
    cfg = MyhpoConfig(variant="full") if step is my_step_full else MyhpoConfig()
    with pytest.raises(ValueError, match=r"expected a split with role in \('train',\)"):
        step(MyhpoState.initial(4), ls_spec, val, val, cfg)
    with pytest.raises(DimensionMismatch, match=r"w has shape \(5,\), expected \(4,\)"):
        step(MyhpoState.initial(5), ls_spec, train, val, cfg)


def same_bits(a: float, b: float) -> bool:
    """``a`` and ``b`` are one double, bit for bit, or both NaN."""
    return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)


def test_a_vector_dot_is_the_matmul_dot_bit_for_bit():
    """The steps and kernels take 1-d dots as ``a.dot(b)``, the ddot that
    ``a @ b`` runs: equal bit for bit on 5,000 random pairs of five lengths
    at scales 1e-100 to 1e100, a tenth of them with an inf or NaN entry."""
    rng = np.random.default_rng(23)
    for d in (6, 50, 256, 400, 784):
        for k in range(1000):
            a, b = (rng.standard_normal(d) * 10.0 ** rng.uniform(-100, 100) for _ in range(2))
            if k % 10 == 0:
                a[rng.integers(d)] = (math.inf, -math.inf, math.nan)[k // 10 % 3]
            with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                assert same_bits(float(a.dot(b)), float(a @ b))
                assert same_bits(float(a.dot(a)), float(a @ a))


def test_the_residual_norm_is_numpys_bit_for_bit():
    """``moreau._norm`` replaces ``np.linalg.norm`` on the trace's norm columns:
    equal on 10,000 random vectors of four lengths, and inf where ``x @ x``
    overflows."""
    rng = np.random.default_rng(21)
    for d in (6, 50, 256, 784):
        for _ in range(2500):
            x = rng.standard_normal(d) * 10.0 ** rng.uniform(-100, 100)
            assert moreau._norm(x) == float(np.linalg.norm(x))
    big = np.full(4, 1e200)
    with np.errstate(over="ignore"):
        assert moreau._norm(big) == float(np.linalg.norm(big)) == math.inf


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


# a non-default value of each field in UNREAD_FIELDS; each one changes the
# 30 x 6 logistic run below of a variant that reads the field
NON_DEFAULT = {"alpha": 0.7, "beta": 0.9, "max_halvings": 1, "inner_tol": 1e-2,
               "inner_max_iters": 2}


@pytest.mark.parametrize("kind", ["least_squares", "logistic"])
@pytest.mark.parametrize("solver, key", [(solver, key) for solver, keys in
                                         moreau.UNREAD_FIELDS.items() for key in keys])
def test_unread_fields_leave_every_row_alone(kind, solver, key):
    """A field declared unread changes no row of its variant's run."""
    rng = np.random.default_rng(11)
    make = random_regression if kind == "least_squares" else random_classification
    train, val = make(rng, 30, 6), make(rng, 15, 6, role="validation")
    variant = {name: v for v, name in moreau.VARIANT_SOLVERS.items()}[solver]

    def rows(**changed):
        cfg = MyhpoConfig(variant=variant, delta=0.25, max_iters=12, eps_tol=1e-30, **changed)
        trace = myhpo_run(MyhpoState.initial(6), LossSpec(kind), train, val, cfg, budget=200)
        return trace.note, trace.diverged, [dataclasses.astuple(r) for r in trace.rows]

    default = rows()
    assert default[:2] == ("", False) and len(default[2]) == 12
    assert rows(**{key: NON_DEFAULT[key]}) == default


class TestRun:
    def test_budget_must_cover_one_step(self, ls_spec):
        train, val = one_d_sets()
        with pytest.raises(ValueError, match="budget must be at least 2"):
            myhpo_run(MyhpoState.initial(1), ls_spec, train, val, MyhpoConfig(), budget=1)

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

    def test_underflowing_weight_decay_on_a_wide_split_stays_finite(self, ls_spec):
        """rho = 0 and exp(-800) == 0 leave the n < d training system singular:
        the spectral solve divides by the roundoff eigenvalues of gram as they
        are, and the run ends finite without a warning."""
        table = synthesize(SyntheticSpec(n=60, d=50, kappa=1e4, noise_std=0.1, seed=0))
        train, val, _ = split(table, SplitSpec(train_fraction=0.5, val_fraction=0.25, seed=0))
        assert train.n < train.d
        cfg = MyhpoConfig(variant="full", rho=0.0, eps_tol=1e-30, max_iters=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trace = myhpo_run(MyhpoState.initial(50, lam0=-800.0), ls_spec, train, val,
                              cfg, budget=10**6)
        assert len(trace.rows) == 50 and not trace.diverged and trace.note == ""
        assert all(math.isfinite(x) for r in trace.rows
                   for x in (r.lam, r.train_loss, r.val_loss, r.r_norm, r.u_norm))

    def test_least_squares_full_variant_decomposes_each_split_once(self, ls_spec, monkeypatch):
        """The exact least-squares solves never call a dense solver; one
        eigh per training split serves every run on it."""
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.solve called")

        eigh = np.linalg.eigh
        calls = []

        def counting_eigh(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", refuse)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        rng = np.random.default_rng(61)
        cfg = MyhpoConfig(variant="full", eps_tol=1e-30, max_iters=20)
        for d in (4, 7):
            train = random_regression(rng, 12, d)
            val = random_regression(rng, 6, d, role="validation")
            for _ in range(2):
                trace = myhpo_run(MyhpoState.initial(d), ls_spec, train, val, cfg, budget=10**6)
                assert len(trace.rows) == 20 and not trace.diverged and trace.note == ""
        assert calls == [(4, 4), (7, 7)]


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
        assert rep.relative_residual <= 1e-4

    def test_relative_residual_flags_a_near_zero_model(self, ls_spec):
        """At lam = 8 the ridge solution is ~1e-4 in size, so every absolute
        residual passes 1e-4 although the lam equation has no root there:
        the relative residual, the cosine of phi1 and grad_w L_V, does not."""
        rng = np.random.default_rng(67)
        train = random_regression(rng, 20, 4)
        val = random_regression(rng, 10, 4, role="validation")
        lam = 8.0
        w = ridge_solution(train, lam)
        state = MyhpoState(v=w, w=w, lam=lam, u=np.zeros(4), br=split_best_response(w, lam))
        rep = check_stationarity(ls_spec, state, train, val, tol=1e-4)
        assert rep.ok
        assert max(rep.train_grad_norm, rep.consensus_gap, rep.hypernet_grad_norm) <= 1e-12
        assert rep.relative_residual > 0.5
