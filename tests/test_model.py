import math
import warnings

import numpy as np
import pytest

from myhpo.gradcheck import fd_grad_w, fd_scalar
from myhpo.model import (
    BestResponse,
    Dataset,
    DimensionMismatch,
    LossSpec,
    SplitDegenerate,
    _expit,
    _fit_curvature,
    best_response,
    grad_lambda_val,
    grad_w_train,
    grad_w_val,
    report_block,
    split_best_response,
    train_loss,
    val_loss,
)
from conftest import random_classification, random_regression, ridge_solution


def two_point_sets():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([1.0, -1.0])
    return Dataset(x, y, "train"), Dataset(x, y, "validation")


class TestTypes:
    def test_dataset_rejects_row_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Dataset(np.zeros((3, 2)), np.zeros(2), "train")

    @pytest.mark.parametrize("x, y, exc", [
        (np.zeros(2), np.zeros(2), DimensionMismatch),
        (np.zeros((2, 2)), np.zeros((2, 1)), DimensionMismatch),
        (np.zeros((0, 2)), np.zeros(0), ValueError),
        (np.zeros((2, 0)), np.zeros(2), ValueError),
    ], ids=["1-d-X", "2-d-y", "no-sample", "no-feature"])
    def test_dataset_rejects_bad_shapes(self, x, y, exc):
        with pytest.raises(exc):
            Dataset(x, y, "train")

    def test_dataset_rejects_bad_role(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.zeros(2), "holdout")

    def test_dataset_rejects_nonfinite(self):
        x = np.zeros((2, 2))
        x[0, 0] = np.nan
        with pytest.raises(ValueError):
            Dataset(x, np.zeros(2), "train")

    def test_loss_spec_kinds(self):
        with pytest.raises(ValueError):
            LossSpec("hinge")

    def test_best_response_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            BestResponse(np.zeros(2), np.zeros(3))
        with pytest.raises(DimensionMismatch, match="must be 1-d"):
            BestResponse(np.zeros((2, 1)), np.zeros((2, 1)))


class TestBestResponse:
    def test_affine_formula(self):
        br = BestResponse(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert np.array_equal(best_response(br, 2.0), [5.0, 8.0])
        assert np.array_equal(best_response(br, 0.0), [3.0, 4.0])

    def test_algorithm_init_value(self):
        br = BestResponse(np.array([2.0, 2.0]), np.array([1.0, 1.0]))
        assert np.array_equal(best_response(br, -1.0), [-1.0, -1.0])

    def test_split_mean_convention(self):
        br = split_best_response(np.array([0.0, 2.0]), 2.0)
        assert np.array_equal(br.phi0, [1.0, 1.0])
        assert np.array_equal(br.phi1, [-0.5, 0.5])
        assert np.allclose(best_response(br, 2.0), [0.0, 2.0])

    def test_split_constant_vector(self):
        v = np.full(5, 3.25)
        br = split_best_response(v, -1.7)
        assert np.array_equal(br.phi1, np.zeros(5))
        assert np.array_equal(br.phi0, v)

    def test_split_rejects_zero_lambda(self):
        with pytest.raises(SplitDegenerate):
            split_best_response(np.array([1.0, 3.0]), 0.0)
        with pytest.raises(SplitDegenerate):
            split_best_response(np.array([1.0, 3.0]), 1e-13)

    def test_split_identity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = int(rng.integers(1, 30))
            v = rng.standard_normal(d) * 10.0 ** rng.integers(-3, 4)
            lam = float(rng.uniform(-5, 5))
            if abs(lam) < 1e-6:
                lam = 1e-6
            br = split_best_response(v, lam)
            recon = best_response(br, lam)
            tol = 4.0 * np.spacing(np.abs(v) + abs(float(br.phi0[0])))
            assert np.all(np.abs(recon - v) <= tol)


class TestLosses:
    def test_least_squares_values(self, ls_spec):
        train, _ = two_point_sets()
        assert train_loss(ls_spec, np.zeros(2), 0.0, train) == 0.5
        assert train_loss(ls_spec, np.array([1.0, -1.0]), 0.0, train) == 2.0

    def test_logistic_at_zero_is_log_two(self, logit_spec):
        train, _ = two_point_sets()
        assert train_loss(logit_spec, np.zeros(2), -3.0, train) == math.log(2.0)

    def test_val_loss_examples(self, ls_spec, logit_spec):
        _, val = two_point_sets()
        one = Dataset([[1.0, 0.0]], [1.0], "validation")
        assert val_loss(ls_spec, np.array([1.0, 0.0]), one) == 0.0
        assert val_loss(ls_spec, np.zeros(2), val) == 0.5
        assert val_loss(logit_spec, np.zeros(2), val) == math.log(2.0)

    def test_val_loss_accepts_test_role(self, ls_spec):
        data = Dataset([[1.0]], [2.0], "test")
        assert val_loss(ls_spec, np.array([0.0]), data) == 2.0

    def test_role_enforcement(self, ls_spec):
        train, val = two_point_sets()
        with pytest.raises(ValueError):
            train_loss(ls_spec, np.zeros(2), 0.0, val)
        with pytest.raises(ValueError):
            val_loss(ls_spec, np.zeros(2), train)

    def test_dimension_mismatch(self, ls_spec):
        train, _ = two_point_sets()
        with pytest.raises(DimensionMismatch):
            train_loss(ls_spec, np.zeros(3), 0.0, train)

    def test_losses_nonnegative(self, ls_spec, logit_spec):
        rng = np.random.default_rng(3)
        for _ in range(20):
            reg = random_regression(rng, 8, 4)
            cls = random_classification(rng, 8, 4)
            w = rng.standard_normal(4)
            lam = float(rng.uniform(-3, 2))
            assert train_loss(ls_spec, w, lam, reg) >= 0.0
            assert train_loss(logit_spec, w, lam, cls) >= 0.0

    def test_logistic_stable_at_extreme_margins(self, logit_spec):
        data = Dataset([[1.0]], [1.0], "train")
        loss = train_loss(logit_spec, np.array([1000.0]), -10.0, data)
        assert math.isfinite(loss)
        loss = train_loss(logit_spec, np.array([-1000.0]), -10.0, data)
        assert math.isfinite(loss)

    def test_convexity_sanity(self, ls_spec):
        rng = np.random.default_rng(7)
        train = random_regression(rng, 20, 5)
        lam = -0.5
        w_star = ridge_solution(train, lam)
        base = train_loss(ls_spec, w_star, lam, train)
        for _ in range(100):
            w = w_star + 0.3 * rng.standard_normal(5)
            assert base <= train_loss(ls_spec, w, lam, train) + 1e-12


class TestGradients:
    def test_expit_saturates_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sig = _expit(np.array([-1e6, -800.0, 0.0, 800.0, 1e6]))
        assert np.array_equal(sig, [0.0, 0.0, 0.5, 1.0, 1.0])
        assert _expit(np.array([2.0]))[0] == 1.0 / (1.0 + math.exp(-2.0))

    def test_fit_curvature_matches_gradient_differences(self, ls_spec, logit_spec):
        rng = np.random.default_rng(19)
        for spec, data in ((ls_spec, random_regression(rng, 12, 4)),
                           (logit_spec, random_classification(rng, 12, 4))):
            w, p = rng.standard_normal(4), rng.standard_normal(4)
            fd = fd_scalar(lambda t: float(p @ grad_w_train(spec, w + t * p, 0.0, data)), 0.0)
            # the regularizer adds 2 exp(0) ||p||^2 to the data-fit curvature
            curv = _fit_curvature(spec, data.X @ w, data.X @ p, data) + 2.0 * float(p @ p)
            assert abs(curv - fd) <= 1e-6 * abs(fd)

    def test_grad_w_train_hand_value(self, ls_spec):
        train, _ = two_point_sets()
        g = grad_w_train(ls_spec, np.zeros(2), 0.0, train)
        assert np.allclose(g, [-0.5, 0.5])

    def test_grad_zero_at_ridge_solution(self, ls_spec):
        rng = np.random.default_rng(11)
        for _ in range(10):
            train = random_regression(rng, 25, 6)
            lam = float(rng.uniform(-2, 1))
            w = ridge_solution(train, lam)
            assert np.linalg.norm(grad_w_train(ls_spec, w, lam, train)) <= 1e-8

    def test_grad_w_val_at_interpolation(self, ls_spec):
        val = Dataset([[1.0, 0.0], [0.0, 2.0]], [3.0, 4.0], "validation")
        w = np.array([3.0, 2.0])
        assert np.allclose(grad_w_val(ls_spec, w, val), 0.0)

    def test_grad_w_val_logistic_single_sample(self, logit_spec):
        val = Dataset([[1.0]], [1.0], "validation")
        assert np.allclose(grad_w_val(logit_spec, np.zeros(1), val), [-0.5])

    def test_grad_lambda_val_zero_phi1(self, ls_spec):
        _, val = two_point_sets()
        br = BestResponse(np.zeros(2), np.array([0.3, -0.7]))
        assert grad_lambda_val(ls_spec, br, 1.3, val) == 0.0

    def test_grad_lambda_val_requires_validation_role(self, ls_spec):
        train, _ = two_point_sets()
        br = BestResponse(np.ones(2), np.zeros(2))
        with pytest.raises(ValueError):
            grad_lambda_val(ls_spec, br, 0.0, train)

    def test_finite_difference_agreement(self, ls_spec, logit_spec):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = int(rng.integers(1, 10))
            n = int(rng.integers(2, 20))
            w = rng.standard_normal(d)
            lam = float(rng.uniform(-2, 1))

            reg = random_regression(rng, n, d)
            g = grad_w_train(ls_spec, w, lam, reg)
            fd = fd_grad_w(lambda z: train_loss(ls_spec, z, lam, reg), w)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-8)

            cls = random_classification(rng, n, d)
            g = grad_w_train(logit_spec, w, lam, cls)
            fd = fd_grad_w(lambda z: train_loss(logit_spec, z, lam, cls), w)
            assert np.linalg.norm(g - fd) <= 1e-4 * max(np.linalg.norm(fd), 1e-8)

            vdata = Dataset(reg.X, reg.y, "validation")
            br = split_best_response(w, lam if abs(lam) > 1e-3 else 1.0)
            lam_b = lam if abs(lam) > 1e-3 else 1.0
            g_lam = grad_lambda_val(ls_spec, br, lam_b, vdata)
            fd_lam = fd_scalar(lambda t: val_loss(ls_spec, best_response(br, t), vdata), lam_b)
            assert abs(g_lam - fd_lam) <= 1e-5 * max(abs(fd_lam), 1e-8)


class TestSpectralSolve:
    @pytest.mark.parametrize("n, d", [(60, 10), (30, 50)], ids=["full-rank", "n<d"])
    @pytest.mark.parametrize("rho", [0.0, 1.0])
    @pytest.mark.parametrize("lam", [-8.0, -1.0, 3.0])
    def test_matches_stacked_lstsq(self, n, d, rho, lam):
        """(gram + c I) x = xty + rho * target - u with c = 2 exp(lam) + rho is
        the normal equation of a stacked least-squares problem."""
        rng = np.random.default_rng(53)
        train = random_regression(rng, n, d, noise=0.2)
        u, target = 0.3 * rng.standard_normal(d), rng.standard_normal(d)
        c = 2.0 * math.exp(lam) + rho
        x = train.solve_shifted(c, train.xty + (rho * target - u))

        a = np.vstack([train.X / math.sqrt(n), math.sqrt(c) * np.eye(d)])
        b = np.concatenate([train.y / math.sqrt(n), (rho * target - u) / math.sqrt(c)])
        oracle = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.linalg.norm(x - oracle) <= 1e-8


class TestReportBlock:
    """``report_block`` against per-row ``train_loss``/``val_loss``."""

    @staticmethod
    def splits(kind, with_test):
        rng = np.random.default_rng(11)
        make = random_regression if kind == "least_squares" else random_classification
        return (make(rng, 40, 7, "train"), make(rng, 30, 7, "validation"),
                make(rng, 25, 7, "test") if with_test else None)

    @staticmethod
    def block(rng):
        # lam -40 and 3 put the regularizer at both ends of its range
        return 0.7 * rng.standard_normal((9, 7)), np.linspace(-40.0, 3.0, 9)

    @pytest.mark.parametrize("kind", ["least_squares", "logistic"])
    @pytest.mark.parametrize("with_test", [False, True])
    def test_matches_per_row_losses(self, kind, with_test):
        spec = LossSpec(kind)
        train, val, test = self.splits(kind, with_test)
        W, lams = self.block(np.random.default_rng(3))
        tl, vl, sl = report_block(spec, W, lams, train, val, test)
        assert tl.shape == vl.shape == (9,)
        for k, (w, lam) in enumerate(zip(W, lams)):
            assert tl[k] == pytest.approx(train_loss(spec, w, lam, train), rel=1e-12)
            assert vl[k] == pytest.approx(val_loss(spec, w, val), rel=1e-12)
            if with_test:
                assert sl[k] == pytest.approx(val_loss(spec, w, test), rel=1e-12)
        assert (sl is None) == (not with_test)

    @pytest.mark.parametrize("kind", ["least_squares", "logistic"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_row_leaves_the_others_unchanged(self, kind, bad):
        spec = LossSpec(kind)
        train, val, test = self.splits(kind, True)
        W, lams = self.block(np.random.default_rng(4))
        clean = report_block(spec, W, lams, train, val, test)
        W[4, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dirty = report_block(spec, W, lams, train, val, test)
        others = np.arange(9) != 4
        for before, after in zip(clean, dirty):
            assert np.all(np.isfinite(after[others]))
            np.testing.assert_array_equal(after[others], before[others])
        assert not math.isfinite(dirty[0][4])

    def test_checks_roles_and_width(self, ls_spec):
        train, val, test = self.splits("least_squares", True)
        W, lams = self.block(np.random.default_rng(5))
        with pytest.raises(ValueError, match="role"):
            report_block(ls_spec, W, lams, val, val, test)
        with pytest.raises(ValueError, match="role"):
            report_block(ls_spec, W, lams, train, val, train)
        with pytest.raises(DimensionMismatch):
            report_block(ls_spec, W[:, :6], lams, train, val, test)
