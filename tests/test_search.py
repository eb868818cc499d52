import math
import os

import numpy as np
import pytest

from myhpo.bench import _build_problem, parse_config
from myhpo.model import Dataset, LossSpec
from myhpo.search import (
    CandidateEval,
    SearchConfig,
    grid_candidates,
    random_candidates,
    search_run,
    train_model,
)
from conftest import random_regression, ridge_solution


def test_config_validation():
    SearchConfig(alpha_train=0.0)  # zero step allowed as a diagnostic
    with pytest.raises(ValueError):
        SearchConfig(lo=5.0, hi=5.0)
    with pytest.raises(ValueError):
        SearchConfig(n_s=0)
    with pytest.raises(ValueError):
        SearchConfig(n_t=0)
    with pytest.raises(ValueError):
        SearchConfig(alpha_train=-0.1)


class TestTrainModel:
    def test_converges_to_ridge_solution(self, ls_spec):
        rng = np.random.default_rng(0)
        train = random_regression(rng, 20, 3)
        lam = 0.0
        lip = float(np.linalg.eigvalsh(train.X.T @ train.X / train.n)[-1]) + 2.0
        alpha = 0.9 / lip
        w = train_model(ls_spec, lam, train, alpha, n_t=4000)
        assert np.linalg.norm(w - ridge_solution(train, lam)) <= 1e-6

    def test_zero_step_returns_zeros(self, ls_spec):
        rng = np.random.default_rng(1)
        train = random_regression(rng, 10, 4)
        assert np.array_equal(train_model(ls_spec, 0.0, train, 0.0, 50), np.zeros(4))

    def test_weaker_regularization_fits_harder(self, ls_spec):
        from myhpo.model import train_loss

        rng = np.random.default_rng(2)
        train = random_regression(rng, 30, 5, noise=0.5)
        w_lo = train_model(ls_spec, -10.0, train, 0.005, 2000)
        w_hi = train_model(ls_spec, 5.0, train, 0.005, 2000)
        fit = lambda w: float((train.X @ w - train.y) @ (train.X @ w - train.y))
        assert fit(w_lo) <= fit(w_hi)
        assert train_loss(ls_spec, w_lo, -10.0, train) <= train_loss(ls_spec, w_hi, 5.0, train)


STABILITY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "demos", "configs", "stability.cfg")


@pytest.mark.parametrize("seed", range(10))
def test_train_model_matches_its_closed_form(seed, ls_spec):
    """``n_t`` steps of size ``alpha`` from 0 on the ridge objective end at
    ``Q ((1 - (1 - alpha (s + c))^n_t) / (s + c) Q^T b)``, ``c = 2 e^lam``,
    with ``(s, Q)`` the training Gram matrix's spectrum and ``b = X^T y / n``:
    on each stability run seed's training split, at the stability search's
    step size and ``n_t``."""
    train = _build_problem(parse_config(STABILITY).problem, seed, None)[1]
    s, q = train.spectrum
    for lam in (-10.0, -5.0, -1.0, 0.5):
        c = 2.0 * math.exp(lam)
        exact = q @ ((1.0 - (1.0 - 0.03 * (s + c)) ** 1000) / (s + c) * (q.T @ train.xty))
        w = train_model(ls_spec, lam, train, 0.03, 1000)
        assert np.linalg.norm(w - exact) <= 1e-10 * np.linalg.norm(exact)


class TestCandidates:
    def test_grid_endpoints_inclusive(self):
        assert grid_candidates(SearchConfig(n_s=2)) == [-10.0, 5.0]
        assert grid_candidates(SearchConfig(n_s=4)) == [-10.0, -5.0, 0.0, 5.0]
        assert grid_candidates(SearchConfig(n_s=1)) == [-10.0]

    def test_grid_sorted_unique(self):
        grid = grid_candidates(SearchConfig(n_s=17))
        assert grid == sorted(grid)
        assert len(set(grid)) == len(grid)

    def test_random_deterministic_and_in_range(self):
        cfg = SearchConfig(n_s=50, seed=9)
        a = random_candidates(cfg)
        assert a == random_candidates(cfg)
        assert all(-10.0 <= x < 5.0 for x in a)

    def test_random_mean_matches_midpoint(self):
        cfg = SearchConfig(n_s=100000, seed=3)
        draws = random_candidates(cfg)
        assert abs(np.mean(draws) - (-2.5)) < 0.05


class TestSearchRun:
    def small_sets(self, seed=0):
        rng = np.random.default_rng(seed)
        train = random_regression(rng, 20, 3, noise=0.3)
        val = random_regression(rng, 10, 3, role="validation", noise=0.3)
        test = random_regression(rng, 10, 3, role="test", noise=0.3)
        return train, val, test

    def test_single_candidate_wins(self, ls_spec):
        train, val, test = self.small_sets()
        cfg = SearchConfig(n_s=1, n_t=50, alpha_train=0.01)
        res = search_run(ls_spec, [-2.0], train, val, test, cfg)
        assert res.winner.lam == -2.0
        assert res.grad_count == 50

    def test_winner_prefers_better_validation(self, ls_spec):
        # noisy train targets but zero validation targets: the best model is
        # w ~ 0, so the heavily regularized endpoint wins by construction
        rng = np.random.default_rng(5)
        x = rng.standard_normal((20, 5))
        train = Dataset(x, 10.0 * rng.standard_normal(20), "train")
        val = Dataset(rng.standard_normal((10, 5)), np.zeros(10), "validation")
        cfg = SearchConfig(n_s=2, n_t=500, alpha_train=0.005)
        res = search_run(ls_spec, [-10.0, 5.0], train, val, None, cfg)
        # oracle: evaluate both candidates directly
        losses = {}
        for lam in (-10.0, 5.0):
            w = train_model(ls_spec, lam, train, 0.005, 500)
            losses[lam] = float(((val.X @ w - val.y) ** 2).mean()) / 2
        assert losses[5.0] < losses[-10.0]
        assert res.winner.lam == 5.0

    def test_ledger_exact(self, ls_spec):
        train, val, test = self.small_sets()
        cfg = SearchConfig(n_s=7, n_t=13, alpha_train=0.001)
        res = search_run(ls_spec, grid_candidates(SearchConfig(n_s=7)), train, val, test, cfg)
        assert res.grad_count == 7 * 13

    def test_diverged_candidates_rank_last(self, ls_spec):
        train, val, test = self.small_sets()
        # huge step: the lam = 5 candidate blows up, lam = -10 survives
        cfg = SearchConfig(n_s=2, n_t=200, alpha_train=1.0)
        res = search_run(ls_spec, [5.0, -10.0], train, val, test, cfg)
        diverged = [c for c in res.candidates if c.diverged]
        assert diverged, "expected the heavily regularized candidate to blow up"
        assert not res.winner.diverged
        assert not np.all(np.isfinite(res.candidates[0].w))
        assert sorted(res.candidates, key=CandidateEval.rank_key)[-1].lam == 5.0
        # scored in one block, the blown-up candidate leaves the other's losses alone
        alone = search_run(ls_spec, [-10.0], train, val, test, cfg).winner
        assert (res.winner.train_loss, res.winner.val_loss, res.winner.test_loss) == pytest.approx(
            (alone.train_loss, alone.val_loss, alone.test_loss), rel=1e-12)

    def test_tie_breaks_to_smaller_lambda(self, ls_spec):
        train, val, test = self.small_sets()
        cfg = SearchConfig(n_s=2, n_t=10, alpha_train=0.001)
        res = search_run(ls_spec, [1.5, 1.5], train, val, test, cfg)
        assert res.winner.lam == 1.5
        key_sorted = sorted(res.candidates, key=CandidateEval.rank_key)
        assert key_sorted[0].val_loss == key_sorted[1].val_loss

    def test_winner_invariant_under_positive_scaling(self, ls_spec):
        train, val, test = self.small_sets()
        cfg = SearchConfig(n_s=5, n_t=60, alpha_train=0.01)
        res = search_run(ls_spec, grid_candidates(SearchConfig(n_s=5)), train, val, test, cfg)
        scaled = [
            CandidateEval(c.lam, c.w, c.train_loss, 3.7 * c.val_loss, c.test_loss, c.diverged)
            for c in res.candidates
        ]
        assert min(scaled, key=CandidateEval.rank_key).lam == res.winner.lam
