"""Anatomy of a converging consensus run.

A small strongly convex problem where the validation-optimal weight decay
is finite. The exact-minimization variant drives both residuals to zero;
at the fixed point the dual variable vanishes and the iterate satisfies
the full stationarity system, which check_stationarity verifies directly.

Run:  python demos/consensus_convergence.py
"""

import numpy as np

from myhpo import (
    LossSpec,
    MyhpoConfig,
    MyhpoState,
    check_stationarity,
    my_step_full,
    val_loss,
)
from myhpo.data import SplitSpec, SyntheticSpec, split, synthesize

table = synthesize(SyntheticSpec(n=12, d=2, kappa=5.0, noise_std=0.6, seed=6))
train, val, test = split(table, SplitSpec(train_fraction=0.34, val_fraction=0.33, seed=6))
spec = LossSpec("least_squares")

# brute-force oracle: validation loss along the exact ridge path
grid = np.linspace(-8, 2, 201)
curve = [val_loss(spec, train.solve_shifted(2 * np.exp(lam), train.xty), val) for lam in grid]
lam_star = grid[int(np.argmin(curve))]
print(f"ridge-path validation optimum: lambda ~ {lam_star:+.2f}")

cfg = MyhpoConfig(variant="full", rho=1.0, eps_tol=1e-6, max_iters=3000, inner_tol=1e-10)
state = MyhpoState.initial(train.d)
print(f"\n{'iter':>6} {'lambda':>9} {'|r|':>10} {'|s|':>10} {'|u|':>10}")
k = 0
while k < cfg.max_iters:
    state, res = my_step_full(state, spec, train, val, cfg)
    k += 1
    if k in (1, 2, 5, 10, 20, 50, 100, 200) or max(res.r_norm, res.s_norm) < cfg.eps_tol:
        print(f"{k:>6} {state.lam:>9.4f} {res.r_norm:>10.2e} {res.s_norm:>10.2e} "
              f"{np.linalg.norm(state.u):>10.2e}")
    if max(res.r_norm, res.s_norm) < cfg.eps_tol:
        break

rep = check_stationarity(spec, state, train, val, tol=1e-4)
print(f"\nconverged at iteration {k}, lambda = {state.lam:+.4f}")
print(f"stationarity residuals: train-grad {rep.train_grad_norm:.2e}, "
      f"lambda-grad {rep.lam_grad_abs:.2e},")
print(f"  consensus gap {rep.consensus_gap:.2e}, hypernet grad {rep.hypernet_grad_norm:.2e}, "
      f"|u| {rep.u_norm:.2e}")
print(f"all below 1e-4: {rep.ok}")
