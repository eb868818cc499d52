"""Stability frontier of alternating-gradient hyperparameter tuning.

An ill-conditioned ridge problem (condition number 1e4) is tuned under a
fixed budget of 2000 gradient evaluations. Plain alternating gradients
(SHO) need small steps to stay stable: its largest step below blows up,
while its smallest step crawls. The Moreau-Yosida consensus solver with
backtracking takes much larger steps safely and ends with better losses.

Run:  python demos/stability_frontier.py
"""

from pathlib import Path

import numpy as np

from myhpo import (
    LossSpec,
    MyhpoConfig,
    MyhpoState,
    ShoConfig,
    ShoState,
    myhpo_run,
    sho_run,
)
from myhpo.bench import render_curves
from myhpo.data import SplitSpec, SyntheticSpec, split, synthesize

BUDGET = 2000
SEED = 0

table = synthesize(SyntheticSpec(n=60, d=50, kappa=1e4, noise_std=0.1, seed=SEED))
train, val, test = split(table, SplitSpec(train_fraction=0.5, val_fraction=0.25, seed=SEED))
spec = LossSpec("least_squares")
print(f"problem: {table.source}")
print(f"splits:  {train.n}/{val.n}/{test.n}, cond(X) = {np.linalg.cond(table.features):.3g}")
print()

traces = []
for alpha, beta in [(0.005, 0.01), (0.05, 0.1), (0.5, 1.0), (2.0, 2.0)]:
    cfg = ShoConfig(alpha=alpha, beta=beta, sigma=1e-4, max_iters=10**9, seed=SEED)
    trace = sho_run(ShoState.initial(train.d), spec, train, val, cfg, BUDGET,
                    test=test, label=f"sho a={alpha}")
    traces.append(trace)

cfg = MyhpoConfig(variant="simplified_backtracking", rho=1.0,
                  alpha=0.5, beta=0.5, delta=2.0, max_iters=10**9, eps_tol=1e-12)
trace = myhpo_run(MyhpoState.initial(train.d), spec, train, val, cfg, BUDGET,
                  test=test, label="myhpo_bt")
traces.append(trace)

print(f"{'solver':<14} {'status':<9} {'train':>10} {'val':>10} {'test':>10} {'lambda':>8}")
for t in traces:
    row = t.final_finite_row()
    status = "diverged" if t.diverged else "ok"
    if row is None:
        print(f"{t.label:<14} {status:<9} {'-':>10} {'-':>10} {'-':>10} {'-':>8}")
        continue
    test_cell = f"{row.test_loss:10.4f}" if row.test_loss is not None else " " * 10
    print(f"{t.label:<14} {status:<9} {row.train_loss:10.4f} {row.val_loss:10.4f} "
          f"{test_cell} {row.lam:8.2f}")

path = Path("stability_frontier_curves.csv")
path.write_text(render_curves(traces, "n_grad"), "utf-8")
print(f"\nper-iteration curves written to {path}")
