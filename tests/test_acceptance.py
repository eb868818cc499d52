"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to later
calibration. The desk-scale reproductions use seeded synthetic problems,
so every number below is deterministic.
"""

import math
import os
import time

import numpy as np

from myhpo.data import (
    RawTable,
    SplitSpec,
    SyntheticSpec,
    load_idx,
    make_classification,
    split,
    synthesize,
)
from myhpo.gradcheck import run_gradcheck
from myhpo.model import (
    LEAST_SQUARES,
    LOGISTIC,
    Dataset,
    LossSpec,
    best_response,
    split_best_response,
)
from myhpo.moreau import (
    MyhpoConfig,
    MyhpoState,
    check_stationarity,
    my_step_backtracking,
    my_step_full,
    my_step_simplified,
    myhpo_run,
)
from myhpo.rng import RandomStream
from myhpo.search import SearchConfig, grid_candidates, random_candidates, search_run
from myhpo.sho import ShoConfig, ShoState, sho_run, sho_step

LS = LossSpec(LEAST_SQUARES)
LOGIT = LossSpec(LOGISTIC)


def report(num, ok, detail=""):
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


# ---------------------------------------------------------------- criterion 7
# shared instance family: ill-conditioned ridge problem at desk scale
STABILITY = dict(n=60, d=50, kappa=1e4, noise_std=0.1)
STABILITY_BUDGET = 2000
STABILITY_SEEDS = range(10)
SHO_GRID = [(0.005, 0.01), (0.05, 0.1), (0.5, 1.0), (2.0, 2.0)]  # (alpha, beta)
BT_STEPS = dict(alpha=0.5, beta=0.5, delta=2.0)

_cache = {}


def stability_problem(seed):
    table = synthesize(SyntheticSpec(seed=seed, **STABILITY))
    return split(table, SplitSpec(train_fraction=0.5, val_fraction=0.25, seed=seed))


def stability_runs():
    """SHO grid and MY-HPO(BT) runs shared by criteria 7 and 9."""
    if "stability" in _cache:
        return _cache["stability"]
    out = []
    for seed in STABILITY_SEEDS:
        train, val, test = stability_problem(seed)
        sho_traces = []
        for alpha, beta in SHO_GRID:
            cfg = ShoConfig(alpha=alpha, beta=beta, sigma=1e-4, max_iters=10**9, seed=seed)
            sho_traces.append(sho_run(ShoState.initial(STABILITY["d"]), LS, train, val,
                                      cfg, STABILITY_BUDGET))
        cfg = MyhpoConfig(variant="simplified_backtracking", rho=1.0,
                          max_iters=10**9, eps_tol=1e-12, **BT_STEPS)
        bt = myhpo_run(MyhpoState.initial(STABILITY["d"]), LS, train, val, cfg,
                       STABILITY_BUDGET)
        out.append((seed, sho_traces, bt))
    _cache["stability"] = out
    return out


def test_criterion_1_gradient_oracle_suite():
    """All analytic gradients match central finite differences."""
    rep = run_gradcheck(n_instances=120, seed=0, d_max=20, n_max=50)
    worst = max(rep.max_errors.values())
    ok = worst <= 1e-4 and rep.ok
    assert report(1, ok, f"worst relative error {worst:.2e} over {rep.instances} instances")


def test_criterion_2_split_identity():
    """best_response(split_best_response(v, lam), lam) == v within 4 ulps."""
    rng = np.random.default_rng(12345)
    worst_ratio = 0.0
    for _ in range(10_000):
        d = int(rng.integers(1, 31))
        v = rng.standard_normal(d) * 10.0 ** rng.integers(-6, 7)
        lam = float(rng.uniform(-8.0, 8.0))
        if abs(lam) < 1e-6:
            lam = math.copysign(1e-6, lam if lam != 0 else 1.0)
        br = split_best_response(v, lam)
        recon = best_response(br, lam)
        # ulps measured at the scale of the reconstruction's operands
        tol = 4.0 * np.spacing(np.abs(v) + abs(float(br.phi0[0])))
        err = np.abs(recon - v)
        assert np.all(err <= tol)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.max(np.where(tol > 0, err / tol, 0.0))
        worst_ratio = max(worst_ratio, float(ratio))
    assert report(2, True, f"10^4 pairs, worst error {worst_ratio:.2f} of the 4-ulp budget")


def test_criterion_3_ridge_oracle_equivalence():
    """Full-variant steps 1 and 2 match independent stacked least squares."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(10):
        n, d = 25, 6
        x = rng.standard_normal((n, d))
        y = x @ rng.standard_normal(d) + 0.2 * rng.standard_normal(n)
        train = Dataset(x, y, "train")
        val = Dataset(rng.standard_normal((10, d)), rng.standard_normal(10), "validation")
        state = MyhpoState(v=rng.standard_normal(d), w=rng.standard_normal(d),
                           lam=float(rng.uniform(-2.0, 0.5)),
                           u=0.3 * rng.standard_normal(d))
        cfg = MyhpoConfig(variant="full", rho=float(rng.uniform(0.5, 2.0)))
        new, _ = my_step_full(state, LS, train, val, cfg)

        exp_lam = math.exp(state.lam)
        a1 = np.vstack([x / math.sqrt(n), math.sqrt(2 * exp_lam) * np.eye(d)])
        b1 = np.concatenate([y / math.sqrt(n), np.zeros(d)])
        v_oracle = np.linalg.lstsq(a1, b1, rcond=None)[0]

        br = split_best_response(new.v, state.lam)
        gw = best_response(br, state.lam)
        coef = 2 * exp_lam + cfg.rho
        a2 = np.vstack([x / math.sqrt(n), math.sqrt(coef) * np.eye(d)])
        b2 = np.concatenate([y / math.sqrt(n), (cfg.rho * gw - state.u) / math.sqrt(coef)])
        w_oracle = np.linalg.lstsq(a2, b2, rcond=None)[0]

        worst = max(worst,
                    float(np.linalg.norm(new.v - v_oracle)),
                    float(np.linalg.norm(new.w - w_oracle)))
    ok = worst <= 1e-8
    assert report(3, ok, f"worst deviation from the stacked-lstsq oracle {worst:.2e}")


def test_criterion_4_fixed_point_invariance():
    """Every solver step is the identity at a constructed stationary point."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 3))
    train = Dataset(x, np.zeros(5), "train")  # y = 0 makes w* = 0 exact
    val = Dataset(rng.standard_normal((4, 3)), rng.standard_normal(4), "validation")

    ok = True
    for variant, step in (("simplified_constant", my_step_simplified),
                          ("simplified_backtracking", my_step_backtracking)):
        cfg = MyhpoConfig(variant=variant, rho=1.0, alpha=0.3, beta=0.3, delta=0.3)
        state = MyhpoState.initial(3, lam0=-1.0)
        new, res = step(state, LS, train, val, cfg)
        ok &= (np.array_equal(new.v, state.v) and np.array_equal(new.w, state.w)
               and new.lam == state.lam and np.array_equal(new.u, state.u)
               and res.r_norm == 0.0 and res.s_norm == 0.0)
    cfg = MyhpoConfig(variant="full", rho=1.0)
    new, res = my_step_full(MyhpoState.initial(3, lam0=-1.0), LS, train, val, cfg)
    ok &= (np.array_equal(new.v, np.zeros(3)) and np.array_equal(new.w, np.zeros(3))
           and new.lam == -1.0 and res.r_norm == 0.0 and res.s_norm == 0.0)

    scfg = ShoConfig(alpha=0.3, beta=0.3, sigma=1e-4, seed=1)
    sstate = ShoState.initial(3, lam0=-1.0)
    snew = sho_step(sstate, LS, train, val, scfg, RandomStream(1))
    ok &= (np.array_equal(snew.br.phi1, sstate.br.phi1)
           and np.array_equal(snew.br.phi0, sstate.br.phi0) and snew.lam == sstate.lam)
    assert report(4, ok, "constructed stationary point is exactly fixed, r = s = 0")


def test_criterion_5_budget_law():
    """grad_count == 2 * iter on every trace row of the two-gradient solvers."""
    train, val, _ = stability_problem(0)
    ok = True
    cfg = ShoConfig(alpha=0.01, beta=0.01, sigma=1e-4, max_iters=10**9, seed=0)
    trace = sho_run(ShoState.initial(STABILITY["d"]), LS, train, val, cfg, 500)
    ok &= all(r.n_grad == 2 * r.iter for r in trace.rows) and len(trace.rows) == 250
    for variant in ("simplified_constant", "simplified_backtracking"):
        cfg = MyhpoConfig(variant=variant, rho=1.0, alpha=0.1, beta=0.1, delta=0.1,
                          eps_tol=1e-30, max_iters=10**9)
        trace = myhpo_run(MyhpoState.initial(STABILITY["d"]), LS, train, val, cfg, 500)
        ok &= all(r.n_grad == 2 * r.iter for r in trace.rows) and len(trace.rows) == 250
    assert report(5, ok, "2 gradient evaluations per outer iteration, exactly")


def test_criterion_6_stationarity_at_convergence():
    """Converged consensus run satisfies the stationarity system with u -> 0."""
    t0 = time.monotonic()
    table = synthesize(SyntheticSpec(n=12, d=2, kappa=5.0, noise_std=0.6, seed=6))
    train, val, _ = split(table, SplitSpec(train_fraction=0.34, val_fraction=0.33, seed=6))
    cfg = MyhpoConfig(variant="full", rho=1.0, eps_tol=1e-6, max_iters=3000,
                      inner_tol=1e-10)
    trace = myhpo_run(MyhpoState.initial(2), LS, train, val, cfg, budget=10**6)
    last = trace.rows[-1]
    converged = max(last.r_norm, last.s_norm) <= 1e-6

    state = MyhpoState.initial(2)
    for _ in range(last.iter):
        state, _ = my_step_full(state, LS, train, val, cfg)
    rep = check_stationarity(LS, state, train, val, tol=1e-4)
    elapsed = time.monotonic() - t0
    ok = converged and rep.ok and rep.u_norm <= 1e-4 and elapsed < 5.0
    assert report(6, ok,
                  f"max residual {max(last.r_norm, last.s_norm):.1e}, "
                  f"|u| {rep.u_norm:.1e}, {last.iter} iters, {elapsed:.2f}s")


def test_criterion_7_stability_frontier():
    """Largest SHO step destabilizes; MY-HPO(BT) beats the best SHO config."""
    t0 = time.monotonic()
    frontier = 0
    wins = 0
    for seed, sho_traces, bt in stability_runs():
        finals = [t.final_finite_row() for t in sho_traces]
        big, small = sho_traces[-1], sho_traces[0]
        big_final, small_final = finals[-1], finals[0]
        if big.diverged or big_final is None or (
                big_final.val_loss > small_final.val_loss):
            frontier += 1
        best_sho = min(f.train_loss + f.val_loss
                       for t, f in zip(sho_traces, finals)
                       if f is not None and not t.diverged)
        bt_final = bt.final_finite_row()
        if not bt.diverged and bt_final.train_loss + bt_final.val_loss <= best_sho:
            wins += 1
    elapsed = time.monotonic() - t0
    ok = frontier >= 8 and wins >= 8 and elapsed < 30.0
    assert report(7, ok, f"frontier {frontier}/10, BT wins {wins}/10, {elapsed:.1f}s")


def _mnist_like(seed, n=2000, d=784):
    """Stand-in with the benchmark's exact geometry: two nearly separable
    pixel-like classes with values in [0, 1]."""
    rng = np.random.default_rng(seed)
    stroke_a = (rng.random(d) < 0.12).astype(float)
    stroke_b = (rng.random(d) < 0.12).astype(float)
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    rng.shuffle(y)
    base = 0.04 * rng.random((n, d))
    amp = 0.55 + 0.25 * rng.random((n, 1))
    x = base + np.where(y[:, None] > 0, stroke_a, stroke_b) * amp
    x += 0.12 * rng.standard_normal((n, d))
    return RawTable(np.clip(x, 0.0, 1.0), y, source=f"mnist-like(seed={seed})")


def _mnist_table():
    """Real MNIST 0-vs-1 when IDX files are available, else the stand-in.

    Point MYHPO_MNIST_DIR at a directory holding train-images-idx3-ubyte
    and train-labels-idx1-ubyte to run on the real digits.
    """
    root = os.environ.get("MYHPO_MNIST_DIR")
    if root:
        images = os.path.join(root, "train-images-idx3-ubyte")
        labels = os.path.join(root, "train-labels-idx1-ubyte")
        if os.path.exists(images) and os.path.exists(labels):
            return lambda seed: make_classification(load_idx(images, labels), 0, 1)
    return _mnist_like


def test_criterion_8_mnist_scale_logistic():
    """Classification at benchmark scale: BT validation loss <= best SHO."""
    t0 = time.monotonic()
    make_table = _mnist_table()
    sho_grid = (0.05, 0.01, 0.001)
    sho_vals = {a: [] for a in sho_grid}
    bt_vals = []
    for seed in range(10):
        table = make_table(seed)
        train, val, test = split(table, SplitSpec(counts=(500, 500, 1000), seed=seed,
                                                  stratified=True))
        for a in sho_grid:
            cfg = ShoConfig(alpha=a, beta=0.01, sigma=1e-4, max_iters=10**9, seed=seed)
            trace = sho_run(ShoState.initial(table.d), LOGIT, train, val, cfg, 1000)
            final = trace.final_finite_row()
            sho_vals[a].append(final.val_loss if final is not None else math.inf)
        cfg = MyhpoConfig(variant="simplified_backtracking", rho=1.0,
                          alpha=0.1, beta=0.5, delta=0.75,
                          max_iters=10**9, eps_tol=1e-12)
        trace = myhpo_run(MyhpoState.initial(table.d), LOGIT, train, val, cfg, 1000)
        bt_vals.append(trace.final_finite_row().val_loss)
    best_sho = min(float(np.mean(sho_vals[a])) for a in sho_grid)
    bt_mean = float(np.mean(bt_vals))
    elapsed = time.monotonic() - t0
    ok = bt_mean <= best_sho and elapsed < 120.0
    assert report(8, ok,
                  f"BT mean val {bt_mean:.4f} vs best SHO {best_sho:.4f}, {elapsed:.0f}s")


def test_criterion_9_blackbox_budget_gap():
    """Search at the shared budget trails MY-HPO(BT); 5x budget closes it."""
    t0 = time.monotonic()
    bt_mean = float(np.mean([t.final_finite_row().val_loss
                             for _, _, t in stability_runs()]))
    means = {}
    for n_s in (2, 10):
        for maker, name in ((grid_candidates, "grid"), (random_candidates, "random")):
            vals = []
            for seed in STABILITY_SEEDS:
                train, val, test = stability_problem(seed)
                cfg = SearchConfig(lo=-10.0, hi=5.0, n_s=n_s,
                                   n_t=STABILITY_BUDGET // 2, alpha_train=0.03, seed=seed)
                res = search_run(LS, maker(cfg), train, val, test, cfg)
                vals.append(res.winner.val_loss)
            means[(name, n_s)] = float(np.mean(vals))
    gap_grid = (means[("grid", 10)] - bt_mean) / bt_mean
    gap_rand = (means[("random", 10)] - bt_mean) / bt_mean
    elapsed = time.monotonic() - t0
    ok = (means[("grid", 2)] >= bt_mean and means[("random", 2)] >= bt_mean
          and gap_grid <= 0.20 and gap_rand <= 0.20 and elapsed < 60.0)
    assert report(9, ok,
                  f"n_s=2 gaps +{(means[('grid', 2)] - bt_mean) / bt_mean:.0%}/"
                  f"+{(means[('random', 2)] - bt_mean) / bt_mean:.0%}, "
                  f"n_s=10 gaps {gap_grid:+.0%}/{gap_rand:+.0%}, {elapsed:.0f}s")


CRITERION_10_CAP = 12_000  # bounds runtime only; the claim is the ordering


def _certified_stop(step, state, train, val, eps_tol, cap):
    """Step until the residual rule fires at a certified stationary point.

    A run converges at the first iteration where ``max(||r||, ||s||) <
    eps_tol`` and ``check_stationarity`` passes at criterion 6's tolerance.
    Stops where the rule fires without the certificate are stepped past.
    Returns the last state, whether it converged, and the first uncertified
    stop (None if there was none).
    """
    first_uncertified = None
    while state.iter < cap:
        state, res = step(state)
        if max(res.r_norm, res.s_norm) < eps_tol:
            if check_stationarity(LS, state, train, val, tol=1e-4).ok:
                return state, True, first_uncertified
            if first_uncertified is None:
                first_uncertified = state.iter
    return state, False, first_uncertified


def test_criterion_10_full_vs_simplified():
    """Exact block minimization converges in strictly fewer outer iterations
    than the simplified backtracking variant on every seed, at a higher
    per-iteration gradient cost.

    Convergence is certified: the residual rule ``max(||r||, ||s||) <
    eps_tol`` measures only the consensus gap and the drift in lam, so for
    the simplified variant, whose v and w blocks take one gradient step per
    iteration, it can fire far from a fixed point. A seed holds when the
    full variant converges at iteration k_f within the shared cap and the
    simplified variant, stepped past any uncertified stop, has not converged
    by k_f. Each per-seed line shows k_f, the simplified variant's first
    uncertified stop, and the gradients per iteration of both variants.
    """
    t0 = time.monotonic()
    good = 0
    lines = []
    for seed in STABILITY_SEEDS:
        train, val, _ = stability_problem(seed)
        fcfg = MyhpoConfig(variant="full", rho=1.0, eps_tol=1e-5,
                           max_iters=CRITERION_10_CAP, inner_tol=1e-9)
        full, f_conv, _ = _certified_stop(
            lambda s: my_step_full(s, LS, train, val, fcfg),
            MyhpoState.initial(STABILITY["d"]), train, val, fcfg.eps_tol,
            CRITERION_10_CAP)
        k_f = full.iter
        scfg = MyhpoConfig(variant="simplified_backtracking", rho=1.0,
                           alpha=0.5, beta=0.5, delta=20.0, eps_tol=1e-5,
                           max_iters=CRITERION_10_CAP)
        simp, s_conv, s_stop = _certified_stop(
            lambda s: my_step_backtracking(s, LS, train, val, scfg),
            MyhpoState.initial(STABILITY["d"]), train, val, scfg.eps_tol, k_f)
        f_cost = full.grad_count / full.iter
        s_cost = simp.grad_count / simp.iter
        ok = f_conv and not s_conv and s_cost < f_cost
        good += ok
        lines.append(f"    seed {seed}: full k_f={k_f} (certified={f_conv}, "
                     f"{f_cost:.1f} grads/iter) vs simplified "
                     f"{'converged at ' + str(simp.iter) if s_conv else 'not converged'}"
                     f" by {k_f}, first uncertified stop {s_stop} "
                     f"({s_cost:.1f} grads/iter) -> {'ok' if ok else 'violated'}")
    elapsed = time.monotonic() - t0
    print()
    for line in lines:
        print(line)
    ok = good == 10 and elapsed < 60.0
    report(10, ok, f"{good}/10 seeds: full converges (certified) first, {elapsed:.1f}s")
    assert ok, (
        f"certified convergence ordering held on {good}/10 seeds within the "
        f"shared cap of {CRITERION_10_CAP} iterations ({elapsed:.1f}s); a seed "
        "fails if the full variant is not certified stationary by the cap or "
        "the simplified variant is certified by k_f, see the per-seed lines above"
    )
