"""The benchmark's three workloads.

Each workload turns a pool index into inputs with ``prepare`` (counted as
set-up) and runs every solver of one repetition back to back with
``execute`` (a closed loop with one caller: the next run starts when the
previous one returns). Inputs come from a pool of ``POOL`` indices so that
``reference.json`` can hold the expected ledger and losses of every run
the benchmark can make.

Only public names of the package are called, and always through their
module (``moreau.myhpo_run``, not an imported alias), so the traced run
can patch them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from myhpo import bench, data, moreau, sho
from myhpo.model import LEAST_SQUARES, LOGISTIC, LossSpec
from myhpo.trace import RunTrace

POOL = 16

FAMILY = {
    "sho": "sho",
    "myhpo_c": "myhpo_c",
    "myhpo_bt": "myhpo_bt",
    "myhpo_full": "myhpo_full",
    "grid": "search",
    "random": "search",
}
BILEVEL = ("sho", "myhpo_c", "myhpo_bt", "myhpo_full")


@dataclass
class RunRecord:
    """One solver run: its trace, wall time and the reference key."""

    key: str  # "<run seed>/<label>", as in reference.json
    family: str
    budget: int
    seconds: float
    trace: RunTrace | None  # None when the run raised
    var_val: float = 1.0  # divides the validation loss, as summarize does
    error: str = ""


@dataclass
class Repetition:
    """Everything one ``execute`` produced, for the checks to inspect."""

    records: list[RunRecord]
    # ls-stability only: traces read back from disk and both summaries
    readback: list[RunTrace] = field(default_factory=list)
    summaries: tuple = ()


def _timed(key: str, family: str, budget: int, var_val: float, call) -> RunRecord:
    t0 = time.perf_counter()
    try:
        trace, error = call(), ""
    except Exception as exc:  # a raising run is counted as failed, not fatal
        trace, error = None, f"raised {type(exc).__name__}: {exc}"
    return RunRecord(key, family, budget, time.perf_counter() - t0, trace, var_val, error)


# demos/configs/stability.cfg; seed and output_dir are filled in per repetition
STABILITY_CONFIG = """\
problem.kind = synthetic
problem.n = 60
problem.d = 50
problem.kappa = 1e4
problem.noise_std = 0.1
problem.train_fraction = 0.5
problem.val_fraction = 0.25

budget_n_g = 2000
repetitions = 10
seed = {seed}
output_dir = {output_dir}

solver[0].name = sho
solver[0].label = sho-small
solver[0].alpha = 0.005
solver[0].beta = 0.01

solver[1].name = sho
solver[1].label = sho-large
solver[1].alpha = 2.0
solver[1].beta = 2.0

solver[2].name = myhpo_c
solver[2].alpha = 0.5
solver[2].beta = 0.5
solver[2].delta = 2.0

solver[3].name = myhpo_bt
solver[3].alpha = 0.5
solver[3].beta = 0.5
solver[3].delta = 2.0

solver[4].name = grid
solver[4].n_s = 2
solver[4].alpha_train = 0.03

solver[5].name = random
solver[5].n_s = 2
solver[5].alpha_train = 0.03
"""

_RUNNERS = ("sho_run", "myhpo_run", "search_run")


@contextmanager
def _run_clock(times: list[float]):
    """Time each solver run that ``run_experiment`` makes.

    Wraps only the three run functions as the harness imports them, one
    clock pair per run; no per-iteration function is touched.
    """
    saved = {name: getattr(bench, name) for name in _RUNNERS}

    def clocked(fn):
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times.append(time.perf_counter() - t0)
        return run

    for name, fn in saved.items():
        setattr(bench, name, clocked(fn))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(bench, name, fn)


class Stability:
    """The harness workload: stability.cfg through ``run_experiment``."""

    name = "ls-stability"
    runs = 60  # 10 repetitions x 6 solver blocks, run seeds index .. index + 9
    shapes = ((30, 50), (15, 50), (15, 50))  # train, validation, test

    def prepare(self, index: int, workdir: str):
        cfg = bench.parse_config_text(
            STABILITY_CONFIG.format(seed=index, output_dir=workdir))
        # the work run_experiment does before its first solver call
        p = cfg.problem
        table = data.synthesize(data.SyntheticSpec(
            n=p["n"], d=p["d"], kappa=p["kappa"], noise_std=p["noise_std"], seed=cfg.seed))
        data.split(table, data.SplitSpec(train_fraction=p["train_fraction"],
                                         val_fraction=p["val_fraction"], seed=cfg.seed))
        return cfg

    def execute(self, cfg) -> Repetition:
        times: list[float] = []
        with _run_clock(times):
            traces, summary = bench.run_experiment(cfg, write=True)
        readback = bench.read_traces(cfg.output_dir)
        summary_back = bench.summarize_traces(readback)
        if len(times) != len(traces):
            raise RuntimeError(f"{len(times)} run times for {len(traces)} traces")
        records = [
            RunRecord(key=f"{t.seed}/{t.label}", family=FAMILY[t.solver],
                      budget=cfg.budget_n_g, seconds=s, trace=t,
                      var_val=float(t.meta["var_val"]),
                      error=t.note if t.note.startswith("aborted") else "")
            for t, s in zip(traces, times)
        ]
        return Repetition(records, readback, (summary, summary_back))


def mnist_like(seed: int, n: int = 2000, d: int = 784) -> data.RawTable:
    """Two nearly separable pixel-like classes with values in [0, 1].

    The same stand-in the acceptance suite uses for criterion 8.
    """
    rng = np.random.default_rng(seed)
    stroke_a = (rng.random(d) < 0.12).astype(float)
    stroke_b = (rng.random(d) < 0.12).astype(float)
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    rng.shuffle(y)
    base = 0.04 * rng.random((n, d))
    amp = 0.55 + 0.25 * rng.random((n, 1))
    x = base + np.where(y[:, None] > 0, stroke_a, stroke_b) * amp
    x += 0.12 * rng.standard_normal((n, d))
    return data.RawTable(np.clip(x, 0.0, 1.0), y, source=f"mnist-like(seed={seed})")


class Logistic:
    """The kernel workload: criterion 8's 500x784 logistic problem."""

    name = "logistic-784"
    runs = 4
    shapes = ((500, 784), (500, 784), (1000, 784))
    budget = 1000
    sho_alphas = (0.05, 0.01, 0.001)

    def prepare(self, index: int, workdir: str):
        table = mnist_like(index)
        splits = data.split(table, data.SplitSpec(counts=(500, 500, 1000), seed=index,
                                                  stratified=True))
        return index, splits

    def execute(self, inputs) -> Repetition:
        seed, (train, val, test) = inputs
        spec = LossSpec(LOGISTIC)
        records = []
        for alpha in self.sho_alphas:
            cfg = sho.ShoConfig(alpha=alpha, beta=0.01, sigma=1e-4, max_iters=10**9, seed=seed)
            label = f"sho-{alpha}"
            records.append(_timed(f"{seed}/{label}", "sho", self.budget, 1.0, lambda: sho.sho_run(
                sho.ShoState.initial(train.d), spec, train, val, cfg, self.budget,
                test=test, label=label)))
        cfg = moreau.MyhpoConfig(variant="simplified_backtracking", rho=1.0, alpha=0.1,
                                 beta=0.5, delta=0.75, max_iters=10**9, eps_tol=1e-12)
        records.append(_timed(f"{seed}/myhpo_bt", "myhpo_bt", self.budget, 1.0,
                              lambda: moreau.myhpo_run(
                                  moreau.MyhpoState.initial(train.d), spec, train, val, cfg,
                                  self.budget, test=test, seed=seed)))
        return Repetition(records)


class Exact:
    """The exact-solve workload: dense solves at d = 400 plus a halving BT."""

    name = "ls-exact-400"
    runs = 2
    shapes = ((400, 400), (200, 400), (200, 400))
    budget = 1500

    def prepare(self, index: int, workdir: str):
        table = data.synthesize(data.SyntheticSpec(n=800, d=400, kappa=1e4, noise_std=0.1,
                                                   seed=index))
        return index, data.split(table, data.SplitSpec(seed=index))

    def execute(self, inputs) -> Repetition:
        seed, (train, val, test) = inputs
        spec = LossSpec(LEAST_SQUARES)
        var_val = float(np.var(val.y))
        configs = (
            ("myhpo_full", moreau.MyhpoConfig(variant="full", inner_tol=1e-9)),
            ("myhpo_bt", moreau.MyhpoConfig(variant="simplified_backtracking",
                                            alpha=2.0, beta=2.0, delta=20.0)),
        )
        records = []
        for label, cfg in configs:
            records.append(_timed(f"{seed}/{label}", label, self.budget, var_val,
                                  lambda: moreau.myhpo_run(
                                      moreau.MyhpoState.initial(train.d), spec, train, val,
                                      cfg, self.budget, test=test, seed=seed)))
        return Repetition(records)


WORKLOADS = {w.name: w for w in (Stability(), Logistic(), Exact())}


def input_index(seed: int, repetition: int) -> int:
    """Pool entry that repetition ``repetition`` of a run with ``seed`` uses."""
    return (seed + repetition) % POOL

