"""Measurement loop, metrics and report of one benchmark run.

A run prepares and executes repetitions of one workload back to back for
``seconds`` after one untimed warm-up repetition. Repetition ``j`` uses
pool entry ``(seed + j) % POOL``. A timing takes, for each distinct input,
the median over the repetitions that used it, and pools those per-input
medians: their mean, or for a rate their sum over the summed work. Every run of every repetition is checked
(see ``checks``). End-to-end metrics come from untraced repetitions; with
``trace`` each untraced repetition is followed by a traced one on the same
input, the per-layer metrics come from the traced ones, and a last traced
repetition on the first input shows that the call counts repeat exactly.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import checks, spans
from .workloads import BILEVEL, WORKLOADS, Repetition, input_index

IMPORT_SAMPLES = 5


@dataclass
class RunStat:
    """What the metrics need of one solver run; the trace itself is dropped."""

    family: str
    seconds: float
    iters: int
    n_grad: int
    val: float | None  # normalized final validation loss, None if diverged


def _stat(record) -> RunStat:
    if record.trace is None:
        return RunStat(record.family, record.seconds, 0, 0, None)
    iters, n_grad, _, diverged, _, val, _ = checks.outcome(record.trace)
    val = None if diverged or val is None else val / record.var_val
    return RunStat(record.family, record.seconds, iters, n_grad, val)


@dataclass
class Timed:
    """One prepared and executed repetition with its checks."""

    index: int
    prep_s: float
    wall_s: float
    runs: list[RunStat]
    ledger: list
    problems: list[str]
    layers: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


def _import_seconds(root: str) -> list[float]:
    """Wall time of ``import myhpo`` in a fresh interpreter, several times."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import myhpo"], env=env, cwd=root,
                       check=True, stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - t0)
    return out


def _repetition(wl, index: int, workdir: str, expected: dict,
                tracer: spans.Tracer | None = None) -> Timed:
    with tracer.patch() if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        inputs = wl.prepare(index, workdir)
        t1 = time.perf_counter()
        try:
            rep = wl.execute(inputs)
            error = ""
        except Exception as exc:  # counted as failure of every run it holds
            rep, error = Repetition([]), f"repetition raised {type(exc).__name__}: {exc}"
        t2 = time.perf_counter()
    problems = checks.verify(rep, expected) if not error else [error] * wl.runs
    shutil.rmtree(workdir, ignore_errors=True)
    timed = Timed(index, t1 - t0, t2 - t1, [_stat(r) for r in rep.records],
                  checks.ledgers(rep), problems)
    if tracer:
        timed.counts = tracer.counts()
        timed.layers = spans.layer_metrics(tracer)
    return timed


def _time_work(runs: list[RunStat], families) -> tuple[float, int]:
    """Summed run time and summed outer iterations (training gradients for
    search) of the given families."""
    chosen = [r for r in runs if r.family in families]
    return (sum(r.seconds for r in chosen),
            sum(r.n_grad if r.family == "search" else r.iters for r in chosen))


def _us_per_work(runs: list[RunStat], families) -> float:
    seconds, work = _time_work(runs, families)
    return 1e6 * seconds / work if work else float("nan")


def _val_loss_mean(runs: list[RunStat]) -> float:
    vals = [r.val for r in runs if r.family in BILEVEL and r.val is not None]
    return float(np.mean(vals)) if vals else float("nan")


def _per_input(done: list[Timed], value) -> list[float]:
    """For each distinct input of the run, the median of ``value`` over the
    repetitions that used it."""
    groups: dict[int, list[float]] = {}
    for t in done:
        groups.setdefault(t.index, []).append(value(t))
    return [statistics.median(g) for g in groups.values()]


def _pooled_us(done: list[Timed], families) -> float:
    """Microseconds per unit of work over the whole input pool: per-input
    median run time, summed, over the summed work."""
    seconds = sum(_per_input(done, lambda t: _time_work(t.runs, families)[0]))
    work = sum(_per_input(done, lambda t: _time_work(t.runs, families)[1]))
    return 1e6 * seconds / work if work else float("nan")


def _tail(samples: list[float], unit: str) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if not n:
        return "no samples"
    text = f"p50 {statistics.median(samples):.6g}"
    for p in (99.9, 99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            text += f", p{p:g} {float(np.percentile(samples, p)):.6g}"
            break
    return f"{text} {unit} (n={n})"


def _cache_sizes() -> str:
    sizes = []
    for level in (2, 3):
        path = f"/sys/devices/system/cpu/cpu0/cache/index{level}/size"
        try:
            with open(path, encoding="ascii") as fh:
                sizes.append(f"L{level} {fh.read().strip()} per instance")
        except OSError:
            sizes.append(f"L{level} unknown")
    return ", ".join(sizes)


def _kernel_lines(wl) -> list[str]:
    """Computed (not measured) flops and bytes per model call of each split."""
    ws = 8 * sum(n * d for n, d in wl.shapes)
    lines = [f"working set (X of all splits, computed): {ws / 2**20:.2f} MiB; "
             f"machine: {_cache_sizes()}"]
    for role, (n, d) in zip(("train", "validation", "test"), wl.shapes):
        lines.append(f"  {role:<10} {n}x{d}: loss {2 * n * d / 1e6:.3g} MFLOP "
                     f"{8 * n * d / 1e6:.3g} MB, gradient {4 * n * d / 1e6:.3g} MFLOP "
                     f"{16 * n * d / 1e6:.3g} MB (computed)")
    return lines


def _end_to_end(done: list[Timed], imports: list[float]) -> tuple[dict, list[str]]:
    prep = [t.prep_s for t in done]
    walls = [t.wall_s for t in done]
    rates = [sum(r.n_grad for r in t.runs) / t.wall_s for t in done]
    pooled = [_us_per_work(t.runs, BILEVEL) for t in done]
    wall_by_input = _per_input(done, lambda t: t.wall_s)
    grads_by_input = _per_input(done, lambda t: sum(r.n_grad for r in t.runs))
    m = {
        "setup_s": (statistics.median(imports)
                    + statistics.fmean(_per_input(done, lambda t: t.prep_s)), "s"),
        "wall_s": (statistics.fmean(wall_by_input), "s"),
        "grad_per_s": (sum(grads_by_input) / sum(wall_by_input), "1/s"),
        "us_per_iter": (_pooled_us(done, BILEVEL), "us"),
    }
    lines = [
        "timings over all repetitions (a tail percentile is shown once ten "
        "samples lie beyond it):",
        f"  import {_tail(imports, 's')}; prepare {_tail(prep, 's')}",
        f"  wall_s {_tail(walls, 's')}",
        f"  grad_per_s {_tail(rates, '1/s')}",
        f"  us_per_iter (all bi-level runs) {_tail(pooled, 'us')}",
    ]
    for fam in sorted({r.family for t in done for r in t.runs}):
        name = "search.us_per_grad" if fam == "search" else f"{fam}.us_per_iter"
        m[name] = (_pooled_us(done, (fam,)), "us")
        summed = [_us_per_work(t.runs, (fam,)) for t in done]
        per_run = [_us_per_work([r], (fam,)) for t in done for r in t.runs if r.family == fam]
        per_run = [v for v in per_run if math.isfinite(v)]
        lines.append(f"  {name}: per repetition {_tail(summed, 'us')}; "
                     f"per run {_tail(per_run, 'us')}")
    m["val_loss_mean"] = (statistics.fmean(_per_input(done, lambda t: _val_loss_mean(t.runs))),
                          "loss")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return m, lines


def _contract() -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def measure(name: str, seed: int, seconds: float, trace: bool, root: str) -> int:
    """Run one workload, print the report and, last, the JSON result line.

    The working directory must be the checkout root ``root``.
    """
    wl = WORKLOADS[name]
    expected = checks.load_reference()[name]
    contract = _contract()
    imports = _import_seconds(root)
    # relative to the checkout root (the working directory): the config
    # parser cuts values at "#", which an absolute path could contain
    scratch = ".perfbench_tmp"
    base = os.path.join(scratch, str(os.getpid()))
    counter = itertools.count()

    def one(j: int, tracer=None) -> Timed:
        workdir = os.path.join(base, f"rep{next(counter)}")
        return _repetition(wl, input_index(seed, j), workdir, expected, tracer)

    untraced: list[Timed] = []
    traced: list[Timed] = []
    try:
        warm = one(0)  # untimed: first-call costs and caches
        deadline = time.perf_counter() + seconds
        j = 0
        while not untraced or time.perf_counter() < deadline:
            untraced.append(one(j))
            if trace:
                traced.append(one(j, spans.Tracer()))
            j += 1
        repeat = one(0, spans.Tracer()) if trace else None
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)

    if trace:
        for u, t in zip(untraced, traced):
            if u.ledger != t.ledger:
                t.problems = [p or "traced ledger differs from untraced" for p in t.problems]
        if repeat.counts != traced[0].counts:
            repeat.problems = [p or "traced call counts did not repeat" for p in repeat.problems]
    everything = [warm] + untraced + traced + ([repeat] if repeat else [])
    problems = [p for t in everything for p in t.problems]
    attempted = len(problems)
    failures = [p for p in problems if p]

    print(f"perfbench {name} seed={seed} seconds={seconds} trace={int(trace)} "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}")
    print(f"closed loop, one caller; inputs: pool entries "
          f"{sorted({t.index for t in untraced})}")
    for line in _kernel_lines(wl):
        print(line)
    e2e, lines = _end_to_end(untraced, imports)
    e2e["error_frac"] = (len(failures) / attempted, "ratio")
    print("end-to-end (untraced):")
    for metric, (value, unit) in e2e.items():
        print(f"  {metric:<34} {value:>14.6g} {unit}")
    for line in lines:
        print(line)
    cells = [f"{e2e[f'{fam}.us_per_iter'][0]:.1f}" if f"{fam}.us_per_iter" in e2e else "-"
             for fam in BILEVEL]
    print(f"| {name} | " + " | ".join(cells) + " |")
    for p in sorted(set(failures))[:20]:
        print(f"  FAILED: {p}")

    if trace:
        layers = spans.combine([t.layers for t in traced])
        overhead = (statistics.median(t.wall_s for t in traced)
                    / statistics.median(t.wall_s for t in untraced) - 1.0)
        layers["trace_overhead_frac"] = (overhead, "ratio")
        print(f"per-layer (traced, {len(traced)} repetitions; counts from the first, "
              f"times are medians):")
        for metric, (value, unit) in layers.items():
            print(f"  {metric:<34} {value:>14.6g} {unit}")
        chosen, section = layers, "per_layer"
    else:
        chosen, section = e2e, "end_to_end"

    metrics = {}
    for entry in contract[section]:
        # a metric is missing only when every run of its family raised
        value, unit = chosen.get(entry["name"], (math.nan, entry["unit"]))
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: unit {unit} != {entry['unit']}")
        metrics[entry["name"]] = {"value": float(value), "unit": unit}
    nonfinite = [k for k, v in metrics.items() if not math.isfinite(v["value"])]
    for k in nonfinite:
        print(f"  FAILED: {k} is not finite")
        metrics[k]["value"] = 0.0  # JSON has no NaN
    print(json.dumps({"correct": not failures and not nonfinite, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0
