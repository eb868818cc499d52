"""Benchmark harness: experiment configs, budgeted runs, summaries, curves.

An experiment is described by a flat key-value text file: ``key = value``
per line, where ``#`` opens a comment at the start of a line or after
whitespace (so ``path = data#1.csv`` keeps its ``#``). It names one
problem, a shared gradient budget, a repetition count, and any number of
solver blocks; every parameter has a documented default that is echoed
into the resolved-config log and into each trace header, so no run
depends on a hidden value.

Schema (defaults in parentheses):

    problem.kind            synthetic | csv | idx            (required)
    problem.loss            least_squares (default) | logistic
    problem.n, problem.d    synthetic: table size            (required)
    problem.kappa           synthetic: condition number      (10000.0)
    problem.noise_std       synthetic: target noise          (0.1)
    problem.path            csv: file path                   (required)
    problem.target          csv: target column name          (required)
    problem.images/labels   idx: file paths                  (required)
    problem.class_a/class_b csv/idx: map two labels to +1/-1 (optional)
    problem.train_fraction  (0.5)    problem.val_fraction    (0.25)
    problem.counts          "n_train,n_val,n_test", overrides fractions
    problem.stratified      true | false; synthetic: false   (false)
    budget_n_g              shared gradient budget           (required, >= 2)
    repetitions             (1)
    seed                    base seed; run r uses seed + r   (0; >= 0)
    output_dir              (bench_out)
    solver[i].name          sho | myhpo_c | myhpo_bt | myhpo_full | random | grid
    solver[i].label         column label; unique file name   (name)
    solver[i].<param>       a field of the solver's config class, with its
                            default (see SOLVERS below); bi-level solvers
                            also take lambda0 (-1.0)

A problem key marked with kinds (``synthetic:``, ``csv:``, ``idx:``,
``csv/idx:``) is an error for any other kind; ``_PROBLEM_KEYS`` declares
each key's type, default and kinds. A value that nothing reads may only
restate the default the echo lists: a fraction beside ``problem.counts``,
or a field that ``moreau.UNREAD_FIELDS`` lists for the block's solver.

Bi-level solvers stop before exceeding the budget; their ``max_iters``
defaults to ``budget_n_g // 2``. Search blocks train each of their ``n_s``
candidates for ``n_t`` steps with ``n_t`` defaulting to ``budget_n_g // 2``
(the bi-level outer-iteration count), so ``n_s = 2`` spends exactly the
shared budget and larger ``n_s`` deliberately oversubscribes it; the
oversubscription is visible in the trace ledger.

Each (solver, repetition) pair writes one ``*.trace.csv`` file. Rerunning
a config with the same package, the same numpy and BLAS build and the same
BLAS thread count reproduces the files byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import re
from dataclasses import dataclass, fields
from importlib import resources

import numpy as np

from .data import (
    RawTable,
    SplitSpec,
    SyntheticSpec,
    ZeroVariance,
    load_csv,
    load_idx,
    make_classification,
    split,
    synthesize,
)
from .model import LAMBDA0, LEAST_SQUARES, LOGISTIC, LossSpec
from .moreau import UNREAD_FIELDS, VARIANT_SOLVERS, MyhpoConfig, MyhpoState, myhpo_run
from .rng import PRNG_ID
from .search import (
    SearchConfig,
    grid_candidates,
    random_candidates,
    search_run,
)
from .sho import ShoConfig, ShoState, sho_run
from .trace import RunTrace, TraceRow


class SchemaError(ValueError):
    """A config key is missing, unknown, or holds an invalid value."""

    def __init__(self, key: str, reason: str):
        self.key = key
        super().__init__(f"{key}: {reason}")


# solver name -> config class; a block's parameters, their types and their
# defaults are the class's fields (less seed and variant, which the harness sets)
SOLVERS = {"sho": ShoConfig, **{name: MyhpoConfig for name in VARIANT_SOLVERS.values()},
           "random": SearchConfig, "grid": SearchConfig}
SOLVER_NAMES = tuple(SOLVERS)
_VARIANT_OF = {name: variant for variant, name in VARIANT_SOLVERS.items()}

_KINDS = ("synthetic", "csv", "idx")
_REQUIRED = object()  # the default of a key that its kinds must set

# problem key -> (type, default, the kinds that take it); a None default
# leaves the key unset, and a key set for any other kind is an error
_PROBLEM_KEYS = {
    "kind": (str, _REQUIRED, _KINDS), "loss": (str, LEAST_SQUARES, _KINDS),
    "n": (int, _REQUIRED, ("synthetic",)), "d": (int, _REQUIRED, ("synthetic",)),
    "kappa": (float, SyntheticSpec.kappa, ("synthetic",)),
    "noise_std": (float, SyntheticSpec.noise_std, ("synthetic",)),
    "path": (str, _REQUIRED, ("csv",)), "target": (str, _REQUIRED, ("csv",)),
    "images": (str, _REQUIRED, ("idx",)), "labels": (str, _REQUIRED, ("idx",)),
    "class_a": (float, None, ("csv", "idx")), "class_b": (float, None, ("csv", "idx")),
    "train_fraction": (float, SplitSpec.train_fraction, _KINDS),
    "val_fraction": (float, SplitSpec.val_fraction, _KINDS),
    "counts": (str, None, _KINDS), "stratified": (bool, SplitSpec.stratified, _KINDS),
}


@dataclass
class SolverBlock:
    name: str
    label: str
    params: dict


@dataclass
class ExperimentConfig:
    problem: dict
    budget_n_g: int
    repetitions: int
    seed: int
    output_dir: str
    solvers: list[SolverBlock]

    @property
    def resolved(self) -> dict:
        """Every resolved value by its config key, as echoed and hashed."""
        resolved = {"budget_n_g": self.budget_n_g, "repetitions": self.repetitions,
                    "seed": self.seed, "output_dir": self.output_dir}
        resolved.update((f"problem.{k}", v) for k, v in self.problem.items())
        for i, block in enumerate(self.solvers):
            block_values = {"name": block.name, "label": block.label, **block.params}
            resolved.update((f"solver[{i}].{k}", v) for k, v in block_values.items())
        return resolved

    @property
    def config_hash(self) -> str:
        """Digest of ``resolved`` less ``output_dir``, which does not influence results."""
        return hashlib.sha256(
            "\n".join(f"{k} = {v}" for k, v in sorted(self.resolved.items())
                      if k != "output_dir").encode()
        ).hexdigest()[:12]

    def resolved_text(self) -> str:
        """``key = value`` lines of ``resolved``, sorted, then the ``config_hash`` line."""
        lines = [f"{k} = {v}" for k, v in sorted(self.resolved.items())]
        return "\n".join(lines + [f"config_hash = {self.config_hash}"]) + "\n"


def _parse_flat(text: str) -> dict[str, str]:
    flat: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise SchemaError(f"line {line_no}", f"expected 'key = value', got {raw!r}")
        key = key.strip()
        value = value.strip()
        if key in flat:
            raise SchemaError(key, "duplicate key")
        flat[key] = value
    return flat


def _coerce(key: str, value: str, kind):
    try:
        if kind is bool:
            if value.lower() in ("true", "1", "yes"):
                return True
            if value.lower() in ("false", "0", "no"):
                return False
            raise ValueError(value)
        coerced = kind(value)
    except ValueError:
        raise SchemaError(key, f"cannot read {value!r} as {kind.__name__}") from None
    if kind is float and not math.isfinite(coerced):
        raise SchemaError(key, f"must be finite, got {value!r}")
    return coerced


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse and resolve a config from its text; see the module docstring."""
    flat = _parse_flat(text)

    problem: dict = {}
    solver_raw: dict[int, dict] = {}
    top: dict = {}
    for key, value in flat.items():
        if key.startswith("problem."):
            sub = key[len("problem."):]
            if sub not in _PROBLEM_KEYS:
                raise SchemaError(key, "unknown problem key")
            problem[sub] = _coerce(key, value, _PROBLEM_KEYS[sub][0])
        elif key.startswith("solver["):
            head, _, sub = key.partition("].")
            idx_text = head[len("solver["):]
            if not sub or not idx_text.isdigit():
                raise SchemaError(key, "expected solver[<index>].<param>")
            solver_raw.setdefault(int(idx_text), {})[sub] = value
        elif key in ("budget_n_g", "repetitions", "seed"):
            top[key] = _coerce(key, value, int)
        elif key == "output_dir":
            top[key] = value
        else:
            raise SchemaError(key, "unknown key")

    if "budget_n_g" not in top:
        raise SchemaError("budget_n_g", "required")
    budget = top["budget_n_g"]
    if budget < 2:
        raise SchemaError("budget_n_g", f"must be at least 2, got {budget}")
    repetitions = top.get("repetitions", 1)
    if repetitions < 1:
        raise SchemaError("repetitions", f"must be at least 1, got {repetitions}")
    seed = top.get("seed", 0)
    if seed < 0:
        raise SchemaError("seed", f"must be nonnegative, got {seed}")
    output_dir = top.get("output_dir", "bench_out")

    return ExperimentConfig(
        problem=_resolve_problem(problem), budget_n_g=budget, repetitions=repetitions,
        seed=seed, output_dir=output_dir, solvers=_resolve_solvers(solver_raw, budget),
    )


def parse_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _resolve_problem(problem: dict) -> dict:
    if "kind" not in problem:
        raise SchemaError("problem.kind", "required")
    kind = problem["kind"]
    if kind not in _KINDS:
        raise SchemaError("problem.kind", f"unknown kind {kind!r}")
    for key in problem:
        if kind not in _PROBLEM_KEYS[key][2]:
            raise SchemaError(f"problem.{key}", f"does not apply to kind {kind}")
    out = {key: default for key, (_, default, kinds) in _PROBLEM_KEYS.items()
           if kind in kinds and default is not None}
    out.update(problem)
    if out["loss"] not in (LEAST_SQUARES, LOGISTIC):
        raise SchemaError("problem.loss", f"unknown loss {out['loss']!r}")
    for key, value in out.items():
        if value is _REQUIRED:
            raise SchemaError(f"problem.{key}", f"required for kind {kind}")
    has_classes = "class_a" in out or "class_b" in out
    if has_classes and not ("class_a" in out and "class_b" in out):
        raise SchemaError("problem.class_a", "class_a and class_b must be given together")
    if kind == "synthetic" and out["loss"] == LOGISTIC:
        raise SchemaError("problem.loss", "the synthetic generator produces regression targets")
    if kind == "synthetic" and out["stratified"]:
        raise SchemaError("problem.stratified", "needs -1/+1 labels; synthetic targets are real")
    if out["loss"] == LOGISTIC and kind != "synthetic" and not has_classes:
        raise SchemaError("problem.class_a", "logistic problems need a class pair")
    if "counts" in out:
        parts = str(out["counts"]).split(",")
        if len(parts) != 3:
            raise SchemaError("problem.counts", "expected three comma-separated counts")
        counts = tuple(_coerce("problem.counts", p.strip(), int) for p in parts)
        out["counts"] = ",".join(map(str, counts))  # echoed as written, so the echo parses back
        for key in ("train_fraction", "val_fraction"):
            if out[key] != _PROBLEM_KEYS[key][1]:
                raise SchemaError(f"problem.{key}", "problem.counts overrides it; only its "
                                  f"default {_PROBLEM_KEYS[key][1]!r} is accepted")
        if kind == "synthetic" and sum(counts) > out["n"]:
            raise SchemaError("problem.counts", f"split sizes {counts} exceed {out['n']} rows")
    try:  # the specs' own checks; counts meet a file's table size only at run time
        if kind == "synthetic":
            _synthetic_spec(out, seed=0)
        _split_spec(out, seed=0)
    except ValueError as exc:
        raise SchemaError("problem", str(exc)) from None
    return out


def _resolve_solvers(solver_raw: dict[int, dict], budget: int) -> list[SolverBlock]:
    if not solver_raw:
        raise SchemaError("solver[0].name", "at least one solver block is required")
    indices = sorted(solver_raw)
    if indices != list(range(len(indices))):
        raise SchemaError(f"solver[{indices[-1]}]", "solver indices must be contiguous from 0")
    blocks = []
    stems: dict[str, str] = {}  # trace file name stem -> the label that has it
    for i in indices:
        raw = solver_raw[i]
        if "name" not in raw:
            raise SchemaError(f"solver[{i}].name", "required")
        name = raw.pop("name")
        if name not in SOLVER_NAMES:
            raise SchemaError(f"solver[{i}].name", f"{name!r} is not one of {SOLVER_NAMES}")
        label = raw.pop("label", name)
        stem = _safe_name(label)
        if stem in stems:
            raise SchemaError(f"solver[{i}].label", f"{label!r} names the same trace files "
                              f"as label {stems[stem]!r}")
        stems[stem] = label
        cls = SOLVERS[name]
        params = {f.name: f.default for f in fields(cls)
                  if f.name not in ("seed", "variant")}
        if cls is not SearchConfig:
            params["lambda0"] = LAMBDA0
        for key in ("max_iters", "n_t"):
            if key in params:
                params[key] = budget // 2
        for key, value in raw.items():
            if key not in params:
                raise SchemaError(f"solver[{i}].{key}", f"not a parameter of {name}")
            coerced = _coerce(f"solver[{i}].{key}", value, type(params[key]))
            if key in UNREAD_FIELDS.get(name, ()) and coerced != params[key]:
                raise SchemaError(f"solver[{i}].{key}", f"{name} never reads it; only its "
                                  f"default {params[key]!r} is accepted")
            params[key] = coerced
        try:
            _block_config(name, params, seed=0)
        except ValueError as exc:
            raise SchemaError(f"solver[{i}]", str(exc)) from None
        blocks.append(SolverBlock(name=name, label=label, params=params))
    return blocks


def _load_table(problem: dict) -> RawTable:
    """The csv or idx table of ``problem``, with its class mapping applied."""
    if problem["kind"] == "csv":
        table = load_csv(problem["path"], problem["target"])
    else:
        table = load_idx(problem["images"], problem["labels"])
    if "class_a" in problem:
        table = make_classification(table, problem["class_a"], problem["class_b"])
    return table


def _synthetic_spec(problem: dict, seed: int) -> SyntheticSpec:
    return SyntheticSpec(n=problem["n"], d=problem["d"], kappa=problem["kappa"],
                         noise_std=problem["noise_std"], seed=seed)


def _split_spec(problem: dict, seed: int) -> SplitSpec:
    return SplitSpec(
        train_fraction=problem["train_fraction"],
        val_fraction=problem["val_fraction"],
        counts=tuple(map(int, problem["counts"].split(","))) if "counts" in problem else None,
        seed=seed,
        stratified=problem["stratified"],
    )


def _build_problem(problem: dict, run_seed: int, table: RawTable | None):
    """Split ``table``, or a fresh synthetic table when it is None, for one run."""
    if table is None:
        table = synthesize(_synthetic_spec(problem, run_seed))
    spec = LossSpec(problem["loss"])
    train, val, test = split(table, _split_spec(problem, run_seed))
    meta = {f"problem.{k}": v for k, v in sorted(problem.items())}
    meta.update({"loss": problem["loss"], "split_sizes": f"{train.n}/{val.n}/{test.n}"})
    for name, data in (("train", train), ("val", val), ("test", test)):
        var = float(np.var(data.y))
        # the summary divides regression losses by these variances
        if var == 0.0 and problem["loss"] == LEAST_SQUARES:
            raise ZeroVariance(f"{data.role} split targets are constant (run seed {run_seed})")
        meta[f"var_{name}"] = repr(var)
    return spec, train, val, test, meta


def _search_trace(name: str, label: str, seed: int, meta: dict, result,
                  n_t: int) -> RunTrace:
    """Incumbent trace: row i reports the best candidate seen so far."""
    trace = RunTrace(solver=name, label=label, seed=seed, meta=meta,
                     prng=PRNG_ID if name == "random" else None,
                     diverged=result.winner.diverged)
    best = None
    for i, cand in enumerate(result.candidates, start=1):
        if best is None or cand.rank_key() < best.rank_key():
            best = cand
        trace.append(TraceRow(
            iter=i, n_grad=i * n_t, lam=best.lam,
            train_loss=best.train_loss, val_loss=best.val_loss,
            test_loss=best.test_loss,
        ))
    return trace


def _block_config(name: str, params: dict, seed: int):
    """The config object of a solver block; its ``__post_init__`` checks the values."""
    params = {k: v for k, v in params.items() if k != "lambda0"}
    if SOLVERS[name] is MyhpoConfig:
        return MyhpoConfig(**params, variant=_VARIANT_OF[name])
    return SOLVERS[name](**params, seed=seed)


def _run_block(block: SolverBlock, spec, train, val, test, budget: int,
               run_seed: int, meta: dict) -> RunTrace:
    cfg = _block_config(block.name, block.params, run_seed)
    if isinstance(cfg, SearchConfig):
        candidates = (grid_candidates if block.name == "grid" else random_candidates)(cfg)
        result = search_run(spec, candidates, train, val, test, cfg)
        meta = {**meta, **block.params, "budget": budget,
                "diverged_candidates": sum(c.diverged for c in result.candidates)}
        return _search_trace(block.name, block.label, run_seed, meta, result, cfg.n_t)
    lam0 = block.params["lambda0"]
    if isinstance(cfg, ShoConfig):
        return sho_run(ShoState.initial(train.d, lam0=lam0), spec, train, val, cfg, budget,
                       test=test, label=block.label, meta=meta)
    return myhpo_run(MyhpoState.initial(train.d, lam0=lam0), spec, train, val, cfg, budget,
                     test=test, label=block.label, meta=meta, seed=run_seed)


def _safe_name(label: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_." else "-" for ch in label)


def run_experiment(cfg: ExperimentConfig, write: bool = True):
    """Run every solver block for every repetition under the shared budget.

    Returns ``(traces, summary)``. With ``write=True`` each trace lands in
    ``cfg.output_dir`` as ``<label>__rep<r>.trace.csv`` next to the
    resolved-config log; rerunning with the same package, numpy and BLAS
    build and BLAS thread count reproduces the files byte for byte.
    A failing solver block never aborts the experiment: the failure is
    recorded in its trace note instead.
    """
    traces: list[RunTrace] = []
    # read a file-backed table once (a synthetic one is drawn per seed) and build
    # the first run seed's problem before any write, so checks on its data fail first
    table = None if cfg.problem["kind"] == "synthetic" else _load_table(cfg.problem)
    built = {cfg.seed: _build_problem(cfg.problem, cfg.seed, table)}
    if write:
        os.makedirs(cfg.output_dir, exist_ok=True)
        log_path = os.path.join(cfg.output_dir, "config_resolved.txt")
        with open(log_path, "w", encoding="utf-8") as fh:
            fh.write(cfg.resolved_text())
    config_hash = cfg.config_hash
    for rep in range(cfg.repetitions):
        run_seed = cfg.seed + rep
        spec, train, val, test, base_meta = (built.pop(run_seed, None)
                                             or _build_problem(cfg.problem, run_seed, table))
        base_meta["budget_n_g"] = cfg.budget_n_g
        for i, block in enumerate(cfg.solvers):
            meta = dict(base_meta, block_index=i, repetition=rep, run_seed=run_seed,
                        config_hash=config_hash)
            try:
                trace = _run_block(block, spec, train, val, test, cfg.budget_n_g,
                                   run_seed, meta)
            except Exception as exc:  # keep the experiment alive
                trace = RunTrace(solver=block.name, label=block.label, seed=run_seed,
                                 meta=meta, diverged=True,
                                 note=f"aborted: {type(exc).__name__}: {exc}")
            traces.append(trace)
            if write:
                fname = f"{_safe_name(block.label)}__rep{rep:03d}.trace.csv"
                trace.write_csv(os.path.join(cfg.output_dir, fname))
    return traces, summarize_traces(traces)


@dataclass
class SolverSummary:
    label: str
    solver: str
    runs: int
    train_mean: float
    train_std: float
    val_mean: float
    val_std: float
    test_mean: float
    test_std: float
    mean_iters: float
    diverged: int


@dataclass
class SummaryTable:
    entries: list[SolverSummary]


def _finals(trace: RunTrace):
    """Final (train, val, test, iter), regression losses over their split's variance."""
    row = trace.final_finite_row()
    if row is None:
        return math.nan, math.nan, math.nan, 0
    losses = (row.train_loss, row.val_loss,
              row.test_loss if row.test_loss is not None else math.nan)
    if trace.meta.get("loss") == LEAST_SQUARES:
        losses = tuple(x / float(trace.meta[f"var_{split}"])
                       for x, split in zip(losses, ("train", "val", "test")))
    return (*losses, row.iter)


def _mean_std(values) -> tuple[float, float]:
    """Mean and sample standard deviation, computed on the values scaled by an
    exact power of two that keeps their squares from overflowing."""
    arr = np.asarray(values, dtype=float)
    exp = math.frexp(float(np.abs(arr).max()))[1]
    arr = np.ldexp(arr, -exp)
    mean = math.ldexp(float(arr.mean()), exp)
    std = float(np.ldexp(arr.std(ddof=1), exp)) if arr.size > 1 else 0.0
    return mean, std


def summarize_traces(traces: list[RunTrace]) -> SummaryTable:
    """Aggregate final losses per solver label, in block order.

    Regression losses are divided by the matching split's target variance
    (taken from the trace header) before averaging. A diverged run
    contributes its last finite row; a rowless trace contributes NaN.
    """
    def order_key(trace: RunTrace):
        return (int(trace.meta.get("block_index", 0)), int(trace.meta.get("repetition", 0)))

    groups: dict[str, list[RunTrace]] = {}
    for trace in sorted(traces, key=order_key):
        groups.setdefault(trace.label, []).append(trace)

    entries = []
    for label, group in groups.items():
        train, val, test, iters = zip(*map(_finals, group))
        entries.append(SolverSummary(
            label, group[0].solver, len(group),
            *_mean_std(train), *_mean_std(val), *_mean_std(test),
            mean_iters=float(np.mean(iters)), diverged=sum(t.diverged for t in group),
        ))
    return SummaryTable(entries=entries)


# a summary value (x1e-2) of at least this magnitude prints in exponent notation,
# so that a diverged run's cell stays as short as a converged one's
_FIXED_POINT_MAX = 1e6


def _fmt_cell(mean: float, std: float) -> str:
    if math.isnan(mean):
        return "n/a"
    return " ± ".join(f"{x:.2f}" if abs(x) < _FIXED_POINT_MAX else f"{x:.2e}"
                      for x in (mean * 100, std * 100))


def render_summary(table: SummaryTable, fmt: str = "aligned-text") -> str:
    """Render the summary grid: solver columns, loss rows, values x 1e-2, in
    exponent notation from a magnitude of ``_FIXED_POINT_MAX`` (1e6) on."""
    grid = [
        ["metric"] + [e.label for e in table.entries],
        ["train (x1e-2)"] + [_fmt_cell(e.train_mean, e.train_std) for e in table.entries],
        ["val (x1e-2)"] + [_fmt_cell(e.val_mean, e.val_std) for e in table.entries],
        ["test (x1e-2)"] + [_fmt_cell(e.test_mean, e.test_std) for e in table.entries],
        ["mean iters"] + [f"{e.mean_iters:.1f}" for e in table.entries],
        ["diverged"] + [str(e.diverged) for e in table.entries],
        ["runs"] + [str(e.runs) for e in table.entries],
    ]
    if fmt == "csv":
        return _csv_text(grid)
    if fmt != "aligned-text":
        raise ValueError(f"unknown summary format {fmt!r}")
    return _aligned(grid)


def _aligned(grid: list[list[str]]) -> str:
    """Text table: each column left-justified to its widest cell, two spaces apart."""
    widths = [max(len(row[i]) for row in grid) for i in range(len(grid[0]))]
    return "".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)) + "\n"
                   for row in grid)


def render_curves(traces: list[RunTrace], x_axis: str = "n_grad") -> str:
    """Long-format CSV of per-iteration losses, ready for plotting tools.

    The ``diverged`` flag is set on the last recorded row of a diverged
    run; everything after that point was truncated.
    """
    if x_axis not in ("iter", "n_grad"):
        raise ValueError(f"x_axis must be 'iter' or 'n_grad', got {x_axis!r}")
    rows = [["solver", "seed", "x", "train_loss", "val_loss", "diverged"]]
    for trace in traces:
        for i, row in enumerate(trace.rows):
            flag = "true" if trace.diverged and i == len(trace.rows) - 1 else "false"
            x = row.iter if x_axis == "iter" else row.n_grad
            rows.append([trace.label, trace.seed, x,
                         repr(row.train_loss), repr(row.val_loss), flag])
    return _csv_text(rows)


def _csv_text(rows) -> str:
    """CSV with cells quoted only where needed, so plain labels stay bare."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def read_traces(directory) -> list[RunTrace]:
    """Load every ``*.trace.csv`` under ``directory`` in deterministic order."""
    names = sorted(n for n in os.listdir(directory) if n.endswith(".trace.csv"))
    return [RunTrace.read_csv(os.path.join(directory, n)) for n in names]


def load_reference_results() -> list[dict]:
    """Published benchmark numbers shipped for side-by-side comparison.

    These values are quoted from the original publication of the
    algorithms benchmarked here; they are display-only context and are
    never recomputed or asserted against.
    """
    text = resources.files("myhpo").joinpath("reference_results.csv").read_text()
    reader = csv.DictReader(text.splitlines())
    return list(reader)


def render_reference(dataset: str) -> str:
    rows = load_reference_results()
    matching = [r for r in rows if r["dataset"] == dataset]
    if not matching:
        names = sorted({r["dataset"] for r in rows})
        raise ValueError(f"unknown reference dataset {dataset!r}; have {names}")
    cols = ["dataset", "method", "setting", "train", "val", "test", "n_g"]
    grid = [cols] + [[r[c] for c in cols] for r in matching]
    return "published reference values (x1e-2), not recomputed:\n" + _aligned(grid)
