"""In-memory span tracer for the benchmark's traced run.

``Tracer.patch()`` replaces the package's public functions with wrappers
under every name a module imports them by (``myhpo.moreau.train_loss`` as
well as ``myhpo.model.train_loss``), plus ``RunTrace.write_csv``/
``read_csv``. Each call records a span: its name, start, end and parent
span. Spans stay in memory; ``layer_metrics`` turns them into per-layer
numbers after the repetition. A layer's self time is its span time minus
the time its child spans cover.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager

from myhpo import bench, data, model, moreau, search, sho
from myhpo.rng import RandomStream
from myhpo.trace import RunTrace

MODEL_FNS = ("train_loss", "val_loss", "grad_w_train", "grad_w_val", "grad_lambda_val")
# matrix-vector products per call; grad_lambda_val's product is in its
# grad_w_val child span
_MATVECS = {"train_loss": 1, "val_loss": 1, "grad_w_train": 2, "grad_w_val": 2,
            "grad_lambda_val": 0}
RUN_SPANS = ("moreau.run", "sho.run", "search.run")
REPORT_PARENTS = ("moreau.run", "sho.run")  # a loss call here is reporting, not a step


class Span:
    __slots__ = ("name", "parent", "start", "end", "info", "child_s")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.info = None
        self.child_s = 0.0


def _model_info(fn_name):
    matvecs = _MATVECS[fn_name]

    def info(args, result):
        x = args[-1].X  # every model function takes the split last
        return matvecs * x.shape[0] * x.shape[1]
    return info


def _bt_info(args, result):
    """(blocks that evaluated a merit, accepted at the first candidate,
    stalled, merit evaluations), from the returned state's last_backtrack."""
    outcomes = [o for o in result[0].last_backtrack if o.evals > 0]
    return (len(outcomes), sum(o.evals == 2 and not o.stalled for o in outcomes),
            sum(o.stalled for o in outcomes), sum(o.evals for o in outcomes))


def _full_info(args, result):
    return result[0].grad_count - args[0].grad_count


def _search_info(args, result):
    return sum(c.diverged for c in result.candidates), len(result.candidates)


def _write_info(args, result):
    trace, path = args[0], args[1]
    return len(trace.rows), os.path.getsize(path)


def _targets():
    """(modules, attribute, span name, info hook) for every patched function;
    the first module defines it, the others import it where they have it."""
    targets = [((model, moreau, sho, search), fn, f"model.{fn}", _model_info(fn))
               for fn in MODEL_FNS]
    targets += [
        ((moreau,), "my_step_simplified", "moreau.c", None),
        ((moreau,), "my_step_backtracking", "moreau.bt", _bt_info),
        ((moreau,), "my_step_full", "moreau.full", _full_info),
        ((moreau,), "residuals", "moreau.residuals", None),
        ((moreau, bench), "myhpo_run", "moreau.run", None),
        ((sho,), "sho_step", "sho.step", None),
        ((sho, bench), "sho_run", "sho.run", None),
        ((search,), "train_model", "search.train_model", None),
        ((search, bench), "search_run", "search.run", _search_info),
        ((bench,), "parse_config_text", "bench.parse", None),
        ((bench,), "run_experiment", "bench.run_experiment", None),
        ((bench,), "read_traces", "bench.read_traces", None),
        ((bench,), "summarize_traces", "bench.summarize", None),
        ((data, bench), "synthesize", "data.synthesize", None),
        ((data, bench), "split", "data.split", None),
    ]
    return targets


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.normal_calls = 0
        self._stack: list[Span] = []

    def _wrap(self, name, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if info is not None:
                span.info = info(args, result)
            return result
        return traced

    @contextmanager
    def patch(self):
        """Install the span wrappers for the duration of the block."""
        saved = []
        for modules, attr, name, info in _targets():
            original = getattr(modules[0], attr)
            wrapper = self._wrap(name, original, info)
            for mod in (m for m in modules if hasattr(m, attr)):
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapper)
        for cls, attr, name, info in ((RunTrace, "write_csv", "trace.write", _write_info),
                                      (RunTrace, "read_csv", "trace.read", None)):
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            if isinstance(original, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, original.__func__, info)))
            else:
                setattr(cls, attr, self._wrap(name, original, info))
        normal = RandomStream.normal

        def counted_normal(stream):
            self.normal_calls += 1
            return normal(stream)
        saved.append((RandomStream, "normal", normal))
        RandomStream.normal = counted_normal
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def counts(self) -> dict[str, int]:
        """Calls per span name plus ``rng.normal``: exact, so they must repeat."""
        out: dict[str, int] = {"rng.normal": self.normal_calls}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0) + 1
        return out


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced repetition: name -> (value, unit)."""
    for span in tracer.spans:
        if span.parent is not None:
            span.parent.child_s += span.end - span.start
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for span in tracer.spans:
        dur = span.end - span.start
        calls[span.name] = calls.get(span.name, 0) + 1
        total[span.name] = total.get(span.name, 0.0) + dur
        self_s[span.name] = self_s.get(span.name, 0.0) + dur - span.child_s

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    m: dict[str, tuple[float, str]] = {}
    for fn in MODEL_FNS:
        m[f"model.{fn}.calls"] = (n(f"model.{fn}"), "count")
        m[f"model.{fn}.self_s"] = (s(f"model.{fn}"), "s")

    report = [sp for sp in tracer.spans
              if sp.name in ("model.train_loss", "model.val_loss")
              and sp.parent is not None and sp.parent.name in REPORT_PARENTS]
    report_s = sum(sp.end - sp.start for sp in report)
    run_s = sum(total.get(name, 0.0) for name in RUN_SPANS)
    m["model.report.calls"] = (len(report), "count")
    m["model.report_s"] = (report_s, "s")
    m["model.report_share"] = (report_s / run_s if run_s else 0.0, "ratio")

    # computed from operand shapes, not measured: 2nd flops and 8nd bytes
    # of X per n x d matrix-vector product
    nd = sum(sp.info for sp in tracer.spans if sp.name.startswith("model."))
    model_self = sum(s(f"model.{fn}") for fn in MODEL_FNS)
    m["model.gflop_computed"] = (2.0 * nd / 1e9, "GFLOP")
    m["model.gb_computed"] = (8.0 * nd / 1e9, "GB")
    m["model.gflops"] = (2.0 * nd / 1e9 / model_self if model_self else 0.0, "GFLOP/s")

    for variant in ("c", "bt", "full"):
        m[f"moreau.{variant}.steps"] = (n(f"moreau.{variant}"), "count")
        m[f"moreau.{variant}.self_s"] = (s(f"moreau.{variant}"), "s")
    m["moreau.residuals.self_s"] = (s("moreau.residuals"), "s")
    m["moreau.run.self_s"] = (s("moreau.run"), "s")
    bt = [sp.info for sp in tracer.spans if sp.name == "moreau.bt"]
    blocks = sum(b[0] for b in bt)
    merit_evals = sum(b[3] for b in bt)
    m["moreau.bt.merit_evals_per_iter"] = (merit_evals / len(bt) if bt else 0.0, "evals/iter")
    m["moreau.bt.first_try_ratio"] = (sum(b[1] for b in bt) / blocks if blocks else 0.0,
                                      "ratio")
    m["moreau.bt.stalls"] = (sum(b[2] for b in bt), "count")
    full = [sp.info for sp in tracer.spans if sp.name == "moreau.full"]
    m["moreau.full.grads_per_iter"] = (sum(full) / len(full) if full else 0.0, "grads/iter")

    m["sho.step.self_s"] = (s("sho.step"), "s")
    m["sho.run.self_s"] = (s("sho.run"), "s")
    m["rng.normal.calls"] = (tracer.normal_calls, "count")

    m["search.train_model.calls"] = (n("search.train_model"), "count")
    m["search.train_model.self_s"] = (s("search.train_model"), "s")
    cands = [sp.info for sp in tracer.spans if sp.name == "search.run"]
    n_cands = sum(c[1] for c in cands)
    m["search.diverged_ratio"] = (sum(c[0] for c in cands) / n_cands if n_cands else 0.0,
                                  "ratio")

    writes = [sp.info for sp in tracer.spans if sp.name == "trace.write"]
    m["trace.rows"] = (sum(w[0] for w in writes), "count")
    m["trace.write_s"] = (total.get("trace.write", 0.0), "s")
    m["trace.write_mb"] = (sum(w[1] for w in writes) / 1e6, "MB")
    m["trace.read_s"] = (total.get("trace.read", 0.0), "s")

    m["bench.parse_s"] = (total.get("bench.parse", 0.0), "s")
    m["bench.run_experiment.self_s"] = (s("bench.run_experiment"), "s")
    m["bench.summarize_s"] = (total.get("bench.summarize", 0.0), "s")
    m["data.synthesize_s"] = (total.get("data.synthesize", 0.0), "s")
    m["data.split_s"] = (total.get("data.split", 0.0), "s")
    return m


def combine(per_rep: list[dict[str, tuple[float, str]]]) -> dict[str, tuple[float, str]]:
    """Count metrics from the first traced repetition, where they repeat
    exactly; the median over the repetitions for every other metric."""
    first = per_rep[0]
    out = {}
    for name, (value, unit) in first.items():
        if unit == "count":
            out[name] = (value, unit)
        else:
            out[name] = (statistics.median(r[name][0] for r in per_rep), unit)
    return out
