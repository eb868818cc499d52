"""Output checks behind ``error_frac``.

A solver run fails when it raised, when its ledger (final ``iter``,
``n_grad``, ``loss_eval_count``) or ``diverged`` flag differs from the
value recorded in ``reference.json``, when a final train, validation or
test loss lies further than ``LOSS_RTOL`` (relative) from the recorded one,
or when it spent more than its budget. On ls-stability a run also fails
when its written trace does not read back equal to the in-memory trace, and
every run of a repetition fails when the summary of the read-back traces
differs from the one ``run_experiment`` returned.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from myhpo.trace import RunTrace

LOSS_RTOL = 1e-6
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def outcome(trace: RunTrace) -> list:
    """``[iter, n_grad, loss_eval_count, diverged, train, val, test]`` of a run.

    The ledger comes from the last row, the losses from the last finite row.
    """
    last = trace.final_row
    ledger = [last.iter, last.n_grad, last.loss_eval_count] if last else [0, 0, 0]
    row = trace.final_finite_row()
    losses = [row.train_loss, row.val_loss, row.test_loss] if row else [None] * 3
    return ledger + [trace.diverged] + losses


def run_problem(record, expected: list | None) -> str:
    """Why a run fails its checks, or ``""`` when it passes."""
    if record.error:
        return record.error
    if expected is None:
        return f"no reference entry for {record.key}"
    got = outcome(record.trace)
    if got[:4] != expected[:4]:
        return f"{record.key}: ledger {got[:4]} != reference {expected[:4]}"
    for name, g, e in zip(("train", "val", "test"), got[4:], expected[4:]):
        if (g is None) != (e is None) or (e is not None and abs(g - e) > LOSS_RTOL * abs(e)):
            return f"{record.key}: final {name} loss {g!r} != reference {e!r}"
    if got[1] > record.budget:
        return f"{record.key}: n_grad {got[1]} over budget {record.budget}"
    return ""


def _same_trace(a: RunTrace, b: RunTrace) -> bool:
    # rows compare by their written cells, where NaN equals NaN
    fields = ("solver", "label", "seed", "prng", "diverged", "note")
    return (all(getattr(a, f) == getattr(b, f) for f in fields)
            and [r.as_cells() for r in a.rows] == [r.as_cells() for r in b.rows]
            and {k: str(v) for k, v in a.meta.items()} == b.meta)


def _summary_cells(table) -> list[tuple]:
    # NaN != NaN, so compare NaN cells by name
    return [tuple("nan" if v != v else v for v in dataclasses.astuple(e))
            for e in table.entries]


def verify(rep, expected: dict) -> list[str]:
    """One problem string per run of the repetition, ``""`` for a pass."""
    problems = [run_problem(r, expected.get(r.key)) for r in rep.records]
    if rep.summaries:
        back = {(t.label, t.meta.get("repetition")): t for t in rep.readback}
        for i, r in enumerate(rep.records):
            b = back.get((r.trace.label, str(r.trace.meta.get("repetition"))))
            if not problems[i] and (b is None or not _same_trace(r.trace, b)):
                problems[i] = f"{r.key}: trace does not read back equal"
        in_memory, read_back = rep.summaries
        if len(rep.readback) != len(rep.records) or (
                _summary_cells(in_memory) != _summary_cells(read_back)):
            problems = [p or "summary of read-back traces differs" for p in problems]
    return problems


def ledgers(rep) -> list:
    """Ledger and divergence of every run, for traced/untraced parity."""
    return [(r.key, *(outcome(r.trace)[:4] if r.trace else ())) for r in rep.records]
