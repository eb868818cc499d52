"""The block contract of ``trace.record_run``: rows are reported ``BLOCK`` at a
time, the trace is cut at the first non-finite loss, and stop exceptions are
handled only after the buffered rows. Every scripted scenario also runs with
the blocks reported on a worker thread, which must give the same trace. Then
the column store behind ``RunTrace.rows``: its size, and rows that are copies."""

import math
import os
import tempfile
import threading
import time
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import myhpo.model
import myhpo.moreau
import myhpo.sho
from myhpo.model import (
    LossSpec,
    NonFiniteIterate,
    SplitDegenerate,
    offload_report,
    report_block,
    train_loss,
    val_loss,
)
from myhpo.moreau import MyhpoConfig, MyhpoState, my_step_full, myhpo_run
from myhpo.sho import ShoConfig, ShoState, sho_run
from myhpo.trace import _NONE_BITS, BLOCK, RunTrace, TraceRow, record_run
from conftest import TRACE_ROW_CELLS, random_regression

SPEC = LossSpec("least_squares")


def splits():
    rng = np.random.default_rng(2)
    return (random_regression(rng, 12, 3, "train"), random_regression(rng, 10, 3, "validation"),
            random_regression(rng, 8, 3, "test"))


def iterate(i):
    """The scripted iterate of row ``i``: finite, distinct per row."""
    return np.array([0.1 * i, -0.05 * i, 1.0 / i])


class Script:
    """Yields rows 1..n with their iterates, NaN iterates at ``bad`` rows,
    then raises ``raise_at_end`` if given; counts the rows it produced."""

    def __init__(self, n, bad=(), raise_at_end=None):
        self.n, self.bad, self.raise_at_end = n, set(bad), raise_at_end
        self.produced = 0

    def __iter__(self):
        for i in range(1, self.n + 1):
            self.produced = i
            w = np.full(3, math.nan) if i in self.bad else iterate(i)
            yield TraceRow(i, 2 * i, -1.0 + 0.01 * i), w
        if self.raise_at_end is not None:
            raise self.raise_at_end


def record(script, offload=False, delay=0.0):
    """Record ``script``'s rows; each report call sleeps ``delay`` seconds first."""
    train, val, test = splits()
    calls = []

    def report(W, lams):
        time.sleep(delay)
        calls.append(len(W))
        return report_block(SPEC, W, lams, train, val, test)

    trace = record_run(RunTrace("scripted", "scripted", 0), script, report, offload=offload)
    return trace, calls


def assert_rows_match_oracle(trace, n):
    """Rows 1..n in order, each with its per-row train, validation and test loss."""
    train, val, test = splits()
    assert [row.iter for row in trace.rows] == list(range(1, n + 1))
    for row in trace.rows:
        w = iterate(row.iter)
        assert row.train_loss == pytest.approx(train_loss(SPEC, w, row.lam, train), rel=1e-12)
        assert row.val_loss == pytest.approx(val_loss(SPEC, w, val), rel=1e-12)
        assert row.test_loss == pytest.approx(val_loss(SPEC, w, test), rel=1e-12)


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK])
def test_every_row_is_reported_a_block_at_a_time(n):
    trace, calls = record(Script(n))
    assert_rows_match_oracle(trace, n)
    assert not trace.diverged and trace.note == ""
    assert calls == [BLOCK] * (n // BLOCK) + ([n % BLOCK] if n % BLOCK else [])


def test_a_non_finite_loss_cuts_the_trace_and_discards_the_block_tail():
    script = Script(3 * BLOCK, bad=[BLOCK + 5])
    trace, calls = record(script)
    assert_rows_match_oracle(trace, BLOCK + 4)
    assert trace.diverged and trace.note == ""
    assert script.produced == 2 * BLOCK  # the solver stopped at the end of the cut block
    assert calls == [BLOCK, BLOCK]


def test_non_finite_loss_then_non_finite_iterate_in_one_block():
    trace, _ = record(Script(BLOCK + 10, bad=[BLOCK + 3],
                             raise_at_end=NonFiniteIterate("non-finite iterate")))
    assert_rows_match_oracle(trace, BLOCK + 2)
    assert trace.diverged and trace.note == ""


def test_non_finite_iterate_keeps_every_buffered_row():
    trace, _ = record(Script(BLOCK + 10, raise_at_end=NonFiniteIterate("non-finite iterate")))
    assert_rows_match_oracle(trace, BLOCK + 10)
    assert trace.diverged and trace.note == ""


def test_stop_error_after_a_non_finite_loss_leaves_the_note_empty():
    trace, _ = record(Script(7, bad=[4], raise_at_end=SplitDegenerate("|lam| too small")))
    assert_rows_match_oracle(trace, 3)
    assert trace.diverged and trace.note == ""


def test_stop_error_keeps_every_buffered_row_and_its_note():
    trace, _ = record(Script(BLOCK + 7, raise_at_end=SplitDegenerate("|lam| too small")))
    assert_rows_match_oracle(trace, BLOCK + 7)
    assert not trace.diverged and trace.note == "SplitDegenerate: |lam| too small"


# every scenario above, run inline and offloaded by the test below
SCENARIOS = {
    **{f"end-at-{n}": (lambda n=n: Script(n)) for n in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK)},
    "cut-in-second-block": lambda: Script(4 * BLOCK, bad=[BLOCK + 5]),
    "non-finite-loss-then-iterate": lambda: Script(
        BLOCK + 10, bad=[BLOCK + 3], raise_at_end=NonFiniteIterate("non-finite iterate")),
    "non-finite-iterate": lambda: Script(
        BLOCK + 10, raise_at_end=NonFiniteIterate("non-finite iterate")),
    "stop-after-non-finite-loss": lambda: Script(
        7, bad=[4], raise_at_end=SplitDegenerate("|lam| too small")),
    "stop-after-non-finite-loss-in-flight": lambda: Script(
        BLOCK + 7, bad=[4], raise_at_end=SplitDegenerate("|lam| too small")),
    "stop-in-flight": lambda: Script(BLOCK + 7, raise_at_end=SplitDegenerate("|lam| too small")),
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_the_offloaded_path_gives_the_inline_trace(name):
    """The same rows, losses, flag and note; each report sleeps, so a block is
    still on its worker when the run ends or raises."""
    inline, offloaded = SCENARIOS[name](), SCENARIOS[name]()
    expected, inline_calls = record(inline)
    trace, calls = record(offloaded, offload=True, delay=0.02)
    assert trace.rows and trace.rows == expected.rows
    assert (trace.diverged, trace.note) == (expected.diverged, expected.note)
    assert calls == inline_calls
    # at most one block more past a cut: the cut block is joined a block later
    assert inline.produced <= offloaded.produced <= inline.produced + BLOCK


@pytest.mark.parametrize("offload", [False, True], ids=["inline", "offloaded"])
def test_an_exception_in_the_report_is_raised(offload):
    script = Script(3 * BLOCK)

    def report(W, lams):
        raise RuntimeError("report failed")

    with pytest.raises(RuntimeError, match="report failed"):
        record_run(RunTrace("scripted", "scripted", 0), script, report, offload=offload)
    # raised at the join, before the next block is handed off
    assert script.produced == (2 if offload else 1) * BLOCK


def test_no_worker_outlives_a_run():
    before = threading.active_count()
    trace, _ = record(Script(3 * BLOCK + 5), offload=True, delay=0.01)
    assert len(trace.rows) == 3 * BLOCK + 5
    # the solver fails while its first block is still on the worker
    with pytest.raises(RuntimeError, match="solver bug"):
        record(Script(BLOCK + 3, raise_at_end=RuntimeError("solver bug")), offload=True,
               delay=0.2)
    assert threading.active_count() == before


def offload_problem():
    """Least-squares splits whose report work reaches the offload rule exactly."""
    rng = np.random.default_rng(5)
    d = 256
    return (random_regression(rng, 1024, d, "train"), random_regression(rng, 512, d, "validation"),
            random_regression(rng, 512, d, "test"))


RUNS = {
    "sho": lambda tr, va, te: sho_run(ShoState.initial(tr.d), SPEC, tr, va,
                                      ShoConfig(seed=3), budget=300, test=te),
    "myhpo_bt": lambda tr, va, te: myhpo_run(MyhpoState.initial(tr.d), SPEC, tr, va,
                                             MyhpoConfig(variant="simplified_backtracking"),
                                             budget=300, test=te),
    # stops on InnerSolveFailed in its second block
    "myhpo_full": lambda tr, va, te: myhpo_run(MyhpoState.initial(tr.d), SPEC, tr, va,
                                               MyhpoConfig(variant="full"), budget=10_000,
                                               test=te),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_solver_traces_are_the_same_with_the_offload_on_and_off(name, monkeypatch):
    train, val, test = offload_problem()
    assert offload_report(train, val, test)
    seen = []
    for module in (myhpo.sho, myhpo.moreau):
        def spy(*args, _record_run=module.record_run, **kwargs):
            seen.append(kwargs["offload"])
            return _record_run(*args, **kwargs)
        monkeypatch.setattr(module, "record_run", spy)
    on = RUNS[name](train, val, test)
    monkeypatch.setattr(myhpo.model, "OFFLOAD_MIN_WORK", math.inf)
    off = RUNS[name](train, val, test)
    assert seen == [True, False]
    assert len(on.rows) > BLOCK and on == off


def test_an_eps_tol_stop_inside_a_block_reports_every_row():
    """A least-squares myhpo_full run on an 80 x 3 split stops on the rule
    at iteration 66, inside its second block; its rows carry the per-row
    losses at the consensus iterate."""
    rng = np.random.default_rng(12)
    train, val = random_regression(rng, 80, 3, "train"), random_regression(rng, 60, 3, "validation")
    cfg = MyhpoConfig(variant="full", eps_tol=1e-6, max_iters=500)
    trace = myhpo_run(MyhpoState.initial(3), SPEC, train, val, cfg, budget=10_000)
    n = len(trace.rows)
    assert n == 66 and not trace.diverged and trace.note == ""
    last = trace.rows[-1]
    assert max(last.r_norm, last.s_norm) < cfg.eps_tol
    assert all(max(row.r_norm, row.s_norm) >= cfg.eps_tol for row in trace.rows[:-1])
    # the rows' iterates, replayed step by step from the same start
    state = MyhpoState.initial(3)
    for row in trace.rows:
        state, _ = my_step_full(state, SPEC, train, val, cfg)
        assert row.train_loss == pytest.approx(train_loss(SPEC, state.w, state.lam, train),
                                               rel=1e-12)
        assert row.val_loss == pytest.approx(val_loss(SPEC, state.w, val), rel=1e-12)


def scripted_rows(n, first, cut):
    """Rows ``first..first + n - 1`` with None in some optional cells, each
    with an iterate whose entries are its losses; row ``cut``'s are NaN."""
    for i in range(first, first + n):
        row = TraceRow(i, 2 * i, -1.0 + 0.01 * i, r_norm=None if i % 3 else 0.1 * i,
                       s_norm=None if i % 2 else -0.0, u_norm=0.5 / i, loss_eval_count=3 * i)
        yield row, np.full(3, math.nan) if i == cut else np.array([0.5 / i, 0.25 / i, -1.0 * i])


@pytest.mark.parametrize("with_test", [True, False], ids=["test", "no-test"])
@pytest.mark.parametrize("given", [0, 5], ids=["empty", "5-rows-before"])
@pytest.mark.parametrize("cut", [False, True], ids=["whole", "cut"])
@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK])
def test_a_reported_block_is_stored_as_its_rows_one_by_one(n, cut, given, with_test):
    """``record_run`` stores each block a column at a time: the trace equals
    the one that appends each row, its losses set, one by one, with the same
    None-mask bits, also after rows given to the constructor."""
    first = given + 1
    cut_at = first + n - 2 if cut else None  # the next to last row

    def report(W, lams):
        return W[:, 0], W[:, 1], W[:, 2] if with_test else None

    head = [row for row, _ in scripted_rows(given, 1, None)]
    trace = record_run(RunTrace("scripted", "scripted", 0, rows=head),
                       scripted_rows(n, first, cut_at), report)
    expected = RunTrace("scripted", "scripted", 0, rows=head)
    for row, w in scripted_rows(n, first, cut_at):
        if row.iter == cut_at:
            break
        row.train_loss, row.val_loss = float(w[0]), float(w[1])
        row.test_loss = float(w[2]) if with_test else None
        expected.append(row)
    assert trace.diverged == cut
    assert len(trace.rows) == given + (n - 2 if cut else n)
    assert [row.as_cells() for row in trace.rows] == [row.as_cells() for row in expected.rows]
    assert ([bytes(column) for column in trace._columns]
            == [bytes(column) for column in expected._columns])
    for k, row in enumerate(expected.rows):
        bits = sum(bit for value, bit in zip(astuple(row), _NONE_BITS) if value is None)
        assert trace._columns[-1][k] == bits


@pytest.mark.parametrize("bad, message", [
    (TraceRow(BLOCK - 3, 2, 0.0), "^n_grad must be strictly increasing"),
    (TraceRow(BLOCK - 3, 2 * BLOCK, 0.0, loss_eval_count=2**63),
     "^loss_eval_count is outside the 64-bit integer range"),
], ids=["n_grad", "64-bit"])
def test_a_block_with_a_bad_row_is_a_named_error(bad, message):
    def rows():
        yield from ((TraceRow(i, 2 * i, 0.0), iterate(i)) for i in range(1, BLOCK - 3))
        yield bad, iterate(BLOCK - 3)

    train, val, test = splits()
    with pytest.raises(ValueError, match=message):
        record_run(RunTrace("scripted", "scripted", 0), rows(),
                   lambda W, lams: report_block(SPEC, W, lams, train, val, test))


def myhpo_row(i):
    """Row ``i`` of a MY-HPO run: every column set but the test loss."""
    return TraceRow(i, 2 * i, -1.0 + 1e-3 * i, 0.5 + 1e-4 * i, 0.25 + 1e-4 * i, None,
                    1e-3 / i, 2e-3 / i, 0.1 * i, 6 * i)


def appended(trace, n):
    for i in range(1, n + 1):
        trace.append(myhpo_row(i))
    return trace


def recorded(trace, n):
    """``record_run`` stores the rows in blocks, the path every solver run takes."""
    def report(W, lams):
        return W[:, 0].copy(), W[:, 1].copy(), None

    rows = ((row, np.array([row.train_loss, row.val_loss]))
            for row in map(myhpo_row, range(1, n + 1)))
    return record_run(trace, rows, report)


def assert_at_most_100_bytes_a_row(store):
    n = 10_000
    tracemalloc.start()
    try:
        trace = store(RunTrace("myhpo_bt", "bt", 0), n)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(trace.rows) == n and trace.rows[-1] == myhpo_row(n)
    assert held / n <= 100


def test_a_trace_holds_a_row_in_at_most_100_bytes():
    assert_at_most_100_bytes_a_row(appended)


def test_a_recorded_trace_holds_a_row_in_at_most_100_bytes():
    assert_at_most_100_bytes_a_row(recorded)


@settings(deadline=None)  # each example writes and reads a file
@given(st.lists(TRACE_ROW_CELLS, max_size=6), st.integers(min_value=0, max_value=6))
def test_rows_given_and_appended_read_back_exactly(cells, given_rows):
    """The first ``given_rows`` rows go to the constructor, the rest to
    ``append``, their ``n_grad`` made strictly increasing as it requires."""
    rows, n_grad = [], 0
    for iter_, step, *rest in cells:
        n_grad += 1 + step
        rows.append(TraceRow(iter_, n_grad, *rest))
    trace = RunTrace("myhpo_bt", "bt", 0, rows=rows[:given_rows])
    for row in rows[given_rows:]:
        trace.append(row)
    expected = [row.as_cells() for row in rows]
    assert [row.as_cells() for row in trace.rows] == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.trace.csv")
        trace.write_csv(path)
        back = RunTrace.read_csv(path)
    assert [row.as_cells() for row in back.rows] == expected


def test_a_row_taken_from_a_trace_is_a_copy():
    trace = RunTrace("myhpo_bt", "bt", 0, rows=[myhpo_row(1), myhpo_row(2)])
    first = trace.rows[0]
    first.lam, first.test_loss, first.r_norm = 7.0, 0.5, None
    for row in trace.rows:
        row.val_loss = math.nan
    trace.rows[-1].n_grad = 0
    assert trace.rows == [myhpo_row(1), myhpo_row(2)]
    assert trace.final_finite_row() == myhpo_row(2)


def test_append_checks_n_grad_after_rows_are_assigned():
    trace = RunTrace("myhpo_bt", "bt", 0)
    trace.rows = [myhpo_row(1), myhpo_row(3)]
    for row in (myhpo_row(3), myhpo_row(2)):
        with pytest.raises(ValueError, match="n_grad must be strictly increasing"):
            trace.append(row)
    trace.append(myhpo_row(4))
    assert trace.rows == [myhpo_row(1), myhpo_row(3), myhpo_row(4)]


def test_rows_given_with_a_backward_n_grad_are_refused():
    rows = [TraceRow(1, 4, 0.0), TraceRow(2, 2, 0.0), TraceRow(3, 2, 0.0)]
    with pytest.raises(ValueError, match="^n_grad must be strictly increasing"):
        RunTrace("sho", "sho", 0, rows=rows)
    trace = RunTrace("sho", "sho", 0, rows=rows[:1])
    with pytest.raises(ValueError, match="^n_grad must be strictly increasing"):
        trace.rows = rows
    assert trace.rows == []  # none of the assigned rows is stored


def test_a_file_whose_n_grad_runs_backward_does_not_read(tmp_path):
    path = tmp_path / "t.trace.csv"
    RunTrace("sho", "sho", 0, rows=[myhpo_row(1), myhpo_row(2), myhpo_row(3)]).write_csv(path)
    path.write_text(path.read_text().replace("\n2,4,", "\n2,2,"))
    with pytest.raises(ValueError, match=r"t\.trace\.csv: trace row 2: n_grad must be strictly "
                                         "increasing$"):
        RunTrace.read_csv(path)


def test_an_integer_past_64_bits_is_a_named_error(tmp_path):
    trace = RunTrace("myhpo_bt", "bt", 0, rows=[myhpo_row(1), myhpo_row(2)])
    with pytest.raises(ValueError, match="^loss_eval_count is outside the 64-bit integer range"):
        trace.append(TraceRow(3, 6, 0.0, loss_eval_count=2**63))
    assert trace.rows == [myhpo_row(1), myhpo_row(2)]  # no partial row
    path = tmp_path / "t.trace.csv"
    trace.write_csv(path)
    path.write_text(path.read_text().replace("\n2,4,", f"\n2,{2**63},"))
    with pytest.raises(ValueError, match=r"t\.trace\.csv: trace row 2: n_grad is outside the "
                                         "64-bit integer range"):
        RunTrace.read_csv(path)
