r"""Per-iteration run traces and their CSV serialization.

A trace is the complete record of one solver run: header metadata (solver
name, label, seed, PRNG identifier, divergence flag, and every parameter
that influenced the run) followed by one row per iteration. Residual and
dual-norm columns are filled only by the consensus solver; other solvers
leave them empty. ``loss_eval_count`` counts merit-function evaluations
made by backtracking; plain loss evaluations recorded for reporting are
not algorithm cost and are not counted.

On disk a trace is a CSV file whose leading lines are ``# key = value``
comments, followed by the column header: the ``TraceRow`` fields in order,
with ``lam`` written as ``lambda``. Header values escape backslash,
carriage return and line feed as ``\\``, ``\r`` and ``\n``, so any string
reads back unchanged. Floats are written in their shortest round-trip
form (``str`` of a float is its ``repr``), so rereading is bit-exact and
rerunning a config reproduces byte-identical files. A file that ends
before its column header does not read.

``record_run`` is the one run loop behind every iterative solver: it
records the rows a solver yields and turns blowup and solver stop
exceptions into the trace's divergence flag and note. Losses are reported
a block of ``BLOCK`` rows at a time, one matrix product per split for the
whole block, so a run's solver may step up to ``BLOCK - 1`` rows (``2 *
BLOCK - 1`` with a worker thread) past the first non-finite loss; the trace
is cut at that row and the steps past it are discarded.
"""

from __future__ import annotations

import math
import re
import threading
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from .model import NonFiniteIterate

# rows whose losses one report call evaluates together
BLOCK = 64


@dataclass
class TraceRow:
    """One iteration of a run; its fields, in order, are the trace columns.

    The losses stay NaN until ``record_run`` reports them.
    """

    iter: int
    n_grad: int
    lam: float
    train_loss: float = math.nan
    val_loss: float = math.nan
    test_loss: float | None = None
    r_norm: float | None = None
    s_norm: float | None = None
    u_norm: float | None = None
    loss_eval_count: int = 0

    def as_cells(self) -> list[str]:
        return ["" if value is None else str(value) for value in _values(self)]


# a cell is read back by its field's type
_READERS = {"int": int, "float": float,
            "float | None": lambda cell: None if cell == "" else float(cell)}
_FIELDS = fields(TraceRow)
TRACE_COLUMNS = tuple("lambda" if f.name == "lam" else f.name for f in _FIELDS)
_values = attrgetter(*(f.name for f in _FIELDS))
_READ = [_READERS[f.type] for f in _FIELDS]


def _escape(value) -> str:
    return str(value).replace("\\", "\\\\").replace("\r", "\\r").replace("\n", "\\n")


_ESCAPES = {"\\": "\\", "r": "\r", "n": "\n"}


def _unescape(value: str) -> str:
    return re.sub(r"\\(.)", lambda m: _ESCAPES.get(m[1], m[0]), value)


@dataclass
class RunTrace:
    solver: str
    label: str
    seed: int
    meta: dict = field(default_factory=dict)
    prng: str | None = None
    diverged: bool = False
    note: str = ""
    rows: list[TraceRow] = field(default_factory=list)

    def append(self, row: TraceRow):
        if self.rows and row.n_grad <= self.rows[-1].n_grad:
            raise ValueError("n_grad must be strictly increasing")
        self.rows.append(row)

    @property
    def final_row(self) -> TraceRow | None:
        return self.rows[-1] if self.rows else None

    def final_finite_row(self) -> TraceRow | None:
        """Last row whose train and validation losses are finite."""
        for row in reversed(self.rows):
            if math.isfinite(row.train_loss) and math.isfinite(row.val_loss):
                return row
        return None

    def write_csv(self, path):
        header = [
            ("solver", self.solver),
            ("label", self.label),
            ("seed", self.seed),
            ("prng", self.prng or ""),
            ("diverged", "true" if self.diverged else "false"),
            ("note", self.note),
        ] + [(f"meta.{key}", self.meta[key]) for key in sorted(self.meta)]
        lines = [f"# {key} = {_escape(value)}" for key, value in header]
        lines.append(",".join(TRACE_COLUMNS))
        for row in self.rows:
            lines.append(",".join(row.as_cells()))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def read_csv(cls, path) -> "RunTrace":
        header: dict[str, str] = {}
        meta: dict[str, str] = {}
        rows: list[TraceRow] = []
        saw_columns = False
        # no newline translation: a raw CR is part of a line, not its end
        with open(path, "r", encoding="utf-8", newline="\n") as fh:
            for line in fh:
                line = line.rstrip("\r\n")
                if not line:
                    continue
                if line.startswith("#"):
                    key, _, value = line[1:].partition("=")
                    key = key.strip()
                    value = _unescape(value[1:] if value.startswith(" ") else value)
                    if key.startswith("meta."):
                        meta[key[len("meta."):]] = value
                    else:
                        header[key] = value
                    continue
                if not saw_columns:
                    if tuple(line.split(",")) != TRACE_COLUMNS:
                        raise ValueError(f"unexpected trace columns in {path}")
                    saw_columns = True
                    continue
                cells = line.split(",")
                try:
                    if len(cells) != len(TRACE_COLUMNS):
                        raise ValueError(f"{len(cells)} cells, expected {len(TRACE_COLUMNS)}")
                    rows.append(TraceRow(*[read(c) for read, c in zip(_READ, cells)]))
                except ValueError as exc:
                    raise ValueError(f"{path}: trace row {len(rows) + 1}: {exc}") from None
        if not saw_columns:
            raise ValueError(f"{path}: the trace ends before its column line")
        return cls(
            solver=header.get("solver", ""),
            label=header.get("label", ""),
            seed=int(header.get("seed", "0")),
            meta=meta,
            prng=header.get("prng") or None,
            diverged=header.get("diverged", "false") == "true",
            note=header.get("note", ""),
            rows=rows,
        )


def record_run(trace: RunTrace, rows: Iterable[tuple[TraceRow, np.ndarray]],
               report: Callable, stop_errors: tuple = (), offload: bool = False) -> RunTrace:
    """Append the rows a solver run yields to ``trace`` and return it.

    The run yields each row, its losses unset, with the iterate they belong
    to. Rows are buffered ``BLOCK`` at a time and their losses filled in by
    one ``report(W, lams)`` call, the iterates as the rows of ``W``, which
    returns per-row train, validation and test (or None) losses as
    ``model.report_block`` does. The buffer is flushed when it is full, when
    the run ends, and before a ``NonFiniteIterate`` or stop exception is
    handled. With ``offload`` a full buffer is reported on its own thread and
    joined at the next flush, raising what ``report`` raised, or on exit.

    The trace is cut at the first row with a non-finite train or validation
    loss, which marks it diverged; the up to ``BLOCK - 1`` (``2 * BLOCK - 1``
    with ``offload``) steps the solver took past that row are discarded. A
    ``NonFiniteIterate`` raised by the run marks the trace diverged and
    keeps the rows recorded so far. An exception in ``stop_errors`` ends the
    run with ``"<ExcName>: <message>"`` in the trace note, unless a buffered
    row has already cut the trace. Blowup is detected by isfinite checks, so
    numpy overflow noise is silenced.
    """
    pending: list[TraceRow] = []
    iterates = None  # row k holds the iterate of pending[k]
    handed = None  # the block on a worker: its thread, rows and [losses or exception]

    def append(block: list[TraceRow], train, val, test) -> bool:
        """Fill in and append the rows of ``block``; False once a row cuts the trace."""
        for k, row in enumerate(block):
            row.train_loss, row.val_loss = float(train[k]), float(val[k])
            if not (math.isfinite(row.train_loss) and math.isfinite(row.val_loss)):
                trace.diverged = True
                return False
            row.test_loss = None if test is None else float(test[k])
            trace.append(row)
        return True

    def flush(hand_off: bool = False) -> bool:
        """Append the worker's block, then report the buffer: now, or on a new worker."""
        nonlocal iterates, handed
        if handed:
            thread, block, out = handed
            thread.join()
            handed = None
            if isinstance(out[0], BaseException):
                raise out[0]
            if not append(block, *out[0]):
                return False
        block, lams = pending[:], [row.lam for row in pending]
        pending.clear()
        if not hand_off:
            return not block or append(block, *report(iterates[:len(block)], lams))
        W, iterates, out = iterates, np.empty_like(iterates), []

        def work():
            try:
                out.append(report(W, lams))
            except BaseException as exc:  # raised again at the join
                out.append(exc)
        (thread := threading.Thread(target=work)).start()
        handed = thread, block, out
        return True

    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for row, w in rows:
                if iterates is None:
                    iterates = np.empty((BLOCK, len(w)))
                iterates[len(pending)] = w
                pending.append(row)
                if len(pending) == BLOCK and not flush(offload):
                    return trace
            flush()
        except NonFiniteIterate:
            flush()
            trace.diverged = True
        except stop_errors as exc:
            if flush():
                trace.note = f"{type(exc).__name__}: {exc}"
        finally:
            if handed:
                handed[0].join()
    return trace
