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
form (``str`` of a float is its ``repr``), so rereading is bit-exact, and
rerunning a config with the same package, the same numpy and BLAS build
and the same BLAS thread count reproduces byte-identical files. A file
that ends before its column header does not read.

In memory a ``RunTrace`` keeps its rows as typed columns, one array per
column, ``array('q')`` for the integer columns and ``array('d')`` for the
float ones, plus one ``bytearray`` with a byte per row whose bits mark the
optional cells that are None: about 85 bytes a row, where a list of
``TraceRow`` objects takes about 400. ``RunTrace.rows`` builds ``TraceRow``
objects from the columns on access, so each row it returns is a copy;
``write_csv`` formats lines straight from the columns. Rows enter a trace
through the constructor or ``rows`` setter, ``append``, ``record_run`` and
``read_csv``, each a block at a time through one check: ``n_grad`` must
strictly increase, and an integer outside the 64-bit range is a
``ValueError``. A block that fails the check stores none of its rows.

``record_run`` is the one run loop behind every iterative solver: it
records the rows a solver yields and turns blowup into the trace's
divergence flag, and a degenerate split or a failed inner solve into its
note. Losses are reported a block of ``BLOCK`` rows at a time, one matrix
product per split for the whole block, so a run's solver may step up to
``BLOCK - 1`` rows (``2 * BLOCK - 1`` with a worker thread) past the first
non-finite loss; the trace is cut at that row and the steps past it are
discarded.
"""

from __future__ import annotations

import math
import re
import threading
from array import array
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from .model import InnerSolveFailed, NonFiniteIterate, SplitDegenerate

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


_FIELDS = fields(TraceRow)
TRACE_COLUMNS = tuple("lambda" if f.name == "lam" else f.name for f in _FIELDS)
_values = attrgetter(*(f.name for f in _FIELDS))
# the store: one array per column of the column's typecode, then a bytearray
# with one byte per row whose bit _NONE_BITS[k] marks column k's cell None
# (its stored value is then 0.0)
_TYPECODES = tuple("q" if f.type == "int" else "d" for f in _FIELDS)
_optional = [f.type == "float | None" for f in _FIELDS]
_NONE_BITS = tuple(1 << sum(_optional[:k]) if opt else 0 for k, opt in enumerate(_optional))
_OPTIONAL = tuple((k, bit) for k, bit in enumerate(_NONE_BITS) if bit)
_LOSSES = slice(3, 6)  # train_loss, val_loss, test_loss


def _escape(value) -> str:
    return str(value).replace("\\", "\\\\").replace("\r", "\\r").replace("\n", "\\n")


_ESCAPES = {"\\": "\\", "r": "\r", "n": "\n"}


def _unescape(value: str) -> str:
    return re.sub(r"\\(.)", lambda m: _ESCAPES.get(m[1], m[0]), value)


class TraceRows(Sequence):
    """The rows of a trace, read from its columns: each row it returns is a new
    ``TraceRow``, so changing one leaves the trace as it was."""

    __slots__ = ("_columns",)

    def __init__(self, columns: list):
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[-1])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self)))]
        k = range(len(self))[index]
        none = self._columns[-1][k]
        return TraceRow(*[None if none & bit else column[k]
                          for column, bit in zip(self._columns, _NONE_BITS)])

    def __iter__(self):
        return map(TraceRow, *_cells(self._columns, None))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"TraceRows({list(self)!r})"


def _cells(columns: list, empty, cell=None) -> list:
    """Each column as an iterable of its cells, ``cell`` applied to each value
    and ``empty`` in place of each None cell."""
    none = columns[-1]
    marks = set(none)
    out = []
    for values, bit in zip(columns, _NONE_BITS):
        if bit and marks and all(mark & bit for mark in marks):
            out.append([empty] * len(none))
            continue
        if cell is not None:
            values = map(cell, values)
        if any(mark & bit for mark in marks):
            values = [empty if mark & bit else value for mark, value in zip(none, values)]
        out.append(values)
    return out


def _store(store: list, columns: list[Sequence]):
    """Append rows, given as one sequence of values per column, to the arrays
    of ``store``. A value that does not fit its column raises ``ValueError``
    and stores none of the rows."""
    n = len(columns[0])
    none = bytearray(n)
    for k, bit in _OPTIONAL:
        if None in columns[k]:
            for i, value in enumerate(columns[k]):
                if value is None:
                    none[i] |= bit
            columns[k] = [0.0 if value is None else value for value in columns[k]]
    arrays = []
    for name, code, values in zip(TRACE_COLUMNS, _TYPECODES, columns):
        try:
            arrays.append(array(code, values))
        except OverflowError:
            raise ValueError(f"{name} is outside the 64-bit integer range") from None
    for column, values in zip(store, arrays + [none]):
        column += values


def _parse(rows: list[list[str]]) -> list[list]:
    """Rows of text cells as one list of values per column (an empty list for
    no rows); a bad cell raises ``ValueError``."""
    for cells in rows:
        if len(cells) != len(TRACE_COLUMNS):
            raise ValueError(f"{len(cells)} cells, expected {len(TRACE_COLUMNS)}")
    # an empty optional cell is None
    return [[float(cell) if cell else None for cell in cells] if bit and "" in cells
            else list(map(float if code == "d" else int, cells))
            for code, bit, cells in zip(_TYPECODES, _NONE_BITS, zip(*rows))]


class RunTrace:
    """A run's header and its rows, kept as one typed array per column.

    Every row enters through the checked ``_extend``; rows assigned to
    ``rows`` that fail its check leave the trace with none.
    """

    _HEADER = ("solver", "label", "seed", "meta", "prng", "diverged", "note")

    def __init__(self, solver: str, label: str, seed: int, meta: dict | None = None,
                 prng: str | None = None, diverged: bool = False, note: str = "",
                 rows: Iterable[TraceRow] = ()):
        self.solver, self.label, self.seed = solver, label, seed
        self.meta = {} if meta is None else meta
        self.prng, self.diverged, self.note = prng, diverged, note
        self.rows = rows

    @property
    def rows(self) -> TraceRows:
        return TraceRows(self._columns)

    @rows.setter
    def rows(self, rows: Iterable[TraceRow]):
        self._columns = [array(code) for code in _TYPECODES] + [bytearray()]
        self._extend(list(zip(*map(_values, rows))))

    def __eq__(self, other):
        if not isinstance(other, RunTrace):
            return NotImplemented
        return (all(getattr(self, key) == getattr(other, key) for key in self._HEADER)
                and self.rows == other.rows)

    def __repr__(self) -> str:
        header = ", ".join(f"{key}={getattr(self, key)!r}" for key in self._HEADER)
        return f"RunTrace({header}, rows=<{len(self.rows)} rows>)"

    def _extend(self, columns: list[Sequence]):
        """``_store`` the rows of ``columns``, one sequence of values per column
        (an empty list for no rows); their ``n_grad`` must strictly increase
        from the last row's."""
        if not columns:
            return
        n_grad = [*self._columns[1][-1:], *columns[1]]
        if any(a >= b for a, b in zip(n_grad, n_grad[1:])):
            raise ValueError("n_grad must be strictly increasing")
        _store(self._columns, columns)

    def append(self, row: TraceRow):
        self._extend([[value] for value in _values(row)])

    @property
    def final_row(self) -> TraceRow | None:
        rows = self.rows
        return rows[-1] if rows else None

    def final_finite_row(self) -> TraceRow | None:
        """Last row whose train and validation losses are finite."""
        train, val = self._columns[3], self._columns[4]
        for k in range(len(train) - 1, -1, -1):
            if math.isfinite(train[k]) and math.isfinite(val[k]):
                return self.rows[k]
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
        lines += map(",".join, zip(*_cells(self._columns, "", str)))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def read_csv(cls, path) -> "RunTrace":
        header: dict[str, str] = {}
        meta: dict[str, str] = {}
        rows: list[list[str]] = []
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
                rows.append(line.split(","))
        if not saw_columns:
            raise ValueError(f"{path}: the trace ends before its column line")
        trace = cls(
            solver=header.get("solver", ""),
            label=header.get("label", ""),
            seed=int(header.get("seed", "0")),
            meta=meta,
            prng=header.get("prng") or None,
            diverged=header.get("diverged", "false") == "true",
            note=header.get("note", ""),
        )
        try:
            trace._extend(_parse(rows))
        except ValueError:
            # name the first bad row, and in it the first bad cell
            for k, cells in enumerate(rows, start=1):
                try:
                    trace._extend(_parse([cells]))
                except ValueError as exc:
                    raise ValueError(f"{path}: trace row {k}: {exc}") from None
            raise
        return trace


def record_run(trace: RunTrace, rows: Iterable[tuple[TraceRow, np.ndarray]],
               report: Callable, offload: bool = False) -> RunTrace:
    """Append the rows a solver run yields to ``trace`` and return it.

    The run yields each row, its losses unset, with the iterate they belong
    to. Rows are buffered ``BLOCK`` at a time and their losses filled in by
    one ``report(W, lams)`` call, the iterates as the rows of ``W``, which
    returns per-row train, validation and test (or None) losses as
    ``model.report_block`` does. The buffer is flushed when it is full, when
    the run ends, and before a ``NonFiniteIterate``, ``SplitDegenerate`` or
    ``InnerSolveFailed`` is handled. With ``offload`` a full buffer is
    reported on its own thread and joined at the next flush, raising what
    ``report`` raised, or on exit.

    The trace is cut at the first row with a non-finite train or validation
    loss, which marks it diverged; the up to ``BLOCK - 1`` (``2 * BLOCK - 1``
    with ``offload``) steps the solver took past that row are discarded. A
    ``NonFiniteIterate`` raised by the run marks the trace diverged and
    keeps the rows recorded so far. A ``SplitDegenerate`` or
    ``InnerSolveFailed`` ends the run with ``"<ExcName>: <message>"`` in the
    trace note, unless a buffered row has already cut the trace. Blowup is
    detected by isfinite checks, so numpy overflow noise is silenced.
    """
    pending: list[TraceRow] = []
    iterates = None  # row k holds the iterate of pending[k]
    handed = None  # the block on a worker: its thread, rows and [losses or exception]

    def append(block: list[TraceRow], train, val, test) -> bool:
        """Append the rows of ``block`` with their losses, up to the first
        non-finite one; False once a row cuts the trace."""
        n = len(block)
        finite = np.isfinite(train[:n]) & np.isfinite(val[:n])
        cut = n if finite.all() else int(finite.argmin())
        if cut:
            columns = list(zip(*map(_values, block[:cut])))
            columns[_LOSSES] = (train[:cut].tolist(), val[:cut].tolist(),
                                [None] * cut if test is None else test[:cut].tolist())
            trace._extend(columns)
        trace.diverged |= cut < n
        return cut == n

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
        except (SplitDegenerate, InnerSolveFailed) as exc:
            if flush():
                trace.note = f"{type(exc).__name__}: {exc}"
        finally:
            if handed:
                handed[0].join()
    return trace
