"""Byte gate: one digest over every output the CLI and the demos write, per group.

Usage::

    python3 tools/byte_gate.py SRC

runs the package under ``SRC`` (``PYTHONPATH=SRC``, ``OPENBLAS_NUM_THREADS=1``)
in five groups, each in a fresh temporary directory:

- ``stability``, ``logistic``, ``least_squares``, ``offload``: ``python -m
  myhpo`` on ``demos/configs/stability.cfg`` and on three gate configs this
  script writes, a logistic csv problem, a small synthetic least-squares
  problem and a synthetic least-squares problem large enough that its runs
  report their losses on a worker thread (``model.offload_report``), with a
  relative ``output_dir`` and relative data paths, through ``run``,
  ``summarize``, ``curves --x iter`` and ``curves --x n_grad`` on the
  config's ``output_dir``, ``validate`` and ``--seed 7 validate``;
- ``demos``: every ``*.py`` script in ``SRC/../demos``, the demos of the
  checkout that owns ``SRC``, so each side runs its own calls into the
  Python API.

The script prints one sha256 per group, over every file left in its
directory and every command's exit code, stdout and stderr, then one
overall sha256 over those lines. Two checkouts that print the same digests
wrote byte-identical outputs. Every command must exit 0: the script names
each one that does not and exits 1.

Compare a change with its parent::

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    python3 tools/byte_gate.py ../parent/src
    python3 tools/byte_gate.py src

When the digests differ, compare mode says whether only the reported
losses moved::

    python3 tools/byte_gate.py --compare ../parent/src src

runs the four CLI groups on both sides and reads every ``*.trace.csv``
both left. It requires the same trace files, each command's exit code and
stderr, each trace's header lines (``diverged``, ``note`` and the
parameters among them), row count and ledger cells (``iter``, ``n_grad``,
``loss_eval_count``) and ``lambda`` to be identical, and prints the largest
relative difference in each other column, with the trace and row where it
occurs. Every other output must be identical line for line: each command's
stdout and every other file the commands left (``summary.txt``,
``summary.csv``, the curves CSVs, ``config_resolved.txt``); each line that
differs is printed with its file, so a change that moves the reported
losses shows in the summaries and curves too. The mode exits 1 when
anything required differs or a command exits non-zero on either side.

A change that alters trace headers on purpose names the keys it alters::

    python3 tools/byte_gate.py --compare ../parent/src src \
        --header-changes meta.config_hash,meta.some_field

Header lines under a listed key (``# meta.config_hash = ...``) may then
differ, or exist on one side only; every other header line must still
match. So may the ``key = value`` lines of the other outputs whose key is
the listed key less its ``meta.`` prefix, alone or after a dot
(``config_hash = ...``, ``solver[2].some_field = ...``). Per group, the
mode prints how many traces differ under each listed key.
"""

from __future__ import annotations

import difflib
import hashlib
import math
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# every solver name, a failed inner solve (inner_max_iters = 3) and a
# degenerate split (lambda0 = 0) on a two-class csv table
LOGISTIC = """\
problem.kind = csv
problem.loss = logistic
problem.path = data.csv
problem.target = label
problem.class_a = 3
problem.class_b = 7
budget_n_g = 200
repetitions = 2
seed = 3
output_dir = out
solver[0].name = sho
solver[1].name = myhpo_c
solver[2].name = myhpo_bt
solver[3].name = myhpo_full
solver[4].name = random
solver[5].name = grid
solver[6].name = myhpo_full
solver[6].label = full-inner-fail
solver[6].inner_max_iters = 3
solver[7].name = myhpo_c
solver[7].label = degenerate
solver[7].lambda0 = 0
"""

# the full variant plain and decoupled (rho = 0), diverging runs, diverging
# search candidates and a halving myhpo_bt
LEAST_SQUARES = """\
problem.kind = synthetic
problem.n = 40
problem.d = 8
problem.kappa = 1000
budget_n_g = 120
repetitions = 2
seed = 5
output_dir = out
solver[0].name = myhpo_full
solver[1].name = myhpo_full
solver[1].label = full-rho0
solver[1].rho = 0
solver[2].name = sho
solver[2].label = sho-diverge
solver[2].alpha = 50
solver[2].beta = 50
solver[3].name = myhpo_c
solver[3].label = c-diverge
solver[3].alpha = 50
solver[3].beta = 50
solver[3].delta = 50
solver[4].name = random
solver[4].n_s = 4
solver[4].alpha_train = 100
solver[5].name = myhpo_bt
solver[5].label = bt-halving
solver[5].alpha = 2
solver[5].beta = 2
solver[5].delta = 20
"""


# d = 400 on 2,000 split rows: 800,000 multiply-adds of report work per row,
# above model.OFFLOAD_MIN_WORK; every run but one is more than two report
# blocks long, and sho-diverge is cut at row 70, in its second block
OFFLOAD = """\
problem.kind = synthetic
problem.n = 2000
problem.d = 400
problem.kappa = 100
budget_n_g = 300
repetitions = 1
seed = 11
output_dir = out
solver[0].name = sho
solver[1].name = myhpo_bt
solver[2].name = myhpo_full
solver[3].name = sho
solver[3].label = sho-diverge
solver[3].alpha = 1.5
solver[3].beta = 0.01
"""


def _classes_csv() -> str:
    """A seeded 120 x 6 table whose label column holds the classes 3 and 7."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((120, 6))
    score = x @ rng.standard_normal(6) + 0.5 * rng.standard_normal(120)
    lines = [",".join([f"x{j}" for j in range(6)] + ["label"])]
    lines += [",".join([repr(float(v)) for v in row] + ["3" if s > 0 else "7"])
              for row, s in zip(x, score)]
    return "\n".join(lines) + "\n"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_runs(files: dict[str, str]) -> list[tuple[str, list[str]]]:
    """The six CLI commands on the config among ``files`` and on the
    ``output_dir`` it names, labelled by their arguments."""
    cfg = next(name for name in files if name.endswith(".cfg"))
    out = next(value.strip() for key, _, value in
               (line.partition("=") for line in files[cfg].splitlines())
               if key.strip() == "output_dir")
    commands = [["run", cfg], ["summarize", out], ["curves", out, "--x", "iter"],
                ["curves", out, "--x", "n_grad"], ["validate", cfg],
                ["--seed", "7", "validate", cfg]]
    return [(" ".join(args), ["-m", "myhpo", *args]) for args in commands]


def _demo_runs(src: str) -> list[tuple[str, list[str]]]:
    """Each demo script of the checkout that owns ``src``, labelled by file name."""
    demos = os.path.join(os.path.dirname(src), "demos")
    return [(name, [os.path.join(demos, name)])
            for name in sorted(os.listdir(demos)) if name.endswith(".py")]


def _run(src: str, files: dict[str, str], runs: list[tuple[str, list[str]]],
         work: str) -> list[tuple[str, int, bytes, bytes]]:
    """Write ``files`` into ``work``, run each ``(label, python arguments)`` of
    ``runs`` there and return each label with its exit code, stdout and stderr."""
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    for name, text in files.items():
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    captures = []
    for label, args in runs:
        done = subprocess.run([sys.executable, *args], cwd=work, env=env, capture_output=True)
        captures.append((label, done.returncode, done.stdout, done.stderr))
    return captures


def _failures(name: str, captures) -> list[str]:
    """One line for each command of group ``name`` that exited non-zero."""
    return [f"{name}: command {label!r} exited {code}"
            for label, code, _, _ in captures if code != 0]


def _group(src: str, files: dict[str, str], runs: list[tuple[str, list[str]]]):
    """Digest every command's capture and every file the runs leave; return
    the digest and the captures."""
    with tempfile.TemporaryDirectory() as work:
        captures = _run(src, files, runs, work)
        listing = []
        for i, (label, code, out, err) in enumerate(captures):
            capture = b"%d\n%s\n%s" % (code, out, err)
            listing.append(f"{_digest(capture)}  command {i}: {label}")
        for base, _, names in os.walk(work):
            for name in names:
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    listing.append(f"{_digest(fh.read())}  {os.path.relpath(path, work)}")
    return _digest("\n".join(sorted(listing)).encode()), captures


def _cli_groups() -> dict[str, dict[str, str]]:
    """Name -> the files written before the six CLI commands run on its config."""
    with open(os.path.join(ROOT, "demos", "configs", "stability.cfg"), encoding="utf-8") as fh:
        stability = fh.read()
    return {"stability": {"stability.cfg": stability},
            "logistic": {"gate.cfg": LOGISTIC, "data.csv": _classes_csv()},
            "least_squares": {"gate.cfg": LEAST_SQUARES},
            "offload": {"gate.cfg": OFFLOAD}}


# trace columns that must match exactly; every other column is compared numerically
EXACT_COLUMNS = ("iter", "n_grad", "lambda", "loss_eval_count")


def _read_traces(work: str) -> dict[str, tuple[list[str], list[str], list[list[str]]]]:
    """Relative path -> (header lines, column names, row cells) of every trace."""
    traces = {}
    for base, _, names in os.walk(work):
        for name in (n for n in names if n.endswith(".trace.csv")):
            path = os.path.join(base, name)
            with open(path, encoding="utf-8", newline="\n") as fh:
                lines = fh.read().splitlines()
            header = [line for line in lines if line.startswith("#")]
            table = [line.split(",") for line in lines if line and not line.startswith("#")]
            traces[os.path.relpath(path, work)] = (header, table[0], table[1:])
    return traces


def _read_texts(work: str) -> dict[str, list[str]]:
    """Relative path -> lines of every file but the traces."""
    texts = {}
    for base, _, names in os.walk(work):
        for name in (n for n in names if not n.endswith(".trace.csv")):
            path = os.path.join(base, name)
            with open(path, encoding="utf-8", newline="\n") as fh:
                texts[os.path.relpath(path, work)] = fh.read().splitlines()
    return texts


def _covered(line: str, header_keys: tuple[str, ...]) -> bool:
    """Whether a ``key = value`` line is under a listed trace header key:
    ``solver[2].x = 1`` and ``x = 1`` are under ``meta.x``."""
    key = line.partition(" = ")[0]
    return any(key == k or key.endswith("." + k)
               for k in (h.removeprefix("meta.") for h in header_keys))


def _text_changes(name: str, label: str, a: list[str], b: list[str],
                  header_keys: tuple[str, ...]) -> list[str]:
    """Print each line that differs between two versions of one output;
    return a problem if a listed key does not cover every such line."""
    uncovered = 0
    for line in difflib.unified_diff(a, b, lineterm="", n=0):
        if line.startswith(("---", "+++", "@@")):
            continue
        print(f"  {label}: {'parent' if line[0] == '-' else 'change'}: {line[1:]}")
        uncovered += not _covered(line[1:], header_keys)
    return [f"{name}: {label}: {uncovered} differing lines"] if uncovered else []


def _relative(a: str, b: str) -> float:
    """Relative difference of two numeric cells: 0 when they are equal, inf
    when exactly one is empty or non-finite."""
    if a == b:
        return 0.0
    if "" in (a, b):
        return math.inf
    x, y = float(a), float(b)
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _header_key(line: str) -> str:
    """The key of a trace header line: ``meta.budget`` of ``# meta.budget = 200``."""
    return line[2:].partition(" = ")[0]


def _compare_group(name: str, parent: str, src: str, files: dict[str, str],
                   header_keys: tuple[str, ...]) -> list[str]:
    """Run the group on both sides; print its per-column drift and the traces
    whose header lines under each of ``header_keys`` differ, and return what
    differs where it must not."""
    runs = _cli_runs(files)
    with tempfile.TemporaryDirectory() as work_a, tempfile.TemporaryDirectory() as work_b:
        caps_a, caps_b = _run(parent, files, runs, work_a), _run(src, files, runs, work_b)
        traces_a, traces_b = _read_traces(work_a), _read_traces(work_b)
        texts_a, texts_b = _read_texts(work_a), _read_texts(work_b)
    problems = _failures(f"parent {name}", caps_a) + _failures(name, caps_b)
    print(f"{name}:")
    for (label, code_a, out_a, err_a), (_, code_b, out_b, err_b) in zip(caps_a, caps_b):
        if (code_a, err_a) != (code_b, err_b):
            problems.append(f"{name}: command {label!r}: exit code or stderr differs")
        problems += _text_changes(name, f"stdout of {label!r}", out_a.decode().splitlines(),
                                  out_b.decode().splitlines(), header_keys)
    for path in sorted(texts_a.keys() | texts_b.keys()):
        problems += _text_changes(name, path, texts_a.get(path, []), texts_b.get(path, []),
                                  header_keys)
    if texts_a.keys() != texts_b.keys():
        problems.append(f"{name}: files differ: {sorted(texts_a.keys() ^ texts_b.keys())}")
    if traces_a.keys() != traces_b.keys():
        problems.append(f"{name}: trace files differ: {sorted(traces_a.keys() ^ traces_b.keys())}")
    drift: dict[str, tuple[float, str]] = {}
    changed = dict.fromkeys(header_keys, 0)
    for path in sorted(traces_a.keys() & traces_b.keys()):
        (head_a, cols, rows_a), (head_b, cols_b, rows_b) = traces_a[path], traces_b[path]
        for key in header_keys:
            changed[key] += ([line for line in head_a if _header_key(line) == key]
                             != [line for line in head_b if _header_key(line) == key])
        head_a, head_b = ([line for line in head if _header_key(line) not in header_keys]
                          for head in (head_a, head_b))
        if (head_a, cols, len(rows_a)) != (head_b, cols_b, len(rows_b)):
            problems.append(f"{name}: {path}: header, columns or row count differ")
            continue
        for k, (row_a, row_b) in enumerate(zip(rows_a, rows_b), start=1):
            for col, a, b in zip(cols, row_a, row_b):
                if col in EXACT_COLUMNS:
                    if a != b:
                        problems.append(f"{name}: {path}: row {k}: {col} {a} != {b}")
                elif _relative(a, b) > drift.get(col, (-1.0, ""))[0]:
                    drift[col] = (_relative(a, b), f"{path} row {k}")
    print(f"  {len(traces_a)} traces, {sum(len(t[2]) for t in traces_a.values())} rows")
    for col, (rel, where) in drift.items():
        print(f"  {col:<16} max relative difference {rel:.3g}" + (f"  ({where})" if rel else ""))
    for key, count in changed.items():
        print(f"  header {key} differs in {count} traces")
    return problems


def compare(parent: str, src: str, header_keys: tuple[str, ...]) -> int:
    """Compare mode: exit 0 when only the numeric columns and the header
    lines under ``header_keys`` moved, else 1."""
    problems = []
    for name, files in _cli_groups().items():
        problems += _compare_group(name, parent, src, files, header_keys)
    for problem in problems[:20]:
        print(f"DIFFERS {problem}")
    if len(problems) > 20:
        print(f"... and {len(problems) - 20} more")
    print("identical ledger, lambda, flags, notes, stderr, stdout and other outputs"
          if not problems else f"{len(problems)} differences")
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    header_keys: tuple[str, ...] = ()
    if len(argv) == 5 and argv[3] == "--header-changes":
        argv, header_keys = argv[:3], tuple(argv[4].split(","))
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(os.path.abspath(argv[1]), os.path.abspath(argv[2]), header_keys)
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    src = os.path.abspath(argv[0])
    groups = {name: _group(src, files, _cli_runs(files))
              for name, files in _cli_groups().items()}
    groups["demos"] = _group(src, {}, _demo_runs(src))
    lines = [f"{name} {digest}" for name, (digest, _) in groups.items()]
    print("\n".join(lines))
    print(f"overall {_digest(chr(10).join(lines).encode())}")
    failures = [line for name, (_, captures) in groups.items()
                for line in _failures(name, captures)]
    for line in failures:
        print(f"FAILED {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
