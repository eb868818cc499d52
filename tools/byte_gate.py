"""Byte gate: one digest over every output the CLI and the demos write, per group.

Usage::

    python3 tools/byte_gate.py SRC

runs the package under ``SRC`` (``PYTHONPATH=SRC``, ``OPENBLAS_NUM_THREADS=1``)
in four groups, each in a fresh temporary directory:

- ``stability``, ``logistic``, ``least_squares``: ``python -m myhpo`` on
  ``demos/configs/stability.cfg`` and on two gate configs this script
  writes, a logistic csv problem and a synthetic least-squares problem,
  with a relative ``output_dir`` and relative data paths, through ``run``,
  ``summarize``, ``curves --x iter``, ``curves --x n_grad``, ``validate``
  and ``--seed 7 validate``;
- ``demos``: every ``*.py`` script in ``SRC/../demos``, the demos of the
  checkout that owns ``SRC``, so each side runs its own calls into the
  Python API.

The script prints one sha256 per group, over every file left in its
directory and every command's exit code, stdout and stderr, then one
overall sha256 over those lines. Two checkouts that print the same digests
wrote byte-identical outputs.

Compare a change with its parent::

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    python3 tools/byte_gate.py ../parent/src
    python3 tools/byte_gate.py src
"""

from __future__ import annotations

import hashlib
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

# the full variant plain, with a fresh w gradient and decoupled (rho = 0),
# diverging runs, diverging search candidates and a halving myhpo_bt
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
solver[1].label = full-fresh
solver[1].fresh_w_gradient = true
solver[2].name = myhpo_full
solver[2].label = full-rho0
solver[2].rho = 0
solver[3].name = myhpo_c
solver[3].label = c-fresh
solver[3].fresh_w_gradient = true
solver[4].name = sho
solver[4].label = sho-diverge
solver[4].alpha = 50
solver[4].beta = 50
solver[5].name = myhpo_c
solver[5].label = c-diverge
solver[5].alpha = 50
solver[5].beta = 50
solver[5].delta = 50
solver[6].name = random
solver[6].n_s = 4
solver[6].alpha_train = 100
solver[7].name = myhpo_bt
solver[7].label = bt-halving
solver[7].alpha = 2
solver[7].beta = 2
solver[7].delta = 20
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


def _cli_runs(cfg: str) -> list[tuple[str, list[str]]]:
    """The six CLI commands on ``cfg``, labelled by their arguments."""
    commands = [["run", cfg], ["summarize", "out"], ["curves", "out", "--x", "iter"],
                ["curves", "out", "--x", "n_grad"], ["validate", cfg],
                ["--seed", "7", "validate", cfg]]
    return [(" ".join(args), ["-m", "myhpo", *args]) for args in commands]


def _demo_runs(src: str) -> list[tuple[str, list[str]]]:
    """Each demo script of the checkout that owns ``src``, labelled by file name."""
    demos = os.path.join(os.path.dirname(src), "demos")
    return [(name, [os.path.join(demos, name)])
            for name in sorted(os.listdir(demos)) if name.endswith(".py")]


def _group(src: str, files: dict[str, str], runs: list[tuple[str, list[str]]]) -> str:
    """Write ``files``, run each ``(label, python arguments)`` of ``runs`` and
    digest what they leave."""
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory() as work:
        for name, text in files.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        listing = []
        for i, (label, args) in enumerate(runs):
            done = subprocess.run([sys.executable, *args], cwd=work, env=env,
                                  capture_output=True)
            capture = b"%d\n%s\n%s" % (done.returncode, done.stdout, done.stderr)
            listing.append(f"{_digest(capture)}  command {i}: {label}")
        for base, _, names in os.walk(work):
            for name in names:
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    listing.append(f"{_digest(fh.read())}  {os.path.relpath(path, work)}")
    return _digest("\n".join(sorted(listing)).encode())


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    src = os.path.abspath(argv[0])
    with open(os.path.join(ROOT, "demos", "configs", "stability.cfg"), encoding="utf-8") as fh:
        stability = fh.read()
    groups = {
        "stability": _group(src, {"stability.cfg": stability}, _cli_runs("stability.cfg")),
        "logistic": _group(src, {"gate.cfg": LOGISTIC, "data.csv": _classes_csv()},
                           _cli_runs("gate.cfg")),
        "least_squares": _group(src, {"gate.cfg": LEAST_SQUARES}, _cli_runs("gate.cfg")),
        "demos": _group(src, {}, _demo_runs(src)),
    }
    lines = [f"{name} {digest}" for name, digest in groups.items()]
    print("\n".join(lines))
    print(f"overall {_digest(chr(10).join(lines).encode())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
