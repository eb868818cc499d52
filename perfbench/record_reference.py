"""Regenerate reference.json from the current program.

    python3 perfbench/record_reference.py

It records the ledger, divergence flag and final losses of every run the
benchmark can make (every pool entry of every workload). Regenerate it only
for a change that is meant to alter results, and say so with the change.
"""

import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks  # noqa: E402
from perfbench.workloads import POOL, WORKLOADS  # noqa: E402


def main() -> int:
    os.chdir(ROOT)
    workdir = os.path.join(".perfbench_tmp", "record")  # relative: see harness.measure
    reference = {}
    for name, wl in WORKLOADS.items():
        # a stability input index i runs seeds i .. i + 9, so every tenth
        # index covers the seeds of the whole pool
        indices = range(0, POOL + 9, 10) if name == "ls-stability" else range(POOL)
        entries = {}
        for index in indices:
            rep = wl.execute(wl.prepare(index, workdir))
            shutil.rmtree(workdir, ignore_errors=True)
            for r in rep.records:
                if r.error:
                    raise RuntimeError(f"{name} {r.key}: {r.error}")
                entries[r.key] = checks.outcome(r.trace)
        reference[name] = entries
        print(f"{name}: {len(entries)} runs", file=sys.stderr)
    with contextlib.suppress(OSError):
        os.rmdir(".perfbench_tmp")
    lines = []
    for name, entries in reference.items():
        body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items())
        lines.append(f" {json.dumps(name)}: {{\n{body}\n }}")
    checks.REFERENCE_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
