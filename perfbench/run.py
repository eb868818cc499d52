"""Benchmark of the myhpo package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``--workload all`` runs the three workloads one after another, each in its
own process, and ends with a table of us/iter by solver family. The package
is imported from the checkout's ``src``; BLAS is pinned to one thread. The
report goes to standard output; its last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of BENCHMARK.json, or its per-layer metrics with ``--trace 1``).
"""

import os
import sys

# before numpy is imported anywhere in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ls-stability", "logistic-784", "ls-exact-400")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    package = ROOT / "src" / "myhpo" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: {package} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        status, rows = 0, []
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            print(out.stdout, end="", flush=True)
            rows += [line for line in out.stdout.splitlines() if line.startswith("| ")]
            status = max(status, out.returncode)
        print("\nus/iter by solver family (BLAS pinned to one thread):")
        print("| workload | sho | myhpo_c | myhpo_bt | myhpo_full |")
        print("| --- | --- | --- | --- | --- |")
        print("\n".join(rows))
        return status

    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import myhpo

    if Path(myhpo.__file__).resolve() != package.resolve():
        print(f"perfbench: imported {myhpo.__file__}, expected {package}", file=sys.stderr)
        return 2
    from perfbench import harness

    return harness.measure(args.workload, args.seed, args.seconds, bool(args.trace), str(ROOT))


if __name__ == "__main__":
    sys.exit(main())
