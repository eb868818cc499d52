"""Paired benchmark runs of a parent checkout and a change checkout.

Usage::

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    python3 tools/bench_pairs.py ../parent . --workload ls-stability \\
        --seeds 20-29 --seconds 35 --out BENCH_<n>.json

runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0|1`` in
each checkout, one run at a time, the workloads in the order given and, per
workload, the seeds in order. On an even seed the parent runs first, on an
odd seed the change. Each run's last output line (its JSON result) is kept,
with the pool entries its untimed report says it covered.

The output file holds ``runs`` (every run, in the order they ran) and
``summary``: per workload (``"<workload> --trace 1"`` for traced runs), the
paired seeds and, per metric, both sides' values by seed, their medians and
quartiles (``statistics.quantiles``, inclusive), the relative change of the
change's median (``median_worse_by``, positive when worse in the metric's
``BENCHMARK.json`` direction), the median over pairs of change / parent
(``pair_ratio_median``, which drift between pairs moves less; None if a
parent value is 0), the parent's interquartile range, the pairs the change
won (ties count for neither side) and, for an end-to-end metric, whether
``median_worse_by`` is within its bound and a ``verdict``: ``unresolved``
when the parent's interquartile range exceeds the bound, relative to its
median, and not every change run beats every parent run; otherwise
``worse`` when ``median_worse_by`` exceeds the bound; otherwise
``within_bound``. A pair whose two runs
covered different pool entries is reported on stderr and listed under
``warnings``: its metrics average different inputs. An existing output file
is extended: its runs are kept, and the summary is made over all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POOL_LINE = re.compile(r"inputs: pool entries (\[[0-9, ]*\])")
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``"20-29"``, ``"3,11,20"`` or a mix of both."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``checkout``: its JSON result and pool entries."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
    lines = out.stdout.splitlines()
    if out.returncode or not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {out.returncode}:\n"
                         f"{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    pools = [json.loads(m[1]) for m in map(POOL_LINE.search, lines) if m]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "pool_entries": pools[0] if pools else None,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def _verdict(parent: list[float], change: list[float], sign: float, worse, bound) -> str | None:
    """Whether an end-to-end metric is ``unresolved``, ``worse`` or ``within_bound``."""
    if bound is None or worse is None:
        return None
    p_q = _quartiles(parent)
    spread = (p_q[1] - p_q[0]) / abs(statistics.median(parent))
    if spread > bound and not all(sign * (c - p) < 0 for c in change for p in parent):
        return "unresolved"
    return "worse" if worse > bound else "within_bound"


def summarize(runs: list[dict], contract: dict) -> tuple[dict, list[str]]:
    """The per-workload summary of the paired runs, and the coverage warnings."""
    rules = {m["name"]: (m["better"], m.get("bound"))
             for m in contract["end_to_end"] + contract["per_layer"]}
    groups: dict[tuple, dict] = {}
    for run in runs:
        by_seed = groups.setdefault((run["workload"], run["trace"]), {})
        by_seed.setdefault(run["seed"], {})[run["side"]] = run
    summary, warnings = {}, []
    for (workload, trace), by_seed in groups.items():
        pairs = {seed: pair for seed, pair in sorted(by_seed.items()) if len(pair) == 2}
        if not pairs:
            continue
        key = f"{workload} --trace 1" if trace else workload
        for seed, pair in pairs.items():
            parent, change = (pair[side]["pool_entries"] for side in SIDES)
            if parent != change:
                warnings.append(f"{key} seed {seed}: the parent covered pool entries {parent}, "
                                f"the change {change}")
        metrics = {}
        for name in next(iter(pairs.values()))["parent"]["metrics"]:
            better, bound = rules.get(name, ("lower", None))
            sign = 1.0 if better == "lower" else -1.0
            parent = [pair["parent"]["metrics"][name] for pair in pairs.values()]
            change = [pair["change"]["metrics"][name] for pair in pairs.values()]
            p_med, c_med = statistics.median(parent), statistics.median(change)
            p_q, c_q = _quartiles(parent), _quartiles(change)
            worse = sign * (c_med - p_med) / abs(p_med) if p_med else None
            ratio = (statistics.median(c / p for p, c in zip(parent, change))
                     if all(parent) else None)
            metrics[name] = {
                "parent": parent, "change": change,
                "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
                "parent_median": p_med, "change_median": c_med,
                "parent_q1_q3": p_q, "change_q1_q3": c_q,
                "median_worse_by": worse, "pair_ratio_median": ratio,
                "parent_iqr": p_q[1] - p_q[0],
                "bound": bound,
                "within_bound": None if bound is None or worse is None else worse <= bound,
                "verdict": _verdict(parent, change, sign, worse, bound),
            }
        summary[key] = {"pairs": len(pairs), "seeds": list(pairs), "metrics": metrics}
    return summary, warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help='e.g. "20-29"')
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="the JSON file to write or extend")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    doc = {"runs": []}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    checkouts = {"parent": args.parent, "change": args.change}
    for workload in args.workload:
        for seed in args.seeds:
            order = SIDES if seed % 2 == 0 else SIDES[::-1]
            for k, side in enumerate(order):
                run = {"workload": workload, "seed": seed, "side": side, "ran_first": k == 0,
                       "trace": args.trace, "seconds": args.seconds}
                run.update(run_once(checkouts[side], workload, seed, args.seconds, args.trace))
                doc["runs"].append(run)
                print(f"{workload} seed {seed} {side}: correct {run['correct']}, failed "
                      f"{run['failed']}, pool entries {run['pool_entries']}", file=sys.stderr)
                doc["summary"], doc["warnings"] = summarize(doc["runs"], contract)
                with open(args.out, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh, indent=1)
                    fh.write("\n")
    for warning in doc.get("warnings", []):
        print(f"warning: {warning}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
