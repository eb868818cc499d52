"""Command-line benchmark harness.

Subcommands: ``run`` (execute a config), ``validate`` (parse and echo a
config), ``summarize`` (aggregate trace files in a directory), ``curves``
(long-format loss curves from trace files), ``gradcheck`` (finite
difference suite). Exit codes: 0 success, 1 config or check failure,
2 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from inspect import signature
from pathlib import Path

from . import bench
from .gradcheck import run_gradcheck


def _config(args) -> bench.ExperimentConfig:
    cfg = bench.parse_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _write_summary(summary, directory) -> None:
    """Write ``summary.csv`` and ``summary.txt`` to ``directory`` and print the text."""
    text = bench.render_summary(summary, "aligned-text")
    Path(directory, "summary.csv").write_text(bench.render_summary(summary, "csv"), "utf-8")
    Path(directory, "summary.txt").write_text(text, "utf-8")
    print(text, end="")


def _cmd_run(args) -> int:
    cfg = _config(args)
    traces, summary = bench.run_experiment(cfg)
    _write_summary(summary, cfg.output_dir)
    print(f"wrote {len(traces)} trace file(s) to {cfg.output_dir}")
    return 0


def _cmd_validate(args) -> int:
    print(_config(args).resolved_text(), end="")
    return 0


def _cmd_summarize(args) -> int:
    traces = bench.read_traces(args.directory)
    if not traces:
        print(f"no trace files under {args.directory}", file=sys.stderr)
        return 2
    _write_summary(bench.summarize_traces(traces), args.directory)
    if args.reference:
        print()
        print(bench.render_reference(args.reference), end="")
    return 0


def _cmd_curves(args) -> int:
    traces = bench.read_traces(args.directory)
    if not traces:
        print(f"no trace files under {args.directory}", file=sys.stderr)
        return 2
    path = os.path.join(args.directory, f"curves_{args.x}.csv")
    Path(path).write_text(bench.render_curves(traces, args.x), "utf-8")
    print(f"wrote {path}")
    return 0


def _cmd_gradcheck(args) -> int:
    report = run_gradcheck(n_instances=args.instances, seed=args.seed or 0)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="myhpo-bench",
        description="budgeted hyperparameter-optimization benchmark harness",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config base seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run an experiment config")
    p.add_argument("config")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("validate", help="parse a config and echo resolved values")
    p.add_argument("config")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("summarize", help="aggregate trace files in a directory")
    p.add_argument("directory")
    p.add_argument("--reference", default=None,
                   help="also print published reference values for this dataset")
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("curves", help="emit long-format loss curves")
    p.add_argument("directory")
    p.add_argument("--x", choices=("iter", "n_grad"), default="n_grad")
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("gradcheck", help="run the finite-difference gradient suite")
    p.add_argument("--instances", type=int,
                   default=signature(run_gradcheck).parameters["n_instances"].default)
    p.set_defaults(func=_cmd_gradcheck)

    args = parser.parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:  # before any subcommand reads it
            raise bench.SchemaError("--seed", f"must be nonnegative, got {args.seed}")
        return args.func(args)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
