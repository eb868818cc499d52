"""Benchmark of the myhpo package; run it with ``python3 perfbench/run.py``."""
