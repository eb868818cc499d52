"""The demos and the command line, run end to end as separate processes.

Each runs in its own temporary working directory, where the demos and
``myhpo-bench run`` write their outputs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
STABILITY = ROOT / "demos" / "configs" / "stability.cfg"


def _run(cwd, *args):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    return subprocess.run([sys.executable, *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    out = _run(tmp_path, demo)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()


def test_validate_stability_config(tmp_path):
    out = _run(tmp_path, "-m", "myhpo", "validate", STABILITY)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert "solver[3].name = myhpo_bt" in lines
    assert "solver[4].n_t = 1000" in lines
    # the hash covers every resolved default
    assert lines[-1] == "config_hash = 11f7b391b5ec"


def test_run_stability_config(tmp_path):
    out = _run(tmp_path, "-m", "myhpo", "run", STABILITY)
    assert out.returncode == 0, out.stderr
    assert "wrote 60 trace file(s) to bench_out/stability" in out.stdout
    written = os.listdir(tmp_path / "bench_out" / "stability")
    assert sum(name.endswith(".trace.csv") for name in written) == 60
    assert {"config_resolved.txt", "summary.csv", "summary.txt"} <= set(written)
