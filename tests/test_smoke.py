"""The demos, the README quickstart and the command line, run end to end as
separate processes.

Each runs in its own temporary working directory, where the demos and
``myhpo-bench run`` write their outputs.
"""

import os
import re
import subprocess
import sys
import textwrap
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


def test_readme_quickstart_runs(tmp_path):
    """The ``python`` blocks under "Library quickstart" run as one script."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    out = _run(tmp_path, "-c", "\n".join(blocks))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "True"


def test_validate_stability_config(tmp_path):
    out = _run(tmp_path, "-m", "myhpo", "validate", STABILITY)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert "solver[3].name = myhpo_bt" in lines
    assert "solver[4].n_t = 1000" in lines
    # the hash covers every resolved default
    assert lines[-1] == "config_hash = f317f4108287"


def test_run_stability_config(tmp_path):
    out = _run(tmp_path, "-m", "myhpo", "run", STABILITY)
    assert out.returncode == 0, out.stderr
    assert "wrote 60 trace file(s) to bench_out/stability" in out.stdout
    written = os.listdir(tmp_path / "bench_out" / "stability")
    assert sum(name.endswith(".trace.csv") for name in written) == 60
    assert {"config_resolved.txt", "summary.csv", "summary.txt"} <= set(written)


# refuses scipy, imports every module, runs ``python -m myhpo gradcheck`` and
# one logistic full step, whose gradient and lam curvature need the sigmoid
NUMPY_ONLY = textwrap.dedent("""
    import importlib, importlib.abc, pkgutil, runpy, sys

    class RefuseScipy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] == "scipy":
                raise ImportError(f"{name} is refused")

    sys.meta_path.insert(0, RefuseScipy())
    import numpy as np
    import myhpo
    for info in pkgutil.iter_modules(myhpo.__path__):
        if info.name != "__main__":
            importlib.import_module(f"myhpo.{info.name}")
    sys.argv = ["myhpo", "gradcheck", "--instances", "4"]
    try:
        runpy.run_module("myhpo", run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0, exc.code
    rng = np.random.default_rng(0)
    x = rng.standard_normal((12, 3))
    y = np.where(x @ np.array([1.0, -1.0, 0.5]) > 0, 1.0, -1.0)
    train, val = myhpo.Dataset(x, y, "train"), myhpo.Dataset(x[:6], y[:6], "validation")
    state, _ = myhpo.my_step_full(myhpo.MyhpoState.initial(3), myhpo.LossSpec("logistic"),
                                  train, val, myhpo.MyhpoConfig(variant="full"))
    assert np.isfinite(state.lam) and state.grad_count > 2
    assert not [name for name in sys.modules if name.partition(".")[0] == "scipy"]
""")


def test_runs_without_scipy(tmp_path):
    out = _run(tmp_path, "-c", NUMPY_ONLY)
    assert out.returncode == 0, out.stderr
    assert "gradient check" in out.stdout


# the stratified label check avoids np.unique, whose first call imports
# numpy.ma: a module imported in the middle of the first split leaves its
# objects on the heap between the table's buffers
SPLIT_IMPORTS = textwrap.dedent("""
    import sys
    import numpy as np
    import numpy.random
    from myhpo import data

    table = data.RawTable(np.ones((8, 2)), np.array([1.0, -1.0] * 4))
    before = set(sys.modules)
    data.split(table, data.SplitSpec(counts=(4, 2, 2), seed=0, stratified=True))
    assert set(sys.modules) == before, sorted(set(sys.modules) - before)
""")


def test_stratified_split_imports_no_module(tmp_path):
    out = _run(tmp_path, "-c", SPLIT_IMPORTS)
    assert out.returncode == 0, out.stderr
