"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They take about a minute: every workload is run briefly, traced and
untraced.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_emits_every_metric_with_its_unit(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = _result(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = CONTRACT["per_layer" if trace == "1" else "end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    report = out.stdout.splitlines()[:-1]
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in report), name
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("field, change", [(1, lambda n: n + 2),  # n_grad
                                           (5, lambda v: v * (1 + 1e-5))])  # val loss
def test_wrong_reference_value_is_counted_in_error_frac(monkeypatch, capsys, field, change):
    from perfbench import checks, harness

    reference = checks.load_reference()
    entry = reference["logistic-784"]["3/myhpo_bt"]
    entry[field] = change(entry[field])
    monkeypatch.setattr(checks, "load_reference", lambda: reference)
    monkeypatch.chdir(ROOT)
    harness.measure("logistic-784", 3, 0.01, False, str(ROOT))
    out = capsys.readouterr().out
    result = _result(out)
    # the warm-up and the one timed repetition both run input 3
    assert result["failed"] == 2 and not result["correct"]
    assert f"error_frac {2 / result['attempted']:g} ratio" in " ".join(out.split())


def test_raising_repetition_counts_every_run_as_failed(monkeypatch, capsys):
    from perfbench import harness
    from perfbench.workloads import WORKLOADS as LOADS

    def broken(inputs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(LOADS["ls-exact-400"], "execute", broken)
    monkeypatch.chdir(ROOT)
    harness.measure("ls-exact-400", 0, 0.01, False, str(ROOT))
    result = _result(capsys.readouterr().out)
    # warm-up and one timed repetition, two runs each
    assert result["attempted"] == 4 and result["failed"] == 4 and not result["correct"]


def test_loss_within_tolerance_passes():
    from perfbench import checks
    from perfbench.workloads import WORKLOADS as LOADS

    wl = LOADS["ls-exact-400"]
    rep = wl.execute(wl.prepare(4, ""))
    reference = checks.load_reference()["ls-exact-400"]
    assert checks.verify(rep, reference) == ["", ""]
    nudged = {k: v[:4] + [x * (1 + checks.LOSS_RTOL / 10) for x in v[4:]]
              for k, v in reference.items()}
    assert checks.verify(rep, nudged) == ["", ""]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
