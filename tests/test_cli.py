import contextlib
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from myhpo.bench import SOLVER_NAMES
from myhpo.cli import main

CONFIG = """
problem.kind = synthetic
problem.n = 24
problem.d = 4
problem.kappa = 50.0
budget_n_g = 100
repetitions = 2
output_dir = {out}
solver[0].name = sho
solver[1].name = myhpo_bt
"""


def write_config(tmp_path, text=None):
    path = tmp_path / "exp.cfg"
    path.write_text(text or CONFIG.format(out=tmp_path / "out"))
    return path


def test_run_and_summarize_and_curves(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", str(cfg)]) == 0
    out_dir = tmp_path / "out"
    names = os.listdir(out_dir)
    assert sum(n.endswith(".trace.csv") for n in names) == 4
    assert "summary.csv" in names and "summary.txt" in names
    assert "config_resolved.txt" in names
    run_output = capsys.readouterr().out
    assert "myhpo_bt" in run_output

    assert main(["summarize", str(out_dir)]) == 0
    assert "sho" in capsys.readouterr().out

    assert main(["curves", str(out_dir), "--x", "iter"]) == 0
    capsys.readouterr()
    assert (out_dir / "curves_iter.csv").exists()


def test_validate_echoes_resolved_config(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["validate", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "solver[1].rho = 1.0" in out
    assert "config_hash" in out


def test_seed_override(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["--seed", "99", "validate", str(cfg)]) == 0
    assert "seed = 99" in capsys.readouterr().out


def _hash(out):
    return [line for line in out.splitlines() if line.startswith("config_hash = ")]


def test_seed_override_rehashes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["--seed", "7", "validate", str(cfg)]) == 0
    overridden = capsys.readouterr().out
    seeded = write_config(tmp_path, CONFIG.format(out=tmp_path / "out") + "seed = 7\n")
    assert main(["validate", str(seeded)]) == 0
    from_file = capsys.readouterr().out
    assert overridden == from_file
    assert main(["validate", str(write_config(tmp_path))]) == 0
    assert _hash(capsys.readouterr().out) != _hash(from_file)


def test_run_seed_override_writes_its_hash(tmp_path, capsys):
    assert main(["--seed", "7", "run", str(write_config(tmp_path))]) == 0
    seeded = write_config(tmp_path, CONFIG.format(out=tmp_path / "out") + "seed = 7\n")
    capsys.readouterr()
    assert main(["validate", str(seeded)]) == 0
    expected = _hash(capsys.readouterr().out)[0]
    out_dir = tmp_path / "out"
    assert (out_dir / "config_resolved.txt").read_text().splitlines()[-1] == expected
    header = (out_dir / "sho__rep000.trace.csv").read_text()
    assert f"# meta.{expected}" in header


def test_constant_regression_targets_exit_code(tmp_path, capsys):
    data = tmp_path / "flat.csv"
    data.write_text("x,y\n" + "".join(f"{i},1.5\n" for i in range(12)))
    text = (f"problem.kind = csv\nproblem.path = {data}\nproblem.target = y\n"
            f"budget_n_g = 10\noutput_dir = {tmp_path / 'out'}\nsolver[0].name = sho\n")
    assert main(["run", str(write_config(tmp_path, text))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: train split targets are constant")


@pytest.mark.parametrize("data_file, code, error", [
    ("normal.csv", 1, "config error: stratified splits require -1/+1 labels"),
    ("missing.csv", 2, "i/o error:"),
])
def test_a_run_that_fails_on_its_data_writes_nothing(tmp_path, capsys, data_file, code, error):
    """The checks that need the table run before ``output_dir`` is created."""
    rng = np.random.default_rng(0)
    (tmp_path / "normal.csv").write_text(
        "x0,x1,y\n" + "".join(",".join(map(str, row)) + "\n"
                              for row in rng.standard_normal((40, 3)).tolist()))
    text = (f"problem.kind = csv\nproblem.path = {tmp_path / data_file}\nproblem.target = y\n"
            f"problem.stratified = true\nbudget_n_g = 10\noutput_dir = {tmp_path / 'out'}\n"
            "solver[0].name = sho\n")
    cfg = write_config(tmp_path, text)
    assert main(["validate", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["run", str(cfg)]) == code
    assert capsys.readouterr().err.startswith(error)
    assert not (tmp_path / "out").exists()


def test_truncated_trace_exit_code(tmp_path, capsys):
    main(["run", str(write_config(tmp_path))])
    capsys.readouterr()
    trace = tmp_path / "out" / "sho__rep000.trace.csv"
    trace.write_bytes(trace.read_bytes()[:-30])
    assert main(["summarize", str(tmp_path / "out")]) == 1
    assert "sho__rep000.trace.csv: trace row" in capsys.readouterr().err


@pytest.mark.parametrize("cut", ["meta-line", "empty"])
def test_trace_cut_in_header_exit_code(tmp_path, capsys, cut):
    main(["run", str(write_config(tmp_path))])
    capsys.readouterr()
    trace = tmp_path / "out" / "sho__rep000.trace.csv"
    blob = trace.read_bytes()
    trace.write_bytes(blob[:blob.index(b"# meta.budget") + 10] if cut == "meta-line" else b"")
    assert main(["summarize", str(tmp_path / "out")]) == 1
    assert "sho__rep000.trace.csv: the trace ends before its column line" in capsys.readouterr().err


@pytest.mark.parametrize("name, param", [
    ("myhpo_c", "rho = -1"), ("random", "lo = 6"), ("myhpo_bt", "max_iters = 0"),
    ("myhpo_bt", "max_halvings = 0"), ("myhpo_c", "eps_tol = 0"),
])
def test_bad_solver_params_exit_before_writing(tmp_path, capsys, name, param):
    text = CONFIG.format(out=tmp_path / "out").replace("name = sho", f"name = {name}")
    bad = write_config(tmp_path, text + f"solver[0].{param}\n")
    for command in ("validate", "run"):
        assert main([command, str(bad)]) == 1
        assert capsys.readouterr().err.startswith("config error: solver[0]: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra, key", [
    pytest.param(f"solver[2].name = {name}\nsolver[2].label = unread\nsolver[2].{key} = {value}",
                 f"solver[2].{key}", id=f"{name}-{key}")
    for name, key, value in [
        ("myhpo_c", "max_halvings", "5"), ("myhpo_c", "inner_tol", "1e-3"),
        ("myhpo_c", "inner_max_iters", "3"), ("myhpo_bt", "inner_tol", "1e-3"),
        ("myhpo_bt", "inner_max_iters", "3"), ("myhpo_full", "alpha", "0.7"),
        ("myhpo_full", "beta", "0.7"), ("myhpo_full", "max_halvings", "5"),
        ("myhpo_full", "fresh_w_gradient", "true"),
    ]
] + [
    pytest.param("problem.stratified = true", "problem.stratified", id="synthetic-stratified"),
    pytest.param("problem.counts = 12,6,6\nproblem.train_fraction = 0.4",
                 "problem.train_fraction", id="counts-train-fraction"),
    pytest.param("problem.counts = 12,6,6\nproblem.val_fraction = 0.3",
                 "problem.val_fraction", id="counts-val-fraction"),
])
def test_unread_values_exit_before_writing(tmp_path, capsys, extra, key):
    """A value that nothing reads fails like any bad value: exit 1, no file."""
    bad = write_config(tmp_path, CONFIG.format(out=tmp_path / "out") + extra + "\n")
    for command in ("validate", "run"):
        assert main([command, str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["config", "override"])
def test_negative_seed_exits_before_writing(tmp_path, capsys, where):
    text = CONFIG.format(out=tmp_path / "out")
    if where == "config":
        args, key, text = [], "seed", text + "seed = -1\n"
    else:
        args, key = ["--seed", "-1"], "--seed"
    bad = write_config(tmp_path, text)
    for command in ([*args, "validate", str(bad)], [*args, "run", str(bad)]):
        assert main(command) == 1
        assert capsys.readouterr().err == f"config error: {key}: must be nonnegative, got -1\n"
    assert not (tmp_path / "out").exists()
    if where == "override":
        assert main(["--seed", "-1", "gradcheck", "--instances", "2"]) == 1
        assert capsys.readouterr().err == "config error: --seed: must be nonnegative, got -1\n"


@pytest.mark.parametrize("instances", ["0", "-3", "1"])
def test_gradcheck_refuses_fewer_instances_than_losses(capsys, instances):
    assert main(["gradcheck", "--instances", instances]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: gradcheck needs at least 2 instances "
                            f"(one per loss), got {instances}\n")


def test_wrong_trace_columns_exit_code(tmp_path, capsys):
    main(["run", str(write_config(tmp_path))])
    capsys.readouterr()
    trace = tmp_path / "out" / "sho__rep000.trace.csv"
    trace.write_text(trace.read_text().replace("iter,n_grad,lambda,", "iter,n_grad,lam,"))
    assert main(["summarize", str(tmp_path / "out")]) == 1
    assert "unexpected trace columns in" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, reason", [
    ("kappa = 50.0", "kappa = 0.5", "kappa must be at least 1"),
    ("kappa = 50.0", "noise_std = -1", "noise_std must be nonnegative"),
    ("n = 24\nproblem.d = 4", "n = 4\nproblem.d = 5", "need n >= d for a full-rank design"),
    ("d = 4", "d = 0", "d must be at least 1"),
    ("kappa = 50.0", "train_fraction = 0.9", "train and validation fractions must sum below 1"),
    ("kappa = 50.0", "val_fraction = 0", "fractions must lie in (0, 1)"),
], ids=["kappa", "noise-std", "n-below-d", "no-feature", "fraction-sum", "fraction-range"])
def test_bad_problem_values_exit_before_writing(tmp_path, capsys, old, new, reason):
    text = CONFIG.format(out=tmp_path / "out").replace(f"problem.{old}\n", f"problem.{new}\n")
    bad = write_config(tmp_path, text)
    for command in ("validate", "run"):
        assert main([command, str(bad)]) == 1
        assert capsys.readouterr().err == f"config error: problem: {reason}\n"
    assert not (tmp_path / "out").exists()


def test_counts_past_a_synthetic_table_exit_before_writing(tmp_path, capsys):
    text = CONFIG.format(out=tmp_path / "out").replace("problem.n = 24", "problem.n = 60")
    bad = write_config(tmp_path, text + "problem.counts = 100,100,100\n")
    for command in ("validate", "run"):
        assert main([command, str(bad)]) == 1
        assert capsys.readouterr().err == ("config error: problem.counts: split sizes "
                                           "(100, 100, 100) exceed 60 rows\n")
    assert not (tmp_path / "out").exists()


def _validate(path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["validate", str(path)]) == 0
    return out.getvalue()


def test_counts_echo_as_written(tmp_path):
    cfg = write_config(tmp_path, CONFIG.format(out="out") + "problem.counts = 12, 6,6\n")
    assert "problem.counts = 12,6,6\n" in _validate(cfg)


@settings(max_examples=40, deadline=None)
@given(names=st.lists(st.sampled_from(SOLVER_NAMES), min_size=1, max_size=4),
       labels=st.lists(st.from_regex(r"[A-Za-z0-9_.-]{1,10}", fullmatch=True),
                       min_size=4, max_size=4, unique=True),
       seed=st.integers(0, 2**31), budget=st.integers(2, 10**6),
       counts=st.none() | st.lists(st.integers(1, 10**4), min_size=3, max_size=3))
def test_validate_echo_parses_back(names, labels, seed, budget, counts):
    # counts past the table's rows are a config error
    n = 30 if counts is None else max(30, sum(counts))
    lines = ["problem.kind = synthetic", f"problem.n = {n}", "problem.d = 4",
             f"budget_n_g = {budget}", f"seed = {seed}"]
    if counts is not None:
        lines.append("problem.counts = " + ",".join(map(str, counts)))
    for i, name in enumerate(names):
        lines += [f"solver[{i}].name = {name}", f"solver[{i}].label = {labels[i]}"]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exp.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        echo = _validate(path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(echo[:echo.rindex("config_hash = ")])
        assert _validate(path) == echo


def test_config_error_exit_code(tmp_path, capsys):
    bad = write_config(tmp_path, CONFIG.format(out=tmp_path / "o") + "solver[0].gamma = 1\n")
    assert main(["run", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


def test_unknown_solver_exit_code(tmp_path, capsys):
    bad = write_config(tmp_path, CONFIG.format(out=tmp_path / "o").replace("sho", "adam"))
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err == (
        "config error: solver[0].name: 'adam' is not one of "
        "('sho', 'myhpo_c', 'myhpo_bt', 'myhpo_full', 'random', 'grid')\n")


def test_io_error_exit_code(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()


def test_summarize_empty_dir(tmp_path, capsys):
    os.makedirs(tmp_path / "empty")
    assert main(["summarize", str(tmp_path / "empty")]) == 2
    capsys.readouterr()
    assert main(["curves", str(tmp_path / "empty")]) == 2
    assert capsys.readouterr().err.startswith("no trace files under ")


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--instances", "40"]) == 0
    out = capsys.readouterr().out
    assert "gradient check" in out
    assert "FAIL" not in out


def test_summarize_with_reference(tmp_path, capsys):
    cfg = write_config(tmp_path)
    main(["run", str(cfg)])
    capsys.readouterr()
    assert main(["summarize", str(tmp_path / "out"), "--reference", "cookie"]) == 0
    assert "published reference values" in capsys.readouterr().out
