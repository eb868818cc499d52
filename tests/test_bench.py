import csv
import dataclasses
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from myhpo import bench
from myhpo.bench import (
    SchemaError,
    SummaryTable,
    parse_config_text,
    read_traces,
    render_curves,
    render_reference,
    render_summary,
    run_experiment,
    summarize_traces,
)
from myhpo.data import ZeroVariance
from myhpo.moreau import MyhpoConfig
from myhpo.trace import TRACE_COLUMNS, RunTrace, TraceRow
from conftest import TRACE_ROW_CELLS

MINIMAL = """
problem.kind = synthetic
problem.n = 24
problem.d = 4
budget_n_g = 100
solver[0].name = myhpo_bt
"""

TWO_SOLVERS = """
# synthetic ridge comparison
problem.kind = synthetic
problem.n = 30
problem.d = 5
problem.kappa = 100.0
problem.noise_std = 0.2
budget_n_g = 200
repetitions = 2
seed = 11
output_dir = {out}
solver[0].name = sho
solver[0].alpha = 0.05
solver[1].name = myhpo_bt
solver[1].delta = 1.0
solver[2].name = grid
solver[2].n_s = 2
solver[2].alpha_train = 0.05
"""

CSV = """
problem.kind = csv
problem.path = data.csv
problem.target = y
budget_n_g = 100
solver[0].name = sho
"""


IDX = """
problem.kind = idx
problem.images = images.idx
problem.labels = labels.idx
budget_n_g = 100
solver[0].name = sho
"""

# (solver, key, a value other than the default) for each field the solver never reads
UNREAD_VALUES = [
    ("myhpo_c", "max_halvings", "5"), ("myhpo_c", "inner_tol", "1e-3"),
    ("myhpo_c", "inner_max_iters", "3"), ("myhpo_bt", "inner_tol", "1e-3"),
    ("myhpo_bt", "inner_max_iters", "3"), ("myhpo_full", "alpha", "0.7"),
    ("myhpo_full", "beta", "0.7"), ("myhpo_full", "max_halvings", "5"),
]
# a field MyhpoConfig no longer has: an unknown key like any other
REMOVED_FIELD = ("myhpo_full", "fresh_w_gradient", "true")
COUNTS = MINIMAL + "problem.counts = 12,6,6\n"


class TestParseConfig:
    def test_minimal_config_fills_documented_defaults(self):
        cfg = parse_config_text(MINIMAL)
        block = cfg.solvers[0]
        assert block.params["rho"] == 1.0
        assert block.params["lambda0"] == -1.0
        assert block.params["max_iters"] == 50  # budget // 2
        assert cfg.repetitions == 1
        assert cfg.problem["loss"] == "least_squares"
        assert cfg.problem["train_fraction"] == 0.5
        assert cfg.config_hash

    def test_sho_and_search_defaults(self):
        cfg = parse_config_text(MINIMAL + "solver[1].name = sho\nsolver[2].name = random\n")
        assert cfg.solvers[1].params["sigma"] == 1e-4
        assert cfg.solvers[1].params["beta"] == 0.01
        assert cfg.solvers[2].params["lo"] == -10.0
        assert cfg.solvers[2].params["hi"] == 5.0
        assert cfg.solvers[2].params["n_t"] == 50

    def test_budget_below_minimum(self):
        with pytest.raises(SchemaError) as err:
            parse_config_text(MINIMAL.replace("budget_n_g = 100", "budget_n_g = 1"))
        assert "budget_n_g" in str(err.value)

    def test_unknown_solver(self):
        with pytest.raises(SchemaError) as err:
            parse_config_text(MINIMAL.replace("myhpo_bt", "adam"))
        assert err.value.key == "solver[0].name"

    def test_unknown_key_named(self):
        with pytest.raises(SchemaError) as err:
            parse_config_text(MINIMAL + "problem.flavor = hot\n")
        assert "problem.flavor" in str(err.value)

    def test_unknown_solver_param_named(self):
        with pytest.raises(SchemaError) as err:
            parse_config_text(MINIMAL + "solver[0].sigma = 0.1\n")
        assert "solver[0].sigma" in str(err.value)

    def test_duplicate_label_rejected(self):
        text = MINIMAL + "solver[1].name = myhpo_bt\n"
        with pytest.raises(SchemaError):
            parse_config_text(text)

    def test_labels_sharing_a_trace_file_rejected(self):
        text = (MINIMAL + "solver[0].label = my run\nsolver[1].name = sho\n"
                "solver[1].label = my-run\n")
        with pytest.raises(SchemaError) as err:
            parse_config_text(text)
        assert err.value.key == "solver[1].label"
        assert "'my run'" in str(err.value) and "'my-run'" in str(err.value)

    def test_missing_problem_requirements(self):
        with pytest.raises(SchemaError):
            parse_config_text("problem.kind = csv\nbudget_n_g = 10\nsolver[0].name = sho\n")

    def test_synthetic_logistic_rejected(self):
        with pytest.raises(SchemaError):
            parse_config_text(MINIMAL + "problem.loss = logistic\n")

    def test_type_errors_are_schema_errors(self):
        with pytest.raises(SchemaError):
            parse_config_text(MINIMAL.replace("budget_n_g = 100", "budget_n_g = lots"))

    @pytest.mark.parametrize("key, value", [
        ("solver[0].alpha", "nan"), ("solver[0].rho", "inf"),
        ("problem.kappa", "-inf"), ("problem.train_fraction", "NaN"),
    ])
    def test_non_finite_floats_rejected(self, key, value):
        with pytest.raises(SchemaError) as err:
            parse_config_text(MINIMAL + f"{key} = {value}\n")
        assert err.value.key == key and "finite" in str(err.value)

    @pytest.mark.parametrize("text, key", [
        (MINIMAL + "repetitions 3\n", "line 7"),
        (MINIMAL + "problem.n = 30\n", "problem.n"),
        (MINIMAL + "problem.stratified = maybe\n", "problem.stratified"),
        (MINIMAL + "solver[x].name = sho\n", "solver[x].name"),
        (MINIMAL + "budget = 3\n", "budget"),
        (MINIMAL.replace("budget_n_g = 100\n", ""), "budget_n_g"),
        (MINIMAL + "repetitions = 0\n", "repetitions"),
        (MINIMAL.replace("problem.kind = synthetic\n", ""), "problem.kind"),
        (MINIMAL.replace("synthetic", "sql"), "problem.kind"),
        (MINIMAL + "problem.loss = hinge\n", "problem.loss"),
        (CSV + "problem.class_a = 1\n", "problem.class_a"),
        (CSV + "problem.loss = logistic\n", "problem.class_a"),
        (MINIMAL + "problem.counts = 10,5\n", "problem.counts"),
        (MINIMAL.replace("solver[0].name = myhpo_bt\n", ""), "solver[0].name"),
        (MINIMAL + "solver[1].label = second\n", "solver[1].name"),
        (MINIMAL + "problem.path = data.csv\n", "problem.path"),
        (CSV + "problem.kappa = 10\n", "problem.kappa"),
        (IDX + "problem.n = 30\n", "problem.n"),
        (MINIMAL + "problem.class_a = 1\nproblem.class_b = 2\n", "problem.class_a"),
        (MINIMAL + "problem.stratified = true\n", "problem.stratified"),
        (COUNTS + "problem.train_fraction = 0.4\n", "problem.train_fraction"),
        (COUNTS + "problem.val_fraction = 0.3\n", "problem.val_fraction"),
    ] + [(MINIMAL.replace("myhpo_bt", name) + f"solver[0].{key} = {value}\n", f"solver[0].{key}")
         for name, key, value in UNREAD_VALUES + [REMOVED_FIELD]],
        ids=["no-equals", "duplicate-key", "bad-bool", "solver-key-shape", "unknown-key",
             "budget-required", "repetitions-zero", "kind-required", "unknown-kind",
             "unknown-loss", "class-pair-half", "logistic-without-classes", "counts-arity",
             "no-solver", "solver-name-required", "synthetic-path", "csv-kappa", "idx-n",
             "synthetic-classes", "synthetic-stratified", "counts-train-fraction",
             "counts-val-fraction"] + [f"{name}-{key}"
                                       for name, key, _ in UNREAD_VALUES + [REMOVED_FIELD]])
    def test_config_errors_name_their_key(self, text, key):
        with pytest.raises(SchemaError) as err:
            parse_config_text(text)
        assert err.value.key == key

    def test_restated_defaults_are_accepted(self):
        """What a block never reads may restate its default; the hash stays put."""
        blocks = "".join(f"solver[{i}].name = {name}\nsolver[{i}].label = {name}-{key}\n"
                         for i, (name, key, _) in enumerate(UNREAD_VALUES))
        plain = COUNTS.replace("solver[0].name = myhpo_bt\n", blocks)
        restated = plain + "problem.train_fraction = 0.5\nproblem.val_fraction = 0.25\n"
        defaults = {f.name: f.default for f in dataclasses.fields(MyhpoConfig)}
        restated += "".join(f"solver[{i}].{key} = {defaults[key]}\n"
                            for i, (_, key, _) in enumerate(UNREAD_VALUES))
        assert parse_config_text(restated).config_hash == parse_config_text(plain).config_hash

    def test_noncontiguous_solver_indices(self):
        with pytest.raises(SchemaError):
            parse_config_text(MINIMAL + "solver[2].name = sho\n")

    def test_hash_inside_a_value_is_kept(self):
        text = ("problem.kind = csv\nproblem.path = data#1.csv\nproblem.target = y#2\n"
                "budget_n_g = 10\nsolver[0].name = sho\n")
        cfg = parse_config_text(text)
        assert cfg.problem["path"] == "data#1.csv"
        assert cfg.problem["target"] == "y#2"

    def test_comments_after_whitespace_and_at_line_start(self):
        text = ("# leading comment\n  # indented comment\n" + MINIMAL
                + "solver[0].alpha = 0.5  # trailing note\nsolver[0].beta = 0.25\t# tab\n")
        params = parse_config_text(text).solvers[0].params
        assert params["alpha"] == 0.5 and params["beta"] == 0.25

    def test_resolved_follows_seed(self):
        cfg = parse_config_text(MINIMAL)
        cfg.seed = 7
        assert cfg.resolved["seed"] == 7
        assert cfg.config_hash == parse_config_text(MINIMAL + "seed = 7\n").config_hash

    def test_solver_params_are_config_fields(self):
        cfg = parse_config_text(MINIMAL + "solver[1].name = myhpo_bt\nsolver[1].label = bt\n"
                                "solver[1].max_iters = 7\n")
        params = cfg.solvers[1].params
        assert params["max_iters"] == 7
        assert isinstance(params["max_halvings"], int)
        assert "variant" not in params and "seed" not in params
        # no solver field is a bool; the one bool key left is a problem key
        assert parse_config_text(CSV + "problem.stratified = yes\n").problem["stratified"] is True


class TestRunExperiment:
    def test_files_and_summary(self, tmp_path):
        cfg = parse_config_text(TWO_SOLVERS.format(out=tmp_path / "run"))
        traces, summary = run_experiment(cfg)
        assert len(traces) == 6  # 3 solvers x 2 repetitions
        files = sorted(os.listdir(tmp_path / "run"))
        assert sum(f.endswith(".trace.csv") for f in files) == 6
        assert "config_resolved.txt" in files
        labels = [e.label for e in summary.entries]
        assert labels == ["sho", "myhpo_bt", "grid"]
        assert all(e.runs == 2 for e in summary.entries)

    def test_single_repetition_has_zero_std(self, tmp_path):
        text = TWO_SOLVERS.format(out=tmp_path / "run").replace("repetitions = 2",
                                                                "repetitions = 1")
        _, summary = run_experiment(parse_config_text(text))
        assert all(e.train_std == 0.0 and e.val_std == 0.0 for e in summary.entries)

    def test_rerun_is_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            cfg = parse_config_text(TWO_SOLVERS.format(out=tmp_path / sub))
            run_experiment(cfg)
        trace_names = [n for n in os.listdir(tmp_path / "a") if n.endswith(".trace.csv")]
        assert len(trace_names) == 6
        for name in trace_names:
            with open(tmp_path / "a" / name, "rb") as fh:
                blob_a = fh.read()
            with open(tmp_path / "b" / name, "rb") as fh:
                blob_b = fh.read()
            assert blob_a == blob_b, name

    def test_sho_budget_arithmetic(self, tmp_path):
        text = """
problem.kind = synthetic
problem.n = 20
problem.d = 3
budget_n_g = 1000
output_dir = {out}
solver[0].name = sho
""".format(out=tmp_path / "run")
        traces, _ = run_experiment(parse_config_text(text))
        last = traces[0].rows[-1]
        assert last.n_grad == 1000
        assert last.iter == 500

    def test_budget_fairness(self, tmp_path):
        cfg = parse_config_text(TWO_SOLVERS.format(out=tmp_path / "run"))
        traces, _ = run_experiment(cfg)
        for trace in traces:
            final = trace.rows[-1]
            assert final.n_grad <= cfg.budget_n_g
            per_iter = final.n_grad / final.iter
            assert final.n_grad > cfg.budget_n_g - per_iter - 1e-9

    def test_trace_headers_echo_all_parameters(self, tmp_path):
        cfg = parse_config_text(TWO_SOLVERS.format(out=tmp_path / "run"))
        traces, _ = run_experiment(cfg)
        sho_trace = traces[0]
        for key in ("alpha", "beta", "sigma", "max_iters", "budget", "lambda0"):
            assert key in sho_trace.meta
        for key in ("problem.kind", "problem.kappa", "split_sizes", "var_train",
                    "run_seed", "config_hash", "block_index", "repetition"):
            assert key in sho_trace.meta

    def test_per_run_seed_is_base_plus_index(self, tmp_path):
        cfg = parse_config_text(TWO_SOLVERS.format(out=tmp_path / "run"))
        traces, _ = run_experiment(cfg)
        seeds = sorted({int(t.meta["run_seed"]) for t in traces})
        assert seeds == [11, 12]

    def test_csv_classification_problem(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = ["f0,f1,digit"]
        for i in range(30):
            label = i % 3  # classes 0, 1, 2; the config keeps 0 vs 1
            x = rng.standard_normal(2) + (1.5 if label == 0 else -1.5)
            lines.append(f"{x[0]},{x[1]},{label}")
        csv_path = tmp_path / "digits.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        text = f"""
problem.kind = csv
problem.path = {csv_path}
problem.target = digit
problem.loss = logistic
problem.class_a = 0
problem.class_b = 1
budget_n_g = 60
output_dir = {tmp_path / "run"}
solver[0].name = myhpo_bt
"""
        traces, summary = run_experiment(parse_config_text(text))
        assert traces[0].meta["loss"] == "logistic"
        assert traces[0].rows, "solver should produce rows on csv data"
        assert len(summary.entries) == 1

    @pytest.mark.parametrize("targets, extra", [
        ("constant", ""),  # every split has constant targets
        ("varied", "problem.counts = 20,8,1\n"),  # a single test row
    ], ids=["constant-target", "single-test-row"])
    def test_zero_variance_regression_split_rejected(self, tmp_path, targets, extra):
        rng = np.random.default_rng(0)
        lines = ["f0,f1,y"]
        for i in range(30):
            y = 2.5 if targets == "constant" else float(i)
            lines.append(f"{rng.standard_normal()},{rng.standard_normal()},{y}")
        csv_path = tmp_path / "reg.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        text = f"""
problem.kind = csv
problem.path = {csv_path}
problem.target = y
budget_n_g = 20
output_dir = {tmp_path / "run"}
solver[0].name = sho
""" + extra
        with pytest.raises(ZeroVariance, match="(train|test) split targets are constant"):
            run_experiment(parse_config_text(text))
        # raised by the first run seed's split, before any file was written
        assert not (tmp_path / "run").exists()

    def test_a_synthetic_problem_fails_on_its_data_before_any_write(self, tmp_path):
        text = MINIMAL + f"problem.counts = 20,3,1\noutput_dir = {tmp_path / 'run'}\n"
        with pytest.raises(ZeroVariance, match="test split targets are constant"):
            run_experiment(parse_config_text(text))
        assert not (tmp_path / "run").exists()

    def test_harness_error_is_recorded_as_aborted(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("harness bug")

        monkeypatch.setattr(bench, "myhpo_run", broken)
        traces, summary = run_experiment(parse_config_text(MINIMAL), write=False)
        assert traces[0].note == "aborted: RuntimeError: harness bug"
        assert traces[0].diverged and not traces[0].rows
        assert summary.entries[0].diverged == 1

    def test_synthetic_rejects_class_mapping(self):
        with pytest.raises(SchemaError):
            parse_config_text(MINIMAL + "problem.class_a = 0\nproblem.class_b = 1\n")

    def test_idx_classification_problem(self, tmp_path):
        from test_data import write_idx_images, write_idx_labels

        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(40, 4, 4), dtype=np.uint8)
        labels = np.array([0, 1] * 20, dtype=np.uint8)
        write_idx_images(tmp_path / "imgs", images)
        write_idx_labels(tmp_path / "labs", labels)
        text = f"""
problem.kind = idx
problem.images = {tmp_path / "imgs"}
problem.labels = {tmp_path / "labs"}
problem.loss = logistic
problem.class_a = 1
problem.class_b = 0
problem.counts = 20,10,10
budget_n_g = 40
output_dir = {tmp_path / "run"}
solver[0].name = sho
"""
        traces, _ = run_experiment(parse_config_text(text))
        assert traces[0].rows
        assert traces[0].meta["split_sizes"] == "20/10/10"


class TestSummaries:
    def test_scaling_rule(self):
        entry = bench.SolverSummary(
            label="s", solver="sho", runs=10,
            train_mean=0.0543, train_std=0.0025,
            val_mean=0.0543, val_std=0.0025,
            test_mean=0.0543, test_std=0.0025,
            mean_iters=500.0, diverged=0,
        )
        text = render_summary(SummaryTable([entry]), "csv")
        assert "5.43 ± 0.25" in text

    def test_aggregation_matches_trace_files(self, tmp_path):
        cfg = parse_config_text(TWO_SOLVERS.format(out=tmp_path / "run"))
        _, summary = run_experiment(cfg)
        from_files = summarize_traces(read_traces(tmp_path / "run"))
        for a, b in zip(summary.entries, from_files.entries):
            assert a.label == b.label
            for field in ("train_mean", "train_std", "val_mean", "val_std",
                          "test_mean", "test_std", "mean_iters"):
                assert math.isclose(getattr(a, field), getattr(b, field),
                                    rel_tol=0, abs_tol=1e-12)

    def test_regression_cells_are_variance_normalized(self, tmp_path):
        text = TWO_SOLVERS.format(out=tmp_path / "run").replace("repetitions = 2",
                                                                "repetitions = 1")
        traces, summary = run_experiment(parse_config_text(text))
        trace = traces[0]
        row = trace.final_finite_row()
        # a variance-v target vector is [0, 2*sqrt(v)] in population convention
        var_val = float(trace.meta["var_val"])
        expected = row.val_loss / np.var([0.0, 2.0 * math.sqrt(var_val)])
        entry = [e for e in summary.entries if e.label == trace.label][0]
        assert math.isclose(entry.val_mean, expected, rel_tol=1e-12)

    def test_rowless_trace_summarizes_as_na(self):
        entry, = summarize_traces([RunTrace(solver="sho", label="s", seed=0)]).entries
        assert math.isnan(entry.val_mean) and entry.mean_iters == 0.0
        assert render_summary(SummaryTable([entry]), "csv").splitlines()[1:4] == [
            "train (x1e-2),n/a", "val (x1e-2),n/a", "test (x1e-2),n/a"]

    def test_spread_of_huge_finals_is_finite(self):
        traces = []
        for rep, loss in enumerate((1e160, 3e160)):
            t = RunTrace(solver="sho", label="s", seed=rep,
                         meta={"loss": "logistic", "repetition": rep})
            t.append(TraceRow(iter=1, n_grad=2, lam=-1.0, train_loss=loss,
                              val_loss=loss, test_loss=loss))
            traces.append(t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entry, = summarize_traces(traces).entries
        assert entry.val_mean == 2e160
        assert math.isclose(entry.val_std, math.sqrt(2.0) * 1e160, rel_tol=1e-15)
        assert "inf" not in render_summary(SummaryTable([entry]), "aligned-text")

    def test_huge_finals_print_in_exponent_notation(self):
        traces = []
        for rep, loss in enumerate((1e150, 3e150)):
            t = RunTrace(solver="sho", label="s", seed=rep,
                         meta={"loss": "logistic", "repetition": rep})
            t.append(TraceRow(iter=1, n_grad=2, lam=-1.0, train_loss=loss,
                              val_loss=loss / 2, test_loss=loss / 4))
            traces.append(t)
        grid = render_summary(summarize_traces(traces), "csv").splitlines()
        assert grid[1:4] == ["train (x1e-2),2.00e+152 ± 1.41e+152",
                             "val (x1e-2),1.00e+152 ± 7.07e+151",
                             "test (x1e-2),5.00e+151 ± 3.54e+151"]

    def test_diverged_finals_print_in_exponent_notation(self):
        """Values from 1e6 (x1e-2) on print as ``.2e``; values below keep ``.2f``."""
        traces = []
        for rep, loss in enumerate((1e10, 3e10)):
            t = RunTrace(solver="sho", label="s", seed=rep,
                         meta={"loss": "logistic", "repetition": rep})
            t.append(TraceRow(iter=1, n_grad=2, lam=-1.0, train_loss=loss,
                              val_loss=9999.0, test_loss=1e4))
            traces.append(t)
        grid = render_summary(summarize_traces(traces), "csv").splitlines()
        assert grid[1:4] == ["train (x1e-2),2.00e+12 ± 1.41e+12",
                             "val (x1e-2),999900.00 ± 0.00",
                             "test (x1e-2),1.00e+06 ± 0.00"]

    def test_render_alignment(self):
        entry = bench.SolverSummary("a", "sho", 1, 0.01, 0.0, 0.02, 0.0, 0.03, 0.0, 10.0, 0)
        text = render_summary(SummaryTable([entry]), "aligned-text")
        lines = text.splitlines()
        assert len({len(l) for l in lines if l}) <= 2  # header may differ by padding
        with pytest.raises(ValueError):
            render_summary(SummaryTable([entry]), "markdown")


class TestCurves:
    def make_trace(self, label, seed, diverged=False):
        t = RunTrace(solver="sho", label=label, seed=seed, diverged=diverged)
        for i in range(1, 4):
            t.append(TraceRow(iter=i, n_grad=2 * i, lam=-1.0,
                              train_loss=1.0 / i, val_loss=2.0 / i))
        return t

    def test_long_format(self):
        text = render_curves([self.make_trace("a", 0), self.make_trace("b", 1)], "n_grad")
        lines = text.strip().splitlines()
        assert lines[0] == "solver,seed,x,train_loss,val_loss,diverged"
        a_rows = [l for l in lines[1:] if l.startswith("a,")]
        xs = [int(l.split(",")[2]) for l in a_rows]
        assert xs == sorted(xs) == [2, 4, 6]

    def test_diverged_flag_on_last_row_only(self):
        text = render_curves([self.make_trace("a", 0, diverged=True)], "iter")
        flags = [l.rsplit(",", 1)[1] for l in text.strip().splitlines()[1:]]
        assert flags == ["false", "false", "true"]

    def test_x_axis_validation(self):
        with pytest.raises(ValueError):
            render_curves([], "epochs")

    def test_labels_with_commas_are_quoted(self):
        text = render_curves([self.make_trace("sho, a=0.5", 0)], "iter")
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["solver", "seed", "x", "train_loss", "val_loss", "diverged"]
        assert [r[0] for r in rows[1:]] == ["sho, a=0.5"] * 3
        assert [r[2] for r in rows[1:]] == ["1", "2", "3"]

    def test_summary_csv_quotes_labels(self):
        entry = bench.SolverSummary("sho, a=0.5", "sho", 1, 0.01, 0.0, 0.02, 0.0,
                                    0.03, 0.0, 10.0, 0)
        rows = list(csv.reader(render_summary(SummaryTable([entry]), "csv").splitlines()))
        assert rows[0] == ["metric", "sho, a=0.5"]
        assert all(len(r) == 2 for r in rows)
        assert rows[1] == ["train (x1e-2)", "1.00 ± 0.00"]


class TestTraceIO:
    def test_round_trip(self, tmp_path):
        t = RunTrace(solver="myhpo_bt", label="bt", seed=3,
                     meta={"alpha": 0.1, "note": "x"}, prng="pcg64+box-muller")
        t.append(TraceRow(iter=1, n_grad=2, lam=-1.0, train_loss=0.5, val_loss=0.25,
                          test_loss=None, r_norm=1e-3, s_norm=2e-3, u_norm=0.0,
                          loss_eval_count=6))
        path = tmp_path / "t.trace.csv"
        t.write_csv(path)
        back = RunTrace.read_csv(path)
        assert back.solver == "myhpo_bt" and back.seed == 3
        assert back.meta["alpha"] == "0.1"
        row = back.rows[0]
        assert row.lam == -1.0 and row.test_loss is None
        assert row.r_norm == 1e-3 and row.loss_eval_count == 6

    def test_header_with_newlines_round_trips(self, tmp_path):
        t = RunTrace(solver="myhpo_bt", label="bt", seed=3,
                     meta={"path": "C:\\data\\new", "msg": "a\r\nb"},
                     note="aborted: ValueError: line one\nline two\\n")
        t.append(TraceRow(iter=1, n_grad=2, lam=-1.0, train_loss=0.5, val_loss=0.25))
        t.write_csv(tmp_path / "t.trace.csv")
        back = read_traces(tmp_path)[0]
        assert back.note == t.note
        assert back.meta == t.meta
        assert back.rows[0].as_cells() == t.rows[0].as_cells()
        assert summarize_traces([back]).entries[0].runs == 1

    def test_plain_header_bytes(self, tmp_path):
        t = RunTrace(solver="sho", label="s", seed=1, meta={"alpha": 0.5})
        t.write_csv(tmp_path / "t.trace.csv")
        assert (tmp_path / "t.trace.csv").read_bytes().splitlines()[:7] == [
            b"# solver = sho", b"# label = s", b"# seed = 1", b"# prng = ",
            b"# diverged = false", b"# note = ", b"# meta.alpha = 0.5"]

    @settings(deadline=None)  # each example writes and reads a file
    @given(note=st.text(),
           meta=st.dictionaries(st.from_regex(r"[a-z_.]{1,8}", fullmatch=True), st.text()))
    def test_header_strings_survive_write_and_read(self, note, meta):
        t = RunTrace(solver="sho", label="s", seed=0, meta=meta, note=note)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.trace.csv")
            t.write_csv(path)
            back = RunTrace.read_csv(path)
        assert back.note == note
        assert back.meta == meta

    def test_blank_lines_are_skipped(self, tmp_path):
        t = RunTrace(solver="sho", label="s", seed=0)
        for i in (1, 2):
            t.append(TraceRow(iter=i, n_grad=2 * i, lam=-1.0, train_loss=0.5, val_loss=0.25))
        path = tmp_path / "t.trace.csv"
        t.write_csv(path)
        path.write_text("\n" + path.read_text().replace("\n", "\n\n"))
        back = RunTrace.read_csv(path)
        assert [r.as_cells() for r in back.rows] == [r.as_cells() for r in t.rows]

    def test_columns_are_the_row_fields(self):
        assert TRACE_COLUMNS == ("iter", "n_grad", "lambda", "train_loss", "val_loss",
                                 "test_loss", "r_norm", "s_norm", "u_norm", "loss_eval_count")

    @settings(deadline=None)  # each example writes and reads a file
    @given(st.lists(TRACE_ROW_CELLS, max_size=5))
    def test_rows_survive_write_and_read(self, rows):
        """Each drawn ``n_grad`` is a step, summed so that ``n_grad`` strictly
        increases as the rows require."""
        t = RunTrace(solver="myhpo_bt", label="bt", seed=0)
        n_grad = 0
        t.rows = [TraceRow(iter_, n_grad := n_grad + 1 + step, *rest)
                  for iter_, step, *rest in rows]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.trace.csv")
            t.write_csv(path)
            back = RunTrace.read_csv(path)
        assert [r.as_cells() for r in back.rows] == [r.as_cells() for r in t.rows]

    @pytest.mark.parametrize("cut", [-2, -40, -90])  # -2 leaves the last cell empty
    def test_truncated_row_names_file_and_row(self, tmp_path, cut):
        t = RunTrace(solver="myhpo_bt", label="bt", seed=0)
        for i in (1, 2):
            t.append(TraceRow(iter=i, n_grad=2 * i, lam=-1.0 / 3, train_loss=0.1 / 3,
                              val_loss=0.2 / 3, test_loss=None, r_norm=1e-3 / 3,
                              s_norm=2e-3 / 3, u_norm=0.5 / 3, loss_eval_count=6))
        path = tmp_path / "t.trace.csv"
        t.write_csv(path)
        path.write_bytes(path.read_bytes()[:cut])  # cut inside the second row
        with pytest.raises(ValueError, match=r"t\.trace\.csv: trace row 2: "):
            RunTrace.read_csv(path)

    def test_n_grad_must_increase(self):
        t = RunTrace(solver="sho", label="s", seed=0)
        t.append(TraceRow(iter=1, n_grad=2, lam=0.0, train_loss=1.0, val_loss=1.0))
        with pytest.raises(ValueError):
            t.append(TraceRow(iter=2, n_grad=2, lam=0.0, train_loss=1.0, val_loss=1.0))


class TestReference:
    def test_reference_table_loads(self):
        rows = bench.load_reference_results()
        datasets = {r["dataset"] for r in rows}
        assert {"cookie", "mnist_regression", "mnist_classification", "gtsrb"} <= datasets
        methods = {r["method"] for r in rows}
        assert {"sho", "myhpo_c", "myhpo_bt", "random", "grid"} <= methods

    def test_render_filters_by_dataset(self):
        text = render_reference("cookie")
        assert "cookie" in text and "gtsrb" not in text
        assert "published reference values" in text
        with pytest.raises(ValueError):
            render_reference("imagenet")
