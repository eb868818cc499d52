"""``tools/bench_pairs`` on synthetic paired runs and checkouts, without running perfbench."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench_pairs",
                                               os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

CONTRACT = {
    "end_to_end": [{"name": "us_per_iter", "better": "lower", "bound": 0.25},
                   {"name": "grad_per_s", "better": "higher", "bound": 0.25}],
    "per_layer": [{"name": "trace.rows", "better": "lower"}],
}


def run(side, seed, pools=(0, 1), workload="ls-stability", trace=0, **metrics):
    return {"workload": workload, "seed": seed, "side": side, "trace": trace,
            "pool_entries": list(pools), "metrics": metrics}


def paired(parent, change, name="us_per_iter", **kw):
    """Runs of one workload, seed k holding parent[k] and change[k] of ``name``."""
    return [run(side, seed, **kw, **{name: value})
            for seed, pair in enumerate(zip(parent, change))
            for side, value in zip(bench_pairs.SIDES, pair)]


def test_medians_wins_ratio_and_bound_of_a_lower_is_better_metric():
    summary, warnings = bench_pairs.summarize(
        paired([100.0, 90.0, 110.0, 120.0], [70.0, 72.0, 66.0, 130.0]), CONTRACT)
    group = summary["ls-stability"]
    m = group["metrics"]["us_per_iter"]
    assert group["pairs"] == 4 and group["seeds"] == [0, 1, 2, 3]
    assert warnings == []
    assert m["parent_median"] == 105.0 and m["change_median"] == 71.0
    assert m["change_wins"] == 3
    assert m["median_worse_by"] == pytest.approx((71.0 - 105.0) / 105.0)
    # ratios 0.7, 0.8, 0.6, 13/12: the middle two are 0.7 and 0.8
    assert m["pair_ratio_median"] == pytest.approx(0.75)
    assert m["parent_q1_q3"] == [97.5, 112.5] and m["parent_iqr"] == 15.0
    assert m["bound"] == 0.25 and m["within_bound"] is True


def test_a_higher_is_better_metric_counts_a_fall_as_worse():
    summary, _ = bench_pairs.summarize(
        paired([10.0, 10.0, 10.0], [7.0, 8.0, 11.0], name="grad_per_s"), CONTRACT)
    m = summary["ls-stability"]["metrics"]["grad_per_s"]
    assert m["change_wins"] == 1
    assert m["median_worse_by"] == pytest.approx(0.2)
    assert m["pair_ratio_median"] == pytest.approx(0.8)
    assert m["within_bound"] is True
    summary, _ = bench_pairs.summarize(
        paired([10.0, 10.0, 10.0], [7.0, 7.0, 11.0], name="grad_per_s"), CONTRACT)
    assert summary["ls-stability"]["metrics"]["grad_per_s"]["within_bound"] is False


@pytest.mark.parametrize("parent, change, verdict", [
    # parent IQR 2.5 of a median 100: settled; the change's median is 10% or 30% worse
    ([95.0, 100.0, 100.0, 105.0], [110.0, 110.0, 110.0, 110.0], "within_bound"),
    ([95.0, 100.0, 100.0, 105.0], [130.0, 130.0, 130.0, 130.0], "worse"),
    # parent IQR 85 of a median 100, past the 0.25 bound
    ([50.0, 60.0, 140.0, 150.0], [105.0, 105.0, 105.0, 105.0], "unresolved"),
    ([50.0, 60.0, 140.0, 150.0], [40.0, 40.0, 40.0, 40.0], "within_bound"),  # beats every run
    ([50.0, 60.0, 140.0, 150.0], [200.0, 200.0, 200.0, 200.0], "unresolved"),
])
def test_the_verdict_on_an_end_to_end_metric(parent, change, verdict):
    summary, _ = bench_pairs.summarize(paired(parent, change), CONTRACT)
    assert summary["ls-stability"]["metrics"]["us_per_iter"]["verdict"] == verdict


def test_a_per_layer_metric_has_no_bound_and_a_zero_parent_no_ratio():
    summary, _ = bench_pairs.summarize(
        paired([0.0, 4.0, 4.0], [1.0, 4.0, 2.0], name="trace.rows"), CONTRACT)
    m = summary["ls-stability"]["metrics"]["trace.rows"]
    assert m["bound"] is None and m["within_bound"] is None and m["verdict"] is None
    assert m["pair_ratio_median"] is None
    assert m["change_wins"] == 1  # the tie counts for neither side


def test_unpaired_runs_and_traced_runs_are_kept_apart():
    runs = paired([100.0, 100.0], [80.0, 80.0])
    runs += paired([50.0], [60.0], trace=1)
    runs.append(run("parent", 9, us_per_iter=1.0))  # its change never ran
    summary, _ = bench_pairs.summarize(runs, CONTRACT)
    assert summary["ls-stability"]["seeds"] == [0, 1]
    assert summary["ls-stability --trace 1"]["metrics"]["us_per_iter"]["change_wins"] == 0


def test_a_pair_that_covered_different_pool_entries_is_warned_about():
    runs = paired([100.0], [80.0])
    runs[1]["pool_entries"] = [0, 1, 2]
    _, warnings = bench_pairs.summarize(runs, CONTRACT)
    assert warnings == ["ls-stability seed 0: the parent covered pool entries [0, 1], "
                        "the change [0, 1, 2]"]


def test_seed_ranges_and_lists():
    assert bench_pairs.parse_seeds("20-23,3,7") == [20, 21, 22, 23, 3, 7]


def checkout(root, files):
    """A checkout whose ``src/myhpo`` holds ``files``, name -> text."""
    package = root / "src" / "myhpo"
    package.mkdir(parents=True)
    for name, text in files.items():
        (package / name).write_text(text)
    return str(root)


def test_each_checkouts_src_line_count_is_recorded(tmp_path, monkeypatch):
    # wc -l counts newlines: "d = 4" without one adds nothing, and the .txt is not counted
    parent = checkout(tmp_path / "parent", {"a.py": "a = 1\nb = 2\n", "notes.txt": "x\n"})
    change = checkout(tmp_path / "change", {"a.py": "a = 1\n", "b.py": "b = 2\nc = 3\nd = 4"})
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: {
        "correct": True, "attempted": 1, "failed": 0, "pool_entries": [0],
        "metrics": {"us_per_iter": 1.0}})
    out = tmp_path / "bench.json"
    assert bench_pairs.main([parent, change, "--workload", "ls-stability", "--seeds", "0",
                             "--seconds", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["src_lines"] == {"parent": 2, "change": 3}
    assert doc["summary"]["ls-stability"]["pairs"] == 1
