"""The byte gate's configs and its compare mode, without running the gate."""

import importlib.util
import os

import pytest

from myhpo.bench import parse_config_text

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("byte_gate",
                                               os.path.join(ROOT, "tools", "byte_gate.py"))
byte_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(byte_gate)


@pytest.mark.parametrize("group", ["stability", "logistic", "least_squares", "offload"])
def test_every_gate_config_parses(group):
    """A schema change that breaks a gate config fails here, not minutes into the gate."""
    files = byte_gate._cli_groups()[group]
    cfg = next(name for name in files if name.endswith(".cfg"))
    assert parse_config_text(files[cfg]).solvers


def _trace(*header):
    return (["# solver = sho", *header], ["iter", "n_grad", "lambda", "val_loss"],
            [["1", "2", "-1.0", "0.5"]])


@pytest.mark.parametrize("parent, change, keys, problems, counts", [
    (["# meta.x = 1"], ["# meta.x = 2"], (), 1, {}),
    (["# meta.x = 1"], ["# meta.x = 2"], ("meta.x",), 0, {"meta.x": 1}),
    (["# meta.x = 1", "# meta.y = 1"], ["# meta.y = 1"], ("meta.x",), 0, {"meta.x": 1}),
    (["# meta.x = 1", "# meta.y = 1"], ["# meta.x = 1", "# meta.y = 2"], ("meta.x",), 1,
     {"meta.x": 0}),
], ids=["unlisted", "listed", "one-side-only", "listed-and-unlisted"])
def test_header_changes(monkeypatch, capsys, parent, change, keys, problems, counts):
    """Header lines under a listed key may differ or be missing on one side;
    every other header line must still match, and each listed key's count
    of differing traces is printed."""
    sides = iter([{"a.trace.csv": _trace(*parent)}, {"a.trace.csv": _trace(*change)}])
    monkeypatch.setattr(byte_gate, "_run", lambda src, files, runs, work: [("run", 0, b"", b"")])
    monkeypatch.setattr(byte_gate, "_read_traces", lambda work: next(sides))
    found = byte_gate._compare_group("g", "parent", "src", {"gate.cfg": "output_dir = out\n"},
                                     keys)
    assert len(found) == problems
    out = capsys.readouterr().out
    for key, count in counts.items():
        assert f"header {key} differs in {count} traces" in out
