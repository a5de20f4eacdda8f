"""Smoke test of tools/report_gate.py, the report comparison against a git revision."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from seqprod.cli import run_cli

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "report_gate.py"


def _gate(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True,
                          timeout=60)


def test_an_unknown_revision_or_no_revision_exits_2():
    done = _gate("no-such-revision")
    assert done.returncode == 2
    assert done.stderr == "error: 'no-such-revision' is not a commit\n"
    assert _gate().returncode == 2


def test_the_gate_lists_the_rows_that_report_diff_flags(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("report_gate", SCRIPT)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    entry = {"law": "SEA1", "product": "standard", "algebra": "real:4", "trials": 200,
             "seed": 5, "verdict": "pass", "expected": "pass", "max_residual": 1e-15,
             "elapsed_ms": 2.0}
    moved = dict(entry, law="SEA2", max_residual=2e-15)
    paths = []
    for name, entries in (("a", [entry, dict(moved, max_residual=1e-15)]), ("b", [entry, moved])):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"schema": 1, "seed": 42, "entries": entries}))
    assert run_cli(["report", "diff", *map(str, paths), "--max-drift", "0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert gate.flagged(lines) == [line for line in lines if line.startswith("SEA2 ")]
    assert len(gate.flagged(lines)) == 1
