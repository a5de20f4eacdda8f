"""Smoke test of tools/report_gate.py, the report comparison against a git revision."""

import contextlib
import importlib.util
import io
import json
import subprocess
import sys
import zipfile
from pathlib import Path
from types import SimpleNamespace

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


def _load_gate():
    spec = importlib.util.spec_from_file_location("report_gate", SCRIPT)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


ENTRY = {"law": "SEA1", "product": "standard", "algebra": "real:4", "trials": 200,
         "seed": 5, "verdict": "pass", "expected": "pass", "max_residual": 1e-15,
         "elapsed_ms": 2.0}
#: report A's entries, and report B's: SEA1 equal, SEA2 drifted, SEA3 failed at trial 3
REPORTS = {"A": [ENTRY, dict(ENTRY, law="SEA2"), dict(ENTRY, law="SEA3")],
           "B": [ENTRY, dict(ENTRY, law="SEA2", max_residual=2e-15),
                 dict(ENTRY, law="SEA3", trials=4, verdict="fail", max_residual=1.0,
                      witness={"trial": 3, "residual": 1.0, "inputs": {}})]}


def _write(path, entries):
    path.write_text(json.dumps({"schema": 1, "seed": 42, "entries": entries}))


def test_the_gate_lists_the_rows_that_report_diff_flags(tmp_path, capsys):
    gate = _load_gate()
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, entries in zip(paths, REPORTS.values()):
        _write(path, entries)
    assert run_cli(["report", "diff", *map(str, paths), "--max-drift", "0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    rows = gate.flagged(lines)
    assert rows == [line for line in lines if line.startswith(("SEA2 ", "SEA3 "))]
    assert gate.changes(rows) == (1, 1)
    assert gate.changes([]) == (0, 0)
    # SEA3 changed its verdict, so only SEA2 counts; its drift is 1e-15 against max(1, .)
    assert gate.drifted_laws(rows) == {"SEA2": (1, 1e-15)}
    assert gate.drifted_laws(rows + rows) == {"SEA2": (2, 1e-15)}
    assert gate.drifted_laws([]) == {}


def test_the_gate_counts_changed_and_drifted_rows_per_report_and_in_all(monkeypatch, capsys):
    # git and the audits stubbed: REV's src is an empty archive, and each run writes report A
    # on REV's tree and report B on the working tree; ``report diff`` runs in-process
    gate = _load_gate()
    archive = io.BytesIO()
    zipfile.ZipFile(archive, "w").close()

    def git(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0, stdout=archive.getvalue())

    def seqprod(src, args):
        if args[0] != "report":
            _write(Path(args[-1]), REPORTS["B" if src == gate.ROOT / "src" else "A"])
            return subprocess.CompletedProcess(args, 0)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run_cli(args)
        return subprocess.CompletedProcess(args, code, stdout=out.getvalue(), stderr="")

    monkeypatch.setattr(gate, "subprocess", SimpleNamespace(run=git))
    monkeypatch.setattr(gate, "seqprod", seqprod)
    assert gate.main(["REV"]) == 1
    lines = capsys.readouterr().out.splitlines()
    counts = "1 changed trials, verdict, expectation or witness; 1 only drifted"
    assert lines.count(f"  flagged rows: {counts}") == len(gate.RUNS)
    assert lines[-2] == (f"0 of {len(gate.RUNS)} reports unchanged against REV; flagged rows: "
                         f"{len(gate.RUNS)} changed trials, verdict, expectation or witness; "
                         f"{len(gate.RUNS)} only drifted")
    assert lines[-1] == f"only drifted: SEA2 {len(gate.RUNS)} rows, largest 1.0e-15"
