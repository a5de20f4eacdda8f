"""Smoke test of tools/report_gate.py, the report comparison against a git revision."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "report_gate.py"


def _gate(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True,
                          timeout=60)


def test_an_unknown_revision_or_no_revision_exits_2():
    done = _gate("no-such-revision")
    assert done.returncode == 2
    assert done.stderr == "error: 'no-such-revision' is not a commit\n"
    assert _gate().returncode == 2
