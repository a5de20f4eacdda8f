"""Smoke test of tools/src_lines.py, the per-module line split of the package."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "src_lines.py"


def _load():
    spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_module_splits_into_its_lines():
    out = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                         check=True).stdout.splitlines()
    header, rows = out[0].split(), [line.split() for line in out[1:]]
    assert header == ["file", "total", "code", "doc", "comment", "blank"]
    files = sorted(p.name for p in (ROOT / "src" / "seqprod").glob("*.py"))
    assert [r[0] for r in rows] == files + ["total"]
    counts = {r[0]: [int(v) for v in r[1:]] for r in rows}
    for name in files:
        total, *split = counts[name]
        assert sum(split) == total == len((ROOT / "src" / "seqprod" / name).read_text()
                                          .splitlines())
    assert counts["total"] == [sum(counts[f][k] for f in files) for k in range(5)]


def test_docstrings_comments_and_blank_lines_are_told_apart():
    text = '"""Module\n\ndoc."""\n\n# a comment\nX = 1  # code\n\n\ndef f():\n' \
           '    """One line."""\n    s = """not a docstring"""\n    return s\n'
    assert _load().count(text) == {"total": 12, "code": 4, "doc": 4, "comment": 1, "blank": 3}


def test_a_revision_that_is_not_a_commit_exits_2():
    run = subprocess.run([sys.executable, str(SCRIPT), "no-such-rev"], capture_output=True,
                         text=True)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == "error: 'no-such-rev' is not a commit\n"
