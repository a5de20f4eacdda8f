"""Smoke test of tools/src_lines.py, the per-module line split of the package."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "src_lines.py"


def _load():
    spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lines(folder):
    """name -> line count of each ``*.py`` of ``folder``."""
    return {p.name: len(p.read_text().splitlines()) for p in sorted((ROOT / folder).glob("*.py"))}


def _require_git():
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet", "HEAD"],
                      capture_output=True).returncode:
        pytest.skip("not a git checkout")


def test_each_module_splits_into_its_lines():
    out = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                         check=True).stdout.splitlines()
    header, rows = out[0].split(), [line.split() for line in out[1:]]
    assert header == ["file", "total", "code", "doc", "comment", "blank"]
    files = _lines("src/seqprod")
    assert [r[0] for r in rows] == list(files) + ["total", "tests"]
    counts = {r[0]: [int(v) for v in r[1:]] for r in rows}
    for name, lines in files.items():
        total, *split = counts[name]
        assert sum(split) == total == lines
    assert counts["total"] == [sum(counts[f][k] for f in files) for k in range(5)]
    total, *split = counts["tests"]
    assert sum(split) == total == sum(_lines("tests").values())
    module = _load()
    assert counts["tests"] == list(module.summed(module.tree_counts("tests")).values())


def test_the_tests_row_reads_its_change_against_a_revision():
    _require_git()
    out = subprocess.run([sys.executable, str(SCRIPT), "HEAD"], capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert [line.split()[0] for line in out[-2:]] == ["total", "tests"]
    module = _load()
    now, before = (module.summed(t) for t in (module.tree_counts("tests"),
                                              module.rev_counts("HEAD", "tests")))
    cells = out[-1].split()[1:]
    assert cells == [v for c in module.COLUMNS for v in (str(now[c]), f"{now[c] - before[c]:+d}")]


def test_a_change_of_four_digits_stays_apart_from_its_count(monkeypatch, capsys):
    _require_git()
    module = _load()
    monkeypatch.setattr(module, "rev_counts", lambda rev, folder=module.PACKAGE: {})
    assert module.main(["HEAD"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    tests = rows[-1]
    assert tests[0] == "tests" and int(tests[1]) >= 1000
    for row in rows:  # against an empty revision every change equals its count
        assert len(row) == 11 and row[1::2] == [s.lstrip("+") for s in row[2::2]]


def test_docstrings_comments_and_blank_lines_are_told_apart():
    text = '"""Module\n\ndoc."""\n\n# a comment\nX = 1  # code\n\n\ndef f():\n' \
           '    """One line."""\n    s = """not a docstring"""\n    return s\n'
    assert _load().count(text) == {"total": 12, "code": 4, "doc": 4, "comment": 1, "blank": 3}


def test_a_revision_that_is_not_a_commit_exits_2():
    run = subprocess.run([sys.executable, str(SCRIPT), "no-such-rev"], capture_output=True,
                         text=True)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == "error: 'no-such-rev' is not a commit\n"
