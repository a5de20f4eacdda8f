"""Smoke test of tools/kind_ab.py, the in-process timing of kernel-api kinds against a git
revision."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "kind_ab.py"
KINDS = ("sqrt_pos", "spin5"), ("spectral_decompose", "real4")


def _run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True,
                          timeout=60)


def test_an_unknown_revision_exits_2():
    done = _run("no-such-revision")
    assert done.returncode == 2
    assert done.stderr == "error: 'no-such-revision' is not a commit\n"


def test_one_round_of_two_kinds_times_both_trees(tmp_path):
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet", "HEAD"],
                      capture_output=True).returncode:
        pytest.skip("not a git checkout")
    out = tmp_path / "ab.json"
    done = _run("HEAD", "--rounds", "1", "--requests", "4", "--json", str(out),
                "--kinds", ",".join(f"{op}:{alias}" for op, alias in KINDS))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split()[:2] == ["kind", "HEAD"]
    assert [line.split()[:2] for line in lines[1:-1]] == [list(k) for k in KINDS] + [
        ["pooled", "p50"], ["pooled", "mean"]]
    assert lines[-1] == "failed requests: rev 0, tree 0"
    record = json.loads(out.read_text())
    assert record["failed"] == {"rev": 0, "tree": 0} and record["rounds"] == 1
    for row in record["us"].values():
        assert row["rev_us"] > 0 and row["tree_us"] > 0
        assert row["ratio"] == pytest.approx(row["tree_us"] / row["rev_us"], rel=1e-2)
