"""Smoke test of tools/setup_ab.py, the alternating cold set-up probes against a git
revision."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "setup_ab.py"


def _run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True,
                          timeout=120)


def test_an_unknown_revision_exits_2():
    done = _run("no-such-revision")
    assert done.returncode == 2
    assert done.stderr == "error: 'no-such-revision' is not a commit\n"


def test_two_probes_a_side_print_both_rows(tmp_path):
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet", "HEAD"],
                      capture_output=True).returncode:
        pytest.skip("not a git checkout")
    out = tmp_path / "setup.json"
    done = _run("HEAD", "--probes", "2", "--json", str(out))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "raw set-up of kernel-api, 2 probes a side, no bytecode cache"
    assert [line.split()[0] for line in lines[1:]] == ["side", "HEAD", "tree", "tree/rev"]
    record = json.loads(out.read_text())
    assert (record["workload"], record["probes"]) == ("kernel-api", 2)
    for line, side in zip(lines[2:4], ("rev", "tree")):
        row, samples = record[side], record["samples_s"][side]
        assert len(samples) == 2 and all(0 < s < 60 for s in samples)
        q1, q3 = row["quartiles_s"]
        assert q1 <= row["median_s"] <= q3
        assert line.split()[1:] == [f"{row['median_s']:.4f}", f"{q1:.4f}-{q3:.4f}",
                                    f"{row['won']}/2"]
    assert record["rev"]["won"] + record["tree"]["won"] <= 2
