"""Smoke test of tools/kind_ab.py, the in-process timing of kernel-api kinds against a git
revision."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
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
    done = _run("HEAD", "--rounds", "3", "--requests", "4", "--json", str(out),
                "--kinds", ",".join(f"{op}:{alias}" for op, alias in KINDS))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split()[:2] == ["kind", "HEAD"]
    assert [line.split()[:2] for line in lines[1:-1]] == [list(k) for k in KINDS] + [
        ["pooled", "p50"], ["pooled", "mean"], ["pooled", "p99"]]
    assert lines[-1] == "failed requests: rev 0, tree 0"
    record = json.loads(out.read_text())
    assert record["failed"] == {"rev": 0, "tree": 0} and record["rounds"] == 3
    for line, row in zip(lines[1:-1], record["us"].values()):
        # the row's statistic left of the bar, its p90 right of it, each reported alike
        for cells, stat in zip(line.split(" | p90 "), (row, row["p90"])):
            assert stat["rev_us"] > 0 and stat["tree_us"] > 0
            assert stat["ratio"] == pytest.approx(stat["tree_us"] / stat["rev_us"], rel=1e-2)
            assert 0 <= stat["wins"] <= 3 and f" {stat['wins']}/3 " in cells
            for side in ("rev", "tree"):
                q1, q3 = stat[f"{side}_quartiles_us"]
                assert 0 < q1 <= q3 and f"{q1:6.2f}-{q3:.2f}" in cells
        assert row["p90"]["tree_us"] >= row["tree_us"] or line.split()[1] in ("mean", "p99")


def _load(monkeypatch):
    """tools/kind_ab.py as a module; the BLAS thread count it sets is restored afterwards."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    spec = importlib.util.spec_from_file_location("kind_ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rounds_won_and_quartiles_of_the_round_medians(monkeypatch):
    # two kinds, three rounds of two requests each.  Round medians of kind a: rev 5, 5, 8, and
    # tree 3, 5, 2, which wins rounds 0 and 2 and ties round 1.  The pooled rows take each
    # round's requests of both kinds together
    us = 1e-6
    times = {"rev": {("a", "x"): [v * us for v in (4, 6, 5, 5, 8, 8)],
                     ("b", "y"): [v * us for v in (1, 1, 1, 1, 1, 1)]},
             "tree": {("a", "x"): [v * us for v in (3, 3, 5, 5, 2, 2)],
                      ("b", "y"): [v * us for v in (2, 2, 1, 1, 2, 2)]}}
    rows = _load(monkeypatch).table(times, 3)
    assert list(rows) == ["a x", "b y", "pooled p50", "pooled mean", "pooled p99"]
    a = rows["a x"]
    assert (a["rev_us"], a["tree_us"], a["wins"]) == (5.5, 3.0, 2)
    assert a["rev_quartiles_us"] == [5.0, 6.5] and a["tree_quartiles_us"] == [2.5, 4.0]
    assert rows["b y"]["wins"] == 0
    # round medians of the pooled requests: rev 2.5, 3, 4.5; tree 2.5, 3, 2
    assert rows["pooled p50"]["wins"] == 1
    assert rows["pooled p50"]["rev_quartiles_us"] == [2.75, 3.75]
    # round means: rev 3, 3, 4.5; tree 2.5, 3, 2
    assert rows["pooled mean"]["wins"] == 2 and rows["pooled mean"]["tree_us"] == 2.5


def test_the_tail_column_and_the_pooled_p99_row(monkeypatch):
    # one kind, two rounds of five requests.  Round p90s of the linear percentile: rev 7.6 and
    # 18, tree 7.6 and 10.2; the tree ties round 0 and wins round 1.  Over both rounds' ten
    # requests the p90 is 15.5 on rev and 10.1 on the tree
    us = 1e-6
    times = {"rev": {("a", "x"): [v * us for v in (1, 2, 3, 4, 10, 1, 2, 3, 20, 15)]},
             "tree": {("a", "x"): [v * us for v in (1, 2, 3, 4, 10, 1, 2, 3, 9, 11)]}}
    kind_ab = _load(monkeypatch)
    rows = kind_ab.table(times, 2)
    tail = rows["a x"]["p90"]
    assert (tail["rev_us"], tail["tree_us"], tail["wins"]) == (15.5, 10.1, 1)
    assert tail["rev_quartiles_us"] == [10.2, 15.4] and tail["tree_quartiles_us"] == [8.25, 9.55]
    assert tail["ratio"] == round(10.1 / 15.5, 4)
    # the pooled p99 row: the 99th percentile of the pooled requests, per round and overall
    p99 = rows["pooled p99"]
    assert p99["rev_us"] == round(float(np.percentile(times["rev"][("a", "x")], 99)) / us, 2)
    assert p99["wins"] == 1  # round 0 ties (9.76 each), round 1: 10.92 against 19.8
    assert rows["pooled p99"]["p90"] == rows["pooled p50"]["p90"] == tail
