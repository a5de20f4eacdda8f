"""Tests of the benchmark's own logic: python3 -m pytest bench"""

import json
from pathlib import Path

import numpy as np
import pytest

import seqprod
import seqprod.products

import audit
import kernelapi
import run
import speed
import stats
from tracer import Tracer, self_times, summarize

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_self_time_subtracts_direct_children():
    # A[0,10] holds B[1,4] (which holds C[2,3]) and B[5,9]
    name_id = np.array([0, 1, 2, 1])
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    assert self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0]
    s = summarize(["A", "B", "C"], name_id, parent, start, end)
    assert s["A"] == {"calls": 1, "self_s": 3.0, "incl_s": 10.0}
    assert s["B"] == {"calls": 2, "self_s": 6.0, "incl_s": 7.0}
    assert s["C"] == {"calls": 1, "self_s": 1.0, "incl_s": 1.0}


def test_recursion_is_counted_once_in_inclusive_time():
    # A[0,10] > A[2,5] > A[3,4], then A[11,12]
    name_id = np.array([0, 0, 0, 0])
    parent = np.array([-1, 0, 1, -1])
    start = np.array([0.0, 2.0, 3.0, 11.0])
    end = np.array([10.0, 5.0, 4.0, 12.0])
    s = summarize(["A"], name_id, parent, start, end)
    assert s["A"] == {"calls": 4, "self_s": 11.0, "incl_s": 11.0}


def test_tracer_records_parents_only_while_active():
    t = Tracer()
    leaf = t.wrap(lambda x: x, "leaf")
    outer = t.wrap(lambda x: leaf(x) + leaf(x), "outer")
    t.active = True
    assert outer(2) == 4
    t.active = False
    outer(2)
    _, parent, start, end = t.arrays()
    assert parent.tolist() == [-1, 0, 0]
    assert np.all(end >= start)
    s = t.summary()
    assert (s["outer"]["calls"], s["leaf"]["calls"]) == (1, 2)
    assert 0.0 <= s["outer"]["self_s"] <= s["outer"]["incl_s"]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.samples_beyond(131, 90) == 13
    assert stats.tail_percentile(20) == 50
    assert stats.tail_percentile(91) == 50
    assert stats.tail_percentile(131) == 90
    assert stats.tail_percentile(901) == 90
    assert stats.tail_percentile(902) == 99
    assert stats.tail_percentile(10 ** 6) == 99
    with pytest.raises(ValueError):
        stats.tail_percentile(19)


def test_percentile_is_a_smooth_estimate_of_the_quantile():
    assert stats.percentile(range(1, 102), 50) == pytest.approx(51.0)
    assert stats.percentile([3.0], 99) == 3.0
    assert stats.percentile([2.0] * 7, 90) == pytest.approx(2.0)
    uniform = np.linspace(0.0, 1.0, 10001)
    for q in (50, 90, 99):
        assert stats.percentile(uniform, q) == pytest.approx(q / 100, abs=1e-3)
    # a gap at the median: the order statistic jumps by the gap when one
    # sample crosses it, the Harrell-Davis estimate moves by a fraction
    low, high = [1.0] * 65 + [2.0] * 66, [1.0] * 66 + [2.0] * 65
    step = stats.percentile(low, 50) - stats.percentile(high, 50)
    assert 0.0 < step < 0.2
    with pytest.raises(ValueError):
        stats.percentile([1.0, 2.0], 100)


def test_decompose_repeat_share_counts_the_same_element_object():
    alg = seqprod.parse_algebra("complex:3")
    a, b = seqprod.random_effect(alg, 1), seqprod.random_effect(alg, 2)
    twin = seqprod.Element(alg, a.data)  # equal values, a different object
    original = seqprod.spectral_decompose
    t = Tracer()
    t.install(seqprod)
    try:
        seqprod.spectral_decompose(a)  # inactive: not counted
        t.active = True
        for x in (a, b, a, twin, a):
            seqprod.spectral_decompose(x)
        t.active = False
    finally:
        t.uninstall()
    assert seqprod.spectral_decompose is original
    assert (t.decompose_calls, t.decompose_repeats) == (5, 2)
    assert t.summary()["spectral.spectral_decompose"]["calls"] == 5


def _mutant_product(p, a, b):
    """a b a without the square root."""
    return seqprod.quadratic_rep(a, b)


@pytest.mark.parametrize("planted", [False, True])
def test_planted_defect_drives_error_ratio_above_zero(monkeypatch, planted):
    if planted:
        monkeypatch.setattr(seqprod, "seq_product", _mutant_product)
        monkeypatch.setattr(seqprod.products, "seq_product", _mutant_product)
    res = kernelapi.run_loop(seed=3, requests=300)
    assert res.attempted == 300
    assert (res.failed > 0) == planted


def test_audit_gate_checks_verdicts_and_witness_replay():
    alg = seqprod.parse_algebra("complex:3")
    entry = seqprod.audit_law("SYMMETRY", seqprod.parse_product("twisted:1.0", alg), alg,
                              trials=3, seed=5, tol=1e-3, expected="fail").to_json()
    entry = json.loads(json.dumps(entry))
    assert audit.row_ok(entry)
    assert audit.trials_run(entry) == entry["witness"]["trial"] + 1
    tampered = json.loads(json.dumps(entry))
    tampered["witness"]["residual"] *= 1.001
    assert not audit.row_ok(tampered)
    mismatch = dict(entry, expected="pass")
    assert not audit.row_ok(mismatch)
    report = {"status": "pass", "entries": [entry]}
    timing = {"exit_codes": [0, 0], "pass_walls": [1.0, 1.0],
              "slices": [[speed.REFERENCE_S] * 2] * 2}
    ok = audit.evaluate(audit.AuditRun(reports=[report, report], **timing))
    assert (ok["failed"], ok["passes"]) == (0, 2)
    drift = {"status": "pass", "entries": [dict(entry, verdict="pass", witness=None)]}
    bad = audit.evaluate(audit.AuditRun(reports=[report, drift], **timing))
    assert bad["failed"] > 0


def test_row_alias_matches_the_exact_product():
    assert audit.row_alias("complex:3", "twisted:1.0") == "complex3-tw"
    assert audit.row_alias("complex:3", "twisted:0.5") == "complex3-tw05"
    assert audit.row_alias("sum(complex:2,real:3)", "standard") == "sum-c2r3"
    with pytest.raises(KeyError):
        audit.row_alias("complex:3", "twisted:2.0")


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(capsys, trace, key):
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert run.main(["--workload", "kernel-api", "--seed", "4", "--seconds", "0.4",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
