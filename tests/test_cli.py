import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seqprod as sp
from seqprod.auditor import (
    AuditReport,
    LawId,
    SuiteConfig,
    SuiteRow,
    falsification_row,
    run_full_suite,
)
from seqprod.cli import run_cli
from seqprod.serialize import element_to_json


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_version(capsys):
    assert run_cli(["version"]) == 0
    assert "seqprod 0.1.0" in capsys.readouterr().out


def test_unknown_flag_exits_2(capsys):
    assert run_cli(["audit", "--bogus"]) == 2


def test_unknown_subcommand_exits_2(capsys):
    assert run_cli(["frobnicate"]) == 2


def test_demo_characterizations(tmp_path, capsys):
    out = tmp_path / "demo.json"
    rc = run_cli(["demo", "characterizations", "--seed", "42", "--out", str(out)])
    printed = capsys.readouterr().out
    assert rc == 0
    assert printed.count("witness ") == 3
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["status"] == "pass"
    assert len(report["entries"]) == 6


def test_decompose_identity(tmp_path, capsys):
    alg = sp.parse_algebra("complex:3")
    infile = _write(tmp_path / "id3.json", element_to_json(sp.identity(alg)))
    out = tmp_path / "dec.json"
    rc = run_cli(["decompose", "--in", infile, "--out", str(out)])
    printed = capsys.readouterr().out
    assert rc == 0
    assert "1 distinct eigenvalues" in printed
    dec = json.loads(out.read_text())
    assert len(dec["pairs"]) == 1
    assert dec["pairs"][0]["eigenvalue"] == pytest.approx(1.0)


@pytest.mark.parametrize("gap", ["nan", "inf"])
def test_decompose_refuses_a_gap_that_is_not_finite_and_positive(tmp_path, capsys, gap):
    a = sp.Element(sp.real_symmetric(3), np.diag([0.5, 0.5, 0.2]))
    infile = _write(tmp_path / "a.json", element_to_json(a))
    assert run_cli(["decompose", "--in", infile, "--gap", gap]) == 2
    assert "gap must be finite and positive" in capsys.readouterr().err


def test_decompose_missing_file_exits_2(tmp_path, capsys):
    assert run_cli(["decompose", "--in", str(tmp_path / "nope.json")]) == 2


def test_decompose_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["decompose", "--in", str(bad)]) == 2


def test_adhoc_twisted_on_real_exits_2(capsys):
    rc = run_cli(["audit", "--algebra", "real:3", "--product", "twisted:1.0",
                  "--laws", "all", "--trials", "5", "--seed", "42"])
    assert rc == 2
    assert "complex" in capsys.readouterr().err


@pytest.mark.parametrize("product", ["twisted:0", "twisted:0.00"])
def test_adhoc_zero_twist_expects_no_failures(product, capsys):
    # a zero twist is the standard product, so SYMMETRY is expected to pass
    rc = run_cli(["audit", "--algebra", "complex:3", "--product", product,
                  "--laws", "SEA2,SYMMETRY", "--trials", "5", "--seed", "42"])
    assert rc == 0
    assert "overall: pass" in capsys.readouterr().out


@pytest.mark.parametrize("product", ["twisted:nan", "twisted:inf"])
def test_adhoc_non_finite_twist_exits_2(product, capsys):
    rc = run_cli(["audit", "--algebra", "complex:3", "--product", product,
                  "--laws", "SEA1", "--trials", "5", "--seed", "42"])
    assert rc == 2
    assert "finite" in capsys.readouterr().err


def test_adhoc_zero_trials_exits_2(capsys):
    assert run_cli(["audit", "--algebra", "real:3", "--laws", "SEA2", "--trials", "0"]) == 2


def test_adhoc_unknown_law_exits_2(capsys):
    assert run_cli(["audit", "--algebra", "real:3", "--laws", "SEA9"]) == 2


def test_adhoc_audit_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = run_cli(["audit", "--algebra", "complex:2", "--laws", "SEA1,SEA2,SYMMETRY",
                  "--trials", "10", "--seed", "3", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert [e["law"] for e in report["entries"]] == ["SEA1", "SEA2", "SYMMETRY"]
    assert report["status"] == "pass"


def test_adhoc_twisted_expected_failures_give_exit_0(capsys):
    # the three uniqueness laws are *expected* to fail for a twisted product
    rc = run_cli(["audit", "--algebra", "complex:3", "--product", "twisted:1.0",
                  "--laws", "SEA1,INVARIANCE,SYMMETRY,INVERTIBILITY_PRES",
                  "--trials", "10", "--seed", "42"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "overall: pass" in printed


def _without_times(report: dict) -> dict:
    for entry in report["entries"]:
        entry.pop("elapsed_ms")
    return report


def test_adhoc_twisted_expected_failures_are_the_falsification_rows(tmp_path, capsys):
    # INVARIANCE under the transpose, as in the demo: a unitary conjugation keeps a twisted
    # product, so a row without the iso passes on those trials
    out = tmp_path / "adhoc.json"
    rc = run_cli(["audit", "--algebra", "complex:2", "--product", "twisted:0.5",
                  "--laws", "INVARIANCE,SYMMETRY", "--seed", "8", "--out", str(out)])
    assert rc == 0
    rows = [falsification_row(law, "twisted:0.5", "complex:2")
            for law in (LawId.INVARIANCE, LawId.SYMMETRY)]
    want = run_full_suite(SuiteConfig(rows=rows, seed=8)).to_json()
    assert _without_times(json.loads(out.read_text())) == _without_times(want)
    assert rows[0].params == {"iso": "transpose"}


def _module_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -m seqprod.cli args`` in a subprocess, on this checkout's sources."""
    src = str(Path(sp.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "seqprod.cli", *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))


def test_the_module_runs_the_cli():
    audit = _module_cli("audit", "--algebra", "real:2", "--laws", "SEA2", "--trials", "1")
    assert audit.returncode == 0
    assert "overall: pass" in audit.stdout
    assert _module_cli("audit", "--bogus").returncode == 2


def test_config_audit_roundtrip_and_determinism(tmp_path, capsys):
    config = {
        "schema": 1,
        "seed": 5,
        "rows": [
            {"law": "SEA2", "algebra": "real:3", "trials": 10},
            {"law": "SPECTRAL_RECON", "algebra": "spin:4", "trials": 10},
            {"law": "SEA1", "product": "twisted:1.0", "algebra": "real:3",
             "expect": "error"},
        ],
    }
    cfg = _write(tmp_path / "config.json", config)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli(["audit", "--config", cfg, "--out", str(out1)]) == 0
    assert run_cli(["audit", "--config", cfg, "--out", str(out2)]) == 0
    r1, r2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    # parsers round-trip the written report with zero diff
    assert AuditReport.from_json(r1).to_json() == r1
    assert _without_times(r1) == _without_times(r2)


def test_config_with_unexpected_failure_exits_1(tmp_path, capsys):
    config = {"rows": [{"law": "SYMMETRY", "product": "twisted:1.0",
                        "algebra": "complex:3", "trials": 5, "tol": 1e-3}], "seed": 7}
    cfg = _write(tmp_path / "config.json", config)
    assert run_cli(["audit", "--config", cfg]) == 1


def test_config_malformed_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path / "config.json", {"rows": [{"law": "NOPE"}]})
    assert run_cli(["audit", "--config", cfg]) == 2


def test_config_fractional_trials_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path / "config.json", {"seed": 1, "rows": [{"law": "SEA1", "trials": 2.7}]})
    assert run_cli(["audit", "--config", cfg]) == 2


def test_config_negative_row_seed_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path / "config.json",
                 {"rows": [{"law": "SEA1", "algebra": "real:4", "seed": -1, "trials": 3}]})
    assert run_cli(["audit", "--config", cfg]) == 2
    assert "error: row 0: seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("row, message", [
    ({"law": "SEA9"}, "unknown law 'SEA9'"),
    ({"law": "SEA1", "expect": "maybe"}, "expect must be pass, fail or error, got 'maybe'"),
    ({"law": "SEA1", "seed": -1}, "seed must be non-negative, got -1"),
    ({"law": "INVARIANCE", "params": {"isoo": "transpose"}}, "INVARIANCE reads no param 'isoo'"),
    ({"law": "SEA1", "params": {"iso": "transpose"}}, "SEA1 reads no param 'iso'"),
])
def test_a_row_is_refused_the_same_way_wherever_it_is_built(tmp_path, capsys, row, message):
    with pytest.raises(sp.ConfigError) as refused:
        SuiteRow(**row)
    assert str(refused.value) == message
    cfg = _write(tmp_path / "config.json", {"rows": [{"law": "SEA1"}, row]})
    assert run_cli(["audit", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: row 1: {message}\n"
    if set(row) == {"law"}:  # --laws sets only the law of a row
        assert run_cli(["audit", "--algebra", "real:3", "--laws", f"SEA1,{row['law']}"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("config, message", [
    ({"rows": [{"law": "SEA1", "algebra": "real:3", "trails": 1, "tolerance": 1e-30}]},
     "row 0: unknown key 'trails'"),
    ({"schema": True, "rows": [{"law": "SEA1"}]},
     "unsupported suite config schema True; expected 1"),
    ({"sed": 7, "rows": [{"law": "SEA1"}]}, "suite config has an unknown key 'sed'"),
])
def test_a_config_that_would_be_read_in_part_exits_2(tmp_path, capsys, config, message):
    cfg = _write(tmp_path / "config.json", config)
    assert run_cli(["audit", "--config", cfg]) == 2
    printed = capsys.readouterr()
    assert printed.out == "" and printed.err == f"error: {message}\n"


@pytest.mark.parametrize("flags, named", [
    (["--laws", "SEA1", "--trials", "1"], "--laws, --trials"),
    (["--product", "standard"], "--product"),
    (["--tol", "1e-3"], "--tol"),
    (["--laws", "all"], "--laws"),
])
def test_ad_hoc_flags_without_algebra_exit_2(tmp_path, capsys, flags, named):
    cfg = _write(tmp_path / "config.json", {"rows": [{"law": "SEA2", "algebra": "real:3"}]})
    for argv in ([], ["--config", cfg]):
        assert run_cli(["audit", *argv, *flags, "--seed", "42"]) == 2
        printed = capsys.readouterr()
        assert printed.out == "" and printed.err == f"error: {named} shape only --algebra rows\n"


def test_a_suite_without_rows_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path / "config.json", {"rows": []})
    for argv in (["--config", cfg], ["--algebra", "real:3", "--laws", ","]):
        assert run_cli(["audit", *argv]) == 2
        printed = capsys.readouterr()
        assert printed.out == "" and printed.err == "error: a suite needs at least one row\n"


@pytest.mark.parametrize("command", [
    ["decompose", "--in", "{}"], ["audit", "--config", "{}"], ["report", "diff", "{}", "{}"]])
def test_an_unreadable_input_file_exits_2(tmp_path, capsys, command):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"rows": "\u00e9"}'.encode("latin-1"))
    for path in (tmp_path, latin1):  # a directory, and a file that is not UTF-8
        assert run_cli([arg.format(path) for arg in command]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_env_seed_is_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SEQPROD_SEED", "17")
    out = tmp_path / "r.json"
    assert run_cli(["audit", "--algebra", "real:2", "--laws", "SEA2",
                    "--trials", "5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 17
    monkeypatch.setenv("SEQPROD_SEED", "not-a-number")
    assert run_cli(["audit", "--algebra", "real:2", "--laws", "SEA2"]) == 2


# ---------------------------------------------------------------------------
# report diff
# ---------------------------------------------------------------------------

def _entry(law="SEA1", algebra="real:4", seed=5, verdict="pass", expected="pass",
           residual=1e-15, trial=None, ms=2.0):
    entry = {"law": law, "product": "standard", "algebra": algebra, "trials": 200, "seed": seed,
             "verdict": verdict, "expected": expected, "max_residual": residual,
             "elapsed_ms": ms}
    if trial is not None:
        entry.update(trials=trial + 1, witness={"trial": trial, "residual": residual,
                                                 "inputs": {}})
    return entry


def _report(*entries):
    return {"schema": 1, "seed": 42, "status": "pass", "entries": list(entries)}


def _diff(tmp_path, a, b, *flags):
    paths = [_write(tmp_path / name, rep) for name, rep in (("a.json", a), ("b.json", b))]
    return run_cli(["report", "diff", *paths, *flags])


def test_report_diff_of_two_audits_of_one_seed_exits_0(tmp_path, capsys):
    outs = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for out in outs:
        assert run_cli(["audit", "--algebra", "complex:2", "--laws", "SEA1,SYMMETRY",
                        "--trials", "5", "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run_cli(["report", "diff", *map(str, outs)]) == 0
    printed = capsys.readouterr().out
    assert "2 rows paired, 0 changed; largest drift 0.000e+00" in printed
    assert "CHANGED" not in printed


@pytest.mark.parametrize("field, value", [
    ("verdict", "fail"), ("expected", "fail"), ("trial", 7)])
def test_report_diff_exits_1_on_a_verdict_expectation_or_witness_change(tmp_path, capsys,
                                                                          field, value):
    before = _entry(law="SEA2", trial=3, verdict="fail", expected="pass")
    after = dict(before, witness=dict(before["witness"]))
    if field == "trial":
        after["witness"]["trial"] = value
    else:
        after[field] = value if before[field] != value else "pass"
    assert _diff(tmp_path, _report(_entry(), before), _report(_entry(), after)) == 1
    printed = capsys.readouterr().out
    lines = [line for line in printed.splitlines() if "CHANGED" in line]
    assert len(lines) == 1 and lines[0].startswith("SEA2")
    assert "2 rows paired, 1 changed" in printed


def test_report_diff_exits_1_when_fewer_trials_ran(tmp_path, capsys):
    outs = [tmp_path / "all.json", tmp_path / "few.json"]
    for out, trials in zip(outs, ([], ["--trials", "3"])):
        assert run_cli(["audit", "--algebra", "real:3", "--laws", "SEA1,SEA2", "--seed", "5",
                        *trials, "--out", str(out)]) == 0
    capsys.readouterr()
    assert run_cli(["report", "diff", *map(str, outs)]) == 1
    printed = capsys.readouterr().out
    lines = [line for line in printed.splitlines() if "CHANGED" in line]
    assert [line.split()[0] for line in lines] == ["SEA1", "SEA2"]
    assert all("200->3" in line for line in lines)
    assert "2 rows paired, 2 changed" in printed


def test_report_diff_lists_a_witness_that_appears(tmp_path, capsys):
    assert _diff(tmp_path, _report(_entry()), _report(_entry(verdict="fail", trial=12))) == 1
    assert "pass->fail" in capsys.readouterr().out


@pytest.mark.parametrize("ra, rb, drift", [
    (0.5, 0.5 + 1e-11, 1e-11),     # below 1 the drift is absolute
    (1e3, 1e3 + 1e-7, 1e-10),      # above it, relative to the larger residual
    (2.0, 1.0, 0.5),
])
def test_report_diff_exits_1_on_drift_above_the_limit(tmp_path, capsys, ra, rb, drift):
    a, b = _report(_entry(residual=ra)), _report(_entry(residual=rb))
    assert _diff(tmp_path, a, b) == 1  # default limit 1e-12
    printed = capsys.readouterr().out
    assert f"largest drift {drift:.3e} (SEA1 standard real:4 5)" in printed
    assert _diff(tmp_path, a, b, "--max-drift", f"{drift * 1.01!r}") == 0
    assert _diff(tmp_path, a, b, "--max-drift", f"{drift * 0.99!r}") == 1


def test_report_diff_pairs_rows_by_key_not_by_order(tmp_path, capsys):
    rows = [_entry(law="SEA1", ms=2.0), _entry(law="SEA2", ms=1.0)]
    later = [_entry(law="SEA2", ms=3.0), _entry(law="SEA1", ms=1.0)]
    assert _diff(tmp_path, _report(*rows), _report(*later)) == 0
    printed = capsys.readouterr().out
    # time ratios B/A per row, and over the report
    assert [line.split()[-1] for line in printed.splitlines()[2:4]] == ["0.50", "3.00"]
    assert "time B/A 1.333" in printed


def test_report_diff_compares_non_finite_residuals(tmp_path, capsys):
    nan, inf = float("nan"), float("inf")
    assert _diff(tmp_path, _report(_entry(residual=nan)), _report(_entry(residual=nan))) == 0
    assert _diff(tmp_path, _report(_entry(residual=inf)), _report(_entry(residual=inf))) == 0
    for ra, rb in ((nan, 0.0), (0.0, nan), (inf, 1.0), (1.0, inf), (inf, -inf), (nan, inf)):
        assert _diff(tmp_path, _report(_entry(residual=ra)), _report(_entry(residual=rb))) == 1


@pytest.mark.parametrize("b", [
    _report(_entry(seed=5)),                                   # a row missing
    _report(_entry(seed=5), _entry(seed=6), _entry(seed=7)),   # a row added
    _report(_entry(seed=5), _entry(seed=8)),                   # a row's seed moved
    _report(_entry(seed=5), _entry(seed=6), _entry(seed=6)),   # two rows with one key
])
def test_report_diff_exits_2_when_rows_do_not_pair(tmp_path, capsys, b):
    assert _diff(tmp_path, _report(_entry(seed=5), _entry(seed=6)), b) == 2
    assert "error:" in capsys.readouterr().err


#: report files that both readers, AuditReport.from_json and report diff, refuse
MALFORMED_REPORTS = [
    [],
    {"schema": 2, "seed": 1, "entries": []},
    {"seed": 1, "entries": []},
    {"schema": 1, "seed": 1, "entries": {}},
    _report("SEA1"),
    _report({k: v for k, v in _entry().items() if k != "max_residual"}),
    _report(_entry(residual="1e-15")),
    _report(dict(_entry(), seed=True)),
    _report(dict(_entry(), seed=5.0)),
    _report(dict(_entry(), witness={"trial": "3"})),
    _report(dict(_entry(), witness=[3])),
    _report({k: v for k, v in _entry().items() if k != "trials"}),
    _report({k: v for k, v in _entry().items() if k != "elapsed_ms"}),
    _report(dict(_entry(), verdict=None)),
    {"schema": 1, "entries": [_entry()]},
    dict(_report(_entry()), schema=True),
]


@pytest.mark.parametrize("b", MALFORMED_REPORTS)
def test_report_diff_exits_2_on_a_malformed_report(tmp_path, capsys, b):
    assert _diff(tmp_path, _report(_entry()), b) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("b", MALFORMED_REPORTS)
def test_audit_report_from_json_refuses_a_malformed_report(b):
    with pytest.raises(sp.ConfigError):
        AuditReport.from_json(b)


def test_report_diff_exits_2_on_a_missing_or_unparsable_file(tmp_path, capsys):
    a = _write(tmp_path / "a.json", _report(_entry()))
    assert run_cli(["report", "diff", a, str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["report", "diff", str(bad), a]) == 2
    for limit in ("-1", "nan", "inf"):
        assert run_cli(["report", "diff", a, a, "--max-drift", limit]) == 2
    assert run_cli(["report", "diff", a]) == 2
