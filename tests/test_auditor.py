import copy
import dataclasses
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import seqprod as sp
from seqprod import _backends, auditor, serialize
from seqprod.algebra import trace
from seqprod.auditor import (
    ALL_LAWS,
    REFERENCE_ALGEBRAS,
    AuditEntry,
    AuditReport,
    LawId,
    SuiteConfig,
    SuiteRow,
    audit_law,
    characterization_rows,
    default_config,
    demo_characterizations,
    replay_witness,
    run_full_suite,
)

from conftest import ALGEBRA_SHORTHANDS, close_across_blocks


def _product(desc, short):
    return sp.parse_product(desc, sp.parse_algebra(short))


#: (law, default trials, default tol) of each row of the law table, in LawId order;
#: reports carry no tol, so only this catches a tolerance copied wrong
LAW_TABLE = [
    ("SEA1", 200, 1e-08),
    ("SEA2", 200, 1e-08),
    ("SEA3", 200, 1e-08),
    ("SEA4", 200, 1e-08),
    ("SEA5", 200, 1e-08),
    ("SCALAR_LINEARITY", 200, 1e-08),
    ("PRODUCT_LE_LEFT", 100, 1e-09),
    ("MONOTONE_RIGHT", 100, 1e-09),
    ("SHARP_PROPS", 50, 1e-08),
    ("FLOOR_LIMIT", 50, 1e-09),
    ("DYADIC_BOUND", 50, 1e-09),
    ("SPECTRAL_RECON", 100, 1e-09),
    ("FUNDAMENTAL_EQ", 100, 1e-09),
    ("COMMUTE_EQUIV", 100, 1e-08),
    ("SELF_DUALITY", 50, 1e-10),
    ("HOMOGENEITY", 50, 1e-08),
    ("PSEUDO_INVERSE", 50, 1e-08),
    ("DIVIDE", 50, 1e-08),
    ("INVARIANCE", 50, 1e-08),
    ("SYMMETRY", 100, 1e-08),
    ("INVERTIBILITY_PRES", 50, 1e-07),
    ("QUADRATIC_LAW", 50, 1e-08),
    ("THETA_STRUCTURE", 25, 1e-07),
]


def test_every_law_has_defaults_and_registry():
    assert len(ALL_LAWS) == 23
    for law in ALL_LAWS:
        assert law in auditor.LAWS


def test_the_law_table_keeps_every_default():
    assert [(law.value, row.trials, row.tol)
            for law, row in auditor.LAWS.items()] == LAW_TABLE


def test_only_the_auditor_names_a_law():
    package = Path(sp.__file__).parent
    name = re.compile(r"\b(" + "|".join(law.value for law in LawId) + r")\b")
    outside = []
    for path in sorted(package.glob("*.py")):
        if path.name == "auditor.py":
            continue
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            if name.search(line):
                outside.append(f"{path.name}:{number}: {line.strip()}")
    assert outside == []


def test_sea1_standard_passes():
    alg = sp.parse_algebra("complex:3")
    entry = audit_law(LawId.SEA1, _product("standard", "complex:3"), alg, 100, 7, 1e-8)
    assert entry.verdict == "pass"
    assert entry.witness is None
    assert entry.max_residual <= 1e-8


def test_symmetry_standard_spin_passes():
    alg = sp.parse_algebra("spin:4")
    entry = audit_law(LawId.SYMMETRY, _product("standard", "spin:4"), alg, 100, 3, 1e-8)
    assert entry.verdict == "pass"


def test_invariance_transpose_falsifies_twisted():
    alg = sp.parse_algebra("complex:3")
    tw = _product("twisted:1.0", "complex:3")
    entry = audit_law(LawId.INVARIANCE, tw, alg, 10, 7, 1e-8,
                      params={"iso": "transpose"}, expected="fail")
    assert entry.verdict == "fail"
    assert entry.witness is not None
    assert entry.witness["residual"] >= 1e-3
    assert entry.as_expected


def test_witness_replay_matches_reported_residual():
    for law in (LawId.INVARIANCE, LawId.SYMMETRY, LawId.INVERTIBILITY_PRES):
        params = {"iso": "transpose"} if law is LawId.INVARIANCE else None
        entry = audit_law(law, _product("twisted:1.0", "complex:3"),
                          sp.parse_algebra("complex:3"), 10, 11, 1e-3, params=params)
        assert entry.witness is not None
        replayed = replay_witness(law, entry.product, entry.algebra, entry.witness)
        assert replayed == entry.witness["residual"]


REPLAY_ROWS = ([("standard", short) for short in REFERENCE_ALGEBRAS]
               + [("twisted:0.5", "complex:3"), ("twisted:1.0", "complex:3")])


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 31 - 1), trials=st.integers(2, 3))
def test_every_witness_replays_exactly(seed, trials):
    # a tolerance this small turns every non-zero residual into a witness
    for desc, short in REPLAY_ROWS:
        alg = sp.parse_algebra(short)
        product = sp.parse_product(desc, alg)
        for law in ALL_LAWS:
            entry = audit_law(law, product, alg, trials, seed, 1e-300)
            if entry.witness is not None:
                replayed = replay_witness(law, entry.product, entry.algebra, entry.witness)
                assert replayed == entry.witness["residual"], (law, desc, short)


def test_audit_law_deterministic():
    alg = sp.parse_algebra("quat:2")
    p = _product("standard", "quat:2")
    a = audit_law(LawId.SEA4, p, alg, 20, 5, 1e-8)
    b = audit_law(LawId.SEA4, p, alg, 20, 5, 1e-8)
    da, db = a.to_json(), b.to_json()
    da.pop("elapsed_ms"), db.pop("elapsed_ms")
    assert json.dumps(da) == json.dumps(db)


def test_twisted_passes_axioms_small():
    alg = sp.parse_algebra("complex:3")
    tw = _product("twisted:0.5", "complex:3")
    for law in (LawId.SEA1, LawId.SEA3, LawId.SEA4, LawId.SCALAR_LINEARITY):
        assert audit_law(law, tw, alg, 20, 13, 1e-8).verdict == "pass"


def test_a_suite_without_rows_is_refused():
    # an empty suite would pass vacuously
    with pytest.raises(sp.ConfigError, match="a suite needs at least one row"):
        SuiteConfig(rows=[], seed=1)
    with pytest.raises(sp.ConfigError, match="a suite needs at least one row"):
        SuiteConfig.from_json({"rows": [], "seed": 1})


def test_run_full_suite_capability_error_entry():
    config = SuiteConfig(rows=[SuiteRow("SEA1", "twisted:1.0", "real:3", 5, 1e-8,
                                        expect="error")], seed=1)
    report = run_full_suite(config)
    entry = report.entries[0]
    assert entry.verdict == "error"
    assert entry.witness is None
    assert "complex" in entry.error
    assert report.status == "pass"  # the error was declared expected
    # the same row expected to pass makes the suite fail
    config = dataclasses.replace(config, rows=[dataclasses.replace(config.rows[0], expect="pass")])
    assert run_full_suite(config).status == "fail"


def test_a_suite_cannot_change_after_its_rows_are_checked():
    config = SuiteConfig(rows=[SuiteRow("SEA1")])
    assert config.rows == (SuiteRow("SEA1"),)
    with pytest.raises(AttributeError):
        config.rows.clear()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.rows[0].expect = "maybe"
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.rows = ()


def test_unavailable_isomorphism_param_is_error_entry():
    config = SuiteConfig(rows=[SuiteRow("INVARIANCE", "standard", "real:4", 5,
                                        params={"iso": "transpose"}, expect="error")],
                         seed=2)
    report = run_full_suite(config)
    assert report.entries[0].verdict == "error"
    assert "transpose" in report.entries[0].error
    assert report.status == "pass"


@pytest.mark.parametrize("iso", ["reflection", ["transpose"], 1.5])
def test_unknown_isomorphism_param_is_error_entry(iso):
    config = SuiteConfig(rows=[SuiteRow("INVARIANCE", "standard", "complex:3", 5,
                                        params={"iso": iso}, expect="error")], seed=2)
    report = run_full_suite(config)
    assert report.entries[0].verdict == "error"
    assert "unknown order isomorphism kind" in report.entries[0].error
    assert report.status == "pass"


def test_run_full_suite_deterministic():
    # one row on each test algebra, plus a twisted falsification row
    laws = ("SEA2", "COMMUTE_EQUIV", "FUNDAMENTAL_EQ", "SPECTRAL_RECON", "INVARIANCE")
    rows = [SuiteRow(law, "standard", short, 4) for law, short in zip(laws, ALGEBRA_SHORTHANDS)]
    rows.append(SuiteRow("SYMMETRY", "twisted:1.0", "complex:3", 5, 1e-3, expect="fail"))
    r1 = run_full_suite(SuiteConfig(rows=copy.deepcopy(rows), seed=9))
    r2 = run_full_suite(SuiteConfig(rows=copy.deepcopy(rows), seed=9))
    assert r1.status == "pass"
    j1, j2 = r1.to_json(), r2.to_json()
    for j in (j1, j2):
        for e in j["entries"]:
            e.pop("elapsed_ms")
    assert json.dumps(j1) == json.dumps(j2)


def test_config_errors_carry_row_index():
    with pytest.raises(sp.ConfigError, match="row 0"):
        SuiteConfig.from_json({"rows": [{"law": "NOT_A_LAW"}]})
    with pytest.raises(sp.ConfigError, match="row 1"):
        SuiteConfig.from_json({"rows": [{"law": "SEA1"},
                                        {"law": "SEA2", "expect": "maybe"}]})
    with pytest.raises(sp.ConfigError):
        SuiteConfig.from_json({"seed": 3})
    with pytest.raises(sp.ConfigError, match="row 1: seed must be non-negative"):
        SuiteConfig.from_json({"rows": [{"law": "SEA1", "seed": 0},
                                        {"law": "SEA2", "seed": -1}]})


def test_config_loads_every_field_of_a_hand_written_row():
    config = SuiteConfig.from_json({
        "schema": 1, "seed": 17,
        "rows": [{"law": "INVARIANCE", "product": "twisted:0.5", "algebra": "quat:2",
                  "trials": 12, "tol": 2.5e-6, "expect": "fail", "seed": 99,
                  "params": {"iso": "transpose"}},
                 {"law": "SEA1"}]})
    assert config.seed == 17
    row = config.rows[0]
    assert (row.law, row.product, row.algebra) == ("INVARIANCE", "twisted:0.5", "quat:2")
    assert (row.trials, row.tol, row.expect, row.seed) == (12, 2.5e-6, "fail", 99)
    assert row.params == {"iso": "transpose"}
    assert config.rows[1] == SuiteRow("SEA1")
    # a null field keeps its default, as an absent one does
    nulls = dict.fromkeys(("product", "algebra", "trials", "tol", "expect", "seed", "params"))
    assert SuiteConfig.from_json({"rows": [{"law": "SEA1", **nulls}]}).rows == (SuiteRow("SEA1"),)


def test_a_rows_params_are_read_only():
    params = {"iso": "transpose"}
    row = SuiteRow("INVARIANCE", params=params)
    params["iso"] = "unitary_conjugation"  # the row keeps its own copy
    with pytest.raises(TypeError):
        row.params["isoo"] = 1
    assert row.params == {"iso": "transpose"}
    copied = copy.deepcopy(row)
    assert copied == row and copied.params is not row.params


def test_default_config_composition():
    config = default_config()
    passes = [r for r in config.rows if r.expect == "pass"]
    fails = [r for r in config.rows if r.expect == "fail"]
    assert len(passes) >= 23
    assert len(fails) == 3
    assert {r.law for r in fails} == {"INVARIANCE", "SYMMETRY", "INVERTIBILITY_PRES"}
    assert all(r.product == "twisted:1.0" for r in fails)
    # the grid covers every law on every reference algebra with the standard product
    grid = {(r.law, r.algebra) for r in config.rows if r.product == "standard"}
    for law in ALL_LAWS:
        for alg in REFERENCE_ALGEBRAS:
            assert (law.value, alg) in grid
    # twisted products get the six axiom rows each, then THETA_STRUCTURE, however many laws stack
    assert len(config.rows) == 131
    axioms = ["SEA1", "SEA2", "SEA3", "SEA4", "SEA5", "SCALAR_LINEARITY"]
    twisted = [(r.product, r.law, r.algebra) for r in config.rows[115:128]]
    assert twisted == ([("twisted:0.5", law, "complex:3") for law in axioms]
                       + [("twisted:1.0", law, "complex:3") for law in axioms]
                       + [("twisted:1.0", "THETA_STRUCTURE", "complex:3")])
    assert all(r.expect == "pass" for r in config.rows[:128])


def test_report_json_roundtrip():
    report = run_full_suite(SuiteConfig(
        rows=[SuiteRow("SEA2", "standard", "real:3", 5),
              SuiteRow("SYMMETRY", "twisted:1.0", "complex:3", 5, 1e-3, expect="fail")],
        seed=3))
    blob = json.dumps(report.to_json())
    back = AuditReport.from_json(json.loads(blob))
    assert json.dumps(back.to_json()) == blob
    assert back.status == report.status


def test_demo_characterizations_shape():
    report = demo_characterizations(seed=42)
    assert report.status == "pass"
    assert len(report.entries) == 6
    twisted = [e for e in report.entries if e.product == "twisted:1.0"]
    standard = [e for e in report.entries if e.product == "standard"]
    assert all(e.verdict == "fail" and e.witness is not None for e in twisted)
    assert all(e.verdict == "pass" and e.max_residual <= 1e-7 for e in standard)


def test_entries_report_the_trials_that_ran():
    report = demo_characterizations(seed=42)
    for entry in report.entries:
        if entry.verdict == "fail":  # the demos ask for 10 trials and stop at the witness
            assert entry.trials == entry.witness["trial"] + 1 < 10
        else:
            assert entry.trials == 25
    error = run_full_suite(SuiteConfig(
        rows=[SuiteRow("SEA1", "twisted:1.0", "spin:4", 5, expect="error")])).entries[0]
    assert (error.verdict, error.trials) == ("error", 0)


def test_characterization_rows_are_the_three_demos():
    rows = characterization_rows()
    assert [r.law for r in rows] == ["INVARIANCE", "SYMMETRY", "INVERTIBILITY_PRES"]
    assert all(r.expect == "fail" and r.trials == 10 and r.tol == 1e-3 for r in rows)


def test_verdict_fail_iff_witness_present():
    report = run_full_suite(SuiteConfig(
        rows=[SuiteRow("SEA1", "standard", "real:3", 10),
              SuiteRow("INVARIANCE", "twisted:1.0", "complex:3", 10, 1e-3,
                       expect="fail", params={"iso": "transpose"}),
              SuiteRow("SEA1", "twisted:1.0", "spin:4", 5, expect="error")],
        seed=21))
    for e in report.entries:
        assert (e.verdict == "fail") == (e.witness is not None)
        assert e.max_residual >= 0.0


# ---------------------------------------------------------------------------
# fail-loud rows
# ---------------------------------------------------------------------------

def test_nan_residual_fails_and_is_reported(monkeypatch):
    monkeypatch.setitem(auditor.LAWS, LawId.SEA2,
                        dataclasses.replace(auditor.LAWS[LawId.SEA2],
                                            evaluate=lambda p, alg, inp: float("nan")))
    entry = audit_law("SEA2", _product("standard", "real:3"), sp.parse_algebra("real:3"),
                      trials=5, seed=1, tol=1e-8)
    assert entry.verdict == "fail"
    assert entry.witness["trial"] == 0
    assert math.isnan(entry.max_residual)


def _raising_at(law, bad_trial, exc):
    """``law``'s row with an evaluator that raises ``exc`` on a stack holding ``bad_trial``."""
    row, chunks = auditor.LAWS[law], []

    def generate(rngs, p, alg, trials, params):
        chunks.append(trials)
        return row.generate(rngs, p, alg, trials, params)

    def evaluate(p, alg, inp):
        if bad_trial in chunks[-1]:
            raise exc
        return row.evaluate(p, alg, inp)

    return dataclasses.replace(row, generate=generate, evaluate=evaluate)


@pytest.mark.parametrize("error", [sp.PreconditionError, sp.DomainError, sp.NumericalFailureError,
                                   sp.DescriptorMismatchError, RuntimeError])
def test_a_trial_that_raises_ends_its_row_with_an_error(error, monkeypatch):
    monkeypatch.setitem(auditor.LAWS, LawId.SEA2, _raising_at(LawId.SEA2, 3, error("planted")))
    entry = audit_law("SEA2", _product("standard", "real:3"), sp.parse_algebra("real:3"),
                      trials=10, seed=1, tol=1e-8)
    assert (entry.verdict, entry.trials) == ("error", 4)
    assert entry.error == f"trial 3: {error.__name__}: planted"
    # the evaluator raised on trial 3's drawn inputs: they are the witness, with no residual
    assert sorted(entry.witness) == ["inputs", "trial"] and entry.witness["trial"] == 3
    with pytest.raises(error, match="planted"):
        replay_witness("SEA2", "standard", "real:3", entry.witness)


def test_an_error_while_drawing_leaves_no_witness(monkeypatch):
    row = auditor.LAWS[LawId.SEA2]

    def generate(rngs, p, alg, trials, params):
        if 3 in trials:
            raise sp.DomainError("planted")
        return row.generate(rngs, p, alg, trials, params)

    monkeypatch.setitem(auditor.LAWS, LawId.SEA2, dataclasses.replace(row, generate=generate))
    entry = audit_law("SEA2", _product("standard", "real:3"), sp.parse_algebra("real:3"),
                      trials=10, seed=1, tol=1e-8)
    assert (entry.verdict, entry.trials, entry.witness) == ("error", 4, None)


def test_an_error_rows_witness_replays_by_raising(monkeypatch):
    # a planted defect: the product raises where a trial's second operand has trace above 1.8
    def seq_product(p, a, b):
        if np.any(trace(b) > 1.8):
            raise sp.NumericalFailureError("planted")
        return sp.seq_product(p, a, b)

    monkeypatch.setattr(auditor, "seq_product", seq_product)
    entry = audit_law("SEA2", _product("standard", "real:3"), sp.parse_algebra("real:3"),
                      trials=50, seed=1, tol=1e-8)
    assert entry.verdict == "error" and entry.witness["trial"] == entry.trials - 1
    assert entry.error == f"trial {entry.trials - 1}: NumericalFailureError: planted"
    a = serialize.inputs_from_json(entry.witness["inputs"])["a"]
    assert trace(a) > 1.8
    with pytest.raises(sp.NumericalFailureError, match="planted"):
        replay_witness("SEA2", "standard", "real:3", entry.witness)
    assert AuditEntry.from_json(json.loads(json.dumps(entry.to_json()))) == entry
    from seqprod.cli import _print_witness_block
    out = io.StringIO()
    _print_witness_block(entry, out)
    assert f"  trial {entry.trials - 1}\n" in out.getvalue() and "residual" not in out.getvalue()


@pytest.mark.parametrize("error", [sp.ConfigError("planted"), sp.CapabilityError("planted")])
def test_other_exceptions_of_a_trial_still_propagate(error, monkeypatch):
    monkeypatch.setitem(auditor.LAWS, LawId.SEA2, _raising_at(LawId.SEA2, 3, error))
    with pytest.raises(type(error), match="planted"):
        audit_law("SEA2", _product("standard", "real:3"), sp.parse_algebra("real:3"),
                  trials=10, seed=1, tol=1e-8)


def test_the_cli_reports_a_row_that_raises_and_goes_on(tmp_path, capsys, monkeypatch):
    from seqprod.cli import run_cli
    monkeypatch.setitem(auditor.LAWS, LawId.DIVIDE, _raising_at(
        LawId.DIVIDE, 3, sp.PreconditionError("divide needs a <= q")))
    out = tmp_path / "r.json"
    assert run_cli(["audit", "--algebra", "real:3", "--laws", "SEA2,DIVIDE,SEA1",
                    "--trials", "5", "--out", str(out)]) == 1
    entries = json.loads(out.read_text())["entries"]
    assert [(e["law"], e["verdict"], e["trials"]) for e in entries] == [
        ("SEA2", "pass", 5), ("DIVIDE", "error", 4), ("SEA1", "pass", 5)]
    assert entries[1]["error"] == "trial 3: PreconditionError: divide needs a <= q"
    assert "error: trial 3: PreconditionError" in capsys.readouterr().out


def test_the_cli_reports_an_exception_from_outside_the_package_and_goes_on(tmp_path, capsys,
                                                                           monkeypatch):
    from seqprod.cli import run_cli
    monkeypatch.setitem(auditor.LAWS, LawId.SEA2, _raising_at(LawId.SEA2, 1,
                                                              RuntimeError("planted")))
    out = tmp_path / "r.json"
    assert run_cli(["audit", "--algebra", "real:3", "--laws", "SEA1,SEA2", "--trials", "3",
                    "--out", str(out)]) == 1
    entries = json.loads(out.read_text())["entries"]
    assert [(e["law"], e["verdict"], e["trials"]) for e in entries] == [
        ("SEA1", "pass", 3), ("SEA2", "error", 2)]
    assert entries[1]["error"] == "trial 1: RuntimeError: planted"
    assert "error: trial 1: RuntimeError: planted" in capsys.readouterr().out


# a, then per approximant q: a - q once, q - the previous approximant, and q's own solve;
# on a chunk of one, and on its trial taken out as plain elements, as replay_witness runs it
@pytest.mark.parametrize("short, blocks", [("real:4", 1), ("complex:4", 1), ("quat:3", 1),
                                           ("sum(complex:2,real:3)", 2)])
@pytest.mark.parametrize("taken", [False, True], ids=["chunk-of-one", "single"])
def test_a_dyadic_bound_trial_solves_each_difference_once(short, blocks, taken, monkeypatch):
    alg = sp.parse_algebra(short)
    product = sp.SequentialProduct.standard(alg)
    law = auditor.LAWS[LawId.DYADIC_BOUND]
    inputs = law.generate([np.random.default_rng((42, 10, 0))], product, alg, [0], {})
    if taken:
        inputs = auditor._take(inputs, 0)
    calls, eigh = [], np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    law.evaluate(product, alg, inputs)
    assert len(calls) <= 3 * 8 * blocks


def test_a_dyadic_bound_row_builds_no_spectral_frame(monkeypatch):
    # the grid check reads the approximants' values through functional, at the clusters of
    # their own solves, and builds no idempotent
    def refused(self, a, gap):
        raise AssertionError("spectral_pairs called")

    for backend in {type(b) for b in _backends._BACKENDS.values()}:
        monkeypatch.setattr(backend, "spectral_pairs", refused)
    for short in REFERENCE_ALGEBRAS:
        alg = sp.parse_algebra(short)
        entry = audit_law(LawId.DYADIC_BOUND, sp.SequentialProduct.standard(alg), alg, 50, 7,
                          1e-9)
        assert (entry.verdict, entry.trials) == ("pass", 50), entry.error


@pytest.mark.parametrize("row", [
    {"law": "SEA1", "trials": 0},
    {"law": "SEA1", "trials": -3},
    {"law": "SEA1", "tol": "NaN"},
    {"law": "SEA1", "tol": "inf"},
    {"law": "SEA1", "tol": 0.0},
    {"law": "SEA1", "tol": -1e-8},
])
def test_vacuous_or_unbounded_rows_raise(row):
    config = SuiteConfig.from_json({"rows": [row], "seed": 1})
    with pytest.raises(sp.ConfigError):
        run_full_suite(config)


def test_audit_law_rejects_a_negative_seed():
    alg = sp.parse_algebra("real:4")
    with pytest.raises(sp.ConfigError, match="seed must be non-negative, got -1"):
        audit_law("SEA1", sp.SequentialProduct.standard(alg), alg, 3, -1, 1e-8)


@pytest.mark.parametrize("trials, seed, tol, refused", [
    (True, 0, 1e-8, "trials and seed must be integers"),
    (2.5, 0, 1e-8, "trials and seed must be integers"),
    ("3", 0, 1e-8, "trials and seed must be integers"),
    (3, 1.5, 1e-8, "trials and seed must be integers"),
    (3, False, 1e-8, "trials and seed must be integers"),
    (3, 0, True, "tol must be finite and positive"),
    (3, 0, np.True_, "tol must be finite and positive"),
    (3, 0, "1e-8", "tol must be finite and positive"),
    (3, 0, None, "tol must be finite and positive"),
    (np.True_, 0, 1e-8, "trials and seed must be integers"),
    (3.0, 0, 1e-8, None),
    (3, 7.0, 1e-8, None),
])
def test_audit_law_reads_trials_and_seed_as_config_integers(trials, seed, tol, refused):
    # the Python API refuses what a config row refuses: a boolean, a fraction or a string
    # where an integer belongs, and a tol that is not a number; an integral float is its integer
    alg = sp.parse_algebra("real:2")
    run = lambda: audit_law("SEA2", sp.SequentialProduct.standard(alg), alg, trials, seed, tol)
    if refused:
        with pytest.raises(sp.ConfigError, match=refused):
            run()
        return
    entry = run()
    assert (entry.verdict, entry.trials, entry.seed) == ("pass", 3, int(seed))
    assert type(entry.trials) is int and type(entry.seed) is int
    report = AuditReport(entries=[entry], seed=int(seed))
    assert AuditReport.from_json(json.loads(json.dumps(report.to_json()))) == report


@pytest.mark.parametrize("schema", [0, 2, "1"])
def test_config_schema_other_than_1_is_rejected(schema):
    with pytest.raises(sp.ConfigError, match="schema"):
        SuiteConfig.from_json({"schema": schema, "rows": [{"law": "SEA1"}]})


@pytest.mark.parametrize("config", [
    {"seed": "x", "rows": [{"law": "SEA1"}]},
    {"seed": None, "rows": [{"law": "SEA1"}]},
    {"seed": 1, "rows": 5},
    {"seed": 1, "rows": None},
    {"seed": 1, "rows": {"law": "SEA1"}},
    {"seed": 1.5, "rows": [{"law": "SEA1"}]},
    {"seed": True, "rows": [{"law": "SEA1"}]},
    {"seed": float("inf"), "rows": [{"law": "SEA1"}]},
    {"seed": 1, "rows": [{"law": "SEA1", "trials": 2.7}]},
    {"seed": 1, "rows": [{"law": "SEA1", "trials": True}]},
    {"seed": 1, "rows": [{"law": "SEA1", "seed": 0.5}]},
    {"seed": 1, "rows": [{"law": "SEA1", "seed": False}]},
    {"seed": "7", "rows": [{"law": "SEA1"}]},
    {"seed": 1, "rows": [{"law": "SEA1", "trials": "3"}]},
    {"sed": 7, "rows": [{"law": "SEA1"}]},
    {"seed": 1, "rows": [{"law": "SEA1", "tol": True}]},
    {"seed": 1, "rows": [{"law": "SEA1", "tol": [1e-8]}]},
    {"seed": 1, "rows": [{"law": 1, "product": "standard"}]},
    {"seed": 1, "rows": [{"law": "SEA1", "product": 1.5}]},
    {"seed": 1, "rows": [{"law": "SEA1", "algebra": ["real:3"]}]},
    {"seed": 1, "rows": [{"law": "SEA1", "expect": False}]},
    {"seed": 1, "rows": [{"law": "INVARIANCE", "params": [["iso", "transpose"]]}]},
])
def test_config_with_malformed_seed_or_rows_is_rejected(config):
    with pytest.raises(sp.ConfigError):
        SuiteConfig.from_json(config)


def test_config_integral_numbers_load_as_integers():
    config = SuiteConfig.from_json(
        {"seed": 7.0, "rows": [{"law": "SEA1", "trials": 3.0, "seed": 11}]})
    assert (config.seed, config.rows[0].trials, config.rows[0].seed) == (7, 3, 11)
    assert all(type(x) is int for x in (config.seed, config.rows[0].trials, config.rows[0].seed))


def test_quadratic_law_on_sum_with_close_block_eigenvalues():
    # suite row of seed 102: at trial 3 the blocks of (a o b)^2 have eigenvalues
    # 7e-9 apart, and merging them across blocks would move the root by about 1e-7
    alg = sp.parse_algebra("sum(complex:2,real:3)")
    entry = audit_law("QUADRATIC_LAW", sp.SequentialProduct.standard(alg), alg,
                      trials=4, seed=102000415, tol=1e-8)
    assert entry.verdict == "pass", entry.max_residual


@pytest.mark.parametrize("law", [LawId.QUADRATIC_LAW, LawId.FUNDAMENTAL_EQ, LawId.DYADIC_BOUND])
def test_laws_pass_when_the_blocks_share_an_eigenvalue(law):
    # the shared eigenvalue sits inside the clustering gap, so the spectral frame
    # merges it across the blocks
    alg = sp.parse_algebra("sum(complex:2,real:3)")
    product = sp.SequentialProduct.standard(alg)
    row = auditor.LAWS[law]
    rng = np.random.default_rng(4)
    for _ in range(20):
        inputs = {"a": close_across_blocks(alg, rng), "b": close_across_blocks(alg, rng)}
        assert len(sp.spectral_decompose(inputs["a"]).pairs) == 4
        if law is LawId.DYADIC_BOUND:
            del inputs["b"]
        assert row.evaluate(product, alg, inputs) <= row.tol


#: SPECTRAL_RECON's residuals on the close-spectra effects of seed 4 in the test above,
#: recorded when the law still ran trial by trial
CLOSE_SPECTRA_RECON = [
    6.834828202925196e-11, 9.433626162373457e-11, 2.1533657494632122e-10, 1.0828568329139537e-09,
    1.6266995592669274e-10, 3.813115978808772e-10, 3.803199399899887e-10, 5.584089790156974e-10,
    6.824352278659014e-11, 4.307123980932025e-10, 1.158735773599007e-10, 7.47079516359295e-10,
    5.360781667136042e-10, 1.5844254178381958e-10, 1.1926098272190539e-09, 1.224392696934356e-09,
    8.96488034690376e-10, 4.482052960062299e-10, 5.142710238785204e-10, 3.5469629579684645e-11,
]


def test_spectral_recon_keeps_the_cross_block_mean_of_a_shared_eigenvalue():
    # the merged eigenvalue is the trace-weighted mean of the blocks' values, so the
    # reconstruction is off by up to half the clustering gap, above the row's tol on three
    # effects; clustering within blocks only would move these residuals to round-off
    alg = sp.parse_algebra("sum(complex:2,real:3)")
    product = sp.SequentialProduct.standard(alg)
    row = auditor.LAWS[LawId.SPECTRAL_RECON]
    rng = np.random.default_rng(4)
    effects = []
    for _ in range(20):  # a and b, as the test above draws them
        effects.append(close_across_blocks(alg, rng))
        close_across_blocks(alg, rng)
    stacked = row.evaluate(product, alg, {"a": alg._backend.stack(alg, effects)}).tolist()
    assert stacked == [float(row.evaluate(product, alg, {"a": a})) for a in effects]
    np.testing.assert_allclose(stacked, CLOSE_SPECTRA_RECON, rtol=1e-6, atol=0)
    assert sum(res > row.tol for res in stacked) == 3


def test_audit_entry_json_keeps_its_key_order():
    entry = auditor.AuditEntry(law="SEA1", product="standard", algebra="real:4", trials=3,
                               seed=11, verdict="fail", expected="pass", max_residual=0.5,
                               witness={"trial": 2}, elapsed_ms=1.25, error="boom")
    head = ('{"law": "SEA1", "product": "standard", "algebra": "real:4", "trials": 3, '
            '"seed": 11, "verdict": "fail", "expected": "pass", "max_residual": 0.5, '
            '"elapsed_ms": 1.25')
    assert json.dumps(entry.to_json()) == head + ', "witness": {"trial": 2}, "error": "boom"}'
    bare = dataclasses.replace(entry, witness=None, error=None)
    assert json.dumps(bare.to_json()) == head + "}"
    # keys that are not fields are ignored; a missing witness or error is None, but a field
    # that to_json always writes must be there, the time too
    assert auditor.AuditEntry.from_json({**entry.to_json(), "note": 1}) == entry
    assert auditor.AuditEntry.from_json(bare.to_json()) == bare
    obj = bare.to_json()
    del obj["elapsed_ms"]
    with pytest.raises(sp.ConfigError, match="elapsed_ms is missing"):
        auditor.AuditEntry.from_json(obj)


def test_the_invariance_demo_witness_is_its_trial_drawn_alone():
    # the stacked row's witness is the trial's own draw: the transpose map and its a and b
    entry = next(e for e in demo_characterizations(42).entries
                 if e.law == "INVARIANCE" and e.expected == "fail")
    alg, law = sp.parse_algebra(entry.algebra), LawId.INVARIANCE
    product, trial = sp.parse_product(entry.product, alg), entry.witness["trial"]
    rng = np.random.default_rng((entry.seed, ALL_LAWS.index(law), trial))
    alone = auditor.LAWS[law].generate([rng], product, alg, [trial], {"iso": "transpose"})
    inputs = serialize.inputs_to_json(auditor._take(alone, 0))
    assert json.dumps(entry.witness["inputs"]) == json.dumps(inputs)
    assert inputs["phi"] == {"__type__": "linear_map", **serialize.linear_map_to_json(
        sp.make_order_iso(alg, "transpose"))}
    assert replay_witness(law, entry.product, entry.algebra, entry.witness) \
        == entry.witness["residual"]
