"""The seeded verdicts of the default suite and the demo, against their committed record.

``seeded_verdicts.json`` holds, per row of ``seqprod audit --seed 42`` and of
``seqprod demo characterizations --seed 42``: law, product, algebra, the trials
that ran, verdict, expectation and witness trial.  Residual bits depend on the
BLAS build and the CPU, so they are left to ``seqprod report diff``; a change
that moves a verdict on purpose rewrites the record in the same commit with

    PYTHONPATH=src python tests/test_seeded_verdicts.py
"""

import json
from pathlib import Path

from seqprod.cli import run_cli

RECORD = Path(__file__).with_name("seeded_verdicts.json")
COMMANDS = {"audit": ["audit", "--seed", "42"],
            "demo": ["demo", "characterizations", "--seed", "42"]}
FIELDS = ("law", "product", "algebra", "trials", "verdict", "expected")


def _rows(report: dict) -> list:
    return [[entry[k] for k in FIELDS] + [(entry.get("witness") or {}).get("trial")]
            for entry in report["entries"]]


def _run(name: str, out: Path) -> list:
    assert run_cli(COMMANDS[name] + ["--out", str(out)]) == 0
    return _rows(json.loads(out.read_text()))


def test_the_seeded_verdicts_match_the_record(tmp_path, capsys):
    record = json.loads(RECORD.read_text())
    assert record["fields"] == list(FIELDS) + ["witness_trial"]
    for name in COMMANDS:
        got = _run(name, tmp_path / f"{name}.json")
        want = record[name]
        assert len(got) == len(want), name
        changed = [(w, g) for w, g in zip(want, got) if w != g]
        assert not changed, f"{name}: {len(changed)} rows changed, first {changed[0]}"


def _write_record(scratch: Path):
    rows = {name: _run(name, scratch / f"{name}.json") for name in COMMANDS}
    lines = ['{', f'  "fields": {json.dumps(list(FIELDS) + ["witness_trial"])},']
    for k, (name, table) in enumerate(rows.items()):
        lines.append(f'  "{name}": [')
        lines += [f"    {json.dumps(row)}" + ("," if j < len(table) - 1 else "")
                  for j, row in enumerate(table)]
        lines.append("  ]" + ("," if k < len(rows) - 1 else ""))
    lines.append("}")
    RECORD.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()):
        _write_record(Path(scratch))
    print(f"wrote {RECORD}")
