"""Compare the reports of the working tree with those of a git revision, row by row.

Usage: python tools/report_gate.py REV

Exports ``src/`` at REV with ``git archive`` into a temporary directory (no worktree is
registered in ``.git``), then runs on both trees, each command in its own subprocess,
``seqprod audit --seed S --out`` for S in 42, 7, 2024 and 102 and ``seqprod demo
characterizations --seed 42 --out``.  Each pair of reports goes through the working tree's
``seqprod report diff --max-drift 0``, REV's report as A, whose summary line is printed with
the rows it flags ``<-- CHANGED`` under it, then how many of them changed their trials,
verdict, expectation or witness trial and how many only drifted; the next line adds these
up over every report, and the last names each law whose rows only drifted, with its row
count and largest drift.
Exits 0 when every pair is unchanged (the same trials run, verdicts, expectations and
witness trials, and residuals equal to the bit), 1 on any change, and 2 when REV is not a
commit or a run writes no report.  Standard library only.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: the report of each command line, by name
RUNS = {f"audit-seed{seed}": ["audit", "--seed", str(seed)] for seed in (42, 7, 2024, 102)}
RUNS["demo-seed42"] = ["demo", "characterizations", "--seed", "42"]


def seqprod(src: Path, args: list[str]) -> subprocess.CompletedProcess:
    """``seqprod args`` run on the package sources under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", "from seqprod.cli import main; main()", *args],
                          env=env, capture_output=True, text=True)


def flagged(lines: list[str]) -> list[str]:
    """The rows of ``report diff`` output ``lines`` that it flags as changed."""
    return [line for line in lines if line.endswith("<-- CHANGED")]


def changes(rows: list[str]) -> tuple[int, int]:
    """(rows whose trials, verdict, expectation or witness trial changed, rows that only
    drifted) among flagged ``rows``: ``report diff`` writes a changed field as ``A->B``."""
    moved = sum("->" in row for row in rows)
    return moved, len(rows) - moved


def drifted_laws(rows: list[str]) -> dict[str, tuple[int, float]]:
    """law -> (rows, largest drift) of the flagged ``rows`` that only drifted: a row starts
    with its law, and its drift is the fourth field from the end (drift, time, ``<--
    CHANGED``)."""
    laws = {}
    for row in rows:
        if "->" not in row:
            fields = row.split()
            count, largest = laws.get(fields[0], (0, 0.0))
            laws[fields[0]] = count + 1, max(largest, float(fields[-4]))
    return laws


def _counts(moved: int, drifted: int) -> str:
    return f"{moved} changed trials, verdict, expectation or witness; {drifted} only drifted"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rev = argv[0]
    git = ["git", "-C", str(ROOT)]
    if subprocess.run([*git, "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
                      capture_output=True).returncode:
        print(f"error: {rev!r} is not a commit", file=sys.stderr)
        return 2
    archive = subprocess.run([*git, "archive", "--format=zip", rev, "src"],
                             capture_output=True, check=True).stdout
    changed, every_row = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        zipfile.ZipFile(io.BytesIO(archive)).extractall(tmp / "rev")
        trees = {"A": tmp / "rev" / "src", "B": ROOT / "src"}
        for name, args in RUNS.items():
            outs = {side: tmp / f"{name}-{side}.json" for side in trees}
            for side, src in trees.items():
                seqprod(src, [*args, "--out", str(outs[side])])
                if not outs[side].exists():
                    print(f"error: {name} wrote no report on {src}", file=sys.stderr)
                    return 2
            diff = seqprod(trees["B"], ["report", "diff", str(outs["A"]), str(outs["B"]),
                                        "--max-drift", "0"])
            lines = (diff.stdout or diff.stderr).strip().splitlines()
            print(f"{name}: {lines[-1] if lines else f'exit {diff.returncode}'}")
            rows = flagged(lines)
            every_row += rows
            for line in rows:
                print(f"  {line}")
            print(f"  flagged rows: {_counts(*changes(rows))}")
            changed += diff.returncode != 0
    print(f"{len(RUNS) - changed} of {len(RUNS)} reports unchanged against {rev}; "
          f"flagged rows: {_counts(*changes(every_row))}")
    laws = drifted_laws(every_row)
    print("only drifted: " + ("; ".join(f"{law} {count} rows, largest {largest:.1e}"
                                        for law, (count, largest) in laws.items()) or "none"))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
