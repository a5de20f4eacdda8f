"""Line counts of the package modules, split into code, docstrings, comments and blank lines.

Usage: python tools/src_lines.py [REV]

Prints one row per ``src/seqprod/*.py`` of the working tree (total, code, docstring, comment
and blank lines, which sum to the total), a total row, and a ``tests`` row with the same split
summed over ``tests/*.py``.  Given a git revision, it also reads the same files at REV through
``git show REV:path`` and prints each column's change against REV.  Docstrings are the module,
class and function docstrings found by ``ast``; comments are the other lines that start with
``#``; code is everything else.  A REV that is not a commit exits 2.  Standard library only.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/seqprod"
TESTS = "tests"
COLUMNS = ("total", "code", "doc", "comment", "blank")


def count(text: str) -> dict[str, int]:
    """The line counts of one module's source ``text``, keyed by COLUMNS."""
    lines = text.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                doc.update(range(first.lineno, first.end_lineno + 1))
    counts = dict.fromkeys(COLUMNS, 0)
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        kind = ("doc" if number in doc else "blank" if not stripped
                else "comment" if stripped.startswith("#") else "code")
        counts[kind] += 1
    counts["total"] = len(lines)
    return counts


def tree_counts(folder: str = PACKAGE) -> dict[str, dict[str, int]]:
    return {path.name: count(path.read_text()) for path in sorted((ROOT / folder).glob("*.py"))}


def rev_counts(rev: str, folder: str = PACKAGE) -> dict[str, dict[str, int]]:
    """The counts of the ``*.py`` files of ``folder`` at git revision ``rev``."""
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                              capture_output=True, text=True).stdout

    names = [Path(p).name for p in git("ls-tree", "--name-only", f"{rev}:{folder}").split()
             if p.endswith(".py")]
    return {name: count(git("show", f"{rev}:{folder}/{name}")) for name in sorted(names)}


def summed(table: dict[str, dict[str, int]]) -> dict[str, int]:
    return {c: sum(row[c] for row in table.values()) for c in COLUMNS}


def with_totals(table: dict[str, dict[str, int]], tests: dict[str, dict[str, int]]):
    """``table`` with its total row, then the summed ``tests`` row."""
    return {**table, "total": summed(table), "tests": summed(tests)}


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    if argv and subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                                f"{argv[0]}^{{commit}}"], capture_output=True).returncode:
        print(f"error: {argv[0]!r} is not a commit", file=sys.stderr)
        return 2
    now = with_totals(tree_counts(), tree_counts(TESTS))
    width = 13 if argv else 9
    print(f"{'file':<16}" + "".join(f"{c:>{width}}" for c in COLUMNS))
    if not argv:
        for name, row in now.items():
            print(f"{name:<16}" + "".join(f"{row[c]:>9}" for c in COLUMNS))
        return 0
    before = with_totals(rev_counts(argv[0]), rev_counts(argv[0], TESTS))
    zero = dict.fromkeys(COLUMNS, 0)
    summaries = ["total", "tests"]
    modules = [n for n in now if n not in summaries]
    for name in modules + sorted(set(before) - set(now)) + summaries:
        row, old = now.get(name, zero), before.get(name, zero)
        print(f"{name:<16}" + "".join(f"{row[c]:>7} {row[c] - old[c]:>+5}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
