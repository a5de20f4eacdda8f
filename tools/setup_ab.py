"""Time the benchmark's cold set-up on a git revision and on the working tree, in alternating
fresh processes.

Usage: python tools/setup_ab.py REV [--workload W] [--probes N] [--json PATH]

The benchmark's ``setup_s`` is a median of raw set-up samples scaled by the run's speed
factor, and on a shared host that factor swings between runs by more than a small change of
set-up.  This tool compares raw set-up in one sitting instead.  It exports ``src/`` at REV
with ``git archive``, as tools/report_gate.py does, and copies the working tree's ``src/``
without its ``__pycache__``; each side gets its own copy of the working tree's ``bench/``, so
both run identical benchmark code on their own package.  Each probe is one fresh
``bench/run.py --workload W --setup-only`` process under ``PYTHONDONTWRITEBYTECODE=1``, so it
compiles the package from source as the benchmark does.  One untimed probe a side warms the
file cache, then the sides take turns, and which side goes first alternates.

Prints each side's median raw set-up, its quartiles, and the probes it won against the other
side's probe of the same turn (ties count for neither), then the ratio of the medians.  Writes
nothing inside the repository.  Exits 0, 1 when a probe fails, and 2 when REV is not a commit.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("kernel-api", "default-suite")
#: the seed every probe passes to bench/run.py
SEED = 1
#: what is not copied into either side: bytecode and the benchmark's run records
SKIP = shutil.ignore_patterns("__pycache__", "out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", choices=WORKLOADS, default="kernel-api")
    parser.add_argument("--probes", type=int, default=10, help="timed probes a side")
    parser.add_argument("--json", type=Path, help="also write the samples and table to this file")
    args = parser.parse_args(argv)
    if args.probes < 2:
        parser.error("--probes must be at least 2, for quartiles")
    return args


def probe(side: Path, workload: str) -> float:
    """Raw set-up seconds of one fresh ``bench/run.py --setup-only`` process on ``side``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    done = subprocess.run(
        [sys.executable, str(side / "bench" / "run.py"), "--workload", workload, "--seed",
         str(SEED), "--seconds", "0", "--trace", "0", "--setup-only"],
        env=env, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def summary(samples: list[float], others: list[float]) -> dict:
    """Median and quartiles of ``samples``, and the turns they beat ``others``."""
    q1, _, q3 = quantiles(samples, n=4, method="inclusive")
    return {"median_s": round(median(samples), 4), "quartiles_s": [round(q1, 4), round(q3, 4)],
            "won": sum(a < b for a, b in zip(samples, others))}


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    git = ["git", "-C", str(ROOT)]
    if subprocess.run([*git, "rev-parse", "--verify", "--quiet", f"{args.rev}^{{commit}}"],
                      capture_output=True).returncode:
        print(f"error: {args.rev!r} is not a commit", file=sys.stderr)
        return 2
    archive = subprocess.run([*git, "archive", "--format=zip", args.rev, "src"],
                             capture_output=True, check=True).stdout
    samples = {"rev": [], "tree": []}
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"rev": Path(tmp) / "rev", "tree": Path(tmp) / "tree"}
        zipfile.ZipFile(io.BytesIO(archive)).extractall(sides["rev"])
        shutil.copytree(ROOT / "src", sides["tree"] / "src", ignore=SKIP)
        for side in sides.values():
            shutil.copytree(ROOT / "bench", side / "bench", ignore=SKIP)
        try:
            for side in sides.values():
                probe(side, args.workload)
            for turn in range(args.probes):
                for name in (("rev", "tree") if turn % 2 == 0 else ("tree", "rev")):
                    samples[name].append(probe(sides[name], args.workload))
        except subprocess.CalledProcessError as exc:
            print(f"error: a set-up probe failed:\n{exc.stderr}", file=sys.stderr)
            return 1
    rows = {"rev": summary(samples["rev"], samples["tree"]),
            "tree": summary(samples["tree"], samples["rev"])}
    probes = len(samples["rev"])
    print(f"raw set-up of {args.workload}, {probes} probes a side, no bytecode cache")
    print(f"{'side':12} {'median s':>9} {'q1-q3 s':>15} {'won':>7}")
    for name, label in (("rev", args.rev[:12]), ("tree", "tree")):
        (q1, q3), row = rows[name]["quartiles_s"], rows[name]
        print(f"{label:12} {row['median_s']:9.4f} {q1:7.4f}-{q3:<7.4f} {row['won']:>3}/{probes}")
    ratio = rows["tree"]["median_s"] / rows["rev"]["median_s"]
    print(f"tree/rev median: {ratio:.3f}")
    if args.json:
        args.json.write_text(json.dumps({"rev": args.rev, "workload": args.workload,
                                         "probes": probes, "seed": SEED, "samples_s": samples,
                                         **rows, "ratio": round(ratio, 4)}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
