"""Time the kernel-api request kinds on a git revision and on the working tree, in one process.

Usage: python tools/kind_ab.py REV [--rounds N] [--requests N] [--seed S] [--kinds OP:ALIAS,...]
                               [--json PATH]

By-op medians of separate benchmark processes move between processes by more than a small
change does, so a per-kind comparison times both trees in one process.  Exports ``src/`` at
REV with ``git archive`` into a temporary directory, as tools/report_gate.py does, as the
package ``seqprod_rev``: its modules import each other relatively, so it loads next to the
working tree's ``seqprod``.  ``bench/kernelapi.py`` is only read: it is loaded once per tree,
bound to that tree's package, and its generators draw every request, each tree building its
own fresh Elements from the same seeded numbers.

Each round draws ``--requests`` fresh requests of each kind (``KINDS`` of kernelapi, or
``--kinds``) per tree and times them kind by kind, the trees taking turns to go first.  Every
result is then checked by kernelapi's oracle, off the clock.  Prints, per kind, the median
microseconds per request on REV and on the working tree and their ratio, then the p50, the
mean and the p99 pooled over every timed request, and the failed requests of each tree.  Each
row also gives the rounds in which the tree's round statistic (median, or the pooled row's
mean or p99) beat REV's, and the quartiles of each tree's round statistics, so a per-kind claim
can be held to winning nine rounds in ten by more than REV's spread; a second column reports
each row's p90 the same way, so that tail claims are checked in the same process.  One BLAS
thread, as bench/run.py sets.  Exits 0, 1 when a request failed, and 2 when REV is not a commit.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is first imported

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import zipfile  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import fmean, median  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REV_PACKAGE = "seqprod_rev"
#: the package modules that bench/kernelapi.py imports by name
IMPORTED = ("seqprod", "seqprod.algebra", "seqprod.serialize")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--requests", type=int, default=150, help="per kind, round and tree")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kinds", help="comma-separated OP:ALIAS, e.g. sqrt_pos:spin5")
    parser.add_argument("--json", type=Path, help="also write the table to this file")
    return parser.parse_args(argv)


def kernelapi_for(package: str):
    """bench/kernelapi.py loaded as a module of its own, with ``seqprod`` bound to
    ``package``."""
    saved = {name: sys.modules.get(name) for name in IMPORTED}
    for name in IMPORTED:
        sys.modules[name] = importlib.import_module(package + name[len("seqprod"):])
    try:
        spec = importlib.util.spec_from_file_location(f"kernelapi_{package}",
                                                      ROOT / "bench" / "kernelapi.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        for name, module_before in saved.items():
            if module_before is None:
                sys.modules.pop(name)
            else:
                sys.modules[name] = module_before
    return module


def time_kinds(apis: dict, kinds: list, rounds: int, requests: int, seed: int):
    """(tree -> kind -> seconds of each request, tree -> failed requests)."""
    times = {tree: {kind: [] for kind in kinds} for tree in apis}
    failed = dict.fromkeys(apis, 0)
    for tree, api in apis.items():  # one untimed request of each kind
        rng = np.random.default_rng((seed, rounds))
        for kind in kinds:
            api.call(api._make_request(*kind, rng))
    for r in range(rounds):
        for i, kind in enumerate(kinds):
            for tree in (list(apis) if (r + i) % 2 == 0 else list(apis)[::-1]):
                api, rng = apis[tree], np.random.default_rng((seed, r, i))
                reqs = [api._make_request(*kind, rng) for _ in range(requests)]
                outs, spent = [], times[tree][kind]
                for req in reqs:
                    t0 = perf_counter()
                    outs.append(api.call(req))
                    spent.append(perf_counter() - t0)
                failed[tree] += sum(not api.check(req, out) for req, out in zip(reqs, outs))
    return times, failed


def _percentile(q):
    return lambda samples: float(np.percentile(samples, q))


#: the statistic of each pooled row (the kind rows take the median), and of the tail column
STATS = {"pooled p50": median, "pooled mean": fmean, "pooled p99": _percentile(99)}
TAIL = _percentile(90)


def _compare(stat, a_rounds: list, b_rounds: list) -> dict:
    """``stat`` of REV's and of the tree's requests, in microseconds, and their ratio; the
    rounds in which the tree's beat REV's (ties count for neither); the quartiles of each
    tree's round statistics."""
    (a, a_stats), (b, b_stats) = ((stat(sum(rounds, [])) * 1e6, [stat(r) * 1e6 for r in rounds])
                                  for rounds in (a_rounds, b_rounds))
    return {"rev_us": round(a, 2), "tree_us": round(b, 2), "ratio": round(b / a, 4),
            "wins": sum(y < x for x, y in zip(a_stats, b_stats)),
            "rev_quartiles_us": np.percentile(a_stats, [25, 75]).round(2).tolist(),
            "tree_quartiles_us": np.percentile(b_stats, [25, 75]).round(2).tolist()}


def table(times: dict, rounds: int) -> dict:
    """Per kind and pooled: ``_compare`` of the rounds' medians (pooled rows: ``STATS``), with
    the same comparison of their p90 under ``"p90"``."""
    def split(samples):  # every round timed the same number of requests of a kind
        size = len(samples) // rounds
        return [samples[r * size:(r + 1) * size] for r in range(rounds)]

    by_round = {}
    for tree, by_kind in times.items():
        rows = by_round[tree] = {f"{op} {alias}": split(s) for (op, alias), s in by_kind.items()}
        pooled = [sum(parts, []) for parts in zip(*rows.values())]
        rows.update(dict.fromkeys(STATS, pooled))
    out = {}
    for name, a_rounds in by_round["rev"].items():
        b_rounds = by_round["tree"][name]
        out[name] = _compare(STATS.get(name, median), a_rounds, b_rounds)
        out[name]["p90"] = _compare(TAIL, a_rounds, b_rounds)
    return out


def _cells(row: dict, rounds: int) -> str:
    (r1, r3), (t1, t3) = row["rev_quartiles_us"], row["tree_quartiles_us"]
    return (f"{row['rev_us']:12.2f} {row['tree_us']:10.2f} {row['ratio']:9.3f} "
            f"{row['wins']:>3}/{rounds:<2}  {r1:6.2f}-{r3:<6.2f}  {t1:6.2f}-{t3:<6.2f}")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    git = ["git", "-C", str(ROOT)]
    if subprocess.run([*git, "rev-parse", "--verify", "--quiet", f"{args.rev}^{{commit}}"],
                      capture_output=True).returncode:
        print(f"error: {args.rev!r} is not a commit", file=sys.stderr)
        return 2
    archive = subprocess.run([*git, "archive", "--format=zip", args.rev, "src/seqprod"],
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        zipfile.ZipFile(io.BytesIO(archive)).extractall(tmp)
        (tmp / "src" / "seqprod").rename(tmp / REV_PACKAGE)
        sys.path[:0] = [str(ROOT / "src"), str(tmp), str(ROOT / "bench")]
        apis = {"rev": kernelapi_for(REV_PACKAGE), "tree": kernelapi_for("seqprod")}
        kinds = list(apis["tree"].KINDS)
        if args.kinds:
            kinds = [tuple(k.split(":")) for k in args.kinds.split(",")]
        times, failed = time_kinds(apis, kinds, args.rounds, args.requests, args.seed)
    rows = table(times, args.rounds)
    columns = (f"{args.rev[:12]:>12} {'tree':>10} {'tree/rev':>9} {'wins':>6}  "
               f"{'rev q1-q3':>13}  {'tree q1-q3':>13}")
    print(f"{'kind':34} {columns}  | p90 {columns}  (us per request; rounds won by the tree, "
          "quartiles of the round statistics)")
    for name, row in rows.items():
        print(f"{name:34} {_cells(row, args.rounds)}  | p90 {_cells(row['p90'], args.rounds)}"
              .rstrip())
    print(f"failed requests: rev {failed['rev']}, tree {failed['tree']}")
    if args.json:
        args.json.write_text(json.dumps({"rev": args.rev, "rounds": args.rounds,
                                         "requests": args.requests, "seed": args.seed,
                                         "failed": failed, "us": rows}, indent=1) + "\n")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
