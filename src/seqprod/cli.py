"""Command-line surface: audits, characterization demos, decompositions.

Exit codes: 0 all expectations met, 1 a law failed or raised unexpectedly (or
a demo failed to falsify), 2 usage/config error, 3 numerical failure outside
an audit row.  ``report diff`` exits 1 when two reports differ beyond its
limit, and 2 when their rows do not pair or a file is malformed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__, serialize
from .algebra import Element, LinearMap, parse_algebra, trace
from .auditor import (
    ALL_LAWS,
    FALSIFIED,
    AuditReport,
    LawId,
    SuiteConfig,
    SuiteRow,
    default_config,
    demo_characterizations,
    falsification_row,
    run_full_suite,
)
from .errors import ConfigError, NumericalFailureError, SeqprodError
from .products import parse_product
from .spectral import DEFAULT_GAP, spectral_decompose

_EXIT_MISMATCH = 1
_EXIT_USAGE = 2
_EXIT_NUMERICAL = 3


def _default_seed() -> int:
    env = os.environ.get("SEQPROD_SEED")
    if env is None:
        return 42
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"SEQPROD_SEED must be an integer, got {env!r}") from None


def _print_report(report: AuditReport, out=None):
    out = out if out is not None else sys.stdout
    header = f"{'law':<20} {'product':<12} {'algebra':<22} {'trials':>6} {'verdict':<8} {'expected':<9} {'residual':>12} {'ms':>9}"
    print(header, file=out)
    print("-" * len(header), file=out)
    for e in report.entries:
        mark = "" if e.as_expected else "  <-- MISMATCH"
        detail = f"{e.max_residual:>12.3e}" if e.error is None else "           -"
        print(f"{e.law:<20} {e.product:<12} {e.algebra:<22} {e.trials:>6} "
              f"{e.verdict:<8} {e.expected:<9} {detail} {e.elapsed_ms:>9.1f}{mark}",
              file=out)
        if e.error is not None:
            print(f"    error: {e.error}", file=out)
    print(f"overall: {report.status} ({len(report.entries)} rows, seed {report.seed})",
          file=out)


def _write_json(path: str, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _print_witness_block(entry, out=None):
    out = out if out is not None else sys.stdout
    print(f"witness {entry.law} on {entry.algebra} with {entry.product}:", file=out)
    w = entry.witness
    residual = f", residual {w['residual']:.6e}" if "residual" in w else ""  # none if it raised
    print(f"  trial {w['trial']}{residual}", file=out)
    for name, value in serialize.inputs_from_json(w["inputs"]).items():
        if isinstance(value, Element):
            data = value.data
            if isinstance(data, np.ndarray):
                body = np.array2string(data, precision=5, suppress_small=True)
            else:
                body = repr(data)
            print(f"  {name} =\n    " + body.replace("\n", "\n    "), file=out)
        elif isinstance(value, LinearMap):
            print(f"  {name} = order isomorphism {value.label!r}", file=out)
        else:
            print(f"  {name} = {value}", file=out)


def _cmd_audit(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if args.config and args.algebra:
        raise ConfigError("pass either --config or --algebra, not both")
    shaping = [f"--{name}" for name in ("laws", "product", "trials", "tol")
               if getattr(args, name) is not None]
    if shaping and not args.algebra:
        raise ConfigError(f"{', '.join(shaping)} shape only --algebra rows")
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = SuiteConfig.from_json(json.load(fh))
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
    elif args.algebra:
        alg = parse_algebra(args.algebra)  # raises ConfigError on bad shorthand
        product = "standard" if args.product is None else args.product
        if args.laws in (None, "all"):
            laws = [law.value for law in ALL_LAWS]
        else:
            laws = [name.strip() for name in args.laws.split(",") if name.strip()]
        # raises CapabilityError for a twisted product on a non-complex algebra
        twisted = bool(parse_product(product, alg).twist)
        rows = [falsification_row(LawId(name), product, args.algebra)
                if twisted and name in FALSIFIED
                else SuiteRow(name, product, args.algebra, args.trials, args.tol)
                for name in laws]
        config = SuiteConfig(rows=rows, seed=seed)
    else:
        config = default_config(seed)
    report = run_full_suite(config)
    _print_report(report)
    if args.out:
        _write_json(args.out, report.to_json())
    return 0 if report.status == "pass" else _EXIT_MISMATCH


def _cmd_demo(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    report = demo_characterizations(seed)
    _print_report(report)
    print()
    found = [e for e in report.entries if e.witness is not None]
    for entry in found:
        _print_witness_block(entry)
        print()
    if args.out:
        _write_json(args.out, report.to_json())
    return 0 if report.status == "pass" else _EXIT_MISMATCH


def _cmd_decompose(args) -> int:
    with open(args.infile, encoding="utf-8") as fh:
        element = serialize.element_from_json(json.load(fh))
    dec = spectral_decompose(element, gap=args.gap)
    print(f"algebra: {element.algebra.shorthand()}  ({len(dec.pairs)} distinct eigenvalues)")
    for lam, proj in dec.pairs:
        print(f"  eigenvalue {lam: .12g}   multiplicity {trace(proj):.6g}")
    if args.out:
        _write_json(args.out, serialize.decomposition_to_json(dec))
    return 0


#: the fields that pair the rows of two reports
_ROW_KEY = ("law", "product", "algebra", "seed")


def _report_rows(path: str) -> dict:
    """The entries of a report file, read by ``AuditReport.from_json``, keyed by _ROW_KEY;
    ConfigError naming the file for a malformed report or two entries with one key."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    try:
        entries = AuditReport.from_json(obj).entries
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    rows = {}
    for i, entry in enumerate(entries):
        key = tuple(getattr(entry, k) for k in _ROW_KEY)
        if key in rows:
            raise ConfigError(f"{path}: entry {i} repeats the row {' '.join(map(str, key))}")
        rows[key] = entry
    return rows


def _drift(ra: float, rb: float) -> float:
    """|rb - ra| / max(1, |ra|, |rb|), the normalisation of ``rel_residual``; 0 for equal
    residuals (two NaNs included) and inf where one is NaN or infinite and the other is not."""
    if ra == rb or (math.isnan(ra) and math.isnan(rb)):
        return 0.0
    drift = abs(rb - ra) / max(1.0, abs(ra), abs(rb))
    return drift if drift == drift else math.inf


def _change(a, b) -> str:
    return f"{a}" if a == b else f"{a}->{b}"


def _cmd_report_diff(args) -> int:
    if not (math.isfinite(args.max_drift) and args.max_drift >= 0):
        raise ConfigError(f"--max-drift must be finite and non-negative, got {args.max_drift}")
    rows_a, rows_b = _report_rows(args.a), _report_rows(args.b)
    if rows_a.keys() != rows_b.keys():
        only = [(name, [k for k in x if k not in y])
                for name, x, y in (("A", rows_a, rows_b), ("B", rows_b, rows_a))]
        raise ConfigError("the reports' rows do not pair: " + "; ".join(
            f"{len(keys)} only in {name}" + (f" (first: {' '.join(map(str, keys[0]))})"
                                              if keys else "") for name, keys in only))
    header = (f"{'law':<20} {'product':<12} {'algebra':<22} {'seed':>10} {'trials':<11} "
              f"{'verdict':<10} {'expected':<10} {'witness':<9} {'drift':>9} {'time':>6}")
    print(header)
    print("-" * len(header))
    changed, worst, worst_key = 0, 0.0, None
    for key, a in rows_a.items():
        b = rows_b[key]
        witness = [(e.witness or {}).get("trial", "-") for e in (a, b)]
        drift = _drift(a.max_residual, b.max_residual)
        if drift > worst:
            worst, worst_key = drift, key
        flagged = (a.trials != b.trials or a.verdict != b.verdict or a.expected != b.expected
                   or witness[0] != witness[1] or drift > args.max_drift)
        changed += flagged
        ratio = f"{b.elapsed_ms / a.elapsed_ms:6.2f}" if a.elapsed_ms > 0 else "     -"
        print(f"{key[0]:<20} {key[1]:<12} {key[2]:<22} {key[3]:>10} "
              f"{_change(a.trials, b.trials):<11} {_change(a.verdict, b.verdict):<10} "
              f"{_change(a.expected, b.expected):<10} {_change(*witness):<9} "
              f"{drift:>9.2e} {ratio}" + ("  <-- CHANGED" if flagged else ""))
    where = f" ({' '.join(map(str, worst_key))})" if worst_key else ""
    total_a, total_b = (sum(e.elapsed_ms for e in rows.values()) for rows in (rows_a, rows_b))
    total = f"{total_b / total_a:.3f}" if total_a > 0 else "-"
    print(f"{len(rows_a)} rows paired, {changed} changed; largest drift {worst:.3e}{where} "
          f"against {args.max_drift:.1e}; time B/A {total}")
    return _EXIT_MISMATCH if changed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqprod",
        description="Audit sequential-product laws on Euclidean Jordan algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="run a law suite")
    p_audit.add_argument("--config", help="suite config JSON file")
    p_audit.add_argument("--algebra", help="algebra shorthand for an ad-hoc row set")
    p_audit.add_argument("--product", help="standard or twisted:<t> (default standard)")
    p_audit.add_argument("--laws", help="comma-separated law names or 'all' (default all)")
    p_audit.add_argument("--trials", type=int, default=None,
                         help="trials per ad-hoc row (default: per-law defaults)")
    p_audit.add_argument("--seed", type=int, default=None,
                         help="seed (default: SEQPROD_SEED or 42)")
    p_audit.add_argument("--tol", type=float, default=None,
                         help="tolerance override for ad-hoc rows")
    p_audit.add_argument("--out", help="write the JSON report here")

    p_demo = sub.add_parser("demo", help="run the uniqueness falsification demos")
    p_demo.add_argument("what", choices=["characterizations"])
    p_demo.add_argument("--seed", type=int, default=None)
    p_demo.add_argument("--out", help="write the JSON report here")

    p_dec = sub.add_parser("decompose", help="spectrally decompose an element")
    p_dec.add_argument("--in", dest="infile", required=True, help="element JSON file")
    p_dec.add_argument("--gap", type=float, default=DEFAULT_GAP, help="eigenvalue clustering gap")
    p_dec.add_argument("--out", help="write the decomposition JSON here")

    p_report = sub.add_parser("report", help="work with JSON audit reports")
    report_sub = p_report.add_subparsers(dest="report_command", required=True)
    p_diff = report_sub.add_parser(
        "diff", help="compare two schema-1 reports row by row",
        description="Pair the rows of two reports by law, product, algebra and seed, and list "
                    "per row the changes of trials run, verdict, expectation and witness "
                    "trial, the residual drift |rB - rA| / max(1, |rA|, |rB|) and the time "
                    "ratio B/A.  Exit 1 on a change or a drift above --max-drift, 2 if the "
                    "rows do not pair or a file is malformed.")
    p_diff.add_argument("a", metavar="A.json", help="the reference report")
    p_diff.add_argument("b", metavar="B.json", help="the report compared with it")
    p_diff.add_argument("--max-drift", type=float, default=1e-12,
                        help="largest relative residual drift allowed (default 1e-12)")

    sub.add_parser("version", help="print the package version")
    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        if args.command == "audit":
            return _cmd_audit(args)
        if args.command == "demo":
            return _cmd_demo(args)
        if args.command == "decompose":
            return _cmd_decompose(args)
        if args.command == "report":
            return _cmd_report_diff(args)
        print(f"seqprod {__version__}")
        return 0
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except SeqprodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
