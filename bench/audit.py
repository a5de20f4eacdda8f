"""The ``default-suite`` workload, driven in-process through ``seqprod.cli.run_cli``.

It is the shipped ``seqprod audit`` default config.  A pass is one
``seqprod audit`` invocation.  A run repeats whole passes until its time
is up, so every pass audits the same rows with the same seed and must
give the same verdicts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

import seqprod
import seqprod.auditor
import seqprod.cli

import speed
from kernelapi import REFERENCE

NAME = "default-suite"
#: a replayed witness must reproduce its stored residual to this relative error
REPLAY_RTOL = 1e-9
#: metric alias -> (algebra shorthand, product descriptor) of the default suite's rows
ROW_ALIASES = {**{k: (v, "standard") for k, v in REFERENCE.items()},
               "complex3-tw": ("complex:3", "twisted:1.0"),
               "complex3-tw05": ("complex:3", "twisted:0.5")}


def row_alias(algebra: str, product: str) -> str:
    """Metric alias of an audit row's exact (algebra, product descriptor)."""
    for alias, key in ROW_ALIASES.items():
        if key == (algebra, product):
            return alias
    raise KeyError(f"no alias for {algebra} with {product}")


def warm_up_config(seed: int) -> dict:
    """One short row per algebra and product, so lazy caches are filled before timing."""
    rows = [{"law": "SEA1", "product": prod, "algebra": alg, "trials": 1}
            for alg, prod in ROW_ALIASES.values()]
    return {"schema": 1, "seed": seed, "rows": rows}


def trials_run(entry: dict) -> int:
    """Trials a report row actually ran (it stops at the first violation)."""
    if entry.get("witness") is not None:
        return int(entry["witness"]["trial"]) + 1
    return 0 if entry["verdict"] == "error" else int(entry["trials"])


def verdict_digest(entries: list[dict]) -> str:
    """Hash of (law, product, algebra, verdict, witness trial) over the rows."""
    rows = [[e["law"], e["product"], e["algebra"], e["verdict"],
             None if e.get("witness") is None else e["witness"]["trial"]]
            for e in entries]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def row_ok(entry: dict) -> bool:
    """Row as expected, and its witness (if any) replays to the stored residual."""
    if entry["verdict"] != entry["expected"]:
        return False
    witness = entry.get("witness")
    if witness is None:
        return True
    try:
        replayed = seqprod.replay_witness(entry["law"], entry["product"],
                                          entry["algebra"], witness)
    except Exception:  # a witness that cannot be replayed fails the row
        return False
    stored = float(witness["residual"])
    return abs(replayed - stored) <= REPLAY_RTOL * max(1.0, abs(stored))


@dataclass
class AuditRun:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    reports: list = field(default_factory=list)   # one per pass; None if it crashed
    exit_codes: list = field(default_factory=list)
    pass_walls: list = field(default_factory=list)  # raw seconds, slices included
    #: per pass, a calibration slice before each row and one after the last
    slices: list = field(default_factory=list)


class AuditWorkload:
    def __init__(self, seed: int, out_dir: Path):
        self.seed, self.out_dir = seed, out_dir

    def _audit(self, argv: list[str], tracer=None) -> int:
        """One ``seqprod audit``; its printed table goes to a buffer."""
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is not None:
                tracer.active = True
            try:
                return seqprod.cli.run_cli(argv)
            finally:
                if tracer is not None:
                    tracer.active = False

    def _argv(self, out: Path, config: Path | None = None) -> list[str]:
        argv = ["audit", "--seed", str(self.seed), "--out", str(out)]
        return argv + ["--config", str(config)] if config is not None else argv

    def setup(self):
        warm = self.out_dir / f"{NAME}-warmup.json"
        warm.write_text(json.dumps(warm_up_config(self.seed)))
        if self._audit(self._argv(self.out_dir / f"{NAME}-warmup-report.json", warm)):
            raise RuntimeError(f"{NAME}: the warm-up audit did not pass")

    def run(self, seconds: float | None = None, passes: int | None = None,
            tracer=None) -> AuditRun:
        """Whole passes until ``seconds`` have elapsed, or exactly ``passes``.

        A calibration slice runs before every row (through a wrapper on the
        public ``audit_law``, outside the row's own timer and its span) and
        after every pass.
        """
        out = AuditRun()
        original = seqprod.auditor.audit_law

        def calibrated(*args, **kwargs):
            recording = tracer is not None and tracer.active
            if recording:
                tracer.active = False
            out.slices[-1].append(speed.slice_s())
            if recording:
                tracer.active = True
            return original(*args, **kwargs)

        paths = []
        seqprod.auditor.audit_law = calibrated
        try:
            c0, t0 = process_time(), perf_counter()
            while True:
                path = self.out_dir / f"{NAME}-pass{len(paths)}.json"
                path.unlink(missing_ok=True)
                paths.append(path)
                out.slices.append([])
                p0 = perf_counter()
                try:
                    out.exit_codes.append(self._audit(self._argv(path), tracer))
                except Exception:  # a crashed pass counts as failed
                    out.exit_codes.append(None)
                out.slices[-1].append(speed.slice_s())
                out.pass_walls.append(perf_counter() - p0)
                if passes is not None and len(paths) >= passes:
                    break
                if passes is None and perf_counter() - t0 >= seconds:
                    break
            out.wall_s, out.cpu_s = perf_counter() - t0, process_time() - c0
        finally:
            seqprod.auditor.audit_law = original
        for path in paths:
            out.reports.append(json.loads(path.read_text()) if path.exists() else None)
        return out


def scaled_times(entries: list[dict], wall_s: float, slices: list[float]):
    """Row milliseconds and pass seconds at the reference speed.

    Each row is scaled by the slices around it; the rest of the pass
    (config, report writing, printing) by the median over the pass.
    """
    raw_ms = [float(e["elapsed_ms"]) for e in entries]
    if len(slices) == len(entries) + 1:
        factors = speed.unit_factors(slices, len(entries))
    else:
        factors = [speed.scale(slices)] * len(entries)
    rows_ms = [ms * f for ms, f in zip(raw_ms, factors)]
    rest_s = max(wall_s - sum(slices) - sum(raw_ms) / 1e3, 0.0)
    return rows_ms, sum(rows_ms) / 1e3 + rest_s * speed.scale(slices)


def evaluate(run: AuditRun) -> dict:
    """Correctness gate and row statistics over the passes of a run."""
    attempted = failed = trials = 0
    wall_s = 0.0
    digests = []
    rows_ms: dict[int, list[float]] = {}
    for k, (code, report) in enumerate(zip(run.exit_codes, run.reports)):
        if report is None:
            attempted += 1
            failed += 1
            continue
        entries = report["entries"]
        digests.append(verdict_digest(entries))
        scaled_ms, scaled_wall = scaled_times(entries, run.pass_walls[k], run.slices[k])
        wall_s += scaled_wall
        for i, entry in enumerate(entries):
            ran = trials_run(entry)
            trials += ran
            attempted += max(ran, 1)
            if not row_ok(entry):
                failed += max(ran, 1)
            rows_ms.setdefault(i, []).append(scaled_ms[i])
        if code != 0 or report["status"] != "pass":
            attempted += 1
            failed += 1
    if len(set(digests)) > 1:  # verdicts must not change between passes
        attempted += 1
        failed += 1
    return {"attempted": attempted, "failed": failed, "trials": trials,
            "digest": digests[0] if digests else None, "wall_s": wall_s,
            "row_ms": [median(v) for _, v in sorted(rows_ms.items())],
            "passes": len(run.reports)}
