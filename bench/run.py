"""Layered benchmark for seqprod: one workload per run, one JSON result line.

    python3 bench/run.py --workload default-suite --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it measures the workload untraced and prints the
end-to-end metrics.  With ``--trace 1`` it runs the same work untraced and
then traced, and prints the per-layer metrics, the tracing overhead and
the LAPACK floor rows.  The last line of standard output is the result;
the line before it holds the notes (environment stamp, sample counts,
verdict digest).  Run records and spans go to ``bench/out/``.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

T0 = perf_counter()
# one BLAS thread for this process, set before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("default-suite", "kernel-api")
#: set-up is timed in this process and in this many fresh processes
SETUP_PROBES = 8


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up only and print its seconds (used for probes)")
    return parser.parse_args(argv)


def setup(name: str, seed: int):
    """Import the program, generate the inputs and warm up.

    Returns the workload and the raw seconds since T0.
    """
    if not (ROOT / "src" / "seqprod").is_dir():
        sys.exit(f"seqprod sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    if name == "kernel-api":
        import kernelapi
        workload = kernelapi.KernelWorkload(seed)
    else:
        import audit
        workload = audit.AuditWorkload(seed, OUT)
    workload.setup()
    return workload, perf_counter() - T0


def probe_setup(name: str, seed: int) -> float:
    """Raw set-up seconds of a fresh process (import caches and lazy state cold)."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "git_revision": git_revision(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "machine": platform.machine()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds=None, like=None, tracer=None) -> dict:
    """Run the workload; ``like`` repeats the work of an earlier measurement."""
    import kernelapi
    import speed
    from stats import percentile, tail_percentile
    if isinstance(workload, kernelapi.KernelWorkload):
        res = workload.run(seconds=seconds, requests=like and like["ops"], tracer=tracer)
        peak = peak_rss_mb()
        out = {"ops": res.attempted, "wall_s": res.busy_s, "raw_wall_s": res.raw_busy_s,
               "cpu_s": res.cpu_s, "factor": res.factor,
               "attempted": res.attempted, "failed": res.failed,
               "latency_ms": [x * 1e3 for x in res.latencies_s]}
        # per operation, so the gated figures can be re-weighted to another mix
        by_op = {}
        for op, ms in zip(res.ops, out["latency_ms"]):
            by_op.setdefault(op, []).append(ms)
        out["by_op"] = {op: {"requests": len(v), "p50_ms": percentile(v, 50)}
                        for op, v in sorted(by_op.items())}
    else:
        import audit
        run = workload.run(seconds=seconds, passes=like and like["passes"], tracer=tracer)
        peak = peak_rss_mb()
        ev = audit.evaluate(run)
        out = {"ops": ev["trials"], "wall_s": ev["wall_s"], "raw_wall_s": run.wall_s,
               "cpu_s": run.cpu_s, "factor": speed.scale([x for p in run.slices for x in p]),
               "attempted": ev["attempted"], "failed": ev["failed"],
               "latency_ms": ev["row_ms"], "passes": ev["passes"], "digest": ev["digest"],
               "reports": run.reports}
    # read before the statistics below, which are not the program's memory
    out["peak_rss_mb"] = peak
    lat = out["latency_ms"]
    out["tail_q"] = tail_percentile(len(lat))
    out["p50_ms"] = percentile(lat, 50)
    out["tail_ms"] = percentile(lat, out["tail_q"])
    return out


def per_layer_metrics(tracer, s, traced, untraced, floors) -> dict:
    """Per-layer metrics from the span summary ``s`` of the traced run.

    Seconds are at the reference speed, scaled by the traced run's mean
    calibration factor; counts and shares are as recorded.
    """
    from audit import ROW_ALIASES, row_alias, trials_run
    from seqprod import LawId

    def get(name, key):
        return s.get(name, {}).get(key, 0.0)

    def total(prefix, key):
        return sum(v[key] for k, v in s.items() if k.startswith(prefix))

    eig = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh")
    coords = ("algebra.to_coords", "algebra.from_coords")
    m = {
        "lapack.eig_calls": (sum(get(n, "calls") for n in eig), "count"),
        "lapack.eig_self_s": (sum(get(n, "self_s") for n in eig), "s"),
    }
    for alias, (floor_us, product_us) in floors.items():
        m[f"lapack.floor_us.{alias}"] = (floor_us, "us")
        m[f"products.floor_ratio.{alias}"] = (product_us / floor_us, "x")
    m.update({
        "algebra.elements_built": (get("algebra.Element.__post_init__", "calls"), "count"),
        "algebra.element_init_self_s": (get("algebra.Element.__post_init__", "self_s"), "s"),
        "algebra.assemble_map_calls": (get("algebra.assemble_map", "calls"), "count"),
        "algebra.assemble_map_self_s": (get("algebra.assemble_map", "self_s"), "s"),
        "algebra.coords_calls": (sum(get(n, "calls") for n in coords), "count"),
        "algebra.coords_self_s": (sum(get(n, "self_s") for n in coords), "s"),
        "algebra.jordan_product_self_s": (get("algebra.jordan_product", "self_s"), "s"),
        "algebra.eigenvalue_range_self_s": (get("algebra.eigenvalue_range", "self_s"), "s"),
        "spectral.decompose_calls": (get("spectral.spectral_decompose", "calls"), "count"),
        "spectral.decompose_self_s": (get("spectral.spectral_decompose", "self_s"), "s"),
        "spectral.functional_calculus_self_s":
            (get("spectral.functional_calculus", "self_s"), "s"),
        "spectral.sqrt_pos_s": (get("spectral.sqrt_pos", "incl_s"), "s"),
        "spectral.decompose_repeat_share":
            (tracer.decompose_repeats / max(tracer.decompose_calls, 1), "share"),
        "products.seq_product_calls": (get("products.seq_product", "calls"), "count"),
        "products.seq_product_s": (get("products.seq_product", "incl_s"), "s"),
        "products.multiplication_operator_s":
            (get("products.multiplication_operator", "incl_s"), "s"),
        "products.theta_between_s": (get("products.theta_between", "incl_s"), "s"),
        "commutant.basis_s": (get("commutant.commutant_basis", "incl_s"), "s"),
        "commutant.diagonalize_s": (get("commutant.simultaneous_diagonalize", "incl_s"), "s"),
        "serialize.calls": (total("serialize.", "calls"), "count"),
        "serialize.self_s": (total("serialize.", "self_s"), "s"),
        "cli.self_s": (total("cli.", "self_s"), "s"),
        "auditor.trials_run": (sum(trials_run(e) for r in traced.get("reports", []) if r
                                   for e in r["entries"]), "count"),
    })
    _, _, start, end = tracer.arrays()
    rows = {f"auditor.row_s.{law.value}": 0.0 for law in LawId}
    rows.update({f"auditor.row_s.{alias}": 0.0 for alias in ROW_ALIASES})
    for idx, (law, product, algebra) in tracer.tags.items():
        dur = float(end[idx] - start[idx])
        rows[f"auditor.row_s.{law}"] += dur
        rows[f"auditor.row_s.{row_alias(algebra, product)}"] += dur
    m.update({k: (v, "s") for k, v in rows.items()})
    # span times are raw; bring them to the reference speed of the traced run
    factor = traced["wall_s"] / traced["raw_wall_s"]
    m = {k: (v * factor if u == "s" else v, u) for k, (v, u) in m.items()}
    m.update({
        "trace.untraced_s": (untraced["wall_s"], "s"),
        "trace.traced_s": (traced["wall_s"], "s"),
        "trace.overhead_share": (traced["wall_s"] / untraced["wall_s"] - 1.0, "share"),
        "trace.spans": (len(tracer.start), "count"),
    })
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    workload, setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(setup_s)
        return 0
    load_start = os.getloadavg()
    notes = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace}
    if args.trace == 0:
        # Half the probes run before the measured window and half after it,
        # so they sample the host's speed at two moments and the window's
        # calibration factor lies between them.
        setups = [setup_s] + [probe_setup(args.workload, args.seed)
                              for _ in range(SETUP_PROBES // 2)]
        res = measure(workload, seconds=args.seconds)
        setups += [probe_setup(args.workload, args.seed)
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        from statistics import median
        metrics = {
            "setup_s": (median(setups) * res["factor"], "s"),
            "ops_per_s": (res["ops"] / res["wall_s"], "1/s"),
            "latency_ms_p50": (res["p50_ms"], "ms"),
            "latency_ms_tail": (res["tail_ms"], "ms"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        notes["setup_raw_samples_s"] = setups
        notes["setup_raw_s"] = median(setups)
    else:
        import kernelapi
        import seqprod
        from tracer import Tracer
        untraced = measure(workload, seconds=args.seconds)
        tracer = Tracer()
        tracer.install(seqprod)
        try:
            res = measure(workload, like=untraced, tracer=tracer)
        finally:
            tracer.uninstall()
        floors, wrong = kernelapi.floor_rows(args.seed)
        res["attempted"] += len(floors)
        res["failed"] += wrong
        summary = tracer.summary()
        metrics = per_layer_metrics(tracer, summary, res, untraced, floors)
        spans_path = OUT / f"spans-{args.workload}.npz"
        tracer.save(spans_path)
        notes["spans_file"] = str(spans_path.relative_to(ROOT))
        notes["top_self_s"] = dict(sorted(
            ((k, round(v["self_s"], 4)) for k, v in summary.items()),
            key=lambda kv: -kv[1])[:12])
    error_ratio = res["failed"] / res["attempted"]
    notes.update({
        "env": environment(), "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "wall_s": res["wall_s"], "raw_wall_s": res["raw_wall_s"], "cpu_s": res["cpu_s"],
        "raw_ops_per_s": res["ops"] / res["raw_wall_s"], "ops": res["ops"],
        "speed_factor": res["factor"],
        "latency_samples": len(res["latency_ms"]), "tail_percentile": res["tail_q"],
        "attempted": res["attempted"], "failed": res["failed"], "error_ratio": error_ratio,
        "peak_rss_mb": res["peak_rss_mb"],
    })
    for key in ("passes", "digest", "by_op"):
        if key in res:
            notes[key] = res[key]
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"notes": notes, "result": result}
    if "passes" in res:  # audit rows in config order, at the reference speed
        record["row_ms"] = res["latency_ms"]
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print("notes: " + json.dumps(notes))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
