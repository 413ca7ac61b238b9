"""regloss benchmark: closed-loop experiment throughput, plus a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mix --seed 1 --seconds 24 --trace 0

One client in one process runs the workload's ops back to back, each
through ``regloss.cli.main(argv)`` (or one library call for the
semi-Lagrangian cross-check), and checks every op's outputs.  Only the
program's own work is timed; writing the op's config and checking its
report happen between ops.

``--trace 0`` runs ops until ``--seconds`` of wall time have passed and
prints the end-to-end metrics.  Op times are given in reference seconds:
a shared virtual machine can change speed by a third from one minute to
the next, so a run's wall times are scaled by ``REF_KERNEL_S`` over the
median time of a fixed calibration kernel, run once before every op.  The
kernel is benchmark code, so a change to regloss moves reference seconds
as it moves wall seconds.  Wall-clock figures are printed and kept in the
details file too.

``--trace 1`` runs a fixed number of ops (so that counts repeat exactly)
once under the span tracer and once without it, and prints the per-layer
metrics.

The last line of standard output is one JSON object.  A details file with
the environment, per-op records, the output digest and, when traced, every
span is written under ``.perfbench_out/`` in the checkout.

The benchmark imports regloss from ``src/`` of the checkout and exits with
code 2 when that is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "ops_per_ref_s": "ops/ref_s",
    "op_p50_ref_s": "ref_s",
    "op_tail_ref_s": "ref_s",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_SAMPLES = 3
# one reference second is the time of 1 / REF_KERNEL_S kernel runs; run
# alone on a 2-vCPU x86-64 virtual machine with numpy 2.4 and scipy 1.17 the
# kernel took about 3 ms (3.5-4.3 ms when run between ops)
REF_KERNEL_S = 0.003
IMPORT_SAMPLES = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("mix", "solve", "certify", "crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="smallest size of every op kind (smoke test)")
    return parser.parse_args(argv)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, samples beyond) at the highest percentile with >= 10 beyond.

    With 10 or fewer samples no percentile has 10 beyond it; the maximum
    is reported with 0 samples beyond.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    rank = n - 10  # 1-based nearest rank with n - rank = 10 samples beyond
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def measure_setup(workload: str, seed: int, small: bool) -> list[float]:
    """Fresh-process times of ``import regloss`` plus input generation."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]\n"
        "import regloss, workloads\n"
        f"workloads.make_ops({workload!r}, {seed}, small={small})\n"
        "print(time.perf_counter() - t0)\n"
    )
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, timeout=120)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def import_breakdown() -> dict[str, float]:
    """Cumulative import seconds of regloss and scipy.ndimage, from -X importtime."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    wanted = {"regloss": [], "scipy.ndimage": []}
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import regloss"],
                              capture_output=True, text=True, check=True, env=env,
                              timeout=120)
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                wanted[parts[2].strip()].append(int(parts[1]) * 1e-6)
    return {
        "import.regloss_s": statistics.median(wanted["regloss"]),
        "import.scipy.ndimage_s": statistics.median(wanted["scipy.ndimage"]),
    }


def cache_sizes() -> dict[str, int | None]:
    """Cache sizes of cpu0 in bytes, read from sysfs (None where absent)."""
    sizes: dict[str, int | None] = {"L1d": None, "L2": None, "L3": None}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        size = (index / "size").read_text().strip()
        name = "L1d" if (level, kind) == ("1", "Data") else f"L{level}"
        if name in sizes and kind != "Instruction":
            scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
            sizes[name] = int(size.rstrip("KM")) * scale
    return sizes


def environment(args, workloads) -> dict:
    import numpy
    import scipy

    import regloss

    caches = cache_sizes()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "regloss": regloss.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": caches,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "working_set_bytes": workloads.working_set_bytes(args.workload),
    }


class Calibration:
    """Fixed FFT, interpolation, float and JSON work whose time tracks host speed."""

    def __init__(self):
        import numpy
        from scipy.ndimage import map_coordinates

        rng = numpy.random.default_rng(0)
        self.field = rng.random((128, 128))
        self.points = rng.random((2, 128, 128)) * 127
        self.record = {f"k{i}": [i * 0.5, str(i), {"v": i}] for i in range(200)}
        self.fftn, self.map_coordinates = numpy.fft.fftn, map_coordinates

    def sample(self) -> float:
        start = time.perf_counter()
        self.fftn(self.field)
        self.map_coordinates(self.field, self.points, order=1, mode="grid-wrap")
        acc = 0.0
        for i in range(4000):
            acc += math.exp(-1e-4 * i) * i
        json.dumps(self.record, sort_keys=True)
        return time.perf_counter() - start


def run_ops(ops, work: Path, deadline: float | None, tracer=None, calibration=None):
    """Run ops in order until the list or the wall-clock deadline is exhausted."""
    import workloads

    records = []
    for op in ops:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        gc.collect()
        kernel_s = calibration.sample() if calibration else REF_KERNEL_S
        if tracer is not None:
            tracer.op = op.index
        result = workloads.run_op(op, work)
        records.append({
            "index": op.index, "kind": op.kind, "grid": op.grid,
            "argv": op.argv, "config": op.config, "params": op.params,
            "latency_s": result.latency, "kernel_s": kernel_s,
            "problems": result.problems, "digest": result.digest, "health": result.health,
        })
    return records


def timing(records: list[dict], deck, scale: float = 1.0) -> dict:
    """Throughput, median and tail of the records' latencies times ``scale``.

    Throughput counts checked ops per second of timed work, each deck slot
    weighted by its share: mean latency per (kind, grid) slot, summed over
    one deck cycle, is the time of a cycle, so a run that stops inside a
    cycle is not biased toward the slots it happened to reach.  Slots no op
    reached are left out.
    """
    by_slot: dict = {}
    for r in records:
        by_slot.setdefault((r["kind"], r["grid"]), []).append(r["latency_s"] * scale)
    slots = [slot for slot in deck if slot in by_slot]
    cycle_s = sum(statistics.fmean(by_slot[slot]) for slot in slots)
    ok = sum(not r["problems"] for r in records)
    latencies = [r["latency_s"] * scale for r in records]
    value, pct, beyond = tail(latencies)
    return {
        "ops_per_s": len(slots) / cycle_s * ok / len(records),
        "p50": statistics.median(latencies),
        "tail": value,
        "tail_percentile": pct,
        "tail_beyond": beyond,
    }


def summarize(records: list[dict], deck) -> dict:
    latencies = [r["latency_s"] for r in records]
    ok = sum(not r["problems"] for r in records)
    kernel_s = statistics.median(r["kernel_s"] for r in records)
    digest = hashlib.sha256()
    for r in records:
        digest.update(f"{r['index']}:{r['digest']}\n".encode())
    health = {
        "chain_rows": sum(r["health"].get("chain_rows", 0) for r in records),
        "chain_holds": sum(r["health"].get("chain_holds", 0) for r in records),
        "advect_gap_max": max((r["health"].get("advect_gap", 0.0) for r in records), default=0.0),
    }
    return {
        "attempted": len(records),
        "failed": len(records) - ok,
        "timed_s": sum(latencies),
        "wall": timing(records, deck),
        "ref": timing(records, deck, REF_KERNEL_S / kernel_s),
        "kernel_median_s": kernel_s,
        "ok_frac": ok / len(records),
        "failed_frac": (len(records) - ok) / len(records),
        "digest": digest.hexdigest(),
        "health": health,
        "failures": [(r["index"], r["problems"]) for r in records if r["problems"]],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "regloss" / "__init__.py").is_file():
        print(f"error: no regloss package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import regloss
    import tracing
    import workloads

    if Path(regloss.__file__).resolve().parent != SRC / "regloss":
        print(f"error: imported regloss from {regloss.__file__}, not {SRC}", file=sys.stderr)
        return 2
    snapshot = tracing.bindings()
    ops = workloads.make_ops(args.workload, args.seed, small=args.small)
    deck = (workloads.SMALL_DECKS if args.small else workloads.DECKS)[args.workload]
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    details: dict = {"environment": environment(args, workloads)}
    self_checks: list[str] = []
    try:
        if args.trace == 0:
            setup = measure_setup(args.workload, args.seed, args.small)
            records = run_ops(ops, work, time.perf_counter() + args.seconds,
                              calibration=Calibration())
            summary = summarize(records, deck)
            metrics = {
                "ops_per_ref_s": summary["ref"]["ops_per_s"],
                "op_p50_ref_s": summary["ref"]["p50"],
                "op_tail_ref_s": summary["ref"]["tail"],
                "ok_frac": summary["ok_frac"],
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
            details["setup_samples_s"] = setup
        else:
            count = len(workloads.SMALL_DECKS[args.workload]) if args.small \
                else workloads.TRACE_OPS[args.workload]
            tracer = tracing.Tracer()
            tracer.install(snapshot)
            try:
                traced = run_ops(ops[:count], work, None, tracer)
            finally:
                tracer.uninstall()
            untraced = run_ops(ops[:count], work, None)
            records = traced
            summary = summarize(traced, deck)
            plain = summarize(untraced, deck)
            if plain["digest"] != summary["digest"]:
                self_checks.append("traced and untraced passes wrote different outputs")
            metrics = tracer.metrics()
            metrics.update(import_breakdown())
            metrics.update({
                "trace.spans": len(tracer.spans),
                "trace.ops_per_s": summary["wall"]["ops_per_s"],
                "trace.untraced_ops_per_s": plain["wall"]["ops_per_s"],
                "trace.slowdown": summary["timed_s"] / plain["timed_s"],
                "health.chain_rows": summary["health"]["chain_rows"],
                "health.chain_holds": summary["health"]["chain_holds"],
            })
            units = layer_units()
            details["untraced_pass"] = plain
            details["span_fields"] = ["name", "start_s", "end_s", "parent", "op"]
            details["spans"] = tracer.span_records()
        self_checks += [f"binding left patched: {name}"
                        for name in tracing.changed_bindings(snapshot)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    details.update(summary=summary, self_checks=self_checks, records=records, metrics=metrics)
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps(details, default=str) + "\n")

    for problem in self_checks:
        print(f"self-check failed: {problem}")
    for index, problems in summary["failures"]:
        print(f"op {index} failed: {'; '.join(problems)}")
    wall = summary["wall"]
    print(f"workload {args.workload} seed {args.seed}: {summary['attempted']} ops, "
          f"{summary['failed']} failed (failed_frac {summary['failed_frac']:g}); "
          f"tail at p{wall['tail_percentile']:.1f} with {wall['tail_beyond']} beyond; "
          f"output sha256 {summary['digest']}; details in {report.relative_to(ROOT)}")
    print(f"wall clock: {wall['ops_per_s']:.6g} ops/s, p50 {wall['p50']:.6g} s, "
          f"tail {wall['tail']:.6g} s; calibration kernel median "
          f"{summary['kernel_median_s'] * 1e3:.4g} ms (reference {REF_KERNEL_S * 1e3:g} ms)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": summary["failed"] == 0 and not self_checks,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in print order."""
    import tracing

    units = tracing.layer_metric_units()
    units.update({
        "import.regloss_s": "s",
        "import.scipy.ndimage_s": "s",
        "trace.spans": "count",
        "trace.ops_per_s": "ops/s",
        "trace.untraced_ops_per_s": "ops/s",
        "trace.slowdown": "ratio",
        "health.chain_rows": "count",
        "health.chain_holds": "count",
    })
    return units


if __name__ == "__main__":
    raise SystemExit(main())
