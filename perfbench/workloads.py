"""Workload decks: seeded op inputs, op execution and per-op output checks.

A workload is a fixed cyclic deck of op slots, each slot an (op kind, grid
size) pair.  The seed draws every continuous or integer input of every op;
draws are stratified per slot, so each block of ops covers the whole range
of every input and two seeds give runs with the same mix of work.  Grid
sizes follow the deck order, so the first n ops of any seed hold the same
number of ops of each size.

Deck shares are chosen so that, for the op counts a default-length run
reaches on a machine a third slower or faster, the median and the tail
rank (10 samples from the top) fall inside one latency band of the deck
rather than on the edge between two, where they would jump between runs.
In mix and solve the one large-grid op of the deck sits beyond the tail
rank; in crosscheck the cheap ops (norms at M=32, advection at M=128) are
six of ten and hold the median, and the expensive ones (norms at M=64 with
four Gagliardo orders, advection at M=256) hold the tail.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DECKS = {
    "mix": (("mix", 128),) * 9 + (("mix", 256),),
    "solve": (
        ("solve", 128), ("sweep", 128), ("certify-partial", 128),
        ("solve", 128), ("sweep", 128), ("certify-partial", 128), ("solve", 256),
    ),
    # grid 0: no grid; certify --target partial then runs with injected rates
    "certify": (("certify-total", 0), ("certify-partial", 0)),
    "crosscheck": (
        ("norms", 32), ("advect", 128), ("norms", 64), ("advect", 128), ("advect", 256),
    ) * 2,
}
# the smoke test's smallest sizes: one slot of each op kind at its least grid
SMALL_DECKS = {
    "mix": (("mix", 128),),
    "solve": (("solve", 128), ("sweep", 128), ("certify-partial", 128)),
    "certify": DECKS["certify"],
    "crosscheck": (("norms", 32), ("advect", 128)),
}
# ops per traced pass: whole decks, sized so a traced plus an untraced pass
# take about one default run
TRACE_OPS = {"mix": 10, "solve": 7, "certify": 60, "crosscheck": 10}
# ops drawn per run: more than any run of the default length completes
MAX_OPS = 2000

# relative L2 gap allowed between semi-Lagrangian and exact transport; the
# drawn horizons stay inside the first shear step, where the gap is pure
# interpolation error (at most about 1e-3 at M=128, 1e-4 at M=256)
ADVECT_GAP_BOUND = 2.0e-3


@dataclass
class Op:
    """One closed-loop operation: a CLI run or a library call."""

    index: int
    kind: str
    grid: int
    argv: list[str] = field(default_factory=list)
    config: dict | None = None
    params: dict | None = None


@dataclass
class OpResult:
    latency: float
    problems: list[str]
    digest: str
    health: dict


class _Draws:
    """Stratified input streams, one per (slot, input) key, consumed in op order.

    Each refill of a real-valued stream draws one value in each of ``k``
    equal strata of [lo, hi), in random order; an integer stream holds
    every value of [lo, hi] once per refill.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.buffers: dict[tuple, list] = {}

    def real(self, key, lo: float, hi: float, k: int = 8) -> float:
        buf = self.buffers.setdefault(key, [])
        if not buf:
            cells = self.rng.permutation(k) + self.rng.random(k)
            buf.extend(float(v) for v in lo + (hi - lo) * cells / k)
        return buf.pop()

    def integer(self, key, lo: int, hi: int) -> int:
        buf = self.buffers.setdefault(key, [])
        if not buf:
            buf.extend(int(v) for v in self.rng.permutation(np.arange(lo, hi + 1)))
        return buf.pop()

    def seed(self) -> int:
        return int(self.rng.integers(0, 2**31 - 1))


def _num(x: float) -> str:
    return format(x, ".6g")


def _mix_op(i, grid, d: _Draws, key) -> Op:
    return Op(i, "mix", grid, argv=[
        "mix", "--grid", str(grid), "--seed", str(d.seed()),
        "--steps", str(d.integer(key + ("steps",), 12, 24)),
        "--amplitude", _num(d.real(key + ("amplitude",), 2.4, 3.2)),
        "--radius", _num(d.real(key + ("radius",), 0.10, 0.15)),
    ])


def _measured_rates_op(i, kind, grid, d: _Draws, key) -> Op:
    """solve, sweep or certify --target partial with rates measured on the protocol."""
    config = {
        "steps": d.integer(key + ("steps",), 12, 24),
        "amplitude": round(d.real(key + ("amplitude",), 2.4, 3.2), 6),
        "datum_radius": round(d.real(key + ("radius",), 0.10, 0.15), 6),
    }
    argv = ["--grid", str(grid), "--seed", str(d.seed())]
    if kind == "solve":
        t1 = d.real(key + ("t1",), 0.02, 0.06)
        t2 = d.real(key + ("t2",), 0.06, 0.12)
        argv = ["solve", *argv, "--pieces", str(d.integer(key + ("pieces",), 2, 3)),
                "--times", "0", _num(t1), _num(t2)]
    elif kind == "sweep":
        # --order keeps its default 0.5: the measured prefactors exist only for
        # orders 0.5 and 1, and any other order in (0, 1) raises KeyError
        argv = ["sweep", *argv, "--time", _num(d.real(key + ("time",), 0.02, 0.2))]
    else:
        argv = ["certify", "--target", "partial", *argv]
    return Op(i, kind, grid, argv=argv, config=config)


def _construction(d: _Draws, key) -> dict:
    r = d.real(key + ("r",), 1.2, 3.0)
    p_hi = min(4.0, 0.9 * 3.0 / (r - 1.0))
    return {
        "r": round(r, 6),
        "p": round(1.1 + (p_hi - 1.1) * d.real(key + ("p",), 0.0, 1.0), 6),
        "sigma": round(d.real(key + ("sigma",), 0.5, 2.0), 6),
        "horizon": round(d.real(key + ("horizon",), 0.5, 2.0), 6),
    }


def _certify_op(i, kind, d: _Draws, key) -> Op:
    config = _construction(d, key)
    if kind == "certify-total":
        # the s-grid length alone sets the op's size, stratified like every
        # other input, so the largest ops (the tail) look alike across seeds
        n_s = d.integer(key + ("n_s",), 10, 60)
        config["s_grid"] = sorted(np.round(d.rng.uniform(0.02, 0.98, n_s), 4).tolist())
        config["t_grid"] = sorted(np.round(d.rng.uniform(0.005, 2.0, 4), 4).tolist())
        return Op(i, kind, 0, argv=["certify", "--target", "total"], config=config)
    config["threshold_samples"] = d.integer(key + ("samples",), 200, 800)
    argv = ["certify", "--target", "partial",
            "--rate-b", _num(d.real(key + ("b",), 0.5, 2.0)),
            "--rate-c", _num(d.real(key + ("c",), 0.5, 2.0))]
    return Op(i, kind, 0, argv=argv, config=config)


def _norms_op(i, grid, d: _Draws, key) -> Op:
    """Four orders in (0, 1), one per quarter, each runs the Gagliardo double sum."""
    orders = ["-0.5", "0"] + [
        _num(d.real(key + ("s", q), 0.05 + 0.225 * q, 0.275 + 0.225 * q)) for q in range(4)
    ]
    config = {"datum_radius": round(d.real(key + ("radius",), 0.10, 0.15), 6)}
    return Op(i, "norms", grid, argv=["norms", "--grid", str(grid), "--orders", *orders],
              config=config)


def _advect_op(i, grid, d: _Draws, key) -> Op:
    return Op(i, "advect", grid, params={
        "seed": d.seed(),
        "horizon": d.real(key + ("horizon",), 0.03, 0.09),
        "cfl": d.real(key + ("cfl",), 0.7, 0.95),
        "radius": d.real(key + ("radius",), 0.10, 0.15),
        "center": (d.real(key + ("cx",), 0.35, 0.65), d.real(key + ("cy",), 0.35, 0.65)),
    })


def make_ops(workload: str, seed: int, small: bool = False, count: int = MAX_OPS) -> list[Op]:
    """The workload's op sequence for this seed; the same seed gives the same ops."""
    deck = (SMALL_DECKS if small else DECKS)[workload]
    rng = np.random.default_rng([seed, sorted(DECKS).index(workload)])
    draws = _Draws(rng)
    ops = []
    for i in range(count):
        kind, grid = deck[i % len(deck)]
        key = (kind, grid)
        if kind == "mix":
            ops.append(_mix_op(i, grid, draws, key))
        elif kind in ("solve", "sweep") or (kind == "certify-partial" and grid):
            ops.append(_measured_rates_op(i, kind, grid, draws, key))
        elif kind.startswith("certify"):
            ops.append(_certify_op(i, kind, draws, key))
        elif kind == "norms":
            ops.append(_norms_op(i, grid, draws, key))
        else:
            ops.append(_advect_op(i, grid, draws, key))
    return ops


def working_set_bytes(workload: str) -> dict[str, dict[str, int]]:
    """Computed float64 array bytes per op kind and grid.

    ``coordinate_stack`` is the 2 x M x M node coordinates; ``transport`` is
    what one exact transport holds at its peak: the coordinates, departure
    points, their scaled copy, spline coefficients and output (8 M^2 values).
    """
    return {
        f"{kind} M={grid}": {"coordinate_stack": 2 * grid * grid * 8,
                             "transport": 8 * grid * grid * 8}
        for kind, grid in dict.fromkeys(DECKS[workload])
        if grid
    }


# ---- execution -----------------------------------------------------------

def run_op(op: Op, work: Path) -> OpResult:
    """Run one op, time only the program's own work, then check its outputs."""
    import regloss.cli

    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    if op.kind == "advect":
        return _run_advect(op)
    argv = list(op.argv)
    if op.config is not None:
        cfg = work / "config.json"
        cfg.write_text(json.dumps(op.config, sort_keys=True))
        argv += ["--config", str(cfg)]
    argv += ["--out", str(out)]
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = regloss.cli.main(argv)
    except SystemExit as exc:  # argparse rejecting the generated argv
        code = exc.code
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        latency = time.perf_counter() - start
        return OpResult(latency, [f"raised {type(exc).__name__}: {exc}"], "", {})
    latency = time.perf_counter() - start
    if code != 0:
        return OpResult(latency, [f"exit code {code}"], "", {})
    problems, health = check_report(op, out)
    return OpResult(latency, problems, _digest_dir(out), health)


def _digest_dir(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _run_advect(op: Op) -> OpResult:
    from regloss import fields, mixing

    p = op.params
    start = time.perf_counter()
    try:
        grid = fields.Grid(2, op.grid)
        datum = fields.demean(fields.make_bump(grid, p["center"], p["radius"], 1.0))
        flow = mixing.build_mixing_protocol(
            seed=p["seed"], total_time=0.25, step_duration=0.125, amplitude=1.2
        )
        steps = math.ceil(p["horizon"] * flow.max_speed() / (grid.spacing * p["cfl"]))
        dt = p["horizon"] / steps
        approx = mixing.advect_semi_lagrangian(datum, flow, dt, steps)
        exact = mixing.exact_solution_at(datum, flow, dt * steps)
    except Exception as exc:
        return OpResult(time.perf_counter() - start, [f"raised {type(exc).__name__}: {exc}"], "", {})
    latency = time.perf_counter() - start
    problems = []
    if not (np.all(np.isfinite(approx.values)) and np.all(np.isfinite(exact.values))):
        problems.append("advect: non-finite values")
    gap = float(np.linalg.norm(approx.values - exact.values) / np.linalg.norm(exact.values))
    if not gap <= ADVECT_GAP_BOUND:
        problems.append(f"advect: relative L2 gap {gap:.3e} exceeds {ADVECT_GAP_BOUND:g}")
    digest = hashlib.sha256(approx.values.tobytes() + exact.values.tobytes()).hexdigest()
    return OpResult(latency, problems, digest, {"advect_gap": gap})


# ---- output checks -------------------------------------------------------

# CSV columns whose values may be +inf: lower-bound partial sums saturate
# at +inf once a term overflows, which is the divergence being certified
MAY_BE_INFINITE = {("lower_bound.csv", "partial_sum")}
WORDS = {"true", "false", "convergent", "divergent", "bounded", "unbounded",
         "multiplier", "gagliardo", "datum"}


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def check_report(op: Op, out: Path) -> tuple[list[str], dict]:
    """Problems found in one op's report files, and its health counts."""
    from regloss.experiments import revalidate_certificate

    problems: list[str] = []
    health: dict = {}
    tables = {p.name: _read_csv(p) for p in sorted(out.glob("*.csv"))}
    for name, rows in tables.items():
        if not rows:
            problems.append(f"{name}: no rows")
        for row in rows:
            for col, cell in row.items():
                if cell in WORDS:
                    continue
                try:
                    value = float(cell)
                except (TypeError, ValueError):
                    problems.append(f"{name}: {col}={cell!r} does not parse")
                    continue
                if math.isnan(value) or (
                    math.isinf(value) and (name, col) not in MAY_BE_INFINITE
                ):
                    problems.append(f"{name}: {col}={cell} is not finite")
    certificates = json.loads((out / "certificates.json").read_text())["certificates"]
    bad = sum(not revalidate_certificate(c) for c in certificates)
    if bad:
        problems.append(f"{bad} of {len(certificates)} certificates fail revalidation")
    if op.kind == "certify-total":
        blowups = [c for c in certificates if c["condition"] == "D"]
        verdicts = [r["verdict"] for n, rows in tables.items()
                    if n.startswith("blowup_sweep") for r in rows]
        if not blowups or any(c["verdict"] != "divergent" for c in blowups) or any(
            v != "divergent" for v in verdicts
        ):
            problems.append("certify total: a D verdict is not divergent")
    if op.kind == "certify-partial":
        rows = tables.get("loss_threshold.csv", [])
        disagreements = sum(
            len({r["verdict"] == "divergent", r["blows_up_by_time"] == "true",
                 r["above_threshold"] == "true"}) > 1
            for r in rows
        )
        if not rows or disagreements:
            problems.append(f"threshold sweep: {disagreements} disagreements in {len(rows)} rows")
    if op.kind == "solve":
        rows = tables.get("truncated_solution.csv", [])
        health["chain_rows"] = len(rows)
        health["chain_holds"] = sum(r["chain_holds"] == "true" for r in rows)
    return problems, health
