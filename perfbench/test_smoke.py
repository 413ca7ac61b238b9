"""Smoke test of the benchmark: every workload at its smallest size, traced and untraced.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("mix", "solve", "certify", "crosscheck")


def run_bench(workload: str, trace: int, cwd: Path = ROOT, check: bool = True):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    if not check:
        return done
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def values(result: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()}


def exact_counts(result: dict) -> dict[str, float]:
    return {k: v for k, v in values(result).items() if k.endswith((".calls", ".points", ".bytes"))}


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    return {w: run_bench(w, 1) for w in WORKLOADS}


def test_spec_names_the_workloads_the_benchmark_runs(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_checks_ops_and_reports_every_end_to_end_metric(workload, spec):
    result = run_bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    assert all(v > 0 for v in values(result).values())


def test_traced_runs_report_every_per_layer_metric(traced, spec):
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for result in traced.values():
        assert result["correct"]
        assert {k: m["unit"] for k, m in result["metrics"].items()} == units


def test_two_traced_runs_give_identical_counts(traced):
    for workload, first in traced.items():
        assert exact_counts(run_bench(workload, 1)) == exact_counts(first), workload


def test_counts_land_on_the_layers_each_workload_exercises(traced):
    m = {w: values(r) for w, r in traced.items()}
    for w in WORKLOADS:
        gagliardo = m[w]["sobolev.gagliardo_seminorm.calls"]
        assert (gagliardo > 0) == (w == "crosscheck"), w
    assert m["solve"]["mixing.velocity_norm_series.calls"] > 0
    assert m["mix"]["mixing.velocity_norm_series.calls"] == 0
    for name in ("series.classify.calls", "series.product_and_power.calls",
                 "patchwork.evaluate_condition.calls"):
        assert m["certify"][name] > 0, name
    for name in ("mixing.exact_solution_at.calls", "mixing.map_coordinates.calls",
                 "numpy.fft.fftn.calls", "mixing.spline_filter.calls"):
        assert m["certify"][name] == 0, name


def test_default_mix_config_reproduces_baseline_counts(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import tracing

    import regloss.cli

    snapshot = tracing.bindings()
    tracer = tracing.Tracer()
    tracer.install(snapshot)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert regloss.cli.main(["mix", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    assert tracing.changed_bindings(snapshot) == []
    m = tracer.metrics()
    assert m["mixing.exact_solution_at.calls"] == 21  # sampled states, t = 0 included
    assert m["numpy.fft.fftn.calls"] == 105
    assert m["fields.Grid.xi_magnitude.calls"] == 84
    assert m["mixing.spline_filter.calls"] == 20


def test_benchmark_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("mix", 0, cwd=tmp_path, check=False)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
