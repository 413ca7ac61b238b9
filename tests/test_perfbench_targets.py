"""The benchmark's own checks still accept what the package produces.

``perfbench/tracing.py`` patches regloss functions by module and attribute
name, ``perfbench/workloads.py`` checks every report an op writes (its
certificates must revalidate) and calls five library functions directly.
A change that breaks one of them breaks the benchmark run; these checks
catch it in the unit suite.  Each perfbench module is compiled from its
source text, so nothing is written next to it.
"""

import inspect
import pathlib
import sys
import types

import pytest

from regloss import fields, mixing
from regloss.cli import main

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str) -> types.ModuleType:
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(name)
    # dataclasses look their module up while the class is built
    sys.modules[name] = module
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[name]
    return module


def test_every_traced_layer_resolves():
    tracing = _load("tracing")
    found = {target[0] for target, _, _, _ in tracing.bindings()}
    assert found == {target[0] for target in tracing.TARGETS}


@pytest.mark.parametrize(
    "kind, argv",
    [
        ("mix", ["mix", "--grid", "32", "--steps", "4"]),
        ("norms", ["norms", "--grid", "16"]),
        ("certify-total", ["certify", "--target", "total"]),
        ("certify-partial",
         ["certify", "--target", "partial", "--rate-b", "0.9", "--rate-c", "1.3"]),
        ("sweep", ["sweep", "--grid", "64"]),
        ("solve", ["solve", "--grid", "64", "--pieces", "2"]),
    ],
    ids=["mix", "norms", "certify-total", "certify-partial", "sweep", "solve"],
)
def test_the_benchmark_report_check_accepts_every_mode(tmp_path, kind, argv):
    workloads = _load("workloads")
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    problems, _ = workloads.check_report(workloads.Op(0, kind, 0), out)
    assert problems == []


def test_the_benchmark_library_calls_bind():
    # the calls of workloads._run_advect, with its argument shapes
    grid = fields.Grid(2, 16)
    datum = fields.make_bump(grid, (0.5, 0.5), 0.125, 1.0)
    flow = mixing.build_mixing_protocol(
        seed=1, total_time=0.25, step_duration=0.125, amplitude=1.2
    )
    inspect.signature(fields.make_bump).bind(grid, (0.5, 0.5), 0.125, 1.0)
    inspect.signature(mixing.build_mixing_protocol).bind(
        seed=1, total_time=0.25, step_duration=0.125, amplitude=1.2
    )
    inspect.signature(flow.max_speed).bind()
    inspect.signature(mixing.advect_semi_lagrangian).bind(datum, flow, 0.01, 3)
    inspect.signature(mixing.exact_solution_at).bind(datum, flow, 0.03)
