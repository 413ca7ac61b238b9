"""Span tracer that wraps the public functions of each regloss layer.

The tracer patches module and class attributes from outside the package:
every namespace that bound a target function (``regloss.mixing.hs_norm``,
``regloss.experiments.hs_norm``, ...) gets the same wrapper, so a call
is counted whichever import path reached it.  ``uninstall`` puts every
original object back.  An untraced run never calls ``install``;
``bindings`` and ``changed_bindings`` let it prove that.

Spans are kept in memory as ``[name, start, end, parent, op]`` and written
out once at the end of a run.  Self time is a span's duration minus the
durations of its direct children; calls are synchronous, so children never
overlap.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from collections import Counter, defaultdict

REGLOSS_MODULES = (
    "regloss",
    "regloss.fields",
    "regloss.sobolev",
    "regloss.mixing",
    "regloss.series",
    "regloss.patchwork",
    "regloss.experiments",
    "regloss.cli",
)


def _points(coords) -> int:
    shape = getattr(coords, "shape", ())
    return math.prod(shape[1:]) if len(shape) > 1 else 0


def _size(array) -> int:
    return int(getattr(array, "size", 1))


def _written_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


# (metric prefix, owner module, attribute path, extra stat, measure(args, result))
TARGETS = (
    ("fields.Grid.xi_magnitude", "regloss.fields", "Grid.xi_magnitude", None, None),
    ("fields.Grid.coordinates", "regloss.fields", "Grid.coordinates", None, None),
    ("fields.VectorField.spectral_divergence", "regloss.fields",
     "VectorField.spectral_divergence", None, None),
    ("sobolev.hs_norm", "regloss.sobolev", "hs_norm", None, None),
    ("sobolev.wsp_norm", "regloss.sobolev", "wsp_norm", None, None),
    ("sobolev.gagliardo_seminorm", "regloss.sobolev", "gagliardo_seminorm", None, None),
    ("numpy.fft.fftn", "numpy.fft", "fftn", None, None),
    ("mixing.exact_solution_at", "regloss.mixing", "exact_solution_at", None, None),
    ("mixing.FlowMap.pull_back", "regloss.mixing", "FlowMap.pull_back", None, None),
    ("mixing.ShearStep.speed", "regloss.mixing", "ShearStep.speed", "points",
     lambda args, result: _size(args[1])),
    ("mixing.map_coordinates", "scipy.ndimage._interpolation", "map_coordinates", "points",
     lambda args, result: _points(args[1])),
    ("mixing.spline_filter", "scipy.ndimage._interpolation", "spline_filter", None, None),
    ("mixing.FlowMap.velocity_at", "regloss.mixing", "FlowMap.velocity_at", None, None),
    ("mixing.advect_semi_lagrangian", "regloss.mixing", "advect_semi_lagrangian", None, None),
    ("mixing.velocity_norm_series", "regloss.mixing", "velocity_norm_series", None, None),
    ("mixing.estimate_mixer_constants", "regloss.mixing", "estimate_mixer_constants",
     None, None),
    ("mixing.norm_history", "regloss.mixing", "norm_history", None, None),
    ("series.classify", "regloss.series", "classify", None, None),
    ("series.product_and_power", "regloss.series", "product_and_power", None, None),
    ("series.tail_sum", "regloss.series", "tail_sum", None, None),
    ("patchwork.evaluate_condition", "regloss.patchwork", "evaluate_condition", None, None),
    ("patchwork.place_cubes", "regloss.patchwork", "place_cubes", None, None),
    ("patchwork.evaluate_truncated_solution", "regloss.patchwork",
     "evaluate_truncated_solution", None, None),
    ("patchwork.hs_lower_bound_partial_sums", "regloss.patchwork",
     "hs_lower_bound_partial_sums", None, None),
    ("experiments.run_experiment", "regloss.experiments", "run_experiment", None, None),
    ("experiments.emit_report", "regloss.experiments", "emit_report", "bytes",
     lambda args, result: _written_bytes(result)),
    ("cli.main", "regloss.cli", "main", None, None),
)

# count / base, reported together with the base mixing.exact_solution_at.calls
RATIOS = (
    ("mixing.fftn_per_state", "numpy.fft.fftn.calls"),
    ("fields.xi_rebuilds_per_state", "fields.Grid.xi_magnitude.calls"),
    ("mixing.prefilters_per_state", "mixing.spline_filter.calls"),
)
RATIO_BASE = "mixing.exact_solution_at.calls"

STAT_UNITS = {"calls": "count", "self_s": "s", "points": "count", "bytes": "B"}


def layer_metric_units() -> dict[str, str]:
    """Name -> unit of every metric the tracer produces."""
    units = {}
    for prefix, _, _, extra, _ in TARGETS:
        for stat in ("calls", "self_s") + ((extra,) if extra else ()):
            units[f"{prefix}.{stat}"] = STAT_UNITS[stat]
    for name, _ in RATIOS:
        units[name] = "calls/state"
    return units


def _resolve(owner: str, path: str):
    """(container object, attribute name) for ``Class.method`` or ``function``."""
    container = importlib.import_module(owner)
    *classes, attr = path.split(".")
    for cls in classes:
        container = getattr(container, cls)
    return container, attr


def bindings() -> list[tuple[tuple, object, str, object]]:
    """Every (target, namespace, name, object) a target is reachable through."""
    found = []
    for target in TARGETS:
        container, attr = _resolve(target[1], target[2])
        original = getattr(container, attr)
        found.append((target, container, attr, original))
        if isinstance(container, type):
            continue
        for mod_name in REGLOSS_MODULES:
            module = importlib.import_module(mod_name)
            if module is not container and getattr(module, attr, None) is original:
                found.append((target, module, attr, original))
    return found


def changed_bindings(snapshot) -> list[str]:
    """Names whose current object differs from the snapshot taken at import."""
    return [
        f"{getattr(ns, '__name__', ns)}.{attr}"
        for _, ns, attr, original in snapshot
        if getattr(ns, attr) is not original
    ]


class Tracer:
    """Patches every target binding with a span-recording wrapper."""

    def __init__(self):
        self.spans: list[list] = []
        self.extra: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    def _wrap(self, name: str, fn, extra: str | None, measure):
        spans, stack, counts = self.spans, self._stack, self.extra

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if measure is not None:
                counts[f"{name}.{extra}"] += measure(args, result)
            return result

        return wrapper

    def install(self, snapshot) -> None:
        """Replace every binding in ``snapshot`` (from ``bindings``) by one wrapper per target."""
        wrappers = {}
        for (prefix, _, _, extra, measure), ns, attr, original in snapshot:
            if prefix not in wrappers:
                wrappers[prefix] = self._wrap(prefix, original, extra, measure)
            setattr(ns, attr, wrappers[prefix])
            self._installed.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._installed):
            setattr(ns, attr, original)
        self._installed.clear()

    def metrics(self) -> dict[str, float]:
        """Exact counts, self times and derived ratios over all recorded spans."""
        calls: Counter = Counter()
        busy: defaultdict = defaultdict(float)
        child: defaultdict = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, _, _, _, _) in enumerate(self.spans):
            busy[name] -= child.get(idx, 0.0)
        out = {}
        for prefix, _, _, extra, _ in TARGETS:
            out[f"{prefix}.calls"] = calls[prefix]
            out[f"{prefix}.self_s"] = busy[prefix]
            if extra:
                out[f"{prefix}.{extra}"] = self.extra[f"{prefix}.{extra}"]
        base = out[RATIO_BASE]
        for name, count in RATIOS:
            out[name] = out[count] / base if base else 0.0
        return out

    def span_records(self) -> list[list]:
        """Spans with times relative to the tracer's creation."""
        return [[n, s - self.origin, e - self.origin, p, op] for n, s, e, p, op in self.spans]
