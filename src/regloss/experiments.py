"""Batch experiment orchestration and byte-stable reporting.

An experiment is described by a validated configuration, runs
deterministically for a fixed (config, seed) pair, and produces a report
bundle: named tables (written as CSV), condition certificates (written as
JSON), and a human-readable summary.  Emitted files are byte-identical
across repeated runs of the same configuration.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import asdict, dataclass, field, fields, replace

from .fields import Grid, Cube, demean, make_bump
from .mixing import (
    FIT_SKIP,
    FlowMap,
    build_mixing_protocol,
    estimate_mixer_constants,
    exact_solution_at,
    fit_exponential_rate,
    norm_history,
    protocol_to_json,
)
from .patchwork import (
    Condition,
    ConditionCertificate,
    LipschitzEmbeddingError,
    blowup_time,
    check_velocity_space,
    evaluate_condition,
    evaluate_truncated_solution,
    hs_lower_bound_partial_sums,
    partial_loss_schedule,
    place_cubes,
    revalidate_certificate,
    total_loss_schedule,
)
from .sobolev import gagliardo_seminorm, hs_norm, orthogonality_lower_bound, wsp_norm

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ReportBundle",
    "run_experiment",
    "emit_report",
    "revalidate_certificate",
]

DEFAULT_S_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))
DEFAULT_T_GRID = (0.01, 0.1, 1.0)
# the lower-bound sweep reports the first partial sum above this
SWEEP_THRESHOLD = 1.0e6


class ConfigError(ValueError):
    """Invalid experiment configuration; the message carries the field path."""


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


# annotation of an ExperimentConfig field -> (what a value must be, its check);
# nothing is coerced, so a valid config keeps its report bytes
_FIELD_KINDS = {
    "str": ("a string", lambda v: isinstance(v, str)),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("a finite number", _is_number),
    "float | None": ("a finite number or null", lambda v: v is None or _is_number(v)),
    "tuple[float, ...]": (
        "a list of finite numbers",
        lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v)),
    ),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated description of one experiment run."""

    mode: str
    seed: int = 5
    dimension: int = 2
    grid_points: int = 256
    # mixing protocol: shear displacement 0.4 per step, strong steady mixing
    steps: int = 20
    step_duration: float = 0.125
    amplitude: float = 3.2
    # datum: the unit bump at the cell centre
    datum_radius: float = 0.125
    # norm table
    orders: tuple[float, ...] = (-1.0, -0.5, 0.0, 0.5, 1.0)
    # partial-loss construction
    construction_dimension: int = 3
    r: float = 2.0
    p: float = 2.0
    sigma: float = 1.0
    horizon: float = 1.0
    rate_b: float | None = None
    rate_c: float | None = None
    threshold_samples: int = 100
    # certificate sweeps
    s_grid: tuple[float, ...] = DEFAULT_S_GRID
    t_grid: tuple[float, ...] = DEFAULT_T_GRID
    # lower-bound sweep
    sweep_order: float = 0.5
    sweep_time: float = 0.1
    sweep_max_terms: int = 50
    # truncated solution
    pieces: int = 3
    solve_times: tuple[float, ...] = (0.0, 0.05, 0.1)
    solve_order: float = 0.5

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for f in fields(self):
            must, check = _FIELD_KINDS[f.type]
            value = getattr(self, f.name)
            if not check(value):
                raise ConfigError(f"{f.name}: must be {must}, got {value!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode: must be one of {', '.join(MODES)}, got {self.mode!r}")
        if self.dimension < 2:
            raise ConfigError(f"dimension: must be >= 2, got {self.dimension}")
        if self.grid_points < 4 or self.grid_points & (self.grid_points - 1):
            raise ConfigError(f"grid_points: must be a power of two >= 4, got {self.grid_points}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        # the rate fit drops FIT_SKIP samples of the steps + 1 and needs 3
        if self.steps < FIT_SKIP + 2:
            raise ConfigError(f"steps: must be >= {FIT_SKIP + 2}, got {self.steps}")
        if self.step_duration <= 0:
            raise ConfigError(f"step_duration: must be positive, got {self.step_duration}")
        if not 0 < self.datum_radius < 0.5:
            raise ConfigError(f"datum_radius: must lie in (0, 0.5), got {self.datum_radius}")
        for name in ("rate_b", "rate_c"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ConfigError(f"{name}: must be positive when set, got {value}")
        # a rate that the mode never reads is refused: mix and norms read
        # none, sweep and solve measure both together with their prefactors,
        # and certify-total reads only c, for the blow-up condition
        unread = {"certify-partial": (), "certify-total": ("rate_b",)}.get(
            self.mode, ("rate_b", "rate_c")
        )
        if any(getattr(self, name) is not None for name in unread):
            raise ConfigError(f"{'/'.join(unread)}: unused in mode {self.mode}; leave unset")
        for name, least in (
            ("construction_dimension", 2), ("threshold_samples", 1),
            ("sweep_max_terms", 1), ("pieces", 1),
        ):
            if getattr(self, name) < least:
                raise ConfigError(f"{name}: must be >= {least}, got {getattr(self, name)}")
        if self.mode == "certify-partial":
            try:
                check_velocity_space(self.construction_dimension, self.r, self.p)
            except LipschitzEmbeddingError as exc:
                raise ConfigError(str(exc)) from exc
        for name in ("sweep_order", "solve_order"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{name}: must lie in (0, 1), got {value}")
        for name in ("sigma", "horizon"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name}: must be positive, got {getattr(self, name)}")
        if self.sweep_time < 0:
            raise ConfigError(f"sweep_time: must be nonnegative, got {self.sweep_time}")
        if not self.solve_times or not all(t >= 0 for t in self.solve_times):
            raise ConfigError(
                f"solve_times: must be nonempty and nonnegative, got {list(self.solve_times)}"
            )
        for name in ("s_grid", "t_grid"):
            if not getattr(self, name):
                raise ConfigError(f"{name}: must be nonempty")
        for s in self.s_grid:
            if not 0.0 < s < 1.0:
                raise ConfigError(f"s_grid: each must lie in (0, 1), got {s}")
        for t in self.t_grid:
            if not t > 0:
                raise ConfigError(f"t_grid: each must be positive, got {t}")
        if len(set(self.orders)) != len(self.orders):
            raise ConfigError(f"orders: must be distinct, got {list(self.orders)}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"{sorted(unknown)[0]}: unknown configuration field")
        coerced = dict(data)
        for f in fields(cls):
            if isinstance(f.default, tuple) and isinstance(coerced.get(f.name), list):
                coerced[f.name] = tuple(coerced[f.name])
        return cls(**coerced)

    def to_dict(self) -> dict:
        out = asdict(self)
        for key, value in out.items():
            if isinstance(value, tuple):
                out[key] = list(value)
        return out


@dataclass
class ReportBundle:
    """Tables, certificates and summary produced by one experiment."""

    config: ExperimentConfig
    tables: dict[str, tuple[list[str], list[tuple]]] = field(default_factory=dict)
    certificates: list[ConditionCertificate] = field(default_factory=list)
    summary: list[str] = field(default_factory=list)

    def add_table(self, name: str, columns: list[str], rows: list[tuple]) -> None:
        self.tables[name] = (columns, rows)

    def note(self, line: str) -> None:
        self.summary.append(line)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _datum(config: ExperimentConfig, grid: Grid):
    bump = make_bump(grid, (0.5,) * grid.dimension, config.datum_radius, 1.0)
    return demean(bump)


def _protocol(config: ExperimentConfig) -> FlowMap:
    return build_mixing_protocol(
        seed=config.seed,
        total_time=config.steps * config.step_duration,
        step_duration=config.step_duration,
        amplitude=config.amplitude,
        dimension=config.dimension,
    )


def _planar(config: ExperimentConfig) -> ExperimentConfig:
    """The config in the plane, where the mixing protocol and its datum live."""
    return replace(config, dimension=2)


def _measured_constants(config: ExperimentConfig, order: float):
    """Datum and constants of the seeded 2-d protocol, with the decay prefactor at ``order``."""
    planar = _planar(config)
    grid = Grid(2, min(config.grid_points, 256))
    datum = _datum(planar, grid)
    flow = _protocol(planar)
    try:
        constants, _ = estimate_mixer_constants(flow, datum, order)
    except ValueError as exc:
        # a flow too weak to mix the datum
        raise ConfigError(f"amplitude: no rates can be measured: {exc}") from exc
    return datum, constants


def _measured_rates(config: ExperimentConfig) -> tuple[float, float]:
    """Injected (b, c) when configured, else measured from the seeded protocol."""
    if config.rate_b is not None and config.rate_c is not None:
        return config.rate_b, config.rate_c
    _, constants = _measured_constants(config, 0.5)
    measured = constants.mixing_rate  # b is not measured: unset, it takes the measured c
    b = config.rate_b if config.rate_b is not None else measured
    c = config.rate_c if config.rate_c is not None else measured
    return b, c


def _run_mix(config: ExperimentConfig, bundle: ReportBundle) -> None:
    grid = Grid(config.dimension, config.grid_points)
    datum = _datum(config, grid)
    flow = _protocol(config)
    times = flow.start_times()
    history = norm_history(flow, datum, config.orders, times)
    rows = []
    for i, t in enumerate(times):
        for s in config.orders:
            rows.append((t, s, "multiplier", history[float(s)][i]))
    bundle.add_table("norms", ["t", "order", "method", "value"], rows)
    bundle.note(f"protocol seed={config.seed} steps={len(flow.steps)} amplitude={config.amplitude}")
    fit_rows = []
    for s in config.orders:
        values = history[float(s)]
        if not all(0 < v < math.inf for v in values):
            continue
        est = fit_exponential_rate(times[FIT_SKIP:], values[FIT_SKIP:])
        fit_rows.append((s, est.rate, est.log_prefactor, est.r_squared, est.window[0], est.window[1]))
        flag = ""
        if s < 0 and est.r_squared < 0.98:
            flag = "  [flagged: decay fit r^2 below 0.98 for this seed]"
        bundle.note(
            f"order {s:+g}: rate {est.rate:+.6f}, r^2 {est.r_squared:.4f}, "
            f"window [{est.window[0]:g}, {est.window[1]:g}]{flag}"
        )
    bundle.add_table(
        "rates", ["order", "rate", "log_prefactor", "r_squared", "t_min", "t_max"], fit_rows
    )
    bundle.note(f"protocol: {protocol_to_json(flow)}")


def _run_norms(config: ExperimentConfig, bundle: ReportBundle) -> None:
    grid = Grid(config.dimension, config.grid_points)
    datum = _datum(config, grid)
    # the double sum costs O(M^(2d)): at most 64^2 nodes, one call for every order
    small = config.grid_points**config.dimension <= 64**2
    fractional = [s for s in config.orders if 0.0 < s < 1.0] if small else []
    gagliardo = dict(zip(fractional, gagliardo_seminorm(datum, fractional))) if fractional else {}
    rows = []
    for s in config.orders:
        rows.append(("datum", s, 2.0, "multiplier", hs_norm(datum, s)))
        rows.append(("datum", s, 4.0, "multiplier", wsp_norm(datum, s, 4.0)))
        if s in gagliardo:
            rows.append(("datum", s, 2.0, "gagliardo", gagliardo[s]))
    bundle.add_table("norm_table", ["field_id", "s", "p", "method", "value"], rows)
    bundle.note(f"norm table over {len(config.orders)} orders on M={config.grid_points}")


def _certify_total(config: ExperimentConfig, bundle: ReportBundle) -> None:
    c_rate = config.rate_c if config.rate_c is not None else 1.0
    for d in sorted({config.dimension, config.construction_dimension}):
        schedule = total_loss_schedule(dimension=d)
        bundle.certificates.append(evaluate_condition(schedule, Condition.CUBE_PLACEMENT))
        for p in (1.5, 2.0, 4.0, 8.0):
            bundle.certificates.append(
                evaluate_condition(schedule, Condition.VELOCITY_NORM_LIPSCHITZ, p=p)
            )
        bundle.certificates.append(evaluate_condition(schedule, Condition.VELOCITY_BOUND))
        for sigma in (0.5, 1.0, 2.0, 10.0):
            bundle.certificates.append(
                evaluate_condition(schedule, Condition.DATUM_NORM, sigma=sigma)
            )
        bundle.certificates.append(evaluate_condition(schedule, Condition.DATUM_BOUND))
        pairs = [(s, t) for s in config.s_grid for t in config.t_grid]
        certs = [
            evaluate_condition(schedule, Condition.NORM_BLOWUP, s=s, t=t, c=c_rate)
            for s, t in pairs
        ]
        bundle.certificates.extend(certs)
        rows = [
            (d, s, t, cert.verdict)
            for (s, t), cert in zip(pairs, certs)
        ]
        bundle.add_table(f"blowup_sweep_d{d}", ["d", "s", "t", "verdict"], rows)
        bundle.note(
            f"d={d}: {len(pairs)} blow-up certificates all "
            f"{'divergent' if all(c_.verdict == 'divergent' for c_ in certs) else 'MIXED'}"
        )
    bundle.note(f"total certificates: {len(bundle.certificates)}")


def _certify_partial(config: ExperimentConfig, bundle: ReportBundle) -> None:
    b, c = _measured_rates(config)
    d = config.construction_dimension
    schedule = partial_loss_schedule(d, config.r, config.p, config.sigma, config.horizon, b, c)
    params = schedule.params
    assumed = " (the measured c, assumed)" if config.rate_b is None else ""
    bundle.note(
        f"rates: b={b:.6g}{assumed} c={c:.6g} (seed {config.seed}); "
        f"beta={params.beta:.6g} alpha={params.alpha:.6g} (margin {params.alpha_margin:g}); "
        f"loss threshold mu_bar={params.mu_bar:.6g}, schedule-effective {params.mu_effective:.6g}"
    )
    bundle.certificates.append(evaluate_condition(schedule, Condition.CUBE_PLACEMENT))
    bundle.certificates.append(
        evaluate_condition(
            schedule, Condition.VELOCITY_NORM, r=config.r, p=config.p, b=b, t=config.horizon
        )
    )
    bundle.certificates.append(evaluate_condition(schedule, Condition.VELOCITY_BOUND))
    bundle.certificates.append(
        evaluate_condition(schedule, Condition.DATUM_NORM, sigma=config.sigma)
    )
    bundle.certificates.append(evaluate_condition(schedule, Condition.DATUM_L2))
    held = all(cert.holds for cert in bundle.certificates)
    bundle.note(f"regularity certificates {'all hold' if held else 'FAILED'}")

    # loss threshold: sweep the blow-up condition at the critical rate,
    # where the schedule threshold coincides with mu_bar
    critical = partial_loss_schedule(
        d, config.r, config.p, config.sigma, config.horizon, b, c, alpha_margin=1.0
    )
    mu = critical.params.mu_bar
    rows = []
    disagreements = 0
    for k in range(1, config.threshold_samples + 1):
        s = config.sigma * k / (config.threshold_samples + 1)
        cert = evaluate_condition(
            critical, Condition.NORM_BLOWUP, s=s, t=config.horizon, c=c
        )
        t_blow = blowup_time(s, config.sigma, critical.params.alpha, c, config.horizon)
        diverges = cert.verdict == "divergent"
        by_time = t_blow < config.horizon
        by_ratio = s / config.sigma > mu
        if not (diverges == by_time == by_ratio):
            disagreements += 1
        rows.append((s, cert.verdict, t_blow, by_time, by_ratio))
    bundle.add_table(
        "loss_threshold",
        ["s", "verdict", "blowup_time", "blows_up_by_time", "above_threshold"],
        rows,
    )
    bundle.note(
        f"threshold sweep: {config.threshold_samples} samples, "
        f"{disagreements} disagreements between series verdict, blow-up time and ratio test"
    )


def _run_sweep(config: ExperimentConfig, bundle: ReportBundle) -> None:
    _, constants = _measured_constants(config, config.sweep_order)
    schedule = total_loss_schedule(dimension=config.dimension)
    s, t = config.sweep_order, config.sweep_time
    sums = hs_lower_bound_partial_sums(schedule, s, t, config.sweep_max_terms, constants)
    rows = [(n + 1, sums[n]) for n in range(len(sums))]
    bundle.add_table("lower_bound", ["n", "partial_sum"], rows)
    crossing = next(
        (n + 1 for n, v in enumerate(sums) if v > SWEEP_THRESHOLD), None
    )
    bundle.note(
        f"lower bound at order {s}, t={t}: smallest truncation above "
        f"{SWEEP_THRESHOLD:g} is {crossing}"
    )
    rest = hs_lower_bound_partial_sums(schedule, s, 0.0, 100, constants)
    bundle.note(
        f"at t=0 the bound stays finite: |S(100)-S(50)| = {abs(rest[99] - rest[49]):.3e}"
    )
    bundle.add_table(
        "lower_bound_t0",
        ["n", "partial_sum"],
        [(n + 1, rest[n]) for n in range(len(rest))],
    )


def _run_solve(config: ExperimentConfig, bundle: ReportBundle) -> None:
    datum, constants = _measured_constants(config, config.solve_order)
    schedule = total_loss_schedule(dimension=2)
    n_pieces = config.pieces
    max_local = max(config.solve_times) / schedule.tau.term(n_pieces)
    steps = max(config.steps, math.ceil(max_local / config.step_duration - 1e-12))
    flow = _protocol(replace(_planar(config), steps=steps))
    cubes = place_cubes(schedule, n_pieces)
    lo = min(c.center[0] - c.half for c in cubes)
    hi = max(c.center[0] + c.half for c in cubes)
    window = Cube((0.5 * (lo + hi), cubes[0].center[1]), (hi - lo) * 1.05)
    s, d = config.solve_order, schedule.dimension
    rows = []
    for t in config.solve_times:
        theta = evaluate_truncated_solution(
            schedule, flow, datum, n_pieces, t, window, config.grid_points
        )
        measured_sq = hs_norm(theta, s) ** 2
        pieces = []
        for n in range(1, n_pieces + 1):
            lam_n = schedule.lam.term(n)
            gamma_n = schedule.gamma.term(n)
            state = exact_solution_at(datum, flow, t / schedule.tau.term(n))
            hs_sq = (gamma_n * lam_n ** (d / 2 - s) * hs_norm(state, s)) ** 2
            l2_sq = (gamma_n * lam_n ** (d / 2) * hs_norm(state, 0.0)) ** 2
            pieces.append((hs_sq, l2_sq, lam_n))
        orth = orthogonality_lower_bound(pieces, s, d)
        series_bound = hs_lower_bound_partial_sums(schedule, s, t, n_pieces, constants)[-1]
        rows.append((t, measured_sq, orth, series_bound, measured_sq >= orth >= series_bound))
    bundle.add_table(
        "truncated_solution",
        ["t", "measured_hs_sq", "orthogonality_bound", "series_bound", "chain_holds"],
        rows,
    )
    ok = all(r[-1] for r in rows)
    bundle.note(
        f"truncated solution with {n_pieces} pieces on M={config.grid_points}: "
        f"norm chain {'holds at all times' if ok else 'VIOLATED'}"
    )


_RUNNERS = {
    "mix": _run_mix,
    "norms": _run_norms,
    "certify-total": _certify_total,
    "certify-partial": _certify_partial,
    "lower-bound-sweep": _run_sweep,
    "truncated-solution": _run_solve,
}
MODES = tuple(_RUNNERS)


def run_experiment(config: ExperimentConfig) -> ReportBundle:
    """Run one experiment; deterministic for fixed (config, seed)."""
    bundle = ReportBundle(config=config)
    bundle.note(f"mode: {config.mode}")
    _RUNNERS[config.mode](config, bundle)
    return bundle


def emit_report(bundle: ReportBundle, out_dir) -> list[str]:
    """Write the bundle's CSV tables, certificates.json and summary.txt; byte-stable."""
    texts = {}
    for name in sorted(bundle.tables):
        columns, rows = bundle.tables[name]
        lines = [",".join(columns)] + [",".join(_fmt(x) for x in row) for row in rows]
        texts[f"{name}.csv"] = "\n".join(lines) + "\n"
    payload = {
        "config": bundle.config.to_dict(),
        "certificates": [cert.to_dict() for cert in bundle.certificates],
    }
    texts["certificates.json"] = json.dumps(payload, sort_keys=True) + "\n"
    texts["summary.txt"] = "\n".join(bundle.summary) + "\n"
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out / name).write_text(text)
    return [str(out / name) for name in texts]
