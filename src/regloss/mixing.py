"""Alternating shear mixing on the periodic unit cell and exact transport.

A mixing protocol is a finite list of steady sine shears.  Each step moves
points along one axis by a displacement that depends only on a transverse
coordinate, so its flow map is exact, exactly invertible, and
volume-preserving, and the velocity is divergence-free to rounding.
Transported data are evaluated by composing the exact inverse maps at the
requested points (the grid nodes, or any points) and interpolating the
initial datum once with a periodic quintic spline: there is no
time-stepping error, only one interpolation of the (smooth) initial data.
``_prefilter`` then ``_sample`` is the package's only interpolation route,
for exact transport and for the semi-Lagrangian step alike; the step runs
the prefilter's 1-D passes on two threads (``_prefilter_halves``).

A generic semi-Lagrangian solver (backward RK4 tracing plus per-step
resampling) is provided for velocity fields without exact characteristics.

The mixing rate c and the decay prefactors of the protocol are estimated
per seed from measured norm histories (a log-linear fit and an upper
envelope) and recorded.  The growth rate b is not measured or stored: a run
that needs it and is given none takes b = c.

Two routes use a second core, each with the calling thread and one worker
thread, and each gives results identical to a serial loop:
``norm_history`` measures the sampled states two at a time, and
``advect_semi_lagrangian`` prefilters, traces and samples the two halves
of the grid nodes side by side.  It traces a ``FlowMap`` once for each run
of steps with the same active shear steps, and a callable in every step.
Exact transport starts no thread, so ``norm_history`` never nests one pool
inside the other.
"""

from __future__ import annotations

import bisect
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.ndimage import map_coordinates, spline_filter, spline_filter1d

from .fields import GeometryError, Grid, ScalarField, VectorField, demean
from .sobolev import hs_norm, wsp_norm

__all__ = [
    "CFLError",
    "InsufficientDataError",
    "ShearStep",
    "FlowMap",
    "RateEstimate",
    "MixerConstants",
    "build_mixing_protocol",
    "exact_solution_at",
    "transported_values",
    "advect_semi_lagrangian",
    "velocity_norm_series",
    "fit_exponential_rate",
    "gronwall_lower_bound",
    "norm_history",
    "estimate_mixer_constants",
    "protocol_to_json",
]

INTERPOLATION_ORDER = 5
# samples left out at the start of every rate fit
FIT_SKIP = 2

class CFLError(ValueError):
    """Time step violates the CFL constraint of the solver configuration."""


class InsufficientDataError(ValueError):
    """Too few samples for the requested fit."""


@dataclass(frozen=True)
class ShearStep:
    """One steady shear on the unit cell: velocity amplitude * sin(2*pi*y + phase) along ``axis``.

    ``y`` is the coordinate along ``transverse``, so the velocity is
    divergence-free and the characteristics are exact.
    """

    axis: int
    transverse: int
    amplitude: float
    phase: float
    duration: float

    def __post_init__(self):
        if self.axis == self.transverse:
            raise ValueError("shear axis must differ from the transverse axis")
        if not self.duration > 0:
            raise ValueError(f"step duration must be positive, got {self.duration}")

    def speed(self, y: np.ndarray) -> np.ndarray:
        """Signed speed along the shear axis as a function of y."""
        v = 2.0 * math.pi * y  # the phase, then the speed, in one array
        v += self.phase
        np.sin(v, out=v)
        v *= self.amplitude
        return v

    def max_speed(self) -> float:
        y = np.linspace(0.0, 1.0, 4096, endpoint=False)
        return float(np.max(np.abs(self.speed(y))))


@dataclass(frozen=True)
class FlowMap:
    """Composable volume-preserving map built from exact shear steps."""

    steps: tuple[ShearStep, ...]
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    @property
    def total_time(self) -> float:
        return math.fsum(s.duration for s in self.steps)

    def start_times(self) -> list[float]:
        out = [0.0]
        for s in self.steps:
            out.append(out[-1] + s.duration)
        return out

    def inverse(self) -> "FlowMap":
        rev = tuple(replace(s, amplitude=-s.amplitude) for s in reversed(self.steps))
        return FlowMap(rev, seed=self.seed)

    def _active(self, t: float) -> list[tuple[ShearStep, float]]:
        """Steps overlapping [0, t] with their effective durations."""
        out = []
        clock = 0.0
        for s in self.steps:
            if clock >= t:
                break
            out.append((s, min(s.duration, t - clock)))
            clock += s.duration
        return out

    def pull_back(self, coords: np.ndarray, t: float) -> np.ndarray:
        """Departure points X(t,.)^{-1} at the given coordinates (exact), wrapped to [0, 1)."""
        x = np.array(coords, dtype=float, copy=True)
        for step, dt in reversed(self._active(t)):
            x[step.axis] -= dt * step.speed(x[step.transverse])
        np.mod(x, 1.0, out=x)
        return x

    def step_index(self, t: float) -> int:
        """Index of the step active at time t: the last one starting at or before t, clamped."""
        idx = bisect.bisect_right(self.start_times(), t) - 1
        return max(0, min(idx, len(self.steps) - 1))

    def velocity_at(self, t: float, coords: np.ndarray) -> np.ndarray:
        """Velocity of the active step at time t, sampled at the coordinates."""
        out = np.zeros_like(np.asarray(coords, dtype=float))
        step = self.steps[self.step_index(t)]
        out[step.axis] = step.speed(coords[step.transverse])
        return out

    def velocity_field(self, t: float, grid: Grid) -> VectorField:
        coords = _unit_cell(grid).coordinates()
        vel = self.velocity_at(t, coords)
        return VectorField(grid, tuple(vel))

    def max_speed(self) -> float:
        return max((s.max_speed() for s in self.steps), default=0.0)


def build_mixing_protocol(
    seed: int,
    total_time: float,
    step_duration: float,
    amplitude: float,
    dimension: int = 2,
) -> FlowMap:
    """Alternating-axis ``ShearStep`` protocol with phases drawn from the seed.

    The amplitude is fixed in time, so the Lipschitz size of the velocity
    is uniform over the protocol; identical seeds yield bit-identical
    protocols.
    """
    if not total_time > 0 or not step_duration > 0:
        raise ValueError("total_time and step_duration must be positive")
    n_steps = int(math.ceil(total_time / step_duration - 1e-12))
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * math.pi, n_steps)
    steps = []
    remaining = total_time
    for i in range(n_steps):
        axis = i % dimension
        transverse = (axis + 1) % dimension
        dt = min(step_duration, remaining)
        steps.append(
            ShearStep(
                axis=axis,
                transverse=transverse,
                amplitude=amplitude,
                phase=float(phases[i]),
                duration=dt,
            )
        )
        remaining -= dt
    return FlowMap(tuple(steps), seed=seed)


def _prefilter(values: np.ndarray) -> np.ndarray:
    """Periodic quintic spline coefficients of the grid values."""
    return spline_filter(values, INTERPOLATION_ORDER, mode="grid-wrap")


def _sample(
    coefficients: np.ndarray, points: np.ndarray, output: np.ndarray | None = None
) -> np.ndarray:
    """Quintic spline of ``_prefilter`` coefficients at points given in grid units (x / h)."""
    return map_coordinates(
        coefficients, points, order=INTERPOLATION_ORDER, mode="grid-wrap", prefilter=False,
        output=output,
    )


def _both(pool: ThreadPoolExecutor, task: Callable, lower: tuple, upper: tuple) -> tuple:
    """``task(*lower)`` on the calling thread beside ``task(*upper)`` on the pool's worker."""
    other = pool.submit(task, *upper)
    return task(*lower), other.result()


def _filter_along(axes: Sequence[int], source: np.ndarray, target: np.ndarray) -> None:
    """Quintic spline passes along the axes in order: source into target, then in place."""
    for axis in axes:
        spline_filter1d(source, INTERPOLATION_ORDER, axis, output=target, mode="grid-wrap")
        source = target


def _prefilter_halves(pool: ThreadPoolExecutor, values: np.ndarray, out: np.ndarray) -> None:
    """``_prefilter`` of the values into ``out``, on the caller and the pool's worker.

    Axis 0 is filtered on the two halves split along axis 1, then axes
    1, ..., d-1 on the two halves split along axis 0: the 1-D passes of
    ``spline_filter`` in its order, so the coefficients are identical.
    """
    if values.ndim == 1:
        _filter_along((0,), values, out)
        return
    half = len(values) // 2
    _both(pool, _filter_along, ((0,), values[:, :half], out[:, :half]),
          ((0,), values[:, half:], out[:, half:]))
    rest = range(1, values.ndim)
    _both(pool, _filter_along, (rest, out[:half], out[:half]), (rest, out[half:], out[half:]))


def _unit_cell(grid: Grid) -> Grid:
    """The grid itself, if it is the unit cell, on which the shears are periodic."""
    if grid.length != 1.0:
        raise GeometryError(f"transport needs the unit cell, got side length {grid.length}")
    return grid


def _departure_points(flow: FlowMap, t: float, points: np.ndarray) -> np.ndarray:
    if t < 0 or t > flow.total_time + 1e-12:
        raise ValueError(f"time {t} outside the protocol span [0, {flow.total_time}]")
    return flow.pull_back(points, t)


def transported_values(
    rho0: ScalarField, flow: FlowMap, t: float, points: np.ndarray
) -> np.ndarray:
    """Transported datum at time t at arbitrary points of the cell, shape (d, ...).

    Each value is one quintic-spline sample of the initial grid data at the
    point's exact departure point; the points need not be grid nodes.
    """
    grid = _unit_cell(rho0.grid)
    departure = _departure_points(flow, t, points)
    departure /= grid.spacing
    return _sample(_prefilter(rho0.values), departure)


def exact_solution_at(rho0: ScalarField, flow: FlowMap, t: float) -> ScalarField:
    """Transported datum at time t on its own grid: ``transported_values`` at the nodes.

    The composed departure points carry no time-stepping error; the single
    quintic-spline interpolation of the initial grid data is the only
    approximation.  At t = 0, or when the flow moves no node, the datum
    itself is returned.
    """
    grid = _unit_cell(rho0.grid)
    if t == 0:
        return rho0
    nodes = grid.coordinates()
    departure = _departure_points(flow, t, nodes)
    # the nodes already lie in [0, 1), where the departure points are wrapped
    if np.array_equal(departure, nodes):
        return rho0
    del nodes
    departure /= grid.spacing
    return ScalarField(grid, _sample(_prefilter(rho0.values), departure))


def advect_semi_lagrangian(
    rho0: ScalarField,
    velocity: FlowMap | Callable[[float, np.ndarray], np.ndarray],
    dt: float,
    steps: int,
) -> ScalarField:
    """Generic transport solver: backward RK4 characteristics per step.

    Works for any velocity path (callable (t, coords) -> components array),
    including fields without exact characteristics.  Requires CFL number
    dt * max|u| / h <= 1, checked over every node before a step samples.

    A ``FlowMap``'s trace depends on the step time t1 only through its
    active steps at t1, t1 - dt/2 and t1 - dt, so while that triple
    repeats the previous trace (its largest speed, whether it moves any
    node, and its departure points) is reused; a callable is traced in
    every step.  The nodes are split into two halves along grid axis 0:
    the calling thread traces and samples one half and one worker thread
    the other, and the spline prefilter runs its 1-D passes on two halves
    too, so the velocity and spline kernels, which release the
    interpreter lock, run on two cores.  Every node takes the same
    arithmetic as in a serial loop, so the result is identical to it.
    """
    if not dt > 0 or steps < 0:
        raise ValueError("dt must be positive and steps nonnegative")
    grid = _unit_cell(rho0.grid)
    h = grid.spacing
    flow = velocity if isinstance(velocity, FlowMap) else None
    vel = velocity if flow is None else flow.velocity_at
    # each thread's half of the nodes, contiguous in memory
    lower, upper = (part.copy() for part in np.split(grid.coordinates(), 2, axis=1))
    half = grid.points // 2

    def trace(nodes: np.ndarray, t1: float) -> tuple[float, bool, np.ndarray]:
        """Largest speed at t1, whether no node moves, and the RK4 departure points / h."""
        k1 = vel(t1, nodes)
        k2 = vel(t1 - 0.5 * dt, nodes - 0.5 * dt * k1)
        k3 = vel(t1 - 0.5 * dt, nodes - 0.5 * dt * k2)
        k4 = vel(t1 - dt, nodes - dt * k3)
        departure = nodes - (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        still = np.array_equal(departure, nodes)
        np.mod(departure, 1.0, out=departure)
        departure /= h
        return float(np.max(np.abs(k1))), still, departure

    values = rho0.values
    # the coefficients and the new state, reused by every step
    coefficients, state = np.empty(grid.shape), np.empty(grid.shape)
    active = window = traced = None
    pool = ThreadPoolExecutor(1)
    try:
        for m in range(steps):
            t1 = (m + 1) * dt
            if flow is not None:
                active = tuple(flow.step_index(t) for t in (t1, t1 - 0.5 * dt, t1 - dt))
            if flow is None or active != window:
                traced = _both(pool, trace, (lower, t1), (upper, t1))
                window = active
            speeds, still, points = zip(*traced)
            speed = max(speeds)
            if dt * speed / h > 1.0 + 1e-9:
                raise CFLError(
                    f"CFL number {dt * speed / h:.3f} exceeds 1; reduce dt below {h / speed:.3e}"
                )
            if all(still):
                continue
            _prefilter_halves(pool, values, coefficients)
            _both(pool, _sample, (coefficients, points[0], state[:half]),
                  (coefficients, points[1], state[half:]))
            values = state
    finally:
        pool.shutdown(cancel_futures=True)
    return ScalarField(grid, values)


def velocity_norm_series(
    flow: FlowMap, r: float, p: float, sample_times: Sequence[float], grid: Grid
) -> list[float]:
    """Order-r, L^p norms of the protocol velocity at the sample times."""
    return [wsp_norm(flow.velocity_field(t, grid), r, p) for t in sample_times]


@dataclass(frozen=True)
class RateEstimate:
    """Log-linear fit of a positive series: values ~ exp(log_prefactor + rate*t)."""

    rate: float
    log_prefactor: float
    r_squared: float
    window: tuple[float, float]

    def __post_init__(self):
        if not 0.0 <= self.r_squared <= 1.0 + 1e-12:
            raise ValueError("r_squared must lie in [0, 1]")


def fit_exponential_rate(times: Sequence[float], values: Sequence[float]) -> RateEstimate:
    """Least-squares line through (t, log value).

    Zero-variance input reports rate 0 with r^2 = 1 by convention.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError("times and values must be 1-d and equally long")
    if t.size < 3:
        raise InsufficientDataError(f"need at least 3 samples, got {t.size}")
    if np.any(v <= 0):
        raise ValueError("all values must be positive for a log-linear fit")
    y = np.log(v)
    window = (float(t.min()), float(t.max()))
    if np.ptp(y) == 0.0:
        return RateEstimate(0.0, float(y[0]), 1.0, window)
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return RateEstimate(float(slope), float(intercept), min(r2, 1.0), window)


def gronwall_lower_bound(l2: float, neg_norm: float) -> float:
    """Interpolation-driven bound ||f||_{H^s} >= ||f||_{L^2}^2 / ||f||_{H^-s}."""
    if not neg_norm > 0:
        raise ValueError(f"negative-order norm must be positive, got {neg_norm}")
    return l2**2 / neg_norm


@dataclass(frozen=True)
class MixerConstants:
    """Measured rate constants of a mixing protocol.

    mixing_rate (c) is the measured decay rate per unit time (b is not
    measured: runs take b = c); field_prefactors maps a derivative order r
    to the measured bound on the velocity norm; decay_prefactors maps an
    order s to the fitted prefactor of the exp(-s*c*t) decay; l2_norm is
    the conserved L2 norm of the datum.  The derived lower-bound prefactor
    for order s is l2_norm^2/decay_prefactors[s].
    """

    mixing_rate: float
    field_prefactors: Mapping[float, float]
    decay_prefactors: Mapping[float, float]
    l2_norm: float

    def __post_init__(self):
        if self.mixing_rate <= 0 or self.l2_norm <= 0:
            raise ValueError("the mixing rate and the L2 norm must be positive")
        if any(v <= 0 for v in self.field_prefactors.values()):
            raise ValueError("field prefactors must be positive")
        if any(v <= 0 for v in self.decay_prefactors.values()):
            raise ValueError("decay prefactors must be positive")
        object.__setattr__(self, "field_prefactors", MappingProxyType(dict(self.field_prefactors)))
        object.__setattr__(self, "decay_prefactors", MappingProxyType(dict(self.decay_prefactors)))

    def lower_prefactor(self, s: float) -> float:
        """Prefactor of the exp(s*c*t) growth bound at order s."""
        return gronwall_lower_bound(self.l2_norm, self.decay_prefactors[s])


def norm_history(
    flow: FlowMap, datum: ScalarField, orders: Sequence[float], sample_times: Sequence[float]
) -> dict[float, list[float]]:
    """hs_norm of the transported datum at each order and sample time.

    Each sampled state is demeaned before measuring: the continuum flow
    conserves the mean exactly, so the residual zero-mode mass is sampling
    noise that would otherwise contaminate negative-order norms.

    States are measured two at a time: the calling thread takes the even
    sample times and one worker thread the odd ones, so the transport and
    FFT kernels, which release the interpreter lock, run on two cores.
    Every state is measured by the same code as in a serial loop, so the
    results are identical to serial order, and an error is raised for the
    first failing sample time, as a serial loop would.
    """
    orders = [float(s) for s in orders]
    if len(set(orders)) != len(orders):
        raise ValueError(f"orders must be distinct, got {orders}")
    times = list(sample_times)

    def measure(t: float) -> list[float]:
        state = demean(exact_solution_at(datum, flow, t))
        return [hs_norm(state, s) for s in orders]

    out: dict[float, list[float]] = {s: [] for s in orders}
    # the caller works too: with two workers and the caller idle, a third
    # malloc arena kept its memory and raised the peak resident size
    pool = ThreadPoolExecutor(1)
    try:
        odd = [pool.submit(measure, t) for t in times[1::2]]
        for i, t in enumerate(times):
            row = measure(t) if i % 2 == 0 else odd[i // 2].result()
            for s, value in zip(orders, row):
                out[s].append(value)
    finally:
        pool.shutdown(cancel_futures=True)
    return out


def estimate_mixer_constants(
    flow: FlowMap, datum: ScalarField, decay_orders: Sequence[float] = (0.5, 1.0)
) -> tuple[MixerConstants, dict[float, RateEstimate]]:
    """Measure mixing-rate constants of the protocol on the given datum.

    The datum must have zero mean, and ``decay_orders`` must hold 1 and no
    order twice.  The mixing rate c is the fitted decay rate of the order -1
    norm, fitted without the first ``FIT_SKIP`` samples.  The decay
    prefactor per order s is the measured upper envelope
    max_t ||rho(t)||_{-s} * exp(s*c*t), so the decay bound holds at every
    sampled time by construction; prefactors are valid on the sampled
    window only.  The field prefactors (orders 1 and 2, L^2) are the
    measured velocity-norm maxima.  b is not measured: the fixed-amplitude
    protocol's velocity norms are constant in time, and runs take b = c.
    """
    if 1.0 not in decay_orders:
        raise ValueError(f"c is fitted at order 1, so decay_orders must hold 1: {decay_orders}")
    times = flow.start_times()
    history = norm_history(flow, datum, [-s for s in decay_orders], times)
    fits: dict[float, RateEstimate] = {}
    for s in decay_orders:
        fits[float(s)] = fit_exponential_rate(times[FIT_SKIP:], history[-float(s)][FIT_SKIP:])
    c = -fits[1.0].rate / 1.0
    if c <= 0:
        raise ValueError("protocol does not mix: fitted order -1 rate is nonnegative")
    decay_prefactors = {
        s: max(
            v * math.exp(s * c * t) for t, v in zip(times, history[-float(s)])
        )
        for s in decay_orders
    }
    grid = datum.grid
    field_prefactors = {}
    for r in (1.0, 2.0):
        series = velocity_norm_series(flow, r, 2.0, times[:-1], grid)
        field_prefactors[float(r)] = max(series)
    l2 = hs_norm(datum, 0.0)
    constants = MixerConstants(
        mixing_rate=c,
        field_prefactors=field_prefactors,
        decay_prefactors=decay_prefactors,
        l2_norm=l2,
    )
    return constants, fits


def protocol_to_json(flow: FlowMap) -> str:
    """Serialize the protocol: seed plus the full step list."""
    data = {"seed": flow.seed, "steps": [asdict(step) for step in flow.steps]}
    return json.dumps(data, sort_keys=True)

