import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.ndimage import map_coordinates, spline_filter

from regloss import (
    CFLError,
    FlowMap,
    GeometryError,
    Grid,
    InsufficientDataError,
    MixerConstants,
    ScalarField,
    ShearStep,
    VectorField,
    advect_semi_lagrangian,
    build_mixing_protocol,
    demean,
    estimate_mixer_constants,
    exact_solution_at,
    fit_exponential_rate,
    gronwall_lower_bound,
    hs_norm,
    make_bump,
    norm_history,
    transported_values,
    velocity_norm_series,
)
from regloss.mixing import _prefilter_halves, protocol_to_json


def test_single_step_protocol():
    flow = build_mixing_protocol(1, 0.25, 0.25, 1.0)
    assert len(flow.steps) == 1
    assert flow.total_time == 0.25


def test_protocol_validation():
    with pytest.raises(ValueError):
        build_mixing_protocol(1, 0.0, 0.25, 1.0)
    with pytest.raises(ValueError):
        build_mixing_protocol(1, 1.0, -0.1, 1.0)


def test_step_validation():
    with pytest.raises(ValueError):
        ShearStep(axis=0, transverse=0, amplitude=1.0, phase=0.0, duration=1.0)
    with pytest.raises(ValueError):
        ShearStep(axis=0, transverse=1, amplitude=1.0, phase=0.0, duration=0.0)


def test_seed_reproducibility():
    a = build_mixing_protocol(42, 2.0, 0.25, 1.3)
    b = build_mixing_protocol(42, 2.0, 0.25, 1.3)
    assert protocol_to_json(a) == protocol_to_json(b)
    c = build_mixing_protocol(43, 2.0, 0.25, 1.3)
    assert protocol_to_json(a) != protocol_to_json(c)


def test_zero_amplitude_identity():
    g = Grid(2, 64)
    datum = make_bump(g, (0.5, 0.5), 0.2, 1.0)
    flow = build_mixing_protocol(1, 0.5, 0.125, 0.0)
    out = exact_solution_at(datum, flow, 0.5)
    assert np.array_equal(out.values, datum.values)


def test_time_zero_and_span_validation():
    g = Grid(2, 64)
    datum = make_bump(g, (0.5, 0.5), 0.2, 1.0)
    flow = build_mixing_protocol(1, 0.5, 0.125, 1.0)
    assert exact_solution_at(datum, flow, 0.0) is datum
    with pytest.raises(ValueError):
        exact_solution_at(datum, flow, 0.6)
    with pytest.raises(ValueError):
        exact_solution_at(datum, flow, -0.1)


def test_shear_invariant_datum():
    g = Grid(2, 128)
    x = g.coordinates()
    step = FlowMap((ShearStep(0, 1, 0.7, 1.3, 0.4),))
    datum = ScalarField(g, np.sin(2 * np.pi * x[1]))
    out = exact_solution_at(datum, step, 0.4)
    assert np.max(np.abs(out.values - datum.values)) < 1e-13


def test_shear_closed_form_characteristics():
    g = Grid(2, 256)
    x = g.coordinates()
    step = FlowMap((ShearStep(0, 1, 0.7, 1.3, 0.4),))
    datum = ScalarField(g, np.sin(2 * np.pi * x[0]))
    out = exact_solution_at(datum, step, 0.4)
    closed = np.sin(2 * np.pi * (x[0] - 0.4 * 0.7 * np.sin(2 * np.pi * x[1] + 1.3)))
    assert np.max(np.abs(out.values - closed)) < 1e-8


def test_partial_step_composition():
    g = Grid(2, 128)
    x = g.coordinates()
    step = FlowMap((ShearStep(0, 1, 0.5, 0.2, 1.0),))
    datum = ScalarField(g, np.sin(2 * np.pi * x[0]))
    out = exact_solution_at(datum, step, 0.35)
    closed = np.sin(2 * np.pi * (x[0] - 0.35 * 0.5 * np.sin(2 * np.pi * x[1] + 0.2)))
    assert np.max(np.abs(out.values - closed)) < 1e-8


def test_transported_values_at_and_between_the_nodes():
    g = Grid(2, 128)
    x = g.coordinates()
    step = FlowMap((ShearStep(0, 1, 0.5, 0.2, 1.0),))
    datum = ScalarField(g, np.sin(2 * np.pi * x[0]))
    at_nodes = transported_values(datum, step, 0.35, x)
    assert np.array_equal(at_nodes, exact_solution_at(datum, step, 0.35).values)
    mid = x + 0.5 * g.spacing
    closed = np.sin(2 * np.pi * (mid[0] - 0.35 * 0.5 * np.sin(2 * np.pi * mid[1] + 0.2)))
    assert np.max(np.abs(transported_values(datum, step, 0.35, mid) - closed)) < 1e-8
    with pytest.raises(ValueError, match="outside the protocol span"):
        transported_values(datum, step, 1.5, x)


def test_exact_transport_refuses_a_cell_other_than_the_unit_cell():
    g = Grid(2, 32, 0.5)
    datum = make_bump(g, (0.25, 0.25), 0.1, 1.0)
    flow = build_mixing_protocol(1, 0.5, 0.125, 1.0)
    with pytest.raises(GeometryError, match="unit cell"):
        exact_solution_at(datum, flow, 0.25)
    with pytest.raises(GeometryError, match="unit cell"):
        transported_values(datum, flow, 0.25, g.coordinates())


def test_inverse_concatenation_is_identity():
    g = Grid(2, 128)
    datum = demean(make_bump(g, (0.5, 0.5), 0.15, 1.0))
    fwd = build_mixing_protocol(3, 0.75, 0.125, 1.2)
    both = FlowMap(fwd.steps + fwd.inverse().steps)
    out = exact_solution_at(datum, both, 1.5)
    assert np.max(np.abs(out.values - datum.values)) < 1e-12


def test_inverse_round_trip_within_interpolation_error():
    g = Grid(2, 512)
    datum = demean(make_bump(g, (0.5, 0.5), 0.2, 1.0))
    fwd = build_mixing_protocol(3, 0.5, 0.125, 0.8)
    mid = exact_solution_at(datum, fwd, 0.5)
    back = exact_solution_at(mid, fwd.inverse(), 0.5)
    rel = (
        hs_norm(ScalarField(g, back.values - datum.values), 0.0)
        / hs_norm(datum, 0.0)
    )
    assert rel < 1e-6


def test_conservation_gentle_protocol():
    g = Grid(2, 128)
    datum = demean(make_bump(g, (0.5, 0.5), 0.125, 1.0))
    flow = build_mixing_protocol(5, 2.5, 0.125, 1.2)
    l2_0 = hs_norm(datum, 0.0)
    for t in flow.start_times():
        state = exact_solution_at(datum, flow, t)
        assert abs(hs_norm(state, 0.0) - l2_0) / l2_0 < 1e-3
        assert abs(float(state.values.mean()) - float(datum.values.mean())) < 1e-5


def test_semi_lagrangian_zero_velocity():
    g = Grid(2, 64)
    datum = make_bump(g, (0.5, 0.5), 0.2, 1.0)
    flow = build_mixing_protocol(1, 1.0, 0.25, 0.0)
    out = advect_semi_lagrangian(datum, flow, dt=0.05, steps=20)
    assert np.array_equal(out.values, datum.values)


def test_semi_lagrangian_refuses_a_cell_other_than_the_unit_cell():
    g = Grid(2, 32, 2.0)
    datum = make_bump(g, (1.0, 1.0), 0.4, 1.0)
    flow = build_mixing_protocol(1, 1.0, 0.25, 1.0)
    with pytest.raises(GeometryError, match="unit cell"):
        advect_semi_lagrangian(datum, flow, dt=0.01, steps=1)


def test_semi_lagrangian_matches_exact_map_single_step():
    g = Grid(2, 256)
    datum = demean(make_bump(g, (0.5, 0.5), 0.2, 1.0))
    flow = build_mixing_protocol(5, 0.125, 0.125, 1.2)
    exact = exact_solution_at(datum, flow, 0.125)
    sl = advect_semi_lagrangian(datum, flow, dt=0.125 / 64, steps=64)
    rel = (
        hs_norm(ScalarField(g, sl.values - exact.values), 0.0)
        / hs_norm(exact, 0.0)
    )
    assert rel < 1e-3


def test_semi_lagrangian_cfl_guard():
    g = Grid(2, 256)
    datum = make_bump(g, (0.5, 0.5), 0.2, 1.0)
    flow = build_mixing_protocol(5, 0.125, 0.125, 1.2)
    before = threading.active_count()
    with pytest.raises(CFLError) as raised:
        advect_semi_lagrangian(datum, flow, dt=0.01, steps=2)
    assert str(raised.value) == "CFL number 3.072 exceeds 1; reduce dt below 3.255e-03"
    assert threading.active_count() == before


@pytest.mark.parametrize("fast_half", ["lower", "upper"])
def test_semi_lagrangian_cfl_guard_covers_both_halves_of_the_nodes(fast_half):
    # the nodes are split along axis 0; only one half moves faster than the CFL limit
    g = Grid(2, 64)
    datum = make_bump(g, (0.5, 0.5), 0.2, 1.0)

    def velocity(t, c):
        fast = c[0] < 0.5 if fast_half == "lower" else c[0] >= 0.5
        return np.stack([np.where(fast, 100.0, 0.0), np.zeros_like(c[1])])

    before = threading.active_count()
    with pytest.raises(CFLError, match=r"^CFL number 1\.600 exceeds 1; reduce dt below 1\.563e-04$"):
        advect_semi_lagrangian(datum, velocity, dt=0.00025, steps=1)
    assert threading.active_count() == before


def _serial_rk4(rho0, velocity, dt, steps):
    """Reference: one serial backward-RK4 loop over all nodes with one quintic resample."""
    grid = rho0.grid
    coords = grid.coordinates()
    values = rho0.values
    for m in range(steps):
        t1 = (m + 1) * dt
        k1 = velocity(t1, coords)
        k2 = velocity(t1 - 0.5 * dt, coords - 0.5 * dt * k1)
        k3 = velocity(t1 - 0.5 * dt, coords - 0.5 * dt * k2)
        k4 = velocity(t1 - dt, coords - dt * k3)
        departure = coords - (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if np.array_equal(departure, coords):
            continue
        points = np.mod(departure, grid.length) / grid.spacing
        values = map_coordinates(values, points, order=5, mode="grid-wrap")
    return values


def _swirl(t, c):
    """Divergence-free, time-dependent velocity without exact characteristics."""
    x, y = 2 * np.pi * c[0], 2 * np.pi * c[1]
    return np.stack([0.6 * np.sin(y) * math.cos(t), 0.4 * np.sin(x + t)])


# (total time, step duration, amplitude) of the seeded protocol
PROTOCOLS = {"flow": (0.25, 0.125, 1.2), "slow-flow": (1.0, 0.125, 0.5)}


@pytest.mark.parametrize(
    "dimension, points, kind, dt, steps",
    [
        (2, 64, "flow", 0.01, 20),  # crosses the step boundary at t = 0.125
        (2, 64, "callable", 0.01, 12),
        (3, 16, "flow", 0.02, 9),  # crosses a step boundary
        # 7 boundaries, and dt does not divide the step duration
        (2, 64, "slow-flow", 0.03, 30),
        (3, 16, "slow-flow", 0.03, 30),
    ],
)
def test_semi_lagrangian_is_identical_to_a_serial_rk4_loop(dimension, points, kind, dt, steps):
    g = Grid(dimension, points)
    center = (0.45, 0.55, 0.5)[:dimension]
    datum = demean(make_bump(g, center, 0.2, 1.0))
    if kind in PROTOCOLS:
        total, duration, amplitude = PROTOCOLS[kind]
        flow = build_mixing_protocol(3, total, duration, amplitude, dimension=dimension)
        assert flow.step_index(dt * steps) == math.floor(dt * steps / duration) >= 1
        velocity = flow
        serial_velocity = flow.velocity_at
    else:
        velocity = serial_velocity = _swirl
    out = advect_semi_lagrangian(datum, velocity, dt, steps)
    expected = _serial_rk4(datum, serial_velocity, dt, steps)
    assert out.values.shape == g.shape
    assert out.values.tobytes() == expected.tobytes()
    assert not np.array_equal(out.values, datum.values)


@pytest.mark.parametrize("steps", [1, 5, 40])
def test_semi_lagrangian_traces_a_flow_once_per_steady_window(steps, monkeypatch):
    g = Grid(2, 32)
    datum = demean(make_bump(g, (0.5, 0.5), 0.2, 1.0))
    flow = build_mixing_protocol(3, 0.25, 0.125, 1.2)
    dt = 0.0025  # 40 steps stay inside the first shear step
    calls = []
    velocity_at = FlowMap.velocity_at

    def counted(self, t, coords):
        calls.append(t)
        return velocity_at(self, t, coords)

    monkeypatch.setattr(FlowMap, "velocity_at", counted)
    advect_semi_lagrangian(datum, flow, dt, steps)
    assert len(calls) == 8  # four RK4 stages on each half of the nodes

    def swirl(t, c):
        calls.append(t)
        return _swirl(t, c)

    calls.clear()
    advect_semi_lagrangian(datum, swirl, dt, steps)
    assert len(calls) == 8 * steps


@pytest.mark.parametrize("dimension, points", [(2, 4), (2, 64), (3, 8)])
def test_prefilter_on_two_threads_equals_spline_filter(dimension, points):
    values = np.random.default_rng(points).standard_normal((points,) * dimension)
    out = np.empty_like(values)
    with ThreadPoolExecutor(1) as pool:
        _prefilter_halves(pool, values, out)
    assert out.tobytes() == spline_filter(values, 5, mode="grid-wrap").tobytes()


def test_velocity_norm_series_constant_across_steps():
    g = Grid(2, 256)
    flow = build_mixing_protocol(9, 1.0, 0.125, 1.7)
    times = [0.0, 0.2, 0.4, 0.6, 0.9]
    values = velocity_norm_series(flow, 1.0, 2.0, times, g)
    assert max(values) - min(values) < 1e-10 * max(values)


def test_velocity_norm_series_l2_closed_form():
    g = Grid(2, 128)
    flow = build_mixing_protocol(9, 0.5, 0.125, 1.7)
    l2 = velocity_norm_series(flow, 0.0, 2.0, [0.0], g)[0]
    assert l2 == pytest.approx(1.7 / math.sqrt(2), rel=1e-12)
    l4 = velocity_norm_series(flow, 0.0, 4.0, [0.0], g)[0]
    assert l4 <= 1.7 + 1e-12


def test_velocity_growth_rate_fit_on_scheduled_amplitudes():
    g = Grid(2, 128)
    growth = 0.5
    steps = tuple(
        ShearStep(i % 2, (i + 1) % 2, math.exp(growth * 0.25 * i), 0.3 * i, 0.25)
        for i in range(12)
    )
    flow = FlowMap(steps)
    times = [0.25 * i for i in range(12)]
    series = velocity_norm_series(flow, 2.0, 2.0, times, g)
    fit = fit_exponential_rate(times, series)
    assert fit.rate == pytest.approx(growth, rel=1e-9)
    assert fit.rate > 0


def test_fit_exponential_rate_exact():
    t = np.linspace(0.0, 5.0, 11)
    est = fit_exponential_rate(t, np.exp(-2.0 * t))
    assert est.rate == pytest.approx(-2.0, abs=1e-12)
    assert est.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_exponential_rate_flat_series():
    est = fit_exponential_rate([0.0, 1.0, 2.0], [3.0, 3.0, 3.0])
    assert est.rate == 0.0
    assert est.r_squared == 1.0


def test_fit_exponential_rate_validation():
    with pytest.raises(InsufficientDataError):
        fit_exponential_rate([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_exponential_rate([0.0, 1.0, 2.0], [1.0, -1.0, 2.0])


def test_gronwall_lower_bound():
    assert gronwall_lower_bound(1.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        gronwall_lower_bound(1.0, 0.0)


def test_gronwall_single_mode_equality():
    g = Grid(2, 128)
    x = g.coordinates()
    f = ScalarField(g, np.sin(2 * np.pi * x[0]))
    for s in (0.3, 1.0):
        bound = gronwall_lower_bound(hs_norm(f, 0.0), hs_norm(f, -s))
        assert hs_norm(f, s) == pytest.approx(bound, rel=1e-12)


def test_norm_history_positive_orders_unaffected_by_demeaning():
    g = Grid(2, 64)
    datum = demean(make_bump(g, (0.5, 0.5), 0.15, 1.0))
    flow = build_mixing_protocol(2, 0.25, 0.125, 1.0)
    history = norm_history(flow, datum, [0.5], flow.start_times())
    for t, demeaned in zip(flow.start_times(), history[0.5]):
        state = exact_solution_at(datum, flow, t)
        assert demeaned == pytest.approx(hs_norm(state, 0.5), rel=1e-12)


ORDERS = (-1.0, -0.5, 0.0, 0.5, 1.0)


def _default_protocol(points):
    """Default datum and 20-step protocol of the experiments, on an M-point grid."""
    datum = demean(make_bump(Grid(2, points), (0.5, 0.5), 0.125, 1.0))
    return datum, build_mixing_protocol(5, 2.5, 0.125, 3.2)


@pytest.mark.parametrize("count", [0, 1, 2, 21])
def test_norm_history_equals_a_serial_loop(count):
    datum, flow = _default_protocol(64)
    times = flow.start_times()[:count]
    assert len(times) == count
    serial = {s: [] for s in ORDERS}
    for t in times:
        state = demean(exact_solution_at(datum, flow, t))
        for s in ORDERS:
            serial[s].append(hs_norm(state, s))
    history = norm_history(flow, datum, ORDERS, times)
    assert {s: [v.hex() for v in vs] for s, vs in history.items()} == {
        s: [v.hex() for v in vs] for s, vs in serial.items()
    }


@pytest.mark.parametrize("first_bad", [1, 2])
def test_norm_history_out_of_span_raises_the_first_error_and_stops_its_worker(first_bad):
    datum, flow = _default_protocol(32)
    times = flow.start_times()[:6]
    times[first_bad] = 7.0
    times[4] = 8.0
    before = threading.active_count()
    with pytest.raises(ValueError, match="time 7.0 outside the protocol span"):
        norm_history(flow, datum, ORDERS, times)
    assert threading.active_count() == before


def test_norm_history_peak_memory_stays_within_fourteen_grid_arrays():
    # two states are in flight at once; one grid array is 8*M^2 bytes
    points = 128
    datum, flow = _default_protocol(points)
    times = flow.start_times()
    tracemalloc.start()
    try:
        norm_history(flow, datum, ORDERS, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14 * 8 * points**2


def test_norm_history_refuses_repeated_orders():
    # one list per order: a repeated order would append its values twice
    datum, flow = _default_protocol(32)
    for orders in ([0.5, 0.5], [1, 1.0], [0.0, -0.0]):
        with pytest.raises(ValueError, match="distinct"):
            norm_history(flow, datum, orders, flow.start_times()[:3])


def test_estimate_mixer_constants_needs_order_one():
    datum, flow = _default_protocol(32)
    with pytest.raises(ValueError, match="c is fitted at order 1"):
        estimate_mixer_constants(flow, datum, decay_orders=(0.5,))


def test_estimate_mixer_constants_contract():
    g = Grid(2, 128)
    datum = demean(make_bump(g, (0.5, 0.5), 0.125, 1.0))
    flow = build_mixing_protocol(5, 2.0, 0.125, 3.2)
    constants, fits = estimate_mixer_constants(flow, datum)
    assert constants.mixing_rate > 0
    assert not hasattr(constants, "growth_rate")
    # derived growth prefactor is l2^2 / decay prefactor
    for s, pref in constants.decay_prefactors.items():
        assert constants.lower_prefactor(s) == pytest.approx(
            constants.l2_norm**2 / pref, rel=1e-15
        )
    # decay envelope really bounds every sample
    times = flow.start_times()
    history = norm_history(flow, datum, [-0.5, -1.0], times)
    c = constants.mixing_rate
    for s in (0.5, 1.0):
        for t, v in zip(times, history[-s]):
            assert v <= constants.decay_prefactors[s] * math.exp(-s * c * t) * (1 + 1e-12)


def test_estimate_mixer_constants_transform_count(monkeypatch):
    # 21 states x 2 orders, 1 for the L2 norm, and 2 components x 20 steps x 2
    # orders for the velocity norms; no velocity field is checked for divergence
    datum, flow = _default_protocol(64)
    calls = {"fftn": 0, "divergence": 0}
    fftn = np.fft.fftn
    divergence = VectorField.spectral_divergence

    def counted_fftn(*args, **kwargs):
        calls["fftn"] += 1
        return fftn(*args, **kwargs)

    def counted_divergence(self):
        calls["divergence"] += 1
        return divergence(self)

    monkeypatch.setattr(np.fft, "fftn", counted_fftn)
    monkeypatch.setattr(VectorField, "spectral_divergence", counted_divergence)
    estimate_mixer_constants(flow, datum)
    assert calls == {"fftn": 123, "divergence": 0}


def test_mixer_constants_validation():
    with pytest.raises(ValueError):
        MixerConstants(0.0, {1.0: 1.0}, {1.0: 1.0}, 1.0)
    with pytest.raises(ValueError):
        MixerConstants(1.0, {1.0: -1.0}, {1.0: 1.0}, 1.0)


def test_monotone_mixing_trend(default_mix):
    times = default_mix["times"]
    history = default_mix["history"]
    decay = fit_exponential_rate(times[2:], history[-1.0][2:])
    growth = fit_exponential_rate(times[2:], history[1.0][2:])
    assert decay.rate < 0.0
    assert growth.rate > 0.0


def test_three_dimensional_transport_conserves_mass():
    g = Grid(3, 32)
    datum = make_bump(g, (0.5, 0.5, 0.5), 0.2, 1.0)
    flow = build_mixing_protocol(4, 0.75, 0.125, 1.0, dimension=3)
    axes = {(s.axis, s.transverse) for s in flow.steps}
    assert all(a != t for a, t in axes)
    l2_0 = hs_norm(datum, 0.0)
    state = exact_solution_at(datum, flow, 0.75)
    assert abs(hs_norm(state, 0.0) - l2_0) / l2_0 < 1e-3
    round_trip = FlowMap(flow.steps + flow.inverse().steps)
    back = exact_solution_at(datum, round_trip, 1.5)
    assert np.max(np.abs(back.values - datum.values)) < 1e-12


@pytest.mark.parametrize("dimension", [2, 3])
def test_every_shear_step_is_divergence_free(dimension):
    grid = Grid(dimension, 32)
    flow = build_mixing_protocol(5, 2.5, 0.125, 3.2, dimension=dimension)
    for t in flow.start_times()[:-1]:
        assert flow.velocity_field(t, grid).spectral_divergence() < 1e-10
