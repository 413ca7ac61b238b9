"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The shared measurement protocol lives in conftest.default_mix.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from regloss import (
    Condition,
    Cube,
    ExpPolySeries,
    Grid,
    ScalarField,
    advect_semi_lagrangian,
    blowup_time,
    build_mixing_protocol,
    classify,
    demean,
    evaluate_condition,
    evaluate_truncated_solution,
    exact_solution_at,
    gagliardo_seminorm,
    gronwall_lower_bound,
    hs_lower_bound_partial_sums,
    hs_norm,
    make_bump,
    orthogonality_lower_bound,
    partial_loss_schedule,
    partial_sums,
    place_cubes,
    sphere_surface_area,
    total_loss_schedule,
)
from conftest import AMPLITUDE, DATUM_RADIUS, SEED, STEP_DURATION, STEPS, dipole


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL - {label}", flush=True)
        raise
    print(f"criterion {number:02d} PASS - {label}", flush=True)


def test_criterion_01_single_mode_norms_exact():
    with criterion(1, "single-mode multiplier norms match the closed form"):
        started = time.perf_counter()
        grid = Grid(2, 256)
        x = grid.coordinates()
        f = ScalarField(grid, np.sin(2 * np.pi * x[0]))
        for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
            expected = (2 * math.pi) ** s / math.sqrt(2)
            got = hs_norm(f, s)
            assert abs(got - expected) / expected <= 1e-10
        assert time.perf_counter() - started < 1.0


def test_criterion_02_rescaling_law_on_grid():
    with criterion(2, "rescaled data follow the norm scaling law"):
        errors = {}
        for points in (256, 512):
            grid = Grid(2, points)
            f1 = dipole(grid, (0.5, 0.5), 0.07, 0.06)
            f2 = dipole(grid, (0.5, 0.5), 0.035, 0.03)
            for s in (0.25, 0.5, 0.75):
                predicted = 0.5 ** (1.0 - s) * hs_norm(f1, s)
                errors[(points, s)] = abs(hs_norm(f2, s) - predicted) / predicted
        for s in (0.25, 0.5, 0.75):
            assert errors[(256, s)] <= 1e-3
            assert errors[(512, s)] < errors[(256, s)] + 1e-12


def _interpolation_corpus(grid):
    rng = np.random.default_rng(7)
    fields = []
    for _ in range(8):
        center = (rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7))
        fields.append(demean(make_bump(grid, center, rng.uniform(0.06, 0.2), rng.uniform(0.5, 2.0))))
    for _ in range(4):
        center = (rng.uniform(0.35, 0.65), rng.uniform(0.35, 0.65))
        fields.append(dipole(grid, center, rng.uniform(0.05, 0.1), rng.uniform(0.04, 0.08)))
    x = grid.coordinates()
    for _ in range(4):
        k1, k2 = rng.integers(1, 9, 2)
        a, b = rng.uniform(0.5, 2.0, 2)
        values = a * np.sin(2 * np.pi * k1 * x[0]) + b * np.cos(2 * np.pi * k2 * x[1])
        fields.append(ScalarField(grid, values))
    shear = build_mixing_protocol(3, 0.25, 0.125, 1.6)
    for i in range(4):
        base = dipole(grid, (0.5, 0.5), 0.06 + 0.01 * i, 0.05)
        fields.append(demean(exact_solution_at(base, shear, 0.25)))
    return fields


def test_criterion_03_interpolation_inequality():
    with criterion(3, "interpolation inequality holds across the corpus"):
        grid = Grid(2, 256)
        fields = _interpolation_corpus(grid)
        assert len(fields) == 20
        triples = [
            (-1.0, -0.5, 0.5),
            (-1.0, 0.0, 1.0),
            (-0.5, 0.0, 0.5),
            (-0.5, 0.25, 1.0),
            (0.0, 0.5, 1.0),
            (0.0, 1.0, 2.0),
            (0.25, 0.5, 0.75),
            (0.5, 1.0, 2.0),
            (-1.0, 0.5, 2.0),
            (-0.25, 0.0, 0.25),
        ]
        for f in fields:
            cache = {}
            for s1, s, s2 in triples:
                for order in (s1, s, s2):
                    if order not in cache:
                        cache[order] = hs_norm(f, order)
                n1, n2, theta = cache[s1], cache[s2], (s2 - s) / (s2 - s1)
                bound = n1**theta * n2 ** (1 - theta)
                assert cache[s] <= bound * (1.0 + 1e-10)
        x = grid.coordinates()
        mode = ScalarField(grid, np.sin(6 * np.pi * x[0]))
        n1, n2, theta = hs_norm(mode, -0.5), hs_norm(mode, 1.5), 0.5
        bound = n1**theta * n2 ** (1 - theta)
        assert abs(hs_norm(mode, 0.5) - bound) <= 1e-12 * bound


def test_criterion_04_almost_orthogonality():
    with criterion(4, "disjoint supports obey the almost-orthogonality bound"):
        grid = Grid(2, 64)
        b1 = make_bump(grid, (0.25, 0.25), 0.1, 1.0)
        b2 = make_bump(grid, (0.75, 0.75), 0.1, -0.8)
        separation = 0.15  # distance from each support to its quarter-cell boundary
        total = ScalarField(grid, b1.values + b2.values)
        for s in (0.25, 0.5, 0.75):
            direct_sq = hs_norm(total, s) ** 2
            pieces = [
                (hs_norm(b, s) ** 2, hs_norm(b, 0.0) ** 2, separation)
                for b in (b1, b2)
            ]
            assert direct_sq >= orthogonality_lower_bound(pieces, s, 2)
        # single-piece localization with the unit-sphere-area constant
        region = Cube((0.25, 0.25), 0.5)
        orders = (0.25, 0.5, 0.75)
        global_norms = gagliardo_seminorm(b1, orders)
        local_norms = gagliardo_seminorm(b1, orders, within=region)
        for s, glob, local in zip(orders, global_norms, local_norms):
            tail = sphere_surface_area(2) / s * separation ** (-2 * s) * hs_norm(b1, 0.0) ** 2
            assert glob**2 <= local**2 + tail


def test_criterion_05_conservation():
    with criterion(5, "exact transport conserves mass and the solver tracks it"):
        drifts = {}
        for points in (128, 256, 512):
            grid = Grid(2, points)
            datum = demean(make_bump(grid, (0.5, 0.5), DATUM_RADIUS, 1.0))
            flow = build_mixing_protocol(SEED, STEPS * STEP_DURATION, STEP_DURATION, 1.2)
            l2_0 = hs_norm(datum, 0.0)
            drift = 0.0
            for t in flow.start_times():
                state = exact_solution_at(datum, flow, t)
                drift = max(drift, abs(hs_norm(state, 0.0) - l2_0) / l2_0)
            drifts[points] = drift
        assert drifts[256] <= 1e-3
        assert drifts[256] < drifts[128]
        assert drifts[512] < drifts[256]

        grid = Grid(2, 256)
        datum = demean(make_bump(grid, (0.5, 0.5), 0.15, 1.0))
        flow = build_mixing_protocol(SEED, STEP_DURATION, STEP_DURATION, 1.2)
        exact = exact_solution_at(datum, flow, STEP_DURATION)
        sl = advect_semi_lagrangian(datum, flow, dt=1e-3, steps=125)
        diff = ScalarField(grid, sl.values - exact.values)
        assert hs_norm(diff, 0.0) / hs_norm(exact, 0.0) <= 1e-4

        full = build_mixing_protocol(SEED, STEPS * STEP_DURATION, STEP_DURATION, 1.2)
        l2_0 = hs_norm(datum, 0.0)
        evolved = advect_semi_lagrangian(datum, full, dt=2.5e-3, steps=1000)
        assert abs(hs_norm(evolved, 0.0) - l2_0) / l2_0 <= 1e-2


def test_criterion_06_exponential_mixing(default_mix):
    with criterion(6, "seeded protocol mixes exponentially with the growth bound"):
        fit = default_mix["fit"]
        assert fit.rate < 0.0
        assert fit.r_squared >= 0.98
        history = default_mix["history"]
        times = default_mix["times"]
        for i, _ in enumerate(times):
            l2 = history[0.0][i]
            neg = history[-0.5][i]
            pos = history[0.5][i]
            assert pos >= gronwall_lower_bound(l2, neg) * (1.0 - 1e-9)
        print(
            f"    fitted decay rate {fit.rate:+.4f} per unit time, "
            f"r^2 {fit.r_squared:.4f}, window {fit.window}"
        )


def test_criterion_07_total_loss_certificates():
    with criterion(7, "total-loss schedule certificates all resolve correctly"):
        started = time.perf_counter()
        for d in (2, 3):
            schedule = total_loss_schedule(dimension=d)
            assert evaluate_condition(schedule, Condition.CUBE_PLACEMENT).verdict == "convergent"
            for p in (1.5, 2.0, 4.0, 8.0):
                cert = evaluate_condition(schedule, Condition.VELOCITY_NORM_LIPSCHITZ, p=p)
                assert cert.verdict == "convergent"
            assert evaluate_condition(schedule, Condition.VELOCITY_BOUND).verdict == "bounded"
            for sigma in (0.5, 1.0, 2.0, 10.0):
                cert = evaluate_condition(schedule, Condition.DATUM_NORM, sigma=sigma)
                assert cert.verdict == "convergent"
            assert evaluate_condition(schedule, Condition.DATUM_BOUND).verdict == "bounded"
            for s in [round(0.1 * k, 1) for k in range(1, 10)]:
                for t in (0.01, 0.1, 1.0):
                    cert = evaluate_condition(schedule, Condition.NORM_BLOWUP, s=s, t=t, c=1.0)
                    assert cert.verdict == "divergent"
        assert time.perf_counter() - started < 1.0


def test_criterion_08_partial_loss_certificates(default_mix):
    with criterion(8, "partial-loss schedule loses exactly the predicted fraction"):
        c = default_mix["constants"].mixing_rate
        b = c  # growth rate taken equal to the fitted mixing rate
        schedule = partial_loss_schedule(3, 2.0, 2.0, 1.0, 1.0, b=b, c=c)
        params = schedule.params
        assert params.beta == 0.5
        assert params.mu_bar == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert evaluate_condition(schedule, Condition.CUBE_PLACEMENT).verdict == "convergent"
        cert = evaluate_condition(schedule, Condition.VELOCITY_NORM, r=2.0, p=2.0, b=b, t=1.0)
        assert cert.verdict == "convergent"
        assert evaluate_condition(schedule, Condition.VELOCITY_BOUND).verdict == "bounded"
        assert evaluate_condition(schedule, Condition.DATUM_NORM, sigma=1.0).verdict == "convergent"
        assert evaluate_condition(schedule, Condition.DATUM_L2).verdict == "convergent"

        critical = partial_loss_schedule(3, 2.0, 2.0, 1.0, 1.0, b=b, c=c, alpha_margin=1.0)
        mu = critical.params.mu_bar
        assert mu == pytest.approx(2.0 / 3.0, abs=1e-15)
        disagreements = 0
        for k in range(1, 101):
            s = k / 101.0
            diverges = (
                evaluate_condition(critical, Condition.NORM_BLOWUP, s=s, t=1.0, c=c).verdict
                == "divergent"
            )
            by_time = blowup_time(s, 1.0, critical.params.alpha, c, 1.0) < 1.0
            by_ratio = s / 1.0 > mu
            if not (diverges == by_time == by_ratio):
                disagreements += 1
        assert disagreements == 0


def test_criterion_09_norm_growth_witness(default_mix):
    with criterion(9, "certified lower bound blows past 1e6 within 30 pieces"):
        constants = default_mix["constants"]
        schedule = total_loss_schedule(dimension=2)
        sums = hs_lower_bound_partial_sums(schedule, 0.5, 0.1, 30, constants)
        finite = [v for v in sums if math.isfinite(v)]
        assert all(b >= a - 1e-30 for a, b in zip(finite, finite[1:]))
        crossing = next((n + 1 for n, v in enumerate(sums) if v > 1e6), None)
        assert crossing is not None and crossing <= 30
        rest = hs_lower_bound_partial_sums(schedule, 0.5, 0.0, 100, constants)
        assert all(math.isfinite(v) for v in rest)
        assert abs(rest[99] - rest[49]) <= 1e-12
        print(f"    bound exceeds 1e6 at truncation {crossing}")


def test_criterion_10_truncated_patched_solution(default_mix):
    with criterion(10, "patched solution dominates the assembled lower bounds"):
        started = time.perf_counter()
        constants = default_mix["constants"]
        datum = default_mix["datum"]
        schedule = total_loss_schedule(dimension=2)
        pieces = 3
        times = (0.0, 0.05, 0.1)
        span = max(times) * pieces**3
        flow = build_mixing_protocol(
            SEED, max(span, STEPS * STEP_DURATION), STEP_DURATION, AMPLITUDE
        )
        cubes = place_cubes(schedule, pieces)
        lo = min(c.center[0] - c.half for c in cubes)
        hi = max(c.center[0] + c.half for c in cubes)
        window = Cube((0.5 * (lo + hi), cubes[0].center[1]), (hi - lo) * 1.05)
        grid = Grid(2, 512, window.side)
        s = 0.5
        previous_layers = None
        for t in times:
            theta = evaluate_truncated_solution(schedule, flow, datum, pieces, t, window, grid)
            measured_sq = hs_norm(theta, s) ** 2
            piece_data = []
            for n in range(1, pieces + 1):
                lam_n = schedule.lam.term(n)
                gamma_n = schedule.gamma.term(n)
                state = demean(exact_solution_at(datum, flow, t / schedule.tau.term(n)))
                hs_sq = (gamma_n * lam_n ** (1.0 - s) * hs_norm(state, s)) ** 2
                l2_sq = (gamma_n * lam_n * hs_norm(state, 0.0)) ** 2
                piece_data.append((hs_sq, l2_sq, lam_n))
            orth = orthogonality_lower_bound(piece_data, s, 2)
            series = hs_lower_bound_partial_sums(schedule, s, t, pieces, constants)[-1]
            assert measured_sq >= orth >= series
        # pieces occupy pairwise disjoint nodes: pointwise products vanish
        layers = [
            evaluate_truncated_solution(schedule, flow, datum, n, 0.05, window, grid).values
            for n in (1, 2, 3)
        ]
        second = layers[1] - layers[0]
        third = layers[2] - layers[1]
        assert np.max(np.abs(layers[0] * second)) == 0.0
        assert np.max(np.abs(layers[0] * third)) == 0.0
        assert np.max(np.abs(second * third)) == 0.0
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0
        print(f"    window M=512, 3 pieces, {elapsed:.1f}s")


def test_criterion_11_classifier_matches_numeric_oracle():
    with criterion(11, "series classifier agrees with the numeric oracle"):
        rng = np.random.default_rng(2024)
        disagreements = 0
        for _ in range(50):
            degree = int(rng.integers(1, 4))
            q = [float(rng.uniform(-3.0, 3.0)) for _ in range(degree - 1)]
            lead = float(rng.uniform(0.3, 3.0)) * (1.0 if rng.uniform() < 0.5 else -1.0)
            q.append(lead)
            series = ExpPolySeries(
                float(rng.uniform(0.25, 3.0)),
                float(rng.uniform(-3.0, 3.0)),
                tuple(q),
            )
            verdict = classify(series).verdict
            small = partial_sums(series, 1_000)[-1]
            large = partial_sums(series, 10_000)[-1]
            if verdict == "convergent":
                ok = math.isfinite(large) and abs(large - small) < 1e-6 * max(abs(large), 1e-300)
            else:
                ok = math.isinf(large) or large > 10.0 * small
            disagreements += 0 if ok else 1
        assert disagreements == 0
