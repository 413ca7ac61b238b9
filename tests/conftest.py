import math

import pytest

from regloss import (
    Grid,
    MixerConstants,
    ScalarField,
    build_mixing_protocol,
    demean,
    fit_exponential_rate,
    make_bump,
    norm_history,
)
from regloss.mixing import FIT_SKIP

# default measurement protocol: 20 alternating shears, displacement 0.4/step
SEED = 5
STEPS = 20
STEP_DURATION = 0.125
AMPLITUDE = 3.2
DATUM_RADIUS = 0.125


@pytest.fixture(scope="session")
def default_mix():
    """Transport the default datum through the default protocol once.

    Returns times, per-order norm histories of the demeaned states, the
    order -1 rate fit, and measured constants with envelope prefactors.
    """
    grid = Grid(2, 256)
    datum = demean(make_bump(grid, (0.5, 0.5), DATUM_RADIUS, 1.0))
    flow = build_mixing_protocol(SEED, STEPS * STEP_DURATION, STEP_DURATION, AMPLITUDE)
    times = flow.start_times()
    orders = (-1.0, -0.5, 0.0, 0.5, 1.0)
    history = norm_history(flow, datum, orders, times)
    fit = fit_exponential_rate(times[FIT_SKIP:], history[-1.0][FIT_SKIP:])
    c = -fit.rate
    envelopes = {
        s: max(v * math.exp(s * c * t) for t, v in zip(times, history[-s]))
        for s in (0.5, 1.0)
    }
    constants = MixerConstants(
        mixing_rate=c,
        field_prefactors={1.0: 1.0},
        decay_prefactors=envelopes,
        l2_norm=history[0.0][0],
    )
    return {
        "grid": grid,
        "datum": datum,
        "flow": flow,
        "times": times,
        "history": history,
        "fit": fit,
        "constants": constants,
    }


@pytest.fixture(scope="session")
def bump_corpus():
    """Five smooth bumps of distinct centers and radii on a small grid."""
    grid = Grid(2, 64)
    specs = [
        ((0.3, 0.3), 0.08),
        ((0.7, 0.6), 0.1),
        ((0.5, 0.5), 0.12),
        ((0.4, 0.65), 0.09),
        ((0.6, 0.35), 0.11),
    ]
    return grid, [make_bump(grid, c, r, 1.0) for c, r in specs]


def dipole(grid: Grid, center, separation, radius, amplitude=1.0):
    """Compactly supported mean-zero pair of opposite bumps."""
    plus = make_bump(grid, (center[0] + separation, center[1]), radius, amplitude)
    minus = make_bump(grid, (center[0] - separation, center[1]), radius, amplitude)
    return ScalarField(grid, plus.values - minus.values)
