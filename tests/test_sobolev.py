import math

import numpy as np
import pytest

from regloss import (
    Cube,
    Grid,
    ScalarField,
    UnsupportedIndexError,
    demean,
    gagliardo_seminorm,
    hs_norm,
    make_bump,
    orthogonality_lower_bound,
    sphere_surface_area,
    wsp_norm,
)
from conftest import dipole


@pytest.fixture(scope="module")
def grid():
    return Grid(2, 256)


@pytest.fixture(scope="module")
def single_mode(grid):
    x = grid.coordinates()
    return ScalarField(grid, np.sin(2 * np.pi * x[0]))


def test_single_mode_closed_form(single_mode):
    for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
        want = (2 * math.pi) ** s / math.sqrt(2)
        assert hs_norm(single_mode, s) == pytest.approx(want, rel=1e-12)


def test_zero_field_any_order(grid):
    zero = ScalarField(grid, np.zeros(grid.shape))
    for s in (-1.0, 0.0, 0.7, 2.0):
        assert hs_norm(zero, s) == 0.0


def test_order_zero_is_l2_even_with_mean(grid):
    b = make_bump(grid, (0.5, 0.5), 0.2, 1.0)
    direct = math.sqrt(float(np.sum(b.values**2)) * grid.spacing**2)
    assert hs_norm(b, 0.0) == pytest.approx(direct, rel=1e-12)


def test_negative_order_requires_zero_mean(grid):
    b = make_bump(grid, (0.5, 0.5), 0.2, 1.0)
    assert math.isinf(hs_norm(b, -1.0))
    assert math.isfinite(hs_norm(demean(b), -1.0))


def test_negative_order_poisson_oracle(grid):
    f = demean(make_bump(grid, (0.5, 0.5), 0.2, 1.0))
    measured = hs_norm(f, -1.0)
    fhat = np.fft.fftn(f.values)
    xi = grid.xi_magnitude()
    inv = np.zeros_like(xi)
    inv[xi > 0] = xi[xi > 0] ** (-2.0)
    ghat = fhat * inv
    k1 = np.fft.fftfreq(grid.points, d=1.0 / grid.points)
    k = np.meshgrid(k1, k1, indexing="ij")
    grad_sq = 0.0
    for i in range(2):
        gi = np.fft.ifftn(2j * np.pi * k[i] * ghat).real
        grad_sq += float(np.sum(gi**2)) * grid.spacing**2
    assert measured == pytest.approx(math.sqrt(grad_sq), rel=1e-10)


def test_wsp_matches_hs_at_p2(grid, single_mode):
    b = make_bump(grid, (0.5, 0.5), 0.2, 1.0)
    cases = [(f, s) for f in (single_mode, b) for s in (0.0, 0.5, 1.0)]
    cases += [(demean(b), s) for s in (-1.0, -0.5)]
    for f, s in cases:
        assert wsp_norm(f, s, 2.0) == pytest.approx(hs_norm(f, s), rel=1e-10)
    assert wsp_norm(single_mode, 2.0, 2.0) == pytest.approx(
        (2 * math.pi) ** 2 / math.sqrt(2), rel=1e-12
    )


def test_norms_are_builtin_floats(grid, single_mode):
    from regloss import VectorField, build_mixing_protocol, velocity_norm_series

    b = make_bump(grid, (0.5, 0.5), 0.2, 1.0)
    shear = VectorField(grid, (single_mode.values, np.zeros(grid.shape)))
    values = [hs_norm(b, s) for s in (0.0, 0.5)]
    values += [wsp_norm(f, s, p) for f in (b, shear) for s in (0.0, 1.0) for p in (2.0, 4.0)]
    values += gagliardo_seminorm(make_bump(Grid(2, 16), (0.5, 0.5), 0.3, 1.0), [0.25, 0.75])
    flow = build_mixing_protocol(9, 0.5, 0.125, 1.7)
    values += velocity_norm_series(flow, 1.0, 2.0, [0.0, 0.3], Grid(2, 32))
    # a nonzero mean at a negative order gives +inf, also a float
    infinite = [hs_norm(b, -1.0), wsp_norm(b, -1.0, 2.0)]
    assert all(math.isinf(v) for v in infinite)
    values += infinite
    assert all(type(v) is float for v in values), [type(v) for v in values]


def test_wsp_index_validation(single_mode):
    with pytest.raises(UnsupportedIndexError):
        wsp_norm(single_mode, 1.0, 1.0)
    with pytest.raises(UnsupportedIndexError):
        wsp_norm(single_mode, 1.0, math.inf)
    with pytest.raises(UnsupportedIndexError):
        wsp_norm(single_mode, 1.0, 0.5)


def test_wsp_refined_grid_oracle():
    coarse = wsp_norm(make_bump(Grid(2, 256), (0.5, 0.5), 0.25, 1.0), 1.0, 4.0)
    fine = wsp_norm(make_bump(Grid(2, 512), (0.5, 0.5), 0.25, 1.0), 1.0, 4.0)
    assert coarse == pytest.approx(fine, rel=1e-4)


def test_wsp_vector_l2_combination(grid):
    from regloss import VectorField

    x = grid.coordinates()
    shear = np.sin(2 * np.pi * x[1])
    vec = VectorField(grid, (shear, np.zeros(grid.shape)))
    scalar = ScalarField(grid, shear)
    for s in (1.0, -1.0):
        assert wsp_norm(vec, s, 2.0) == pytest.approx(
            wsp_norm(scalar, s, 2.0), rel=1e-12
        )
    # the zero-mean rule of negative orders applies to each component
    const = np.ones(grid.shape)
    with_mean = VectorField(grid, (shear, const))
    assert math.isinf(wsp_norm(ScalarField(grid, const), -1.0, 2.0))
    assert math.isinf(wsp_norm(with_mean, -1.0, 2.0))


def test_gagliardo_zero_field():
    g = Grid(2, 16)
    zero = ScalarField(g, np.zeros(g.shape))
    assert gagliardo_seminorm(zero, [0.5])[0] == 0.0


def test_gagliardo_translation_invariance():
    g = Grid(2, 32)
    b = make_bump(g, (0.5, 0.5), 0.2, 1.0)
    shifted = ScalarField(g, np.roll(b.values, (3, 5), axis=(0, 1)))
    a = gagliardo_seminorm(b, [0.5])[0]
    c = gagliardo_seminorm(shifted, [0.5])[0]
    assert a == pytest.approx(c, rel=1e-12)


def test_gagliardo_order_validation():
    g = Grid(2, 16)
    b = make_bump(g, (0.5, 0.5), 0.2, 1.0)
    for s in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(UnsupportedIndexError):
            gagliardo_seminorm(b, [0.5, s])


# float.hex of the one-order double sum before it walked the shifts once for
# every order: M -> (no window, window wrapping the cell edge), orders GOLDEN_ORDERS
GOLDEN_ORDERS = (0.13, 0.5, 0.88)
GOLDEN = {
    16: (
        ("0x1.441142b3be499p+0", "0x1.1e3903931d187p+1", "0x1.22532c273e9d1p+2"),
        ("0x1.41fcde8e1d590p-3", "0x1.7ce9a9c0a4e93p-2", "0x1.e29a44e7a9a8dp-1"),
    ),
    32: (
        ("0x1.46ee1e2bb3e32p+0", "0x1.29362e755b3d1p+1", "0x1.48d3d66130e5ep+2"),
        ("0x1.2ed772b3c9fdcp-3", "0x1.8a9437048513ep-2", "0x1.215fd69c0225dp+0"),
    ),
}
EDGE_WINDOW = Cube((0.95, 0.1), 0.2)


@pytest.mark.parametrize("points", sorted(GOLDEN))
def test_gagliardo_values_are_bit_identical_to_the_one_order_sum(points):
    b = make_bump(Grid(2, points), (0.9, 0.2), 0.3, 1.0)
    for within, want in zip((None, EDGE_WINDOW), GOLDEN[points]):
        got = gagliardo_seminorm(b, GOLDEN_ORDERS, within=within)
        assert [value.hex() for value in got] == list(want)


def test_gagliardo_one_call_equals_one_call_per_order():
    b = make_bump(Grid(2, 16), (0.3, 0.6), 0.25, 1.0)
    orders = (0.7, 0.2, 0.7, 0.45)
    for within in (None, EDGE_WINDOW):
        together = gagliardo_seminorm(b, orders, within=within)
        alone = [gagliardo_seminorm(b, [s], within=within)[0] for s in orders]
        assert together == alone
    assert gagliardo_seminorm(b, []) == []


def test_gagliardo_walks_the_shifts_once_for_every_order(monkeypatch):
    b = make_bump(Grid(2, 16), (0.5, 0.5), 0.25, 1.0)
    ndindex, tile = np.ndindex, np.tile
    shifts, tiles = [], []

    def counting_ndindex(*args):
        for shift in ndindex(*args):
            shifts.append(shift)
            yield shift

    def counting_tile(*args, **kwargs):
        tiles.append(args)
        return tile(*args, **kwargs)

    monkeypatch.setattr(np, "ndindex", counting_ndindex)
    monkeypatch.setattr(np, "tile", counting_tile)
    gagliardo_seminorm(b, GOLDEN_ORDERS)
    assert len(shifts) == 16 * 16  # one walk over the shifts, not one per order
    assert len(tiles) == 1  # the values, tiled once
    shifts.clear()
    tiles.clear()
    gagliardo_seminorm(b, GOLDEN_ORDERS, within=EDGE_WINDOW)
    assert len(shifts) == 16 * 16
    assert len(tiles) == 2  # the values and the window mask


def _rolled_gagliardo(field, orders, mask=None):
    """The double sum with two np.roll copies per shift, the formula the views replace."""
    g = field.grid
    d, h, v = g.dimension, g.spacing, field.values
    axes = tuple(range(d))
    sums = []
    for shift in np.ndindex(g.shape):
        if not any(shift):
            continue
        dist2 = 0.0
        for c in shift:
            dc = min(c, g.points - c) * h
            dist2 += dc * dc
        diff2 = (v - np.roll(v, shift, axis=axes)) ** 2
        if mask is not None:
            diff2 = diff2 * mask * np.roll(mask, shift, axis=axes)
        sums.append((dist2, float(diff2.sum())))
    out = []
    for s in orders:
        total = 0.0
        for dist2, sq in sums:
            total += dist2 ** (-0.5 * (d + 2.0 * s)) * sq
        out.append(math.sqrt(total * h ** (2 * d)))
    return out


@pytest.mark.parametrize(
    "d, points, window",
    [(2, 16, EDGE_WINDOW), (2, 32, Cube((0.4, 0.55), 0.5)), (3, 8, Cube((0.9, 0.5, 0.1), 0.5))],
)
def test_gagliardo_shifted_views_equal_the_rolled_copies(d, points, window):
    b = make_bump(Grid(d, points), (0.8,) + (0.3,) * (d - 1), 0.3, 1.0)
    g = b.grid
    coords = g.coordinates()
    inside = np.ones(g.shape, dtype=bool)
    for i, c in enumerate(window.center):
        inside &= np.abs(g.min_image(coords[i] - c)) <= window.half + 1e-12
    for within, mask in ((None, None), (window, inside.astype(float))):
        got = gagliardo_seminorm(b, GOLDEN_ORDERS, within=within)
        assert got == _rolled_gagliardo(b, GOLDEN_ORDERS, mask)


def test_gagliardo_multiplier_ratio_constant_at_half(bump_corpus):
    grid, bumps = bump_corpus
    ratios = [
        gagliardo_seminorm(b, [0.5])[0] / hs_norm(b, 0.5) for b in bumps
    ]
    assert (max(ratios) - min(ratios)) / min(ratios) < 0.02


def test_gagliardo_multiplier_simultaneous_positivity(bump_corpus):
    grid, bumps = bump_corpus
    orders = (0.25, 0.5, 0.75)
    ratios = {s: [] for s in orders}
    for b in bumps:
        for s, gag in zip(orders, gagliardo_seminorm(b, orders)):
            mult = hs_norm(b, s)
            assert (gag > 0) == (mult > 0)
            ratios[s].append(gag / mult)
    # the equivalence factor stays inside a fixed interval on the corpus
    for r in ratios.values():
        assert (max(r) - min(r)) / min(r) < 0.10


def test_monotone_in_order_for_unit_l2_mean_zero(grid):
    f = demean(make_bump(grid, (0.5, 0.5), 0.15, 1.0))
    scale = hs_norm(f, 0.0)
    f = ScalarField(grid, f.values / scale)
    previous = 0.0
    for s in (0.0, 0.25, 0.5, 1.0, 2.0):
        value = hs_norm(f, s)
        assert value >= previous - 1e-12
        previous = value


def test_rescale_and_measure_on_grid(grid):
    f1 = dipole(grid, (0.5, 0.5), 0.07, 0.06)
    f2 = dipole(grid, (0.5, 0.5), 0.035, 0.03)
    lam, d = 0.5, 2
    for s in (0.25, 0.5, 0.75):
        predicted = hs_norm(f1, s) * lam ** (d / 2 - s)
        assert hs_norm(f2, s) == pytest.approx(predicted, rel=1e-3)


def test_interpolation_bound_single_mode_equality(single_mode):
    n1, n2, theta = hs_norm(single_mode, -0.5), hs_norm(single_mode, 1.5), 0.5
    bound = n1**theta * n2 ** (1 - theta)
    assert hs_norm(single_mode, 0.5) == pytest.approx(bound, rel=1e-12)


def test_interpolation_bound_l2_between_dual_orders(grid):
    f = demean(make_bump(grid, (0.5, 0.5), 0.2, 1.0))
    n1, n2, theta = hs_norm(f, -0.5), hs_norm(f, 0.5), 0.5
    bound = n1**theta * n2 ** (1 - theta)
    assert hs_norm(f, 0.0) <= bound * (1 + 1e-12)


def test_interpolation_bound_two_mode_strict_gap(grid):
    x = grid.coordinates()
    f = ScalarField(grid, np.sin(2 * np.pi * x[0]) + np.sin(8 * np.pi * x[0]))
    n1, n2, theta = hs_norm(f, 0.0), hs_norm(f, 1.0), 0.5
    bound = n1**theta * n2 ** (1 - theta)
    assert bound - hs_norm(f, 0.5) > 1e-3


def test_sphere_surface_area():
    assert sphere_surface_area(2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert sphere_surface_area(3) == pytest.approx(4 * math.pi, rel=1e-15)


def test_orthogonality_lower_bound_basics():
    assert orthogonality_lower_bound([], 0.5, 2) == 0.0
    single = orthogonality_lower_bound([(4.0, 1.0, 0.5)], 0.5, 2)
    expected = 4.0 - (2 * math.pi / 0.5) * 0.5 ** (-1.0) * 1.0
    assert single == pytest.approx(expected, rel=1e-15)
    with pytest.raises(ValueError):
        orthogonality_lower_bound([(1.0, 1.0, 0.0)], 0.5, 2)


def test_orthogonality_bound_against_direct_double_sum():
    g = Grid(2, 64)
    b1 = make_bump(g, (0.25, 0.25), 0.1, 1.0)
    b2 = make_bump(g, (0.75, 0.75), 0.1, -0.8)
    total = ScalarField(g, b1.values + b2.values)
    orders = (0.25, 0.5, 0.75)
    direct = gagliardo_seminorm(total, orders)
    per_piece = [(gagliardo_seminorm(b, orders), hs_norm(b, 0.0) ** 2) for b in (b1, b2)]
    for i, s in enumerate(orders):
        pieces = [(gag[i] ** 2, l2_sq, 0.15) for gag, l2_sq in per_piece]
        assert direct[i] ** 2 >= orthogonality_lower_bound(pieces, s, 2)


def test_localization_tail_bound():
    g = Grid(2, 64)
    b = make_bump(g, (0.25, 0.25), 0.1, 1.0)
    region = Cube((0.25, 0.25), 0.5)
    orders = (0.25, 0.5, 0.75)
    global_norms = gagliardo_seminorm(b, orders)
    local_norms = gagliardo_seminorm(b, orders, within=region)
    for s, glob, local in zip(orders, global_norms, local_norms):
        tail = (
            sphere_surface_area(2) / s * 0.15 ** (-2 * s) * hs_norm(b, 0.0) ** 2
        )
        assert glob**2 <= local**2 + tail
