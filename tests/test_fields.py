import math

import numpy as np
import pytest

from regloss import (
    GeometryError,
    Grid,
    VectorField,
    demean,
    hs_norm,
    make_bump,
)


def test_grid_validation():
    with pytest.raises(GeometryError):
        Grid(0, 64)
    with pytest.raises(GeometryError):
        Grid(2, 100)  # not a power of two
    with pytest.raises(GeometryError):
        Grid(2, 2)
    with pytest.raises(GeometryError):
        Grid(2, 64, -1.0)


def test_grid_geometry():
    g = Grid(2, 8, 2.0)
    assert g.spacing == 0.25
    assert g.shape == (8, 8)
    assert np.allclose(g.axis(), np.arange(8) * 0.25)
    assert np.allclose(g.min_image(np.array([1.9])), np.array([-0.1]))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("length", [1.0, 0.37])
def test_grid_coordinates_and_xi_magnitude_match_the_meshgrid_formulas(d, length):
    g = Grid(d, 16, length)
    coords = np.stack(np.meshgrid(*([g.axis()] * d), indexing="ij"))
    k = np.stack(np.meshgrid(*([np.fft.fftfreq(16, d=1.0 / 16)] * d), indexing="ij"))
    xi = (2.0 * math.pi / length) * np.sqrt(np.sum(k * k, axis=0))
    for got, want in ((g.coordinates(), coords), (g.xi_magnitude(), xi)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_bump_zero_amplitude_is_zero_field():
    g = Grid(2, 64)
    b = make_bump(g, (0.5, 0.5), 0.2, 0.0)
    assert np.all(b.values == 0.0)


def test_bump_center_value_is_amplitude():
    g = Grid(2, 256)
    b = make_bump(g, (0.5, 0.5), 0.2, 1.7)
    assert b.values[128, 128] == pytest.approx(1.7, rel=0, abs=0)


def test_bump_l2_against_refined_quadrature():
    coarse = hs_norm(make_bump(Grid(2, 256), (0.5, 0.5), 0.25, 1.0), 0.0)
    fine = hs_norm(make_bump(Grid(2, 512), (0.5, 0.5), 0.25, 1.0), 0.0)
    assert abs(coarse - fine) / fine < 1e-6


def test_bump_vanishes_on_cell_boundary():
    g = Grid(2, 64)
    b = make_bump(g, (0.5, 0.5), 0.4, 1.0)
    assert np.all(b.values[0, :] == 0.0)
    assert np.all(b.values[:, 0] == 0.0)
    # exactly zero at min-image distance >= radius, mid-cell and across the edge
    x = g.coordinates()
    for center, radius in (((0.5, 0.5), 0.4), ((0.03, 0.9), 0.2)):
        b = make_bump(g, center, radius, 1.0)
        dist = np.sqrt(sum(g.min_image(x[i] - c) ** 2 for i, c in enumerate(center)))
        outside = dist >= radius
        assert outside.any() and np.all(b.values[outside] == 0.0)
    # the second bump wraps: it is nonzero on both sides of each cell edge
    assert b.values[0].any() and b.values[-1].any()
    assert b.values[:, 0].any() and b.values[:, -1].any()


def test_bump_periodic_wrap_matches_roll():
    g = Grid(2, 64)
    centered = make_bump(g, (0.5, 0.5), 0.2, 1.0)
    near_edge = make_bump(g, (0.5 + 32 * g.spacing, 0.5), 0.2, 1.0)
    assert np.allclose(np.roll(centered.values, 32, axis=0), near_edge.values, atol=0)


def test_bump_radius_validation():
    g = Grid(2, 64)
    with pytest.raises(GeometryError):
        make_bump(g, (0.5, 0.5), 0.0, 1.0)
    with pytest.raises(GeometryError):
        make_bump(g, (0.5, 0.5), 0.5, 1.0)


def test_scalar_field_mean_metadata_and_immutability():
    g = Grid(2, 64)
    b = make_bump(g, (0.5, 0.5), 0.2, 1.0)
    assert not hasattr(b, "mean")
    with pytest.raises(ValueError):
        b.values[0, 0] = 1.0


def test_demean():
    g = Grid(2, 64)
    d = demean(make_bump(g, (0.5, 0.5), 0.2, 1.0))
    assert abs(float(d.values.mean())) < 1e-15


def test_vector_field_divergence_flag():
    g = Grid(2, 64)
    x = g.coordinates()
    shear = VectorField(g, (np.sin(2 * np.pi * x[1]), np.zeros(g.shape)))
    compressive = VectorField(g, (np.sin(2 * np.pi * x[0]), np.zeros(g.shape)))
    assert shear.spectral_divergence() < 1e-10
    assert compressive.spectral_divergence() >= 1e-10

