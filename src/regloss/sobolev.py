"""Fractional Sobolev norms on periodic grids.

Fourier-multiplier norms use the convention xi_k = 2*pi*k/L for
k in Z^d intersected with [-M/2, M/2)^d, with Parseval normalization
sum |c_k|^2 = ||f||_{L^2}^2, so single-mode data have closed-form norms.
Negative orders exclude the zero mode and require zero mean, of each
component for a vector field; a field with mass at the zero mode gets the
distinguished value +inf rather than an exception.

For 0 < s < 1 the Gagliardo double sum over grid pairs (minimum-image
distance, diagonal skipped) provides an independent evaluation route that
never touches the FFT; it is O(M^{2d}) and meant for small grids.  One
call takes a list of orders and walks the grid shifts once for all of
them.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .fields import Cube, GeometryError, Grid, ScalarField, VectorField

__all__ = [
    "UnsupportedIndexError",
    "sphere_surface_area",
    "grid_lp_norm",
    "hs_norm",
    "wsp_norm",
    "gagliardo_seminorm",
    "orthogonality_lower_bound",
]

# mass at the zero mode below this fraction of ||f||_L2 counts as zero mean
ZERO_MEAN_TOL = 1e-10


class UnsupportedIndexError(ValueError):
    """Sobolev index outside the range the operation supports."""


def sphere_surface_area(d: int) -> float:
    """Surface area of the unit (d-1)-sphere: 2*pi^(d/2)/Gamma(d/2)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _parseval_scale(grid: Grid) -> float:
    """Factor taking the raw DFT to coefficients with sum |c_k|^2 = ||f||_{L^2}^2."""
    return grid.length ** (grid.dimension / 2.0) / grid.points**grid.dimension


def grid_lp_norm(values: np.ndarray, grid: Grid, p: float) -> float:
    """(h^d * sum |v|^p)^(1/p) on the grid nodes."""
    h = grid.spacing
    return float((h**grid.dimension * np.sum(np.abs(values) ** p)) ** (1.0 / p))


def _zero_mode_mass_ok(c0: complex, l2: float) -> bool:
    return abs(c0) <= ZERO_MEAN_TOL * max(l2, 1e-300)


def hs_norm(field: ScalarField, s: float) -> float:
    """Homogeneous L2-Sobolev norm of order s via the |xi|^s multiplier.

    s = 0 reduces exactly to the L2 norm (zero mode included); s < 0 with
    nonzero mean returns the distinguished value +inf.
    """
    # Fourier coefficients c_k with sum |c_k|^2 = ||f||_{L^2}^2
    c = np.fft.fftn(field.values)
    c *= _parseval_scale(field.grid)
    c0 = c[(0,) * field.grid.dimension]
    energy = np.abs(c) ** 2
    del c
    l2 = math.sqrt(float(np.sum(energy)))
    if s == 0.0:
        return l2
    if s < 0 and not _zero_mode_mass_ok(c0, l2):
        return math.inf
    xi = field.grid.xi_magnitude()
    mask = xi > 0
    total = float(np.sum(xi[mask] ** (2.0 * s) * energy[mask]))
    return math.sqrt(total)


def wsp_norm(field: ScalarField | VectorField, s: float, p: float) -> float:
    """Homogeneous Sobolev norm of order s in L^p via the Fourier multiplier.

    p must lie in (1, inf); p = 2 agrees with hs_norm.  Vector fields take
    the l2 combination of the component norms; at s < 0 a component with
    mass at the zero mode makes the norm +inf.
    """
    if not 1.0 < p < math.inf:
        raise UnsupportedIndexError(f"integrability must lie in (1, inf), got {p}")
    grid = field.grid
    components = field.components if isinstance(field, VectorField) else (field.values,)
    if s != 0.0:
        xi = grid.xi_magnitude()
        mult = np.zeros(grid.shape)
        mask = xi > 0
        mult[mask] = xi[mask] ** s
    scale = _parseval_scale(grid)
    norms = []
    for comp in components:
        fhat = np.fft.fftn(comp)
        if s < 0:
            l2 = scale * math.sqrt(float(np.sum(np.abs(fhat) ** 2)))
            if not _zero_mode_mass_ok(scale * fhat[(0,) * grid.dimension], l2):
                return math.inf
        if s != 0.0:
            fhat *= mult
        norms.append(grid_lp_norm(np.fft.ifftn(fhat).real, grid, p))
    # a scalar's norm is returned as measured, without a square-and-root round trip
    return norms[0] if len(norms) == 1 else math.sqrt(sum(n**2 for n in norms))


def gagliardo_seminorm(
    field: ScalarField, orders: Sequence[float], within: Cube | None = None
) -> list[float]:
    """Double-sum Gagliardo seminorms over grid pairs, one per order in (0, 1).

    Direct summation of |f(x)-f(y)|^2 / dist(x,y)^(d+2s) * h^(2d) over all
    node pairs with minimum-image distance, skipping the diagonal.  With
    ``within`` both points are restricted to that cube, which localizes the
    double integral.  The shifts are walked once for every order: each
    shift's squared distance and summed squared difference are kept, then
    weighted per order in shift order, so each value equals a single-order
    sum bit for bit.  Cost is O(M^{2d}): use small grids.
    """
    for s in orders:
        if not 0.0 < s < 1.0:
            raise UnsupportedIndexError(f"Gagliardo order must lie in (0, 1), got {s}")
    g = field.grid
    d = g.dimension
    h = g.spacing
    v = field.values
    mask = None
    if within is not None:
        if len(within.center) != d:
            raise GeometryError("cube dimension does not match grid")
        coords = g.coordinates()
        inside = np.ones(g.shape, dtype=bool)
        for i, c in enumerate(within.center):
            inside &= np.abs(g.min_image(coords[i] - c)) <= within.half + 1e-12
        mask = inside.astype(float)
    # np.roll(a, shift) is the view [M - c, 2M - c) per axis of a tiled twice per axis
    doubled = np.tile(v, (2,) * d)
    doubled_mask = None if mask is None else np.tile(mask, (2,) * d)
    sums = []  # (squared distance, summed squared difference) per shift
    for shift in np.ndindex(g.shape):
        if all(c == 0 for c in shift):
            continue
        dist2 = 0.0
        for c in shift:
            dc = min(c, g.points - c) * h
            dist2 += dc * dc
        view = tuple(slice(g.points - c, 2 * g.points - c) for c in shift)
        diff2 = (v - doubled[view]) ** 2
        if mask is not None:
            diff2 = diff2 * mask * doubled_mask[view]
        sums.append((dist2, float(diff2.sum())))
    out = []
    for s in orders:
        exponent = -(d + 2.0 * s)
        total = 0.0
        for dist2, sq in sums:
            total += dist2 ** (0.5 * exponent) * sq
        out.append(math.sqrt(total * h ** (2 * d)))
    return out


def orthogonality_lower_bound(
    pieces: Sequence[tuple[float, float, float]], s: float, d: int
) -> float:
    """Lower bound for || sum f_n ||_{H^s}^2 over disjointly supported pieces.

    Each piece supplies (hs_sq, l2_sq, lam): its squared order-s norm, its
    squared L2 norm, and the distance lam from its support to the
    complement of its private region.  The bound is

        sum_n [ hs_sq_n - (C_d / s) * lam_n^(-2s) * l2_sq_n ],

    with C_d the surface area of the unit (d-1)-sphere; terms may be
    negative and the empty sum is 0.
    """
    if not 0.0 < s < 1.0:
        raise UnsupportedIndexError(f"order must lie in (0, 1), got {s}")
    c_d = sphere_surface_area(d)
    total = 0.0
    for hs_sq, l2_sq, lam in pieces:
        if not lam > 0:
            raise ValueError(f"separation must be positive, got {lam}")
        total += hs_sq - (c_d / s) * lam ** (-2.0 * s) * l2_sq
    return total
