"""Periodic grids, compactly supported scalar data, vector fields, and cube geometry.

All sampled objects live on a uniform grid over the fundamental cell
[0, L)^d with periodic identification of opposite faces.  A ``ScalarField``
is a grid and its values and stores no support: compact support is a
property of the data.  ``make_bump`` vanishes outside its ball by formula,
and a radius below L/2 keeps the ball clear of its periodic images, so
spectral quantities of the sampled data coincide with their whole-space
values, up to periodic-image terms that the test-suite quantifies
empirically.  A ``VectorField`` is a grid and its components; its oracle
``spectral_divergence`` measures whether it is divergence-free.

Grid sizes are powers of two for FFT efficiency.  Distances use the
minimum-image convention throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeometryError",
    "Grid",
    "Cube",
    "ScalarField",
    "VectorField",
    "make_bump",
    "demean",
]


class GeometryError(ValueError):
    """Invalid geometric configuration (radii, containment, dimensions)."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, length)^dimension with points^dimension nodes."""

    dimension: int
    points: int
    length: float = 1.0

    def __post_init__(self):
        if self.dimension < 1:
            raise GeometryError(f"dimension must be >= 1, got {self.dimension}")
        if self.points < 4 or self.points & (self.points - 1):
            raise GeometryError(f"points per side must be a power of two >= 4, got {self.points}")
        if not self.length > 0:
            raise GeometryError(f"side length must be positive, got {self.length}")

    @property
    def spacing(self) -> float:
        return self.length / self.points

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points,) * self.dimension

    def axis(self) -> np.ndarray:
        """Node coordinates along one axis: 0, h, ..., L-h."""
        return np.arange(self.points) * self.spacing

    def _along(self, values: np.ndarray, i: int) -> np.ndarray:
        """Per-axis values shaped to broadcast along axis i of the grid."""
        return values.reshape([self.points if j == i else 1 for j in range(self.dimension)])

    def coordinates(self) -> np.ndarray:
        """Node coordinates, shape (dimension, points, ..., points)."""
        out = np.empty((self.dimension,) + self.shape)
        axis = self.axis()
        for i in range(self.dimension):
            out[i] = self._along(axis, i)
        return out

    def xi_magnitude(self) -> np.ndarray:
        """|xi| with xi_k = 2*pi*k/L on the fftfreq layout."""
        k1 = np.fft.fftfreq(self.points, d=1.0 / self.points)
        k2 = k1 * k1
        out = np.zeros(self.shape)
        for i in range(self.dimension):
            out += self._along(k2, i)
        np.sqrt(out, out=out)
        out *= 2.0 * math.pi / self.length
        return out

    def min_image(self, delta: np.ndarray) -> np.ndarray:
        """Wrap coordinate differences into [-L/2, L/2)."""
        half = 0.5 * self.length
        return np.mod(delta + half, self.length) - half


@dataclass(frozen=True)
class Cube:
    """Axis-aligned cube in R^d (plain coordinates, no periodic wrap)."""

    center: tuple[float, ...]
    side: float

    def __post_init__(self):
        if not self.side > 0:
            raise GeometryError(f"cube side must be positive, got {self.side}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "side", float(self.side))

    @property
    def half(self) -> float:
        return 0.5 * self.side

    def distance_to(self, other: "Cube") -> float:
        """Euclidean gap between the two closed cubes (0 if they touch)."""
        gap2 = 0.0
        for a, b in zip(self.center, other.center):
            g = abs(a - b) - self.half - other.half
            if g > 0:
                gap2 += g * g
        return math.sqrt(gap2)


def _readonly(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Samples of a real function on a periodic grid.

    Values are copied and frozen.
    A field carries no support metadata: where it vanishes is a property of
    its values.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = _readonly(self.values)
        if vals.shape != self.grid.shape:
            raise GeometryError(f"values shape {vals.shape} does not match grid {self.grid.shape}")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class VectorField:
    """d component arrays on a shared grid; ``spectral_divergence`` is the divergence oracle."""

    grid: Grid
    components: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.components) != self.grid.dimension:
            raise GeometryError("one component per dimension required")
        comps = tuple(_readonly(c) for c in self.components)
        for c in comps:
            if c.shape != self.grid.shape:
                raise GeometryError("component shape does not match grid")
        object.__setattr__(self, "components", comps)

    def spectral_divergence(self) -> float:
        """L2 magnitude of the spectral divergence relative to |xi|_max * ||u||_L2."""
        grid = self.grid
        xi1 = 2.0 * math.pi * np.fft.fftfreq(grid.points, d=grid.spacing)
        div_hat = np.zeros(grid.shape, dtype=complex)
        energy = 0.0
        for i, comp in enumerate(self.components):
            chat = np.fft.fftn(comp)
            div_hat += 1j * grid._along(xi1, i) * chat
            energy += float(np.sum(np.abs(chat) ** 2))
        if energy == 0.0:
            return 0.0
        scale = math.sqrt(energy) * float(grid.xi_magnitude().max())
        return math.sqrt(float(np.sum(np.abs(div_hat) ** 2))) / scale


def make_bump(grid: Grid, center: tuple[float, ...], radius: float, amplitude: float) -> ScalarField:
    """Standard mollifier bump sampled exactly at the grid nodes.

    Profile amplitude * exp(1 - 1/(1 - |x-center|^2/radius^2)) inside the
    ball of the given radius, zero outside, so the value at the center is
    exactly the amplitude.
    """
    if len(center) != grid.dimension:
        raise GeometryError("center dimension does not match grid")
    if not 0 < radius < 0.5 * grid.length:
        raise GeometryError(f"radius must lie in (0, L/2), got {radius}")
    coords = grid.coordinates()
    r2 = np.zeros(grid.shape)
    for i, c in enumerate(center):
        d = grid.min_image(coords[i] - c)
        r2 += d * d
    t = r2 / (radius * radius)
    vals = np.zeros(grid.shape)
    inside = t < 1.0
    vals[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - t[inside]))
    return ScalarField(grid, vals)


def demean(field_: ScalarField) -> ScalarField:
    """Subtract the grid mean."""
    return ScalarField(field_.grid, field_.values - float(field_.values.mean()))

