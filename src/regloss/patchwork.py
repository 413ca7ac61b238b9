"""Rescale-and-patch construction: schedules, placement, certificates.

The construction places rescaled copies of a base mixing pair (velocity,
datum) in pairwise disjoint cubes that accumulate at the origin.  Three
positive sequences drive it: spatial scales lam_n (the n-th cube has side
3*lam_n and hosts data supported in the concentric cube of side lam_n),
time scales tau_n, and amplitudes gamma_n.

Two ready-made schedules are provided: the total-loss schedule
(lam = e^-n, tau = n^-3, gamma = e^-n^2), under which transported data
lose every positive fractional order instantly while the velocity stays
bounded in all order-1 Sobolev norms; and the partial-loss schedule
(tau = 1/n, lam and gamma exponential with rate alpha), which trades
higher velocity regularity for loss above a computable fraction of the
datum's order.

Everything infinite is certified at the series level through
exp-polynomial classification; grids only ever see finite truncations
inside a window.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .fields import Cube, GeometryError, Grid, ScalarField
from .mixing import FlowMap, MixerConstants, transported_values
from .series import (
    ExpPolySeries,
    classify,
    classify_bounded,
    exp_factor,
    partial_sums,
    product_and_power,
    tail_sum,
)
from .sobolev import sphere_surface_area

__all__ = [
    "UnsupportedScheduleError",
    "InfeasiblePlacementError",
    "ResolutionError",
    "LipschitzEmbeddingError",
    "Condition",
    "ConstructionParams",
    "Schedule",
    "ConditionCertificate",
    "check_velocity_space",
    "total_loss_schedule",
    "partial_loss_schedule",
    "place_cubes",
    "evaluate_condition",
    "revalidate_certificate",
    "blowup_time",
    "hs_lower_bound_partial_sums",
    "evaluate_truncated_solution",
]


class UnsupportedScheduleError(ValueError):
    """Schedule outside the exp-polynomial closure the certifier needs."""


class InfeasiblePlacementError(ValueError):
    """Cube placement impossible: the spatial scales are not summable."""


class ResolutionError(ValueError):
    """Window grid too coarse for the requested number of pieces."""


class LipschitzEmbeddingError(ValueError):
    """(r, p) outside the partial-loss range: W^{r,p} embeds into Lipschitz, or p < 1."""


class Condition(str, Enum):
    """Series-level conditions governing the patched construction."""

    CUBE_PLACEMENT = "A"  # sum lam_n < inf: disjoint cubes in a compact set
    VELOCITY_NORM = "B"  # velocity bounded in the order-r, L^p norm at time t
    VELOCITY_BOUND = "B-tilde"  # lam_n/tau_n bounded: velocity sup-norm bounded
    VELOCITY_NORM_LIPSCHITZ = "B-hat"  # r = 1 case of B, time-independent
    DATUM_NORM = "C"  # initial datum in the order-sigma Hilbert scale
    DATUM_BOUND = "C-tilde"  # gamma_n bounded: solution sup-norm bounded
    DATUM_L2 = "C-hat"  # initial datum in L^2 (C at sigma = 0)
    NORM_BLOWUP = "D"  # order-s norm infinite at time t


# the inputs each condition reads besides its schedule, and so records
_INPUTS = {
    Condition.CUBE_PLACEMENT: (),
    Condition.VELOCITY_NORM: ("r", "p", "b", "t"),
    Condition.VELOCITY_BOUND: (),
    Condition.VELOCITY_NORM_LIPSCHITZ: ("p",),
    Condition.DATUM_NORM: ("sigma",),
    Condition.DATUM_BOUND: (),
    Condition.DATUM_L2: (),
    Condition.NORM_BLOWUP: ("s", "t", "c"),
}


def check_velocity_space(dimension: int, r: float, p: float) -> None:
    """Refuse (r, p) unless r > 1 and 1 <= p < d/(r-1): W^{r,p} Sobolev, not in Lipschitz.

    The ``LipschitzEmbeddingError`` message starts with the refused name.
    """
    if not r > 1:
        raise LipschitzEmbeddingError(f"r: partial-loss mode needs r > 1, got {r}")
    if not 1 <= p < dimension / (r - 1):
        raise LipschitzEmbeddingError(
            f"p: must lie in [1, d/(r-1)) = [1, {dimension / (r - 1):g}), got {p}"
        )


@dataclass(frozen=True)
class ConstructionParams:
    """Inputs of the partial-loss construction, checked on construction.

    (r, p) must pass ``check_velocity_space``; b, c and the horizon must be
    positive and ``alpha_margin`` at least 1 (NaN fails).  The derived
    rates are properties: beta = 1 - r + d/p > 0 measures how far the
    velocity space is from embedding into Lipschitz; alpha =
    alpha_margin*(r-1)*b/beta is the spatial decay rate per unit horizon;
    mu_bar is the fraction of the datum's order above which loss is
    certified within the horizon, in the limit of critically chosen alpha
    (alpha_margin = 1); mu_effective = alpha/(alpha + c) is the threshold
    of the generated schedule itself.
    """

    dimension: int
    r: float
    p: float
    sigma: float
    horizon: float
    alpha_margin: float
    rate_b: float
    rate_c: float

    def __post_init__(self):
        check_velocity_space(self.dimension, self.r, self.p)
        if not (self.rate_b > 0 and self.rate_c > 0):
            raise ValueError("rate constants must be positive")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if not self.alpha_margin >= 1.0:
            raise ValueError("alpha margin below 1 is inadmissible")

    @property
    def beta(self) -> float:
        return 1.0 - self.r + self.dimension / self.p

    @property
    def alpha(self) -> float:
        return self.alpha_margin * (self.r - 1) * self.rate_b / self.beta

    @property
    def mu_bar(self) -> float:
        growth = (self.r - 1) * self.rate_b
        return growth / (growth + self.rate_c * self.beta)

    @property
    def mu_effective(self) -> float:
        """Loss threshold realized by the schedule's own alpha."""
        return self.alpha / (self.alpha + self.rate_c)


@dataclass(frozen=True)
class Schedule:
    """The three driving sequences of a construction in R^dimension, accumulating at the origin."""

    lam: ExpPolySeries
    tau: ExpPolySeries
    gamma: ExpPolySeries
    dimension: int
    params: ConstructionParams | None = None

    def as_dict(self) -> dict:
        """Sequences and dimension as a new JSON-ready dict; ``params`` is not kept."""
        return {
            "lam": self.lam.as_dict(),
            "tau": self.tau.as_dict(),
            "gamma": self.gamma.as_dict(),
            "dimension": self.dimension,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Schedule":
        return cls(
            lam=ExpPolySeries.from_dict(data["lam"]),
            tau=ExpPolySeries.from_dict(data["tau"]),
            gamma=ExpPolySeries.from_dict(data["gamma"]),
            dimension=data["dimension"],
        )


@dataclass(frozen=True)
class ConditionCertificate:
    """Exact verdict for one condition, and the ``evaluate_condition`` call behind it.

    ``params`` is a new JSON-ready dict on every access: the schedule's
    ``as_dict()`` under ``"schedule"``, then the inputs.
    """

    schedule: Schedule
    condition: Condition
    inputs: dict
    verdict: str  # convergent | divergent | bounded | unbounded
    series: ExpPolySeries
    reason: str

    @property
    def holds(self) -> bool:
        """True when the condition certifies the good case (A-C family)."""
        return self.verdict in ("convergent", "bounded")

    @property
    def params(self) -> dict:
        return {"schedule": self.schedule.as_dict(), **self.inputs}

    def to_dict(self) -> dict:
        return {
            "condition": self.condition.value,
            "verdict": self.verdict,
            "series": self.series.as_dict(),
            "params": self.params,
            "reason": self.reason,
        }


def total_loss_schedule(dimension: int = 2) -> Schedule:
    """Schedule destroying all positive fractional orders instantly.

    lam_n = e^-n, tau_n = n^-3, gamma_n = e^-(n^2).
    """
    return Schedule(
        lam=ExpPolySeries(1.0, 0.0, (-1.0,)),
        tau=ExpPolySeries(1.0, -3.0, ()),
        gamma=ExpPolySeries(1.0, 0.0, (0.0, -1.0)),
        dimension=dimension,
    )


def partial_loss_schedule(
    dimension: int,
    r: float,
    p: float,
    sigma: float,
    horizon: float,
    b: float,
    c: float,
    alpha_margin: float = 2.0,
) -> Schedule:
    """Schedule losing the fraction of regularity above mu_bar * sigma.

    Requires r > 1 and p < d/(r-1) (the velocity space must not embed in
    Lipschitz).  tau_n = 1/n, lam_n = exp(-alpha*T*n), and gamma_n =
    n^-2 * exp(alpha*(d/2 - sigma)*T*n), with alpha = alpha_margin times
    the critical rate (r-1)*b/beta.  alpha_margin > 1 makes the velocity
    condition converge with margin; alpha_margin = 1 sits exactly at the
    critical rate where the loss threshold reaches mu_bar.  The inputs are
    checked by ``ConstructionParams``.
    """
    params = ConstructionParams(dimension, r, p, sigma, horizon, alpha_margin, b, c)
    return Schedule(
        lam=ExpPolySeries(1.0, 0.0, (-params.alpha * horizon,)),
        tau=ExpPolySeries(1.0, -1.0, ()),
        gamma=ExpPolySeries(1.0, -2.0, (params.alpha * (dimension / 2.0 - sigma) * horizon,)),
        dimension=dimension,
        params=params,
    )


def _clock_degree(tau: ExpPolySeries) -> int:
    """Degree m with tau_n = n^-m, required to express exp(const/tau_n)."""
    m = -tau.power
    if (
        tau.coefficient != 1.0
        or tau.exponent_poly
        or m != int(m)
        or int(m) < 1
    ):
        raise UnsupportedScheduleError(
            "time scales must be exact negative integer powers n^-m to keep "
            "exp(const/tau_n) inside the exp-polynomial family"
        )
    return int(m)


def place_cubes(schedule: Schedule, count: int) -> list[Cube]:
    """First ``count`` cubes: disjoint, compactly contained, accumulating at the origin.

    Cubes are laid along the positive first axis with the n-th cube of
    side 3*lam_n at offset 6*sum_{m>n} lam_m from the origin, which leaves
    a gap of 3*lam_{n+1} between consecutive cubes.  Requires
    sum lam_n < inf, certified exactly before any placement.
    """
    if count < 1:
        raise ValueError("need at least one cube")
    verdict = classify(schedule.lam)
    if verdict.verdict != "convergent":
        raise InfeasiblePlacementError(
            f"spatial scales are not summable ({verdict.reason}); no compact placement exists"
        )
    cubes = []
    rest = (0.0,) * (schedule.dimension - 1)
    for n in range(1, count + 1):
        lam_n = schedule.lam.term(n)
        offset = 6.0 * tail_sum(schedule.lam, n)
        cubes.append(Cube((offset + 1.5 * lam_n,) + rest, 3.0 * lam_n))
    return cubes


def evaluate_condition(schedule: Schedule, condition: Condition, **inputs) -> ConditionCertificate:
    """Assemble the condition's term family and classify it exactly.

    ``inputs`` are exactly the keywords the condition reads: r, p, b, t
    for B; p for B-hat; sigma for C; s, t, c for D; none for the others.
    A missing or an extra one raises ``ValueError`` naming it.  The
    certificate keeps the call; d is the schedule's dimension.
    """
    condition = Condition(condition)
    reads = _INPUTS[condition]
    for name in reads:
        if name not in inputs:
            raise ValueError(f"condition {condition.value} needs parameter {name!r}")
    for name in inputs:
        if name not in reads:
            raise ValueError(f"condition {condition.value} reads no parameter {name!r}")
    d = schedule.dimension
    lam, tau, gamma = schedule.lam, schedule.tau, schedule.gamma

    if condition is Condition.CUBE_PLACEMENT:
        series = lam
        result = classify(series)
    elif condition is Condition.VELOCITY_NORM:
        r, p, b, t = inputs["r"], inputs["p"], inputs["b"], inputs["t"]
        m = _clock_degree(tau)
        series = product_and_power(
            [lam, tau, exp_factor((r - 1.0) * b * t, m)], [1.0 - r + d / p, -1.0, 1.0]
        )
        result = classify(series)
    elif condition is Condition.VELOCITY_NORM_LIPSCHITZ:
        series = product_and_power([lam, tau], [d / inputs["p"], -1.0])
        result = classify(series)
    elif condition is Condition.VELOCITY_BOUND:
        series = product_and_power([lam, tau], [1.0, -1.0])
        result = classify_bounded(series)
    elif condition is Condition.DATUM_NORM:
        series = product_and_power([gamma, lam], [1.0, d / 2.0 - inputs["sigma"]])
        result = classify(series)
    elif condition is Condition.DATUM_BOUND:
        series = gamma
        result = classify_bounded(series)
    elif condition is Condition.DATUM_L2:
        series = product_and_power([gamma, lam], [1.0, d / 2.0])
        result = classify(series)
    else:  # Condition.NORM_BLOWUP
        s, t, c = inputs["s"], inputs["t"], inputs["c"]
        m = _clock_degree(tau)
        series = product_and_power(
            [gamma, lam, exp_factor(2.0 * s * c * t, m)], [2.0, d - 2.0 * s, 1.0]
        )
        result = classify(series)
    return ConditionCertificate(
        schedule=schedule,
        condition=condition,
        inputs=inputs,
        verdict=result.verdict,
        series=series,
        reason=result.reason,
    )


def revalidate_certificate(data: dict) -> bool:
    """Re-run the call a serialized certificate records and compare the whole record.

    The recorded ``params`` minus ``"schedule"`` are the call's inputs, so
    a record holding an input its condition does not read raises the
    ``ValueError`` of ``evaluate_condition`` naming it.  Otherwise the
    result is True exactly when the fresh certificate's ``to_dict()``
    equals ``data``: condition, verdict, series, params and reason.
    """
    inputs = dict(data["params"])
    schedule = Schedule.from_dict(inputs.pop("schedule"))
    return evaluate_condition(schedule, data["condition"], **inputs).to_dict() == data


def blowup_time(s: float, sigma: float, alpha: float, c: float, horizon: float) -> float:
    """First time the order-s norm leaves the Hilbert scale.

    Returns (sigma - s) * alpha * horizon / (s * c) for s <= sigma and 0
    for s > sigma (loss is immediate above the datum's order).  Blow-up
    happens within the horizon iff the returned time is below it, which
    for critically chosen alpha is the threshold s/sigma > mu_bar.
    """
    if s <= 0 or c <= 0:
        raise ValueError("order s and rate c must be positive")
    if s > sigma:
        return 0.0
    return (sigma - s) * alpha * horizon / (s * c)


def hs_lower_bound_partial_sums(
    schedule: Schedule, s: float, t: float, upto: int, constants: MixerConstants
) -> list[float]:
    """Running partial sums of the certified lower bound for the squared order-s norm.

    Term n is gamma_n^2 * lam_n^(d-2s) * [C_s^2 exp(2*s*c*t/tau_n)
    - C_d * C_0^2 / s], with C_s the measured growth prefactor, C_0 the
    conserved L2 norm and C_d the unit-sphere area: C_s^2 times the
    condition-D series minus C_d * C_0^2 / s times gamma_n^2 * lam_n^(d-2s).
    ``series.partial_sums`` adds the terms: correctly rounded, saturating at
    the signed infinity of the first overflowing term or partial sum (an
    overflowing term takes the sign of the part with the larger
    ``log_term``), never NaN.  The sums are unbounded in the truncation
    exactly when the blow-up condition diverges.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"order must lie in (0, 1), got {s}")
    d = schedule.dimension
    blowup = evaluate_condition(
        schedule, Condition.NORM_BLOWUP, s=s, t=t, c=constants.mixing_rate
    ).series
    base = product_and_power([schedule.gamma, schedule.lam], [2.0, d - 2.0 * s])
    plus = replace(blowup, coefficient=constants.lower_prefactor(s) ** 2 * blowup.coefficient)
    minus = replace(
        base,
        coefficient=sphere_surface_area(d) * constants.l2_norm**2 / s * base.coefficient,
    )
    return partial_sums(plus, upto, minus=minus)


def evaluate_truncated_solution(
    schedule: Schedule,
    base_flow: FlowMap,
    base_datum: ScalarField,
    count: int,
    t: float,
    window: Cube,
    points: int,
) -> ScalarField:
    """Patched solution truncated to ``count`` pieces, sampled on a window.

    The window cube becomes the fundamental cell of the returned field's
    grid, with ``points`` nodes per axis.  Piece n is gamma_n times the
    base solution at its rescaled time t/tau_n, mapped into its cube: the
    window nodes inside the cube are taken to unit coordinates and pulled
    back through the base flow, and each value is one sample of the base
    datum at its exact departure point (``mixing.transported_values``).
    Overlapping piece supports raise ``GeometryError``; a piece whose
    rescaled time lies outside the base protocol's span raises
    ``ValueError`` from ``transported_values``.
    """
    if count < 1:
        raise ValueError("need at least one piece")
    grid = Grid(schedule.dimension, points, window.side)
    cubes = place_cubes(schedule, count)
    lam_last = schedule.lam.term(count)
    if lam_last < 2.0 * grid.spacing:
        raise ResolutionError(
            f"piece {count} has scale {lam_last:.3e} below two window cells "
            f"({grid.spacing:.3e} each); shrink the window or lower the count"
        )
    corner = tuple(c - window.half for c in window.center)
    coords = grid.coordinates()
    coords += np.reshape(corner, (-1,) + (1,) * grid.dimension)
    out = np.zeros(grid.shape)
    occupied = np.zeros(grid.shape, dtype=bool)
    for n in range(1, count + 1):
        lam_n = schedule.lam.term(n)
        center = cubes[n - 1].center
        delta = coords - np.reshape(center, (-1,) + (1,) * grid.dimension)
        mask = np.all(np.abs(delta) < 0.5 * lam_n, axis=0)
        if not mask.any():
            continue
        if (occupied & mask).any():
            raise GeometryError(f"piece {n} overlaps an earlier piece")
        unit = delta[:, mask] / lam_n + 0.5
        out[mask] = schedule.gamma.term(n) * transported_values(
            base_datum, base_flow, t / schedule.tau.term(n), unit
        )
        occupied |= mask
    return ScalarField(grid, out)
