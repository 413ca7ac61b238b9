"""Exact convergence/divergence classification for exp-polynomial series.

Every series certified by this package has terms of the closed form

    term(n) = c * n**k * exp(q_1*n + q_2*n**2 + ... + q_m*n**m),

with the constant part of the exponent absorbed into ``c``.  The family is
closed under products and real powers, so composite terms (products of
schedule sequences, powers, exponential clocks) stay inside it and the
convergence question has an exact answer: the sign of the highest-degree
exponent coefficient decides, and the pure-power case falls back to the
p-series rule.  No floating-point thresholds enter the classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = [
    "ExpPolySeries",
    "Classification",
    "classify",
    "classify_bounded",
    "partial_sums",
    "product_and_power",
    "exp_factor",
    "tail_sum",
]

# exp(x) overflows float64 slightly above this
_LOG_FLOAT_MAX = 709.0


def _trim(coeffs) -> tuple[float, ...]:
    """Drop trailing exact zeros so the leading coefficient is meaningful."""
    out = list(float(q) for q in coeffs)
    while out and out[-1] == 0.0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class ExpPolySeries:
    """Term family ``c * n**k * exp(q(n))`` for n = 1, 2, ...

    ``exponent_poly`` holds (q_1, ..., q_m); the degree-0 part of the
    exponent belongs in ``coefficient``.
    """

    coefficient: float = 1.0
    power: float = 0.0
    exponent_poly: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "coefficient", float(self.coefficient))
        object.__setattr__(self, "power", float(self.power))
        object.__setattr__(self, "exponent_poly", _trim(self.exponent_poly))

    def log_term(self, n: int) -> float:
        """log |term(n)|; -inf when the coefficient vanishes."""
        if self.coefficient == 0.0:
            return -math.inf
        value = math.log(abs(self.coefficient)) + self.power * math.log(n)
        return value + self._exponent(n)

    def _exponent(self, n: int) -> float:
        acc = 0.0
        for j, q in enumerate(self.exponent_poly, start=1):
            acc += q * float(n) ** j
        return acc

    def term(self, n: int) -> float:
        """Value of the n-th term; +/-inf on overflow."""
        if n < 1:
            raise ValueError(f"index {n} precedes the first index 1")
        if self.coefficient == 0.0:
            return 0.0
        sign = 1.0 if self.coefficient > 0 else -1.0
        log_t = self.log_term(n)
        if log_t > _LOG_FLOAT_MAX:
            return sign * math.inf
        expo = self._exponent(n)
        if abs(expo) > 706.0:
            # the exponential alone would over/underflow; combine in log space
            return sign * math.exp(log_t)
        return self.coefficient * float(n) ** self.power * math.exp(expo)

    def as_dict(self) -> dict:
        return {
            "c": self.coefficient,
            "k": self.power,
            "q": list(self.exponent_poly),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExpPolySeries":
        return cls(
            coefficient=data["c"],
            power=data["k"],
            exponent_poly=tuple(data["q"]),
        )


@dataclass(frozen=True)
class Classification:
    verdict: str  # convergent | divergent | bounded | unbounded
    reason: str


def _by_leading_exponent(q: tuple[float, ...], growing: str, decaying: str) -> Classification:
    """Verdict from the sign of the leading coefficient of a trimmed, nonempty exponent."""
    deg, lead = len(q), q[-1]
    if lead > 0:
        return Classification(growing, f"leading exponent coefficient q_{deg} = {lead:g} > 0")
    return Classification(decaying, f"leading exponent coefficient q_{deg} = {lead:g} < 0")


def classify(series: ExpPolySeries) -> Classification:
    """Exact convergence verdict for the sum of |term(n)|.

    Rule: the highest-degree nonzero exponent coefficient decides
    (positive -> divergent, negative -> convergent); with no exponential
    part the p-series rule applies (convergent iff power < -1, so the
    harmonic boundary counts as divergent).
    """
    if series.coefficient == 0.0:
        return Classification("convergent", "zero coefficient")
    if series.exponent_poly:
        return _by_leading_exponent(series.exponent_poly, "divergent", "convergent")
    if series.power < -1.0:
        return Classification("convergent", f"p-series with power {series.power:g} < -1")
    return Classification("divergent", f"p-series with power {series.power:g} >= -1")


def classify_bounded(series: ExpPolySeries) -> Classification:
    """Exact boundedness verdict for the term family itself."""
    if series.coefficient == 0.0:
        return Classification("bounded", "zero coefficient")
    if series.exponent_poly:
        return _by_leading_exponent(series.exponent_poly, "unbounded", "bounded")
    if series.power > 0.0:
        return Classification("unbounded", f"power {series.power:g} > 0")
    return Classification("bounded", f"power {series.power:g} <= 0")


def _running_sums(terms: Iterable[float]) -> Iterator[float]:
    """Running sums by the rule of ``partial_sums``, ending with the first infinite one.

    The exact sum is kept as Shewchuk's nonoverlapping partials, whose count
    stays bounded, so each step costs O(1).  ``math.fsum`` rounds them after
    every term.
    """
    partials: list[float] = []
    for x in terms:
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        if math.isinf(x):
            yield x
            return
        partials[i:] = [x]
        yield math.fsum(partials)


def _difference_term(plus: ExpPolySeries, minus: ExpPolySeries, n: int) -> float:
    a, b = plus.term(n), minus.term(n)
    if math.isinf(a) or math.isinf(b):
        # the larger magnitude overflows and decides the sign
        return a if plus.log_term(n) > minus.log_term(n) else -b
    return a - b


def _terms(
    series: ExpPolySeries, upto: int, minus: ExpPolySeries | None = None
) -> Iterator[float]:
    """Terms 1..upto of ``series``, or of its termwise difference with ``minus``."""
    if upto < 1:
        raise ValueError(f"upper index {upto} precedes the first index 1")
    indices = range(1, upto + 1)
    if minus is None:
        return map(series.term, indices)
    return (_difference_term(series, minus, n) for n in indices)


def partial_sums(
    series: ExpPolySeries, upto: int, minus: ExpPolySeries | None = None
) -> list[float]:
    """Running partial sums S(1), ..., S(upto) of ``series`` (minus ``minus``, termwise).

    S(n) is the correctly rounded sum of its terms, equal to ``math.fsum``,
    and all sums take time linear in their count.  The first term or partial
    sum that overflows saturates the sums at its signed infinity; an
    overflowing difference term takes the sign of the part whose
    ``log_term`` is larger.  No sum is ever NaN.
    """
    sums = list(_running_sums(_terms(series, upto, minus)))
    return sums + sums[-1:] * (upto - len(sums))


def product_and_power(series: list[ExpPolySeries], exponents: list[float]) -> ExpPolySeries:
    """Combine ``prod_i series_i ** e_i`` into a single exp-polynomial family.

    Coefficients multiply through their powers, while the n-powers and the
    exponent polynomials combine linearly.
    """
    if len(series) != len(exponents):
        raise ValueError("series and exponents must have equal length")
    if not series:
        raise ValueError("empty product")
    coeff = 1.0
    power = 0.0
    q: list[float] = []
    for s, e in zip(series, exponents):
        coeff *= math.pow(s.coefficient, e)
        power += e * s.power
        for j, qj in enumerate(s.exponent_poly):
            while len(q) <= j:
                q.append(0.0)
            q[j] += e * qj
    return ExpPolySeries(coefficient=coeff, power=power, exponent_poly=tuple(q))


def exp_factor(coefficient: float, degree: int) -> ExpPolySeries:
    """The family exp(coefficient * n**degree), e.g. an exponential clock."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    q = [0.0] * degree
    q[degree - 1] = coefficient
    return ExpPolySeries(coefficient=1.0, power=0.0, exponent_poly=tuple(q))


def tail_sum(series: ExpPolySeries, after: int) -> float:
    """Tail sum_{n > after} term(n) of a geometric series c * exp(q_1 * n), q_1 < 0.

    Returns the closed form c * exp(q_1 * (after + 1)) / (1 - exp(q_1));
    every other family raises ``ValueError``.
    """
    q = series.exponent_poly
    if series.power != 0.0 or len(q) != 1 or not q[0] < 0.0:
        raise ValueError(f"tail_sum needs c*exp(q1*n) with q1 < 0, got {series}")
    return series.coefficient * math.exp(q[0] * (max(after, 0) + 1)) / -math.expm1(q[0])
