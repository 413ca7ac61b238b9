import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regloss import (
    ExpPolySeries,
    classify,
    classify_bounded,
    exp_factor,
    partial_sums,
    product_and_power,
)
from regloss.series import tail_sum


def test_classify_leading_positive_diverges():
    # cubic clock beats the quadratic and linear damping
    series = ExpPolySeries(1.0, 0.0, (-1.0, -2.0, 0.02))
    verdict = classify(series)
    assert verdict.verdict == "divergent"
    assert "q_3" in verdict.reason


def test_classify_cubed_power_with_exponential_damping_converges():
    assert classify(ExpPolySeries(1.0, 3.0, (-1.0,))).verdict == "convergent"


def test_classify_harmonic_diverges():
    assert classify(ExpPolySeries(1.0, -1.0, ())).verdict == "divergent"


def test_classify_p_series():
    assert classify(ExpPolySeries(1.0, -1.001, ())).verdict == "convergent"
    assert classify(ExpPolySeries(1.0, 2.0, ())).verdict == "divergent"


def test_classify_zero_coefficient():
    assert classify(ExpPolySeries(0.0, 5.0, (3.0,))).verdict == "convergent"


def test_classify_trims_exact_zero_leading_coefficients():
    series = ExpPolySeries(1.0, -2.0, (1.0, 0.0, 0.0))
    assert series.exponent_poly == (1.0,)
    assert classify(series).verdict == "divergent"


@given(st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=50, deadline=None)
def test_classify_invariant_under_positive_scaling(scale):
    base = ExpPolySeries(2.0, 1.5, (0.3, -0.2))
    scaled = ExpPolySeries(2.0 * scale, 1.5, (0.3, -0.2))
    assert classify(base).verdict == classify(scaled).verdict


def test_bounded_family():
    assert classify_bounded(ExpPolySeries(1.0, 3.0, (-1.0,))).verdict == "bounded"
    assert classify_bounded(ExpPolySeries(1.0, 0.0, (0.0, -1.0))).verdict == "bounded"
    assert classify_bounded(ExpPolySeries(1.0, 0.5, ())).verdict == "unbounded"
    assert classify_bounded(ExpPolySeries(1.0, -1.0, (0.1,))).verdict == "unbounded"
    assert classify_bounded(ExpPolySeries(1.0, 0.0, ())).verdict == "bounded"


def test_partial_sum_geometric_closed_form():
    series = ExpPolySeries(1.0, 0.0, (-1.0,))
    expected = 1.0 / (math.e - 1.0)
    assert abs(partial_sums(series, 50)[-1] - expected) < 1e-12


def test_partial_sum_single_term():
    series = ExpPolySeries(2.0, 1.0, (-0.5,))
    assert partial_sums(series, 1)[-1] == pytest.approx(series.term(1), rel=0, abs=0)


def test_partial_sum_tail_settled():
    series = ExpPolySeries(1.0, 3.0, (-1.0,))
    assert abs(partial_sums(series, 200)[-1] - partial_sums(series, 100)[-1]) < 1e-30


def test_partial_sum_overflow_saturates():
    series = ExpPolySeries(1.0, 0.0, (0.0, 1.0))
    sums = partial_sums(series, 40)
    assert math.isinf(sums[-1])


def _summation_corpus():
    """(series, minus, upto): cancelling, overflowing and mixed-sign sums."""
    return [
        (ExpPolySeries(1.0, 0.0, (-1.0,)), None, 60),
        (ExpPolySeries(-0.7, 1.5, (-0.3,)), None, 80),
        (ExpPolySeries(1.0, 0.0, (0.0, 1.0)), None, 40),  # a term overflows
        (ExpPolySeries(-1.0, 0.0, (0.0, 1.0)), None, 40),
        (ExpPolySeries(8e307, 0.0, ()), None, 5),  # the partial sum overflows
        (ExpPolySeries(-8e307, 0.0, ()), None, 5),
        # mixed signs: the difference changes sign, then overflows
        (ExpPolySeries(1e-3, 0.0, (0.5,)), ExpPolySeries(1.0, 2.0, ()), 1500),
        (ExpPolySeries(1.0, 1.0, (-0.2,)), ExpPolySeries(1e-4, 0.0, (0.7,)), 1200),
        (ExpPolySeries(0.5, -1.0, ()), ExpPolySeries(1.0, 0.0, (-0.1,)), 300),
    ]


def test_partial_sums_are_correctly_rounded_and_saturate_with_sign():
    saturations = 0
    for series, minus, upto in _summation_corpus():
        sums = partial_sums(series, upto, minus=minus)
        assert len(sums) == upto and not any(math.isnan(v) for v in sums)
        terms = []
        saturated = None
        for n, value in enumerate(sums, start=1):
            if saturated is not None:
                assert value == saturated
                continue
            a = series.term(n)
            b = 0.0 if minus is None else minus.term(n)
            if math.isinf(a) or math.isinf(b):
                # the part with the larger log_term overflows and decides the sign
                log_b = -math.inf if minus is None else minus.log_term(n)
                expected = a if series.log_term(n) > log_b else -b
            else:
                terms.append(a - b)
                try:
                    expected = math.fsum(terms)
                except OverflowError:
                    expected = math.inf if sum(map(Fraction, terms)) > 0 else -math.inf
            assert value.hex() == expected.hex(), (series, minus, n)
            if math.isinf(expected):
                saturated = expected
                saturations += 1
    assert saturations == 6


def test_partial_sum_saturates_when_the_sum_overflows():
    assert partial_sums(ExpPolySeries(8e307, 0.0, ()), 3)[-1] == math.inf
    assert partial_sums(ExpPolySeries(-8e307, 0.0, ()), 3)[-1] == -math.inf


def test_partial_sums_difference_needs_aligned_parts():
    # both parts start at n = 1, so the difference pairs term n with term n
    plus, minus = ExpPolySeries(2.0, 0.0, (-1.0,)), ExpPolySeries(1.0, -2.0, ())
    terms = [plus.term(n) - minus.term(n) for n in range(1, 6)]
    assert partial_sums(plus, 5, minus=minus) == [math.fsum(terms[:k]) for k in range(1, 6)]


def test_partial_sums_monotone_for_positive_terms():
    series = ExpPolySeries(0.5, 1.0, (-0.3,))
    sums = partial_sums(series, 30)
    assert all(b >= a for a, b in zip(sums, sums[1:]))


def test_partial_sum_bad_range():
    with pytest.raises(ValueError):
        partial_sums(ExpPolySeries(1.0, 0.0, (-1.0,)), 0)


def test_product_squares_exponent():
    gamma = ExpPolySeries(1.0, 0.0, (0.0, -1.0))
    squared = product_and_power([gamma], [2.0])
    assert squared.exponent_poly == (0.0, -2.0)
    assert squared.power == 0.0


def test_product_power_scaling():
    lam = ExpPolySeries(1.0, 0.0, (-1.0,))
    powed = product_and_power([lam], [1.0])  # d - 2s with d=2, s=0.5
    assert powed.exponent_poly == (-1.0,)


def test_product_assembles_blowup_series():
    gamma = ExpPolySeries(1.0, 0.0, (0.0, -1.0))
    lam = ExpPolySeries(1.0, 0.0, (-1.0,))
    clock = exp_factor(2.0 * 0.5 * 1.0 * 0.1, 3)
    combined = product_and_power([gamma, lam, clock], [2.0, 1.0, 1.0])
    assert combined.exponent_poly == (-1.0, -2.0, 0.1)
    assert combined.coefficient == 1.0
    assert combined.power == 0.0


def test_product_alignment_error():
    # every factor starts at n = 1, so the product pairs term n with term n
    a = ExpPolySeries(1.0, 0.0, (-1.0,))
    b = ExpPolySeries(2.0, 1.0, (0.5,))
    product = product_and_power([a, b], [1.0, 1.0])
    for n in range(1, 6):
        assert product.term(n) == pytest.approx(a.term(n) * b.term(n), rel=1e-15)


def test_product_associative_commutative():
    a = ExpPolySeries(2.0, 1.0, (-0.5,))
    b = ExpPolySeries(0.5, -2.0, (0.25, -1.0))
    c = ExpPolySeries(1.5, 0.5, (0.0, 0.0, -0.125))
    left = product_and_power([product_and_power([a, b], [1.0, 1.0]), c], [1.0, 1.0])
    right = product_and_power([a, product_and_power([b, c], [1.0, 1.0])], [1.0, 1.0])
    swapped = product_and_power([c, b, a], [1.0, 1.0, 1.0])
    for other in (right, swapped):
        assert left.exponent_poly == other.exponent_poly
        assert left.power == other.power
        assert left.coefficient == pytest.approx(other.coefficient, rel=1e-15)


def test_exp_factor_degree_validation():
    with pytest.raises(ValueError):
        exp_factor(1.0, 0)


def test_start_index_validation():
    with pytest.raises(ValueError):
        partial_sums(ExpPolySeries(1.0, 0.0, ()), 0)


def test_term_before_start_rejected():
    series = ExpPolySeries(1.0, 0.0, (-1.0,))
    with pytest.raises(ValueError):
        series.term(0)


def test_tail_sum_matches_geometric_tail():
    series = ExpPolySeries(1.0, 0.0, (-1.0,))
    tail = tail_sum(series, 5)
    expected = math.exp(-6.0) / (1.0 - math.exp(-1.0))
    assert tail == pytest.approx(expected, rel=1e-12)


def test_tail_sum_requires_convergence():
    with pytest.raises(ValueError):
        tail_sum(ExpPolySeries(1.0, -1.0, ()), 5)


@pytest.mark.parametrize("q1", [-1.0, -0.3, -1e-3, -1e-4, -1e-5])
def test_tail_sum_matches_a_50_digit_geometric_tail(q1):
    import mpmath

    series = ExpPolySeries(1.0, 0.0, (q1,))
    with mpmath.workdps(50):
        q = mpmath.mpf(q1)
        for after in range(11):
            exact = mpmath.exp(q * (after + 1)) / -mpmath.expm1(q)
            assert abs(tail_sum(series, after) - exact) <= 4e-16 * exact, after


@pytest.mark.parametrize(
    "series",
    [ExpPolySeries(1.0, -4.0, ()), ExpPolySeries(1.0, -1.1, ()),
     ExpPolySeries(1.0, 1.0, (-1.0,)), ExpPolySeries(1.0, 0.0, (0.0, -1.0)),
     ExpPolySeries(1.0, 0.0, (0.5,))],
    ids=["power-4", "power-1.1", "power-times-geometric", "quadratic-exponent", "growing"],
)
def test_tail_sum_refuses_every_non_geometric_series(series):
    # the n^-4 tail after 1 is zeta(4) - 1, which a truncated sum misses by 1.9e-14
    with pytest.raises(ValueError, match="q1 < 0"):
        tail_sum(series, 1)


def test_serialization_round_trip():
    series = ExpPolySeries(2.5, -1.5, (0.25, -0.75))
    assert ExpPolySeries.from_dict(series.as_dict()) == series


def _oracle_corpus(count=12, seed=123):
    import numpy as np

    rng = np.random.default_rng(seed)
    corpus = []
    for _ in range(count):
        degree = int(rng.integers(1, 4))
        q = [float(rng.uniform(-3.0, 3.0)) for _ in range(degree - 1)]
        lead = float(rng.uniform(0.3, 3.0)) * (1 if rng.uniform() < 0.5 else -1)
        q.append(lead)
        corpus.append(
            ExpPolySeries(
                float(rng.uniform(0.25, 3.0)),
                float(rng.uniform(-3.0, 3.0)),
                tuple(q),
            )
        )
    return corpus


def test_classifier_matches_numeric_oracle_smoke():
    for series in _oracle_corpus():
        verdict = classify(series).verdict
        small = partial_sums(series, 1000)[-1]
        large = partial_sums(series, 10000)[-1]
        if verdict == "convergent":
            assert math.isfinite(large)
            assert abs(large - small) < 1e-6 * max(abs(large), 1e-300)
        else:
            assert math.isinf(large) or large > 10.0 * small
