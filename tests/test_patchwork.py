import math

import numpy as np
import pytest

from regloss import (
    Condition,
    ConditionCertificate,
    Cube,
    ExpPolySeries,
    GeometryError,
    Grid,
    InfeasiblePlacementError,
    LipschitzEmbeddingError,
    ResolutionError,
    Schedule,
    UnsupportedScheduleError,
    blowup_time,
    build_mixing_protocol,
    demean,
    evaluate_condition,
    evaluate_truncated_solution,
    exact_solution_at,
    hs_lower_bound_partial_sums,
    hs_norm,
    make_bump,
    partial_loss_schedule,
    place_cubes,
    total_loss_schedule,
)


def test_total_loss_schedule_terms():
    sch = total_loss_schedule()
    assert sch.lam.term(5) == pytest.approx(math.exp(-5.0), rel=1e-15)
    assert sch.tau.term(5) == pytest.approx(1.0 / 125.0, rel=1e-15)
    assert sch.gamma.term(5) == pytest.approx(math.exp(-25.0), rel=1e-15)
    assert sch.lam.term(1) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert sch.tau.term(1) == 1.0
    assert sch.gamma.term(1) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_velocity_ratio_bounded_with_known_maximum():
    sch = total_loss_schedule()
    ratios = [sch.lam.term(n) / sch.tau.term(n) for n in range(1, 30)]
    assert max(ratios) == pytest.approx(27.0 * math.exp(-3.0), rel=1e-12)
    assert ratios.index(max(ratios)) == 2  # n = 3
    assert max(ratios) < 1.35


def test_partial_loss_parameters():
    sch = partial_loss_schedule(3, 2.0, 2.0, 1.0, 1.0, b=0.8, c=0.8)
    params = sch.params
    assert params.beta == 0.5
    assert params.mu_bar == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert params.alpha == pytest.approx(2.0 * 0.8 / 0.5, rel=1e-15)
    assert 0.0 < params.mu_bar < 1.0
    critical = partial_loss_schedule(3, 2.0, 2.0, 1.0, 1.0, b=0.8, c=0.8, alpha_margin=1.0)
    assert critical.params.mu_effective == pytest.approx(critical.params.mu_bar, rel=1e-15)


def test_partial_loss_threshold_vanishes_toward_order_one():
    sch = partial_loss_schedule(3, 1.0 + 1e-9, 2.0, 1.0, 1.0, b=1.0, c=1.0)
    assert sch.params.mu_bar < 1e-8


def test_partial_loss_embedding_guard():
    with pytest.raises(LipschitzEmbeddingError):
        partial_loss_schedule(3, 2.0, 4.0, 1.0, 1.0, b=1.0, c=1.0)
    with pytest.raises(LipschitzEmbeddingError):
        partial_loss_schedule(3, 1.0, 2.0, 1.0, 1.0, b=1.0, c=1.0)
    with pytest.raises(ValueError):
        partial_loss_schedule(3, 2.0, 2.0, 1.0, 1.0, b=1.0, c=1.0, alpha_margin=0.5)


def test_place_cubes_disjoint_compact_accumulating():
    sch = total_loss_schedule()
    cubes = place_cubes(sch, 10)
    for i in range(10):
        for j in range(i + 1, 10):
            assert cubes[i].distance_to(cubes[j]) > 0.0
    # sides shrink like the spatial scale and centers approach the origin
    for n, cube in enumerate(cubes, start=1):
        assert cube.side == pytest.approx(3.0 * math.exp(-n), rel=1e-12)
    dists = [np.hypot(*c.center) for c in cubes]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert max(c.center[0] + c.half for c in cubes) < 5.0


def test_place_cubes_single():
    cubes = place_cubes(total_loss_schedule(), 1)
    assert len(cubes) == 1


def test_place_cubes_sums_a_slowly_decaying_scale_in_closed_form():
    # lam_n = exp(-alpha*T*n) with alpha*T = 4e-5: its terms stay above
    # 1e-18 of the tail for about a million indices
    sch = partial_loss_schedule(3, 2.0, 2.0, 1.0, 1.0, b=1e-5, c=1.0)
    q = sch.lam.exponent_poly[0]
    cubes = place_cubes(sch, 3)
    for n, cube in enumerate(cubes, start=1):
        offset = cube.center[0] - cube.half
        assert offset == pytest.approx(6.0 * math.exp(q * (n + 1)) / -math.expm1(q), rel=1e-14)
    for n in (1, 2):
        gap = cubes[n - 1].distance_to(cubes[n])
        assert gap == pytest.approx(3.0 * sch.lam.term(n + 1), rel=1e-6)


def test_place_cubes_requires_summable_scales():
    sch = Schedule(
        lam=ExpPolySeries(1.0, -1.0, ()),
        tau=ExpPolySeries(1.0, -3.0, ()),
        gamma=ExpPolySeries(1.0, 0.0, (0.0, -1.0)),
        dimension=2,
    )
    with pytest.raises(InfeasiblePlacementError):
        place_cubes(sch, 3)


def test_blowup_condition_always_divergent_for_positive_times():
    sch = total_loss_schedule()
    for s in (0.1, 0.5, 0.9):
        for t in (0.01, 0.1, 1.0):
            cert = evaluate_condition(sch, Condition.NORM_BLOWUP, s=s, t=t, c=1.0)
            assert cert.verdict == "divergent"
            assert cert.series.exponent_poly[2] == pytest.approx(2 * s * 1.0 * t, rel=1e-15)


def test_blowup_condition_assembled_coefficients():
    sch = total_loss_schedule()
    s, t, c = 0.5, 0.1, 1.0
    cert = evaluate_condition(sch, Condition.NORM_BLOWUP, s=s, t=t, c=c)
    d = 2
    assert cert.series.exponent_poly == (-(d - 2 * s), -2.0, 2 * s * c * t)
    assert cert.series.power == 0.0
    assert cert.series.coefficient == 1.0


def test_blowup_condition_convergent_at_time_zero():
    sch = total_loss_schedule()
    cert = evaluate_condition(sch, Condition.NORM_BLOWUP, s=0.5, t=0.0, c=1.0)
    assert cert.verdict == "convergent"


def test_velocity_condition_under_total_loss_schedule():
    sch = total_loss_schedule()
    for p in (1.5, 2.0, 4.0, 8.0):
        cert = evaluate_condition(sch, Condition.VELOCITY_NORM_LIPSCHITZ, p=p)
        assert cert.verdict == "convergent"
    assert evaluate_condition(sch, Condition.VELOCITY_BOUND).verdict == "bounded"
    assert evaluate_condition(sch, Condition.DATUM_BOUND).verdict == "bounded"
    for sigma in (0.5, 1.0, 2.0, 10.0):
        cert = evaluate_condition(sch, Condition.DATUM_NORM, sigma=sigma)
        assert cert.verdict == "convergent"


def test_condition_requires_parameters():
    sch = total_loss_schedule()
    with pytest.raises(ValueError):
        evaluate_condition(sch, Condition.NORM_BLOWUP, s=0.5, t=0.1)  # missing c


def test_clock_requires_power_law_time_scales():
    sch = Schedule(
        lam=ExpPolySeries(1.0, 0.0, (-1.0,)),
        tau=ExpPolySeries(1.0, 0.0, (-1.0,)),  # e^-n, not a power of n
        gamma=ExpPolySeries(1.0, 0.0, (0.0, -1.0)),
        dimension=2,
    )
    with pytest.raises(UnsupportedScheduleError):
        evaluate_condition(sch, Condition.NORM_BLOWUP, s=0.5, t=0.1, c=1.0)
    # conditions without the exponential clock still work
    assert evaluate_condition(sch, Condition.CUBE_PLACEMENT).verdict == "convergent"


def test_partial_loss_certificates_at_margin():
    b = c = 0.9
    sch = partial_loss_schedule(3, 2.0, 2.0, 1.0, 1.0, b=b, c=c)
    assert evaluate_condition(sch, Condition.CUBE_PLACEMENT).verdict == "convergent"
    cert_b = evaluate_condition(sch, Condition.VELOCITY_NORM, r=2.0, p=2.0, b=b, t=1.0)
    assert cert_b.verdict == "convergent"
    assert evaluate_condition(sch, Condition.VELOCITY_BOUND).verdict == "bounded"
    assert evaluate_condition(sch, Condition.DATUM_NORM, sigma=1.0).verdict == "convergent"
    assert evaluate_condition(sch, Condition.DATUM_L2).verdict == "convergent"


def test_partial_loss_blowup_threshold_at_critical_rate():
    b = c = 0.9
    critical = partial_loss_schedule(3, 2.0, 2.0, 1.0, 1.0, b=b, c=c, alpha_margin=1.0)
    mu = critical.params.mu_bar
    sigma = 1.0
    for k in range(1, 101):
        s = sigma * k / 101.0
        cert = evaluate_condition(critical, Condition.NORM_BLOWUP, s=s, t=1.0, c=c)
        t_blow = blowup_time(s, sigma, critical.params.alpha, c, 1.0)
        assert (cert.verdict == "divergent") == (t_blow < 1.0) == (s / sigma > mu)


def test_blowup_time_values():
    assert blowup_time(1.0, 1.0, 2.0, 1.0, 1.0) == 0.0
    assert blowup_time(0.5, 1.0, 2.0, 1.0, 1.0) == pytest.approx(2.0, rel=1e-15)
    assert blowup_time(1.5, 1.0, 2.0, 1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        blowup_time(0.0, 1.0, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        blowup_time(0.5, 1.0, 2.0, 0.0, 1.0)


def _constants(decay_prefactor=0.03):
    from regloss import MixerConstants

    return MixerConstants(
        mixing_rate=1.0,
        field_prefactors={1.0: 1.0},
        decay_prefactors={0.5: decay_prefactor},
        l2_norm=0.115,
    )


def test_lower_bound_single_term():
    sch = total_loss_schedule()
    constants = _constants()
    s, t, d = 0.5, 0.1, 2
    total = hs_lower_bound_partial_sums(sch, s, t, 1, constants)[-1]
    c_s = constants.l2_norm**2 / 0.03
    gamma1, lam1 = math.exp(-1.0), math.exp(-1.0)
    expected = gamma1**2 * lam1 ** (d - 2 * s) * (
        c_s**2 * math.exp(2 * s * 1.0 * t) - (2 * math.pi / s) * constants.l2_norm**2
    )
    assert total == pytest.approx(expected, rel=1e-12)


def test_lower_bound_bounded_at_time_zero():
    sch = total_loss_schedule()
    sums = hs_lower_bound_partial_sums(sch, 0.5, 0.0, 100, _constants())
    assert all(math.isfinite(v) for v in sums)
    assert abs(sums[99] - sums[49]) < 1e-12


def test_lower_bound_saturates_rather_than_overflowing():
    sch = total_loss_schedule()
    value = hs_lower_bound_partial_sums(sch, 0.5, 10.0, 40, _constants())[-1]
    assert value == math.inf


def test_lower_bound_overflow_keeps_sign_without_nan():
    # at t = 0 above the datum's order every term is negative until its
    # parts overflow; the negative part has the larger log_term
    for horizon, decay_prefactor in ((3.0, 1.0), (5.0, 0.03)):
        sch = partial_loss_schedule(3, 2.0, 2.0, 0.3, horizon, 1.0, 1.0)
        sums = hs_lower_bound_partial_sums(sch, 0.5, 0.0, 300, _constants(decay_prefactor))
        assert not any(math.isnan(v) for v in sums)
        assert sums[-1] == -math.inf


def _window(sch, count):
    """Window holding the first ``count`` cubes, as ``regloss solve`` lays it out."""
    cubes = place_cubes(sch, count)
    lo = min(c.center[0] - c.half for c in cubes)
    hi = max(c.center[0] + c.half for c in cubes)
    return Cube((0.5 * (lo + hi), cubes[0].center[1]), (hi - lo) * 1.05)


@pytest.fixture(scope="module")
def base_pair():
    grid = Grid(2, 128)
    datum = demean(make_bump(grid, (0.5, 0.5), 0.125, 1.0))
    flow = build_mixing_protocol(5, 3.0, 0.125, 3.2)
    return grid, datum, flow


def test_truncated_solution_single_piece(base_pair):
    grid, datum, flow = base_pair
    sch = total_loss_schedule()
    cube1 = place_cubes(sch, 1)[0]
    wgrid = Grid(2, 128, cube1.side)
    theta = evaluate_truncated_solution(sch, flow, datum, 1, 0.05, cube1, wgrid)
    gamma1 = sch.gamma.term(1)
    state = exact_solution_at(datum, flow, 0.05 / sch.tau.term(1))
    assert np.max(theta.values) == pytest.approx(gamma1 * np.max(state.values), rel=2e-2)
    assert np.max(np.abs(theta.values)) <= gamma1 * np.max(np.abs(datum.values)) * (1 + 1e-6)


def test_single_piece_norm_follows_rescaling_chain(base_pair):
    grid, datum, flow = base_pair
    sch = total_loss_schedule(dimension=2)
    cube1 = place_cubes(sch, 1)[0]
    wgrid = Grid(2, 256, cube1.side)
    theta = evaluate_truncated_solution(sch, flow, datum, 1, 0.0, cube1, wgrid)
    lam1, gam1, d = sch.lam.term(1), sch.gamma.term(1), 2
    for sigma in (0.25, 0.5, 0.75):
        predicted = gam1 * (hs_norm(datum, sigma) * lam1 ** (d / 2 - sigma))
        measured = hs_norm(theta, sigma)
        # window resampling and the piece-boundary backdrop cost ~1e-2
        assert measured == pytest.approx(predicted, rel=2e-2)


def test_truncated_solution_pieces_disjoint(base_pair):
    grid, datum, flow = base_pair
    sch = total_loss_schedule()
    window = _window(sch, 3)
    wgrid = Grid(2, 256, window.side)
    layers = []
    for n in (1, 2, 3):
        theta_n = evaluate_truncated_solution(sch, flow, datum, n, 0.05, window, wgrid)
        layers.append(theta_n.values)
    piece2 = layers[1] - layers[0]
    piece3 = layers[2] - layers[1]
    assert np.max(np.abs(layers[0] * piece2)) == 0.0
    assert np.max(np.abs(layers[0] * piece3)) == 0.0
    assert np.max(np.abs(piece2 * piece3)) == 0.0


def test_truncated_solution_interpolates_the_datum_once(base_pair):
    # each window value is one sample of the datum at its exact departure
    # point, so the field hardly depends on the datum's grid; interpolating
    # the transported base grid a second time would leave a gap of 2e-2
    _, _, flow = base_pair
    sch = total_loss_schedule()
    window = _window(sch, 3)
    wgrid = Grid(2, 128, window.side)
    fields = []
    for m in (128, 512):
        datum = demean(make_bump(Grid(2, m), (0.5, 0.5), 0.125, 1.0))
        fields.append(evaluate_truncated_solution(sch, flow, datum, 3, 0.1, window, wgrid).values)
    gap = np.linalg.norm(fields[0] - fields[1]) / np.linalg.norm(fields[1])
    assert gap < 2e-3


def test_truncated_solution_initial_norm_triangle_bound(base_pair):
    grid, datum, flow = base_pair
    sch = total_loss_schedule()
    window = _window(sch, 3)
    wgrid = Grid(2, 256, window.side)
    sigma = 0.5
    theta0 = evaluate_truncated_solution(sch, flow, datum, 3, 0.0, window, wgrid)
    datum_norm = hs_norm(datum, sigma)
    triangle = sum(
        sch.gamma.term(n) * sch.lam.term(n) ** (1.0 - sigma) * datum_norm
        for n in (1, 2, 3)
    )
    assert hs_norm(theta0, sigma) <= triangle * (1 + 0.05)


def test_truncated_solution_guards(base_pair):
    grid, datum, flow = base_pair
    sch = total_loss_schedule()
    cube1 = place_cubes(sch, 1)[0]
    with pytest.raises(ValueError):
        evaluate_truncated_solution(sch, flow, datum, 1, 0.05, cube1, Grid(2, 64, 1.0))
    tiny = Grid(2, 16, cube1.side)
    with pytest.raises(ResolutionError):
        evaluate_truncated_solution(sch, flow, datum, 6, 0.01, cube1, tiny)
    with pytest.raises(ValueError):
        evaluate_truncated_solution(sch, flow, datum, 1, 5.0, cube1, Grid(2, 64, cube1.side))


def test_truncated_solution_rejects_overlapping_pieces(base_pair, monkeypatch):
    import regloss.patchwork

    grid, datum, flow = base_pair
    sch = total_loss_schedule()
    cube1 = place_cubes(sch, 1)[0]
    monkeypatch.setattr(regloss.patchwork, "place_cubes", lambda schedule, count: [cube1] * count)
    with pytest.raises(GeometryError, match="piece 2 overlaps"):
        evaluate_truncated_solution(sch, flow, datum, 2, 0.0, cube1, Grid(2, 64, cube1.side))


def test_schedule_serialization_round_trip():
    sch = total_loss_schedule()
    again = Schedule.from_dict(sch.as_dict())
    assert again.lam == sch.lam and again.tau == sch.tau and again.gamma == sch.gamma


def test_certificates_of_one_schedule_share_its_dict():
    sch = total_loss_schedule()
    placement = evaluate_condition(sch, Condition.CUBE_PLACEMENT)
    blowup = evaluate_condition(sch, Condition.NORM_BLOWUP, s=0.5, t=0.1, c=1.0)
    shared = sch.as_dict()
    assert placement.params["schedule"] is shared
    assert blowup.to_dict()["params"]["schedule"] is shared
    assert Schedule.from_dict(shared).as_dict() == shared


def test_certificate_serialization_round_trip():
    sch = total_loss_schedule()
    cert = evaluate_condition(sch, Condition.NORM_BLOWUP, s=0.5, t=0.1, c=1.0)
    again = ConditionCertificate.from_dict(cert.to_dict())
    assert again == cert
