"""Closed-form bound evaluators against hand-computed reference values."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditsp.bounds import (DTRP3_LOWER_DERIVED, DTRP3_LOWER_PRINTED,
                          approximation_factor_2d, bound_set, dtrp_lower,
                          dtrp_lower_printed_3d, dtrp_upper, reachable_leading,
                          tour_lower_2d, tour_lower_3d, tour_upper_2d,
                          tour_upper_3d, turn_penalty)
from ditsp.dtrp import predicted_system_time, tune_policy
from ditsp.vehicle import VehicleParams

UNIT = VehicleParams(r_vel=1.0, r_ctr=1.0)
SLOW = VehicleParams(r_vel=0.1, r_ctr=1.0)


def test_tour_lower_2d_reference():
    # (3/4) * 6^(1/3) * n^(2/3) on the unit square with unit caps
    assert tour_lower_2d(1.0, 1.0, UNIT, 1000) == pytest.approx(
        0.75 * 6.0 ** (1 / 3) * 100.0, rel=1e-12)


def test_tour_upper_2d_reference():
    # 24 * (WH/(rv rc))^(1/3) * (1 + 7 pi rv^2/(3 W rc)) * n^(2/3)
    got = tour_upper_2d(1.0, 1.0, SLOW, 10**5)
    pen = 1.0 + 7.0 * math.pi * 0.01 / 3.0
    want = 24.0 * 10.0 ** (1 / 3) * pen * (10**5) ** (2 / 3)
    assert got == pytest.approx(want, rel=1e-12)


def test_tour_bounds_3d_reference():
    got = tour_lower_3d(1.0, 1.0, 1.0, UNIT, 32)
    want = (5.0 / 6.0) * (20.0 / math.pi) ** (1 / 5) * 32 ** (4 / 5)
    assert got == pytest.approx(want, rel=1e-12)
    # upper coefficient (3328/15)*(pi/16)^(4/5) is about 61
    coeff = tour_upper_3d(1.0, 1.0, 1.0, UNIT, 1) / turn_penalty(1.0, UNIT)
    assert coeff == pytest.approx((3328.0 / 15.0) * (math.pi / 16.0) ** (4 / 5),
                                  rel=1e-12)
    assert 60.0 < coeff < 62.0


def test_turn_penalty_goes_to_one():
    assert turn_penalty(1.0, VehicleParams(1e-6, 1.0)) == pytest.approx(1.0)
    assert turn_penalty(1.0, SLOW) == pytest.approx(
        1.0 + 7.0 * math.pi * 0.01 / 3.0, rel=1e-12)


def test_upper_exceeds_lower():
    for n in (10, 10**4):
        assert tour_upper_2d(1.0, 1.0, SLOW, n) > tour_lower_2d(1.0, 1.0, SLOW, n)
        p3 = VehicleParams(0.5, 1.0)
        assert (tour_upper_3d(1.0, 1.0, 1.0, p3, n)
                > tour_lower_3d(1.0, 1.0, 1.0, p3, n))


def test_dtrp_lower_2d_reference():
    # 81/32 * WH/(rv rc)
    assert dtrp_lower(2, (1.0, 1.0), SLOW) == pytest.approx(
        (81.0 / 32.0) / 0.1, rel=1e-12)


def test_dtrp_lower_3d_both_constants():
    assert DTRP3_LOWER_PRINTED == pytest.approx(7813.0 / 972.0, rel=1e-15)
    # the derived constant comes from the stochastic tour lower bound:
    # (5/6)^5 * 20 = 15625/1944; the printed 7813/972 = 15626/1944 has the
    # half-integer numerator 7812.5 rounded up
    assert DTRP3_LOWER_DERIVED == pytest.approx((5.0 / 6.0) ** 5 * 20.0,
                                                rel=1e-12)
    assert DTRP3_LOWER_DERIVED == pytest.approx(15625.0 / 1944.0, rel=1e-15)
    assert DTRP3_LOWER_PRINTED == pytest.approx(DTRP3_LOWER_DERIVED, rel=1e-4)
    d = dtrp_lower(3, (1.0, 1.0, 1.0), UNIT)
    assert d == pytest.approx(DTRP3_LOWER_DERIVED, rel=1e-12)
    assert dtrp_lower_printed_3d((1.0, 1.0, 1.0), UNIT) == pytest.approx(
        DTRP3_LOWER_PRINTED, rel=1e-12)


def test_dtrp_upper_reference():
    got = dtrp_upper(2, (1.0, 1.0), SLOW)
    assert got == pytest.approx(70.5 / 0.1 * turn_penalty(1.0, SLOW) ** 3,
                                rel=1e-12)
    got3 = dtrp_upper(3, (1.0, 1.0, 1.0), UNIT)
    assert got3 == pytest.approx(2e7 * turn_penalty(1.0, UNIT) ** 5, rel=1e-12)
    with pytest.raises(ValueError):
        dtrp_upper(4, (1.0,), UNIT)


def test_reachable_leading_orders():
    # area ~ rc v t^3/6, volume ~ pi rc^2 v t^5/20
    assert reachable_leading(2, 1.0, UNIT, 2.0) == pytest.approx(8.0 / 6.0)
    assert reachable_leading(3, 1.0, UNIT, 1.0) == pytest.approx(math.pi / 20.0)
    with pytest.raises(ValueError):
        reachable_leading(2, 2.0, UNIT, 1.0)
    with pytest.raises(ValueError):
        reachable_leading(2, 1.0, UNIT, -1.0)
    with pytest.raises(ValueError, match="dim"):
        reachable_leading(4, 1.0, UNIT, 1.0)


def test_approximation_factor():
    assert approximation_factor_2d() == pytest.approx(32.0 / 6.0 ** (1 / 3),
                                                      rel=1e-12)
    assert 17.0 < approximation_factor_2d() < 18.0


def test_bound_set_keys():
    b2 = bound_set((1.0, 1.0), SLOW, n=100)
    assert set(b2) >= {"tour_lower_2d", "tour_upper_2d", "dtrp_lower_2d",
                       "dtrp_upper_2d"}
    b3 = bound_set((1.0, 1.0, 1.0), UNIT, n=100)
    assert "dtrp_lower_3d_printed" in b3 and "dtrp_lower_3d_derived" in b3


# a large but finite turn radius (1e300) or control cap (1e200) whose power
# overflows
HUGE_TURN = VehicleParams(r_vel=1e150, r_ctr=1.0)
HUGE_CTR = VehicleParams(r_vel=1e100, r_ctr=1e200)


@pytest.mark.parametrize("call, name", [
    (lambda: dtrp_upper(2, (1.0, 1.0), HUGE_TURN), "turn_penalty"),
    (lambda: dtrp_upper(3, (1.0, 1.0, 1.0), HUGE_TURN), "turn_penalty"),
    (lambda: predicted_system_time(2, (1.0, 1.0), HUGE_TURN, 1.0),
     "turn_penalty"),
    (lambda: dtrp_lower(3, (1.0, 1.0, 1.0), HUGE_CTR), "r_ctr"),
    (lambda: reachable_leading(3, 1.0, HUGE_CTR, 1.0), "r_ctr"),
])
def test_power_overflow_is_a_value_error(call, name):
    with pytest.raises(ValueError, match=rf"^{name} \*\* \d overflows"):
        call()


@pytest.mark.parametrize("call", [
    lambda: dtrp_lower(2, (1.0, 1.0, 1.0), UNIT),
    lambda: dtrp_lower(3, (1.0, 1.0), UNIT),
    lambda: dtrp_upper(2, (1.0, 1.0, 1.0), UNIT),
    lambda: dtrp_upper(3, (1.0, 1.0), UNIT),
    lambda: dtrp_lower_printed_3d((1.0, 1.0), UNIT),
])
def test_dim_must_match_dims(call):
    with pytest.raises(ValueError, match=r"dim = \d does not match dims = \("):
        call()


_SIDE = st.floats(0.05, 20.0)


@settings(max_examples=200, deadline=None)
@given(sides=st.tuples(_SIDE, _SIDE, _SIDE), r_vel=st.floats(0.01, 5.0),
       r_ctr=st.floats(0.05, 20.0).filter(lambda r: abs(r - 1.0) > 1e-3),
       n=st.integers(1, 10**6), lam=st.floats(0.1, 50.0))
def test_bounds_match_the_formulas(sides, r_vel, r_ctr, n, lam):
    # the formulas as printed, in W >= H >= D workspaces and with r_ctr != 1,
    # where a wrong power of r_ctr shows
    W, H, D = sorted(sides, reverse=True)
    params = VehicleParams(r_vel=r_vel, r_ctr=r_ctr)
    pen = 1.0 + 7.0 * math.pi * r_vel**2 / (3.0 * W * r_ctr)
    area, volume = W * H / (r_vel * r_ctr), W * H * D / (r_vel * r_ctr**2)
    approx = lambda x: pytest.approx(x, rel=1e-12)
    assert tour_lower_2d(W, H, params, n) == approx(
        0.75 * (6.0 * area) ** (1 / 3) * n ** (2 / 3))
    assert tour_upper_2d(W, H, params, n) == approx(
        24.0 * area ** (1 / 3) * pen * n ** (2 / 3))
    assert tour_lower_3d(W, H, D, params, n) == approx(
        (5.0 / 6.0) * (20.0 * volume / math.pi) ** (1 / 5) * n ** (4 / 5))
    assert tour_upper_3d(W, H, D, params, n) == approx(
        (3328.0 / 15.0) * (math.pi / 16.0) ** (4 / 5) * volume ** (1 / 5)
        * pen * n ** (4 / 5))
    assert dtrp_lower(2, (W, H), params) == approx(81.0 / 32.0 * area)
    assert dtrp_lower(3, (W, H, D), params) == approx(15625.0 / 1944.0 * volume)
    assert dtrp_lower_printed_3d((W, H, D), params) == approx(
        7813.0 / 972.0 * volume)
    assert dtrp_upper(2, (W, H), params) == approx(70.5 * area * pen**3)
    assert dtrp_upper(3, (W, H, D), params) == approx(2e7 * volume * pen**5)
    assert predicted_system_time(2, (W, H), params, lam) == approx(
        tune_policy(2).coefficient * area * pen**3 * lam**2)
    assert predicted_system_time(3, (W, H, D), params, lam) == approx(
        tune_policy(3).coefficient * volume * pen**5 * lam**4)
