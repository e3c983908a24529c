"""Motion-time primitives against an independent reachability oracle."""

import math

import numpy as np
import pytest

from ditsp.rng import substream
from ditsp.vehicle import VehicleParams, stop_go_time, u_turn_length


def oracle_stop_go(delta, r_vel, r_ctr, tol=1e-13):
    """Bisection on T of the max rest-to-rest distance reachable in time T.

    With symmetric accelerate/decelerate phases the distance reachable in
    time T is r_ctr*T**2/4 until the speed cap binds (T = 2*r_vel/r_ctr) and
    r_vel*(T - r_vel/r_ctr) after; the oracle never uses the closed form
    under test, only this monotone map inverted numerically.
    """
    def reach(T):
        if T <= 2.0 * r_vel / r_ctr:
            return r_ctr * T * T / 4.0
        return r_vel * (T - r_vel / r_ctr)

    if delta == 0:
        return 0.0
    lo, hi = 0.0, 1.0
    while reach(hi) < delta:
        hi *= 2.0
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if reach(mid) < delta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_stop_go_matches_oracle_100_cases():
    rng = substream(101, 0)
    for _ in range(100):
        r_vel = float(rng.uniform(0.05, 5.0))
        r_ctr = float(rng.uniform(0.05, 5.0))
        delta = float(rng.uniform(0.0, 10.0))
        params = VehicleParams(r_vel=r_vel, r_ctr=r_ctr)
        got = stop_go_time(delta, params)
        want = oracle_stop_go(delta, r_vel, r_ctr)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_branch_continuity_at_saturation():
    params = VehicleParams(r_vel=0.7, r_ctr=1.3)
    d_sat = params.r_vel**2 / params.r_ctr
    below = stop_go_time(d_sat * (1 - 1e-12), params)
    above = stop_go_time(d_sat * (1 + 1e-12), params)
    assert below == pytest.approx(above, rel=1e-9)
    assert stop_go_time(d_sat, params) == pytest.approx(
        2.0 * params.r_vel / params.r_ctr, rel=1e-12)


def test_monotone_in_distance():
    params = VehicleParams(r_vel=0.3, r_ctr=2.0)
    ds = np.linspace(0.0, 2.0, 500)
    ts = [stop_go_time(float(d), params) for d in ds]
    assert all(b >= a for a, b in zip(ts, ts[1:]))


def test_zero_distance_and_negative():
    params = VehicleParams(r_vel=1.0, r_ctr=1.0)
    assert stop_go_time(0.0, params) == 0.0
    with pytest.raises(ValueError):
        stop_go_time(-1e-9, params)


def test_params_validation():
    with pytest.raises(ValueError):
        VehicleParams(r_vel=0.0, r_ctr=1.0)
    with pytest.raises(ValueError):
        VehicleParams(r_vel=1.0, r_ctr=-1.0)


@pytest.mark.parametrize("field", ["r_vel", "r_ctr"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(field, bad):
    values = {"r_vel": 1.0, "r_ctr": 1.0, field: bad}
    with pytest.raises(ValueError, match=field):
        VehicleParams(**values)


def test_turn_radius():
    params = VehicleParams(r_vel=0.4, r_ctr=0.8)
    assert params.turn_radius == pytest.approx(0.4**2 / 0.8)


def test_u_turn_length():
    assert u_turn_length(3.0) == pytest.approx(7.0 * math.pi)
    with pytest.raises(ValueError):
        u_turn_length(0.0)
