"""Motion-time primitives against an independent reachability oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ditsp.rng import substream
from ditsp.vehicle import (MIN_TURN_RADIUS, VehicleParams, stop_go_time,
                           u_turn_length)


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


# speed and control caps log-uniform over five decades
_caps = st.floats(-3.0, 2.0).map(lambda e: 10.0**e)


def _around_saturation(params):
    """The floats within 3 ulps of the saturation distance, ascending."""
    below = above = params.turn_radius
    out = [below]
    for _ in range(3):
        below = math.nextafter(below, 0.0)
        above = math.nextafter(above, math.inf)
        out = [below, *out, above]
    return out


@settings(max_examples=300, deadline=None)
@given(r_vel=_caps, r_ctr=_caps)
def test_branch_continuity_at_saturation(r_vel, r_ctr):
    params = VehicleParams(r_vel=r_vel, r_ctr=r_ctr)
    d_sat = params.turn_radius
    at_sat = 2.0 * r_vel / r_ctr
    for d in (*_around_saturation(params), d_sat * (1 - 1e-12),
              d_sat * (1 + 1e-12)):
        assert stop_go_time(d, params) == pytest.approx(at_sat, rel=1e-11)


@settings(max_examples=300, deadline=None)
# at these caps the cruise branch rounds one ulp below the bang-bang time of
# the saturation distance unless it is floored there
@example(r_vel=0.07433941983010071, r_ctr=0.002846187896837431)
@given(r_vel=_caps, r_ctr=_caps)
def test_monotone_in_distance(r_vel, r_ctr):
    params = VehicleParams(r_vel=r_vel, r_ctr=r_ctr)
    d_sat = params.turn_radius
    ds = sorted({*_around_saturation(params),
                 *(float(d) for d in np.linspace(0.0, 4.0 * d_sat, 200))})
    ts = [stop_go_time(d, params) for d in ds]
    assert all(b >= a for a, b in zip(ts, ts[1:]))


def _stop_go_scalar(delta, params):
    # the scalar law written out with math, as stop_go_time read before it
    # took arrays
    rho = params.turn_radius
    if delta <= rho:
        return 2.0 * math.sqrt(delta / params.r_ctr)
    return max(params.r_vel / params.r_ctr + delta / params.r_vel,
               2.0 * math.sqrt(rho / params.r_ctr))


@pytest.mark.parametrize("r_vel, r_ctr", [
    (0.1, 1.0), (1.0, 1.0), (0.07433941983010071, 0.002846187896837431),
    (3.7, 0.05)])
def test_stop_go_array_equals_scalar_bitwise(r_vel, r_ctr):
    # both branches, the saturation distance and its neighbouring floats,
    # and 0; each array entry is the float time of its distance bit for bit
    params = VehicleParams(r_vel=r_vel, r_ctr=r_ctr)
    d_sat = params.turn_radius
    ds = [0.0, *_around_saturation(params),
          *substream(102, 0).uniform(0.0, 4.0 * d_sat, size=200).tolist()]
    got = stop_go_time(np.array(ds), params)
    assert isinstance(got, np.ndarray) and got.shape == (len(ds),)
    want = [_stop_go_scalar(d, params) for d in ds]
    assert got.tolist() == want
    assert [stop_go_time(d, params) for d in ds] == want
    assert all(type(stop_go_time(d, params)) is float for d in ds[:3])
    assert stop_go_time(np.empty(0), params).shape == (0,)
    with pytest.raises(ValueError, match="nonnegative"):
        stop_go_time(np.array([1.0, -1e-9]), params)


def test_zero_distance_and_negative():
    params = VehicleParams(r_vel=1.0, r_ctr=1.0)
    assert stop_go_time(0.0, params) == 0.0
    with pytest.raises(ValueError):
        stop_go_time(-1e-9, params)
    # NaN and infinite distances, alone or in an array, have no time
    for bad in (math.nan, math.inf, -math.inf, np.array([1.0, math.nan]),
                np.array([math.inf, 0.5])):
        with pytest.raises(ValueError, match="nonnegative"):
            stop_go_time(bad, params)


def test_params_validation():
    with pytest.raises(ValueError):
        VehicleParams(r_vel=0.0, r_ctr=1.0)
    with pytest.raises(ValueError):
        VehicleParams(r_vel=1.0, r_ctr=-1.0)
    # finite, positive caps whose turn radius r_vel**2 / r_ctr is 0 or inf,
    # or positive but with a square that is not a normal float (the cell
    # geometry divides by it): 1e-300, 1e-310, 1e-200 and just below 2**-511
    for r_vel, r_ctr in ((1e-200, 1.0), (1e200, 1.0), (1.0, 1e-320),
                         (1e-150, 1.0), (1e-155, 1.0), (1.0, 1e200),
                         (2.0**-255, 2.0 + 2.0**-51)):
        with pytest.raises(ValueError, match="turn radius"):
            VehicleParams(r_vel=r_vel, r_ctr=r_ctr)
    # the smallest admitted radius, 2**-511
    params = VehicleParams(r_vel=2.0**-255, r_ctr=2.0)
    assert params.turn_radius == MIN_TURN_RADIUS


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
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive"):
            u_turn_length(bad)
