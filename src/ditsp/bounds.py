"""Closed-form performance bounds for tours and for the dynamic repair problem.

All evaluators are pure functions of the workspace dimensions and vehicle
parameters.  Where a printed constant disagrees with the value implied by its
own derivation, both are exposed with provenance labels; assertions elsewhere
in the package use the derived value.
"""

from __future__ import annotations

import math

from ditsp.geometry import SWEEP_BUDGET_3D, _check_dims, _check_n
from ditsp.vehicle import VehicleParams, u_turn_length

# 3D dynamic lower-bound coefficient: printed value and the value obtained by
# rearranging the stochastic tour lower bound ((5/6)**5 * 20 = 15625/1944)
DTRP3_LOWER_PRINTED = 7813.0 / 972.0
DTRP3_LOWER_DERIVED = 15625.0 / 1944.0
# heavy-load system-time coefficients of the sweep policies (of lambda^2 in
# 2D, lambda^4 in 3D), as printed; the values their derivations give are
# dtrp.tune_policy(d).coefficient (about 70.55 and 1.64e7)
DTRP2_UPPER_PRINTED = 70.5
DTRP3_UPPER_PRINTED = 2e7


def _dim(dim: int, dims: tuple) -> int:
    """``dim`` once ``dims`` holds that many sides (the sides themselves are
    checked by ``_scaled``)."""
    if len(dims) != dim:
        raise ValueError(f"dim = {dim} does not match dims = {tuple(dims)}")
    return dim


def _power(name: str, base: float, exp: float) -> float:
    """``base ** exp``, whose overflow, for a large but finite vehicle or
    turn radius, becomes a ``ValueError`` that names ``name``."""
    try:
        return base ** exp
    except OverflowError:
        raise ValueError(f"{name} ** {exp} overflows for {name} = {base}") \
            from None


def _scaled(c: float, dims: tuple, params: VehicleParams, per: float = 1.0) -> float:
    """``c`` times the workspace measure over ``per * r_vel * r_ctr**(d-1)``,
    the unit of every bound (d = len(dims)).  ``c`` is multiplied in first
    and ``per`` (a pi in the denominator) into the unit, as the formulas are
    written, so each bound keeps its bits.  Every bound's sides are checked
    here, by :func:`~ditsp.geometry._check_dims`."""
    unit = per * params.r_vel * _power("r_ctr", params.r_ctr, len(dims) - 1)
    return math.prod((c, *_check_dims(dims))) / unit


def heavy_load(c: float, dims: tuple, params: VehicleParams) -> float:
    """Heavy-load system-time law of the sweep policies with coefficient ``c``:
    ``c * measure/(r_vel r_ctr^(d-1)) * turn_penalty^(2d-1)``, the factor of
    lambda^(2d-2) (Bertsimas & van Ryzin 1991)."""
    # _scaled checks the sides before turn_penalty divides by W
    scaled = _scaled(c, dims, params)
    return scaled * _power("turn_penalty", turn_penalty(dims[0], params),
                           2 * len(dims) - 1)


def tour_lower_2d(W: float, H: float, params: VehicleParams, n: int) -> float:
    """Stochastic-tour expected-time lower bound, rectangle: (3/4)(6WH/(rv*rc))^(1/3) n^(2/3)."""
    _check_n(n)
    return 0.75 * _scaled(6.0, (W, H), params) ** (1 / 3) * n ** (2 / 3)


def tour_lower_3d(W: float, H: float, D: float, params: VehicleParams, n: int) -> float:
    """Stochastic-tour expected-time lower bound, box: (5/6)(20WHD/(pi rv rc^2))^(1/5) n^(4/5)."""
    _check_n(n)
    return (5.0 / 6.0) * _scaled(20.0, (W, H, D), params, math.pi) ** (1 / 5) * n ** (4 / 5)


def turn_penalty(W: float, params: VehicleParams) -> float:
    """Constant-speed sweep overhead factor: one u-turn per pass of width W,
    1 + 7*pi*r_vel^2/(3*W*r_ctr)."""
    return 1.0 + u_turn_length(params.turn_radius) / W


def tour_upper_2d(W: float, H: float, params: VehicleParams, n: int) -> float:
    """Recursive bead-tiling total-time upper bound: 24 (WH/(rv rc))^(1/3) turn_penalty n^(2/3)."""
    _check_n(n)
    return (24.0 * _scaled(1.0, (W, H), params) ** (1 / 3)
            * turn_penalty(W, params) * n ** (2 / 3))


def tour_upper_3d(W: float, H: float, D: float, params: VehicleParams, n: int) -> float:
    """Recursive cylinder-covering total-time upper bound with coefficient
    (3328/15) (pi/16)^(4/5) / r_vel-normalization (approximately 61), where
    3328 = ``geometry.SWEEP_BUDGET_3D`` is the five-sub-phase sweep budget."""
    _check_n(n)
    coeff = (SWEEP_BUDGET_3D / 15.0) * (math.pi / 16.0) ** (4 / 5)
    return (coeff * _scaled(1.0, (W, H, D), params) ** (1 / 5)
            * turn_penalty(W, params) * n ** (4 / 5))


def dtrp_lower(dim: int, dims: tuple, params: VehicleParams) -> float:
    """Coefficient of lambda^2 (2D) or lambda^4 (3D) in the system-time lower bound."""
    c = 81.0 / 32.0 if _dim(dim, dims) == 2 else DTRP3_LOWER_DERIVED
    return _scaled(c, dims, params)


def dtrp_lower_printed_3d(dims: tuple, params: VehicleParams) -> float:
    """3D lower-bound coefficient using the printed constant 7813/972."""
    _dim(3, dims)
    return _scaled(DTRP3_LOWER_PRINTED, dims, params)


def dtrp_upper(dim: int, dims: tuple, params: VehicleParams) -> float:
    """Coefficient of lambda^2 / lambda^4 in the system-time upper bound:
    ``heavy_load`` of the printed DTRP2_UPPER_PRINTED or DTRP3_UPPER_PRINTED."""
    c = DTRP2_UPPER_PRINTED if _dim(dim, dims) == 2 else DTRP3_UPPER_PRINTED
    return heavy_load(c, dims, params)


def reachable_leading(dim: int, v: float, params: VehicleParams, t: float) -> float:
    """Leading-order measure of the set reachable within time t at initial speed v.

    Area r_ctr*v*t^3/6 in 2D, volume pi*r_ctr^2*v*t^5/20 in 3D.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if not 0 <= v <= params.r_vel:
        raise ValueError("v must lie in [0, r_vel]")
    if dim == 2:
        return params.r_ctr * v * t**3 / 6.0
    if dim == 3:
        return math.pi * _power("r_ctr", params.r_ctr, 2) * v * t**5 / 20.0
    raise ValueError("dim must be 2 or 3")


def approximation_factor_2d() -> float:
    """Gap between 2D upper and lower tour coefficients as rho -> 0: 32/6^(1/3)."""
    return 32.0 / 6.0 ** (1 / 3)


def bound_set(dims: tuple, params: VehicleParams, n: int = 1000) -> dict:
    """All coefficients for the given parameters, name-tagged (for the CLI)."""
    reach = reachable_leading(len(dims), params.r_vel, params, 1.0)
    if len(dims) == 2:
        out = {"tour_lower_2d": tour_lower_2d(*dims, params, n),
               "tour_upper_2d": tour_upper_2d(*dims, params, n),
               "dtrp_lower_2d": dtrp_lower(2, dims, params),
               "dtrp_upper_2d": dtrp_upper(2, dims, params),
               "reachable_area_coeff": reach}
    else:
        out = {"tour_lower_3d": tour_lower_3d(*dims, params, n),
               "tour_upper_3d": tour_upper_3d(*dims, params, n),
               "dtrp_lower_3d_derived": dtrp_lower(3, dims, params),
               "dtrp_lower_3d_printed": dtrp_lower_printed_3d(dims, params),
               "dtrp_upper_3d": dtrp_upper(3, dims, params),
               "reachable_volume_coeff": reach}
    out["n"] = n
    return out
