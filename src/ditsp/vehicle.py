"""Double-integrator motion model and motion-time primitives.

The vehicle accelerates with bounded control magnitude ``r_ctr`` and is
speed-limited at ``r_vel``.  Planners never integrate trajectories: they
account time as path length divided by a constant cruise speed for curved
sweeps, plus rest-to-rest point-to-point times for stop-go legs.  A curve of
bounded curvature ``1/rho`` traversed at constant speed ``s`` is feasible for
the double integrator exactly when ``rho = s**2 / r_ctr``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# smallest turn radius whose square is a normal float (2**-511): the cell
# geometry divides by rho**2, which below it loses bits or underflows to 0
MIN_TURN_RADIUS = math.sqrt(sys.float_info.min)


@dataclass(frozen=True)
class VehicleParams:
    """Speed cap ``r_vel`` (length/time) and control cap ``r_ctr`` (length/time^2)."""

    r_vel: float
    r_ctr: float

    def __post_init__(self):
        for name in ("r_vel", "r_ctr"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        # r_vel**2 overflows or underflows for some finite, positive caps
        try:
            rho = self.turn_radius
        except OverflowError:
            rho = math.inf
        if not (math.isfinite(rho) and rho >= MIN_TURN_RADIUS):
            raise ValueError(f"turn radius r_vel**2 / r_ctr must be finite and "
                             f"at least {MIN_TURN_RADIUS:.4g}, got {rho} for "
                             f"r_vel = {self.r_vel}, r_ctr = {self.r_ctr}")

    @property
    def turn_radius(self) -> float:
        """Turn radius induced by cruising at the speed cap."""
        return self.r_vel**2 / self.r_ctr


def stop_go_time(delta, params: VehicleParams):
    """Minimum rest-to-rest travel time over a straight distance ``delta``,
    a float or an array of distances (then one time per distance).

    Bang-bang below the speed-saturation distance ``r_vel**2 / r_ctr``,
    bang-cruise-bang above it.  Continuous at the breakpoint, where both
    branches give ``2 * r_vel / r_ctr``.  The cruise branch is floored at the
    bang-bang time of the breakpoint, which its rounding can fall below by
    an ulp; the time is then nondecreasing in ``delta`` in floating point.
    numpy's division and ``sqrt`` are correctly rounded, as ``math``'s are,
    so an array gives each distance's float time bit for bit.
    """
    d = np.asarray(delta, dtype=float)
    if not (np.isfinite(d).all() and (d >= 0).all()):
        raise ValueError("distance must be finite and nonnegative")
    rho = params.turn_radius
    t = np.where(d <= rho, 2.0 * np.sqrt(d / params.r_ctr),
                 np.maximum(params.r_vel / params.r_ctr + d / params.r_vel,
                            2.0 * math.sqrt(rho / params.r_ctr)))
    return t if t.ndim else float(t)


def u_turn_length(rho: float) -> float:
    """Length of the shortest bounded-curvature path reversing heading in place.

    For turn radius ``rho`` the reversal with co-located endpoints takes
    ``(7/3) * pi * rho``.
    """
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError(f"rho must be finite and positive, got {rho}")
    return (7.0 / 3.0) * math.pi * rho
