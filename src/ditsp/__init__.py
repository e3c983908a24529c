"""Tour planning and dynamic repairperson policies for a double-integrator vehicle.

Subpackages cover the motion model (:mod:`ditsp.vehicle`), bead/cylinder
geometry (:mod:`ditsp.geometry`), Euclidean-TSP heuristics (:mod:`ditsp.etsp`),
the three tour planners (:mod:`ditsp.planners`), the dynamic repairperson
simulator (:mod:`ditsp.dtrp`), closed-form performance bounds
(:mod:`ditsp.bounds`) and the Monte Carlo experiment harness
(:mod:`ditsp.harness`).
"""

from ditsp.vehicle import VehicleParams, stop_go_time, u_turn_length

__all__ = [
    "VehicleParams",
    "stop_go_time",
    "u_turn_length",
]
