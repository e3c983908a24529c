"""Run each sweep planner once at n = 1e7 and 1e8; print its law's ratio,
its peak memory and its cell.

    python3 tools/sweep_scale.py

``planners.rec_bta`` (``r_vel`` 0.1) and ``planners.rec_cca`` (``r_vel``
0.3), ``r_ctr`` 1, plan uniform points of the unit square or cube, drawn
from seed 1.  Each case runs in a fresh interpreter of its own, one at a
time, so that its peak RSS is its own.  A row gives:

- ``tour_time / n**e``, the paper's law: ``e`` is 2/3 for ``rec_bta`` and
  4/5 for ``rec_cca``, and the ratio settles as ``ell/rho`` goes to 0
- ``wall_s``, the planner call alone
- ``peak_rss_mib``, the process's high-water mark, and ``call_x``, what the
  call added to the RSS it started from, over the points' bytes
- ``ell/rho``, the cell length over the turn radius, from ``ell_for_n`` or
  ``ell_for_n_3d``

A case whose estimated peak, ``PEAK_PER_POINT_BYTE`` times its points'
bytes plus the interpreter's ``BASE_MIB``, exceeds ``MemAvailable`` in
``/proc/meminfo`` is skipped with a printed reason.  ditsp comes from
``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import multiprocessing
import platform
import resource
import sys
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)

SIZES = (10_000_000, 100_000_000)
# (planner, dimension, r_vel, law exponent)
PLANNERS = (("rec_bta", 2, 0.1, 2.0 / 3.0), ("rec_cca", 3, 0.3, 0.8))
# estimated peak RSS per byte of points: the points themselves, at most
# 1.3x more in the call, and room to spare
PEAK_PER_POINT_BYTE = 2.5
BASE_MIB = 256


def _mem_available_mib() -> float:
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no MemAvailable in /proc/meminfo")


def _rss_mib() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize() / 2**20


def run_case(algo: str, d: int, r_vel: float, n: int):
    """One planner call; returns (tour time, wall s, peak RSS MiB, call's
    RSS over the points' bytes, ell/rho).  Meant for a fresh process."""
    import numpy as np

    from ditsp import geometry, planners
    from ditsp.etsp import PointSet
    from ditsp.vehicle import VehicleParams

    params = VehicleParams(r_vel=r_vel, r_ctr=1.0)
    pset = PointSet(points=np.random.default_rng([1, n]).uniform(size=(n, d)))
    rho = params.turn_radius
    ell = (geometry.ell_for_n(1.0, 1.0, rho, n) if d == 2
           else geometry.ell_for_n_3d(1.0, 1.0, 1.0, rho, n))[0]
    before = _rss_mib()
    start = time.perf_counter()
    tour, _ = getattr(planners, algo)(pset, params)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return (tour.total_time, wall, peak,
            (peak - before) * 2**20 / pset.points.nbytes, ell / rho)


def main() -> int:
    print(f"# python {platform.python_version()}, {platform.machine()}, "
          f"MemAvailable {_mem_available_mib():.0f} MiB")
    print(f"{'planner':>7} {'n':>6} {'tour_time/n^e':>13} {'wall_s':>7} "
          f"{'peak_rss_mib':>12} {'call_x':>6} {'ell/rho':>7}")
    spawn = multiprocessing.get_context("spawn")
    for n in SIZES:
        for algo, d, r_vel, e in PLANNERS:
            need = PEAK_PER_POINT_BYTE * n * d * 8 / 2**20 + BASE_MIB
            available = _mem_available_mib()
            if need > available:
                print(f"{algo:>7} {n:>6.0e}  skipped: needs about {need:.0f} "
                      f"MiB, MemAvailable is {available:.0f} MiB")
                continue
            with spawn.Pool(1) as pool:
                time_, wall, peak, call_x, ratio = pool.apply(
                    run_case, (algo, d, r_vel, n))
            print(f"{algo:>7} {n:>6.0e} {time_ / n**e:>13.3f} {wall:>7.2f} "
                  f"{peak:>12.0f} {call_x:>6.2f} {ratio:>7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
