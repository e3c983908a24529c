"""Print median times of the slotted-queue simulation's layers, one row each.

    python3 tools/dtrp_layers.py

Times ``dtrp._size_cell`` (the cell length's solve and its sweep period),
``dtrp._draw_blocks`` consumed alone (the draws and the per-cell sorts)
and one whole ``dtrp._simulate_cells`` call for ``bta`` (unit square) and
``cca`` (unit cube) at lambda = 20 with the CLI's default vehicle (r_vel =
0.1, r_ctr = 1), 1000 sample cells and seed 1, at horizons of 200 and 2000
slots.  The cell is sized as ``run_bta`` and ``run_cca`` size it.  One
untimed round of every case runs first, so that no case's timings include
the first calls' set-up.  The three calls run in turn, once per round,
and the benchmark's fixed reference loop (``make_reference`` of
``perfbench/run.py``) runs before a case's first round and after each
round.  Each row gives the medians over the rounds of the three calls'
times and of each round's difference of the last two, the time of the
block passes (the ``_s`` columns); then the medians over the rounds of
the same four times, each over the mean of the reference loops just
before and after its round (the ``/ref`` columns).  The loop slows with
the host, as the calls do, so the ratios are what to compare between
runs of the tool, as ``norm_wall_s`` is between benchmark runs; ``ref_s``
is the case's median loop time.  ``peak_mib`` is the ``tracemalloc`` peak
of one more ``_simulate_cells`` call, made after the timed rounds so that
no timed call is traced.  ditsp comes from ``src/`` of the checkout
this file sits in, so two checkouts can be compared with the same script.
The header names the substreams' bit generator.  The last columns are the
served count and the mean system time, which two versions that agree bit
for bit print alike.
"""

from __future__ import annotations

import platform
import statistics
import sys
import time
import tracemalloc
from collections import deque
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

from run import make_reference  # noqa: E402
from ditsp.dtrp import (DtrpConfig, _draw_blocks, _simulate_cells,  # noqa: E402
                        _size_cell, tune_policy)
from ditsp.rng import substream  # noqa: E402
from ditsp.vehicle import VehicleParams  # noqa: E402

# (policy, dim, horizon, rounds)
CASES = (("bta", 2, 200, 61), ("bta", 2, 2000, 21),
         ("cca", 3, 200, 61), ("cca", 3, 2000, 21))


def _timed(call):
    start = time.perf_counter()
    out = call()
    return time.perf_counter() - start, out


def _peak_mib(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _round(config, x_star, period, rate):
    """One round of a case: the times of the cell's solve, of the draws
    alone and of the whole simulation, and the simulation's statistics."""
    size, _ = _timed(lambda: _size_cell(config, x_star))
    draw, _ = _timed(lambda: deque(_draw_blocks(config, period, rate), 0))
    sim, stats = _timed(lambda: _simulate_cells(config, period, rate))
    return size, draw, sim, stats


def main() -> int:
    bit_generator = type(substream(0).bit_generator).__name__
    print(f"# python {platform.python_version()}, numpy {np.__version__}, "
          f"{platform.machine()}, {bit_generator} streams")
    print(f"{'policy':>6} {'horizon':>7} {'rounds':>6} {'size_cell_s':>12} "
          f"{'draw_blocks_s':>14} {'simulate_cells_s':>17} "
          f"{'block_passes_s':>15} {'ref_s':>7} {'size/ref':>9} "
          f"{'draw/ref':>9} {'sim/ref':>9} {'passes/ref':>10} "
          f"{'peak_mib':>9}  {'served':>7}  mean_system_time")
    reference = make_reference()
    cases = []
    for policy, dim, horizon, rounds in CASES:
        config = DtrpConfig(dims=(1.0,) * dim, params=VehicleParams(0.1, 1.0),
                            lam=20.0, n_slots=horizon, seed=1)
        x_star = tune_policy(dim).x_star
        _, period, rate, _ = _size_cell(config, x_star)
        args = (config, x_star, period, rate)
        _round(*args)
        cases.append((policy, horizon, rounds, args))
    for policy, horizon, rounds, args in cases:
        refs, times = [reference()], []
        for _ in range(rounds):
            size, draw, sim, stats = _round(*args)
            refs.append(reference())
            times.append((size, draw, sim, sim - draw))
        ref_means = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
        raw = [statistics.median(col) for col in zip(*times)]
        ratios = [statistics.median(t / r for t, r in zip(col, ref_means))
                  for col in zip(*times)]
        config, _, period, rate = args
        peak = _peak_mib(lambda: _simulate_cells(config, period, rate))
        print(f"{policy:>6} {horizon:>7} {rounds:>6} {raw[0]:>12.5f} "
              f"{raw[1]:>14.4f} {raw[2]:>17.4f} {raw[3]:>15.4f} "
              f"{statistics.median(refs):>7.4f} {ratios[0]:>9.4f} "
              f"{ratios[1]:>9.4f} {ratios[2]:>9.4f} {ratios[3]:>10.4f} "
              f"{peak:>9.2f}  {stats.served:>7}  "
              f"{stats.mean_system_time!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
