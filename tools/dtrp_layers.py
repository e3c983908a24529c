"""Print median times of the slotted-queue simulation's layers, one row each.

    python3 tools/dtrp_layers.py

Times ``dtrp._size_cell`` (the cell length's solve and its sweep period),
``dtrp._draw_blocks`` consumed alone (the per-cell draws and sorts) and one
whole ``dtrp._simulate_cells`` call for ``bta`` (unit square) and
``cca`` (unit cube) at lambda = 20 with the CLI's default vehicle (r_vel =
0.1, r_ctr = 1), 1000 sample cells and seed 1, at horizons of 200 and 2000
slots.  The cell is sized as ``run_bta`` and ``run_cca`` size it.  The three
calls run in turn, once per round; each row gives their medians over the
rounds and the median of each round's difference of the last two, the time
of the block passes.  ``peak_mib`` is the ``tracemalloc`` peak of one more
``_simulate_cells`` call, made after the timed rounds so that no timed call
is traced.  ditsp comes from ``src/`` of the checkout this file sits in, so
two checkouts can be compared with the same script.  The last columns are
the served count and the mean system time, which two versions that agree
bit for bit print alike.
"""

from __future__ import annotations

import platform
import statistics
import sys
import time
import tracemalloc
from collections import deque
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from ditsp.dtrp import (DtrpConfig, _draw_blocks, _simulate_cells,  # noqa: E402
                        _size_cell, tune_policy)
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


def main() -> int:
    print(f"# python {platform.python_version()}, numpy {np.__version__}, "
          f"{platform.machine()}")
    print(f"{'policy':>6} {'horizon':>7} {'rounds':>6} {'size_cell_s':>12} "
          f"{'draw_blocks_s':>14} "
          f"{'simulate_cells_s':>17} {'block_passes_s':>15} {'peak_mib':>9}  "
          f"{'served':>7}  "
          "mean_system_time")
    for policy, dim, horizon, rounds in CASES:
        config = DtrpConfig(dims=(1.0,) * dim, params=VehicleParams(0.1, 1.0),
                            lam=20.0, n_slots=horizon, seed=1)
        x_star = tune_policy(dim).x_star
        _, period, rate, _ = _size_cell(config, x_star)
        sizes, draws, sims = [], [], []
        for _ in range(rounds):
            t, _ = _timed(lambda: _size_cell(config, x_star))
            sizes.append(t)
            t, _ = _timed(lambda: deque(_draw_blocks(config, period, rate), 0))
            draws.append(t)
            t, stats = _timed(lambda: _simulate_cells(config, period, rate))
            sims.append(t)
        passes = statistics.median(s - d for d, s in zip(draws, sims))
        peak = _peak_mib(lambda: _simulate_cells(config, period, rate))
        print(f"{policy:>6} {horizon:>7} {rounds:>6} "
              f"{statistics.median(sizes):>12.5f} "
              f"{statistics.median(draws):>14.4f} "
              f"{statistics.median(sims):>17.4f} {passes:>15.4f} "
              f"{peak:>9.2f}  "
              f"{stats.served:>7}  "
              f"{stats.mean_system_time!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
