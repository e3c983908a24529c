"""Print median times of the stages of ``etsp.etsp_tour``, one row each.

    python3 tools/etsp_layers.py

Times ``kd_neighbours`` (the one kd-tree and batched query), ``nearest_walk``
from row 0 and one ``_two_opt`` call on the walk's order, on uniform points
from ``substream(1006, n)``: n = 1e3, 4e3 and 1e5 in 2D and 4e3 in 3D.  The
stages run in turn, once per round, and each row gives the median over the
rounds.  ditsp comes from ``src/`` of the checkout this file sits in, so two
checkouts can be compared with the same script.  The last columns are the
walk's and the 2-opt tour's lengths, which two versions that agree bit for
bit print alike.
"""

from __future__ import annotations

import math
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from ditsp.etsp import (_edge_lengths, _two_opt, kd_neighbours,  # noqa: E402
                        nearest_walk)
from ditsp.rng import substream  # noqa: E402

# (n, d, rounds)
CASES = ((1000, 2, 15), (4000, 2, 9), (100_000, 2, 3), (4000, 3, 9))


def _timed(call):
    start = time.perf_counter()
    out = call()
    return time.perf_counter() - start, out


def main() -> int:
    print(f"# python {platform.python_version()}, numpy {np.__version__}, "
          f"scipy {scipy.__version__}, {platform.machine()}")
    print(f"{'n':>7} {'d':>2} {'rounds':>6} {'kd_neighbours_s':>16} "
          f"{'nearest_walk_s':>15} {'two_opt_s':>10}  walk_length  tour_length")
    for n, d, rounds in CASES:
        points = substream(1006, n).uniform(size=(n, d))
        times = {"kd": [], "walk": [], "two_opt": []}
        for _ in range(rounds):
            t, neighbours = _timed(lambda: kd_neighbours(points))
            times["kd"].append(t)
            t, (lengths, order) = _timed(
                lambda: nearest_walk(points, 0, neighbours))
            times["walk"].append(t)
            order = np.append(0, order)
            t, tour = _timed(lambda: _two_opt(points, order, 50 * n,
                                              neighbours))
            times["two_opt"].append(t)
        kd, walk, two_opt = (statistics.median(times[k])
                             for k in ("kd", "walk", "two_opt"))
        tour_length = math.fsum(_edge_lengths(points, tour))
        print(f"{n:>7} {d:>2} {rounds:>6} {kd:>16.4f} {walk:>15.4f} "
              f"{two_opt:>10.4f}  {math.fsum(lengths)!r}  {tour_length!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
