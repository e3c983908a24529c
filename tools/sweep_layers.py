"""Print median times of the sweep planners' layers, one row per case.

    python3 tools/sweep_layers.py

Runs ``planners.rec_bta`` (``r_vel`` 0.1) and ``planners.rec_cca`` (``r_vel``
0.3), ``r_ctr`` 1, on uniform points of the unit square or cube at n = 1.5e5,
1e6 and 1e7, and on the clustered input of the benchmark's ``sweeps`` workload
(7e3 points around 20 hotspots), all from seed 1.  Each round makes one
planner call with the layers wrapped by timers: the cell lookup
(``BeadGrid``/``CylinderGrid.cell_index``, with its gather of the unserved
targets' points), the per-(sub-)phase serve and order step
(``planners._serve_and_order``: the keys, the sort, the served targets and
the compaction of the unserved ones) and the cleanup's two parts, its
neighbour query (``kd_neighbours``) and its walk (``nearest_walk``), as
``planners.greedy_cleanup`` calls them.  Each row gives the medians over
the rounds of each layer's time, of the rest of the call and of the whole
call.  The rest is the call's time less the four layers: the input checks
and the cell sizing, the sweep accounting, and the cleanup's gather and
stacking of its input and of the tour's rows.  ``peak_mib`` is the
``tracemalloc`` peak of one more call, made after the timed rounds without
the timers, and ``peak_x`` that peak over the points' bytes.  ditsp comes
from ``src/`` of the checkout this file sits in, so two checkouts can be
compared with the same script; two versions that agree bit for bit print
the same digest of the tour (its totals, phase reports and visit order).
"""

from __future__ import annotations

import functools
import hashlib
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from ditsp import planners  # noqa: E402
from ditsp.etsp import PointSet  # noqa: E402
from ditsp.geometry import BeadGrid, CylinderGrid  # noqa: E402

# layer -> (owner, attribute) of the functions it times
LAYERS = {
    "lookup": ((BeadGrid, "cell_index"), (CylinderGrid, "cell_index")),
    "serve_order": ((planners, "_serve_and_order"),),
    "cleanup_kd": ((planners, "kd_neighbours"),),
    "cleanup_walk": ((planners, "nearest_walk"),),
}
ROUNDS = {150_000: 11, 1_000_000: 5, 10_000_000: 3}
CLUSTERED_ROUNDS = 21


def _cases():
    """(label, planner name, points)."""
    cases = []
    for n in ROUNDS:
        rng = np.random.default_rng([1, n])
        cases += [(f"uniform {n:.2g}", "rec_bta",
                   PointSet(points=rng.uniform(size=(n, 2)))),
                  (f"uniform {n:.2g}", "rec_cca",
                   PointSet(points=rng.uniform(size=(n, 3))))]
    for label, algo, pset in workloads.sweeps_inputs(1, False, None):
        if label == "clustered":
            cases.append(("sweeps clustered", algo, pset))
    return cases


def _plan(algo, pset):
    if algo == "rec_bta":
        return planners.rec_bta(pset, workloads.SLOW)
    return planners.rec_cca(pset, workloads.P3D)


class _Timers:
    """Wraps the layers' functions while open; ``spent`` sums their times."""

    def __init__(self):
        self.spent = dict.fromkeys(LAYERS, 0.0)
        self._undo = []

    def __enter__(self):
        for layer, targets in LAYERS.items():
            for owner, attr in targets:
                self._wrap(layer, owner, attr)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, layer, owner, attr):
        original = getattr(owner, attr)
        spent = self.spent

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                spent[layer] += time.perf_counter() - start

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)


def _digest(tour, reports) -> str:
    h = hashlib.sha256(f"{tour.total_time!r},{tour.total_length!r}\n".encode())
    for r in reports:
        h.update(repr((r.phase, r.subphase, r.meta_size, r.cells_traversed,
                       r.served, r.leftover_after, r.length)).encode())
    h.update(np.asarray(tour.visit_order, dtype=np.int64).tobytes())
    return h.hexdigest()[:12]


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
    print(f"{'case':>16} {'planner':>7} {'rounds':>6} {'lookup_s':>9} "
          f"{'serve_order_s':>13} {'cleanup_kd_s':>12} "
          f"{'cleanup_walk_s':>14} {'rest_s':>8} "
          f"{'total_s':>8} {'peak_mib':>9} {'peak_x':>6}  digest")
    for label, algo, pset in _cases():
        rounds = ROUNDS.get(pset.n, CLUSTERED_ROUNDS)
        rows = []
        for _ in range(rounds):
            with _Timers() as timers:
                start = time.perf_counter()
                out = _plan(algo, pset)
                total = time.perf_counter() - start
            layers = [timers.spent[layer] for layer in LAYERS]
            rows.append((*layers, total - sum(layers), total))
        peak = _peak_mib(lambda: _plan(algo, pset))
        lookup, serve, kd, walk, rest, total = (
            statistics.median(col) for col in zip(*rows))
        print(f"{label:>16} {algo:>7} {rounds:>6} {lookup:>9.4f} "
              f"{serve:>13.4f} {kd:>12.4f} {walk:>14.4f} {rest:>8.4f} "
              f"{total:>8.4f} "
              f"{peak:>9.2f} {peak * 2**20 / pset.points.nbytes:>6.2f}  "
              f"{_digest(*out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
