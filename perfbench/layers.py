"""Per-layer tracing from outside the program.

The tracer replaces public ditsp names where their callers look them up
(``ditsp.planners.etsp_tour``, ``BeadGrid.cell_index``, ...) with wrappers
that record a span (name, start, end, parent) or bump a counter, keeps the
spans in memory and puts the originals back on exit.  A layer's self time is
its spans' durations minus the time its child spans cover.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

from ditsp import cli, dtrp, etsp, harness, planners
from ditsp.geometry import BeadGrid, CylinderGrid

# per-layer metric -> span whose self time it reports
SELF_TIMES = {
    "etsp.etsp_tour_s": "etsp.etsp_tour",
    "planners.stop_go_stop_self_s": "planners.stop_go_stop",
    "planners.rec_bta_self_s": "planners.rec_bta",
    "planners.rec_cca_self_s": "planners.rec_cca",
    "planners.greedy_cleanup_s": "planners.greedy_cleanup",
    "geometry.bead_cell_index_s": "geometry.bead_cell_index",
    "geometry.cylinder_cell_index_s": "geometry.cylinder_cell_index",
    "geometry.ell_for_n_s": "geometry.ell_for_n",
    "dtrp.run_bta_s": "dtrp.run_bta",
    "dtrp.run_cca_s": "dtrp.run_cca",
    "dtrp.tune_policy_s": "dtrp.tune_policy",
    "harness.run_trial_s": "harness.run_trial",
    "harness.overhead_s": "harness.run_experiment",
    "harness.fit_s": "harness.fit_experiment",
    "harness.write_csv_s": "harness.write_tour_csv",
    "cli.self_s": "cli.main",
    "rng.substream_s": "rng.substream",
}
# per-layer metric -> span whose number of calls it reports
CALLS = {
    "etsp.calls": "etsp.etsp_tour",
    "rng.substream_calls": "rng.substream",
}
COUNTERS = (
    "vehicle.stop_go_time_calls",
    "planners.segments",
    "planners.leftover_targets",
    "geometry.cell_clamped",
    "dtrp.arrivals",
    "dtrp.divergent_runs",
    "dtrp.cell_clamped_runs",
)
METRICS = (*SELF_TIMES, *CALLS, *COUNTERS)


class Tracer:
    """Context manager that wraps the layer boundaries while it is open."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._undo = []
        # utilization the tuned policies aim for; a run below it had its
        # cell clamped at the largest admissible size
        self._x_star = {2: dtrp.tune_policy(2).x_star,
                        3: dtrp.tune_policy(3).x_star}

    def __enter__(self):
        tour_segments = lambda args, out: self._add(
            "planners.segments", len(out[0].segments if isinstance(out, tuple)
                                     else out.segments))
        self._span(planners, "rec_bta", "planners.rec_bta", tour_segments)
        self._span(planners, "rec_cca", "planners.rec_cca", tour_segments)
        self._span(harness, "stop_go_stop", "planners.stop_go_stop",
                   tour_segments)
        for name in ("run_experiment", "run_trial", "fit_experiment",
                     "write_tour_csv"):
            self._span(harness, name, f"harness.{name}")
        for owner in (harness, etsp, dtrp):
            self._span(owner, "substream", "rng.substream")
        self._span(planners, "etsp_tour", "etsp.etsp_tour")
        self._span(planners, "greedy_cleanup", "planners.greedy_cleanup",
                   lambda args, out: self._add("planners.leftover_targets",
                                               len(out[1])))
        clamped = lambda args, out: self._add("geometry.cell_clamped",
                                              int(out[1]))
        self._span(planners, "ell_for_n", "geometry.ell_for_n", clamped)
        self._span(planners, "ell_for_n_3d", "geometry.ell_for_n", clamped)
        self._count(planners, "stop_go_time", "vehicle.stop_go_time_calls")
        self._span(BeadGrid, "cell_index", "geometry.bead_cell_index")
        self._span(CylinderGrid, "cell_index", "geometry.cylinder_cell_index")
        self._span(cli, "main", "cli.main")
        self._span(cli, "run_bta", "dtrp.run_bta", self._dtrp_stats)
        self._span(cli, "run_cca", "dtrp.run_cca", self._dtrp_stats)
        self._span(dtrp, "tune_policy", "dtrp.tune_policy")
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _add(self, name, k):
        self.counts[name] += k

    def _dtrp_stats(self, args, stats):
        dim = len(args[0].dims)
        self._add("dtrp.arrivals", stats.served)
        self._add("dtrp.divergent_runs", int(stats.divergent))
        self._add("dtrp.cell_clamped_runs",
                  int(stats.utilization < self._x_star[dim] * (1 - 1e-9)))

    def _span(self, owner, attr, name, after=None):
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            record = [name, perf_counter(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                out = original(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _count(self, owner, attr, name):
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def layer_metrics(self, wall: float) -> dict:
        """Per-layer figures of the spans recorded, and their coverage of ``wall``."""
        total = defaultdict(float)
        calls = Counter()
        root = 0.0
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent < 0:
                root += end - start
            else:
                total[self.spans[parent][0]] -= end - start
        out = {m: total[s] for m, s in SELF_TIMES.items()}
        out.update({m: calls[s] for m, s in CALLS.items()})
        out.update({m: self.counts[m] for m in COUNTERS})
        out["bench.uncovered_frac"] = max(0.0, 1.0 - root / wall)
        return out
