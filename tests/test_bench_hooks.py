"""The benchmark's tracer and the layer tools still find every program name
they wrap.

``perfbench/layers.py`` wraps public ditsp names from outside the package
(``planners.rec_bta``, ``planners.ell_for_n``, ``harness.stop_go_stop``, ...)
and reads ``Tour.segments`` and the order ``greedy_cleanup`` returns.  A
rename would otherwise show only when the benchmark runs; here it fails a
tiny traced run of each sweep planner and of one stop-go-stop trial.
``tools/sweep_layers.py`` times the sweep planners' layers by the names in
its ``LAYERS`` table, which must resolve too, and every tool must load: some
import private ditsp names when they load.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # for perfbench

from ditsp import harness, planners  # noqa: E402
from ditsp.etsp import PointSet  # noqa: E402
from ditsp.rng import substream  # noqa: E402
from ditsp.vehicle import VehicleParams  # noqa: E402
from perfbench.layers import Tracer  # noqa: E402


def _clustered(n, d):
    # four tight hotspots, so that the sweeps leave targets to the cleanup
    rng = substream(61, d)
    centers = rng.uniform(size=(4, d))
    pts = centers[rng.integers(4, size=n)] + rng.normal(scale=0.01, size=(n, d))
    return PointSet(points=np.clip(pts, 0.0, 1.0))


def test_tracer_fills_planner_counters_and_spans():
    sgs = harness.ExperimentConfig(algo="sgs", dims=(1.0, 1.0),
                                   params=VehicleParams(1.0, 1.0), ns=(40,),
                                   n_seeds=1)
    with Tracer() as tracer:
        planners.rec_bta(_clustered(300, 2), VehicleParams(0.1, 1.0))
        planners.rec_cca(_clustered(300, 3), VehicleParams(0.3, 1.0))
        harness.run_trial(sgs, 40, 0)
    for name in ("planners.segments", "planners.leftover_targets",
                 "vehicle.stop_go_time_calls"):
        assert tracer.counts[name] > 0, name
    spans = {span[0] for span in tracer.spans}
    assert {"geometry.ell_for_n", "planners.rec_bta", "planners.rec_cca",
            "planners.greedy_cleanup", "planners.stop_go_stop",
            "etsp.etsp_tour"} <= spans


def test_traced_run_trial_records_sweep_planner_spans():
    # harness calls the sweep planners through the module, so the tracer's
    # wrappers on planners.rec_bta and planners.rec_cca see its trials
    configs = [harness.ExperimentConfig(algo=algo, dims=dims,
                                        params=VehicleParams(r_vel, 1.0),
                                        ns=(300,), n_seeds=1)
               for algo, dims, r_vel in (("rec_bta", (1.0, 1.0), 0.1),
                                         ("rec_cca", (1.0, 1.0, 1.0), 0.3))]
    with Tracer() as tracer:
        for config in configs:
            harness.run_trial(config, 300, 0)
    spans = {span[0] for span in tracer.spans}
    assert {"harness.run_trial", "planners.rec_bta",
            "planners.rec_cca"} <= spans
    assert tracer.counts["planners.segments"] > 0


TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(tool):
    spec = importlib.util.spec_from_file_location(tool.stem, tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_layers_tool_names_resolve():
    sweep_layers = _load(TOOLS / "sweep_layers.py")
    for layer, targets in sweep_layers.LAYERS.items():
        for owner, attr in targets:
            assert callable(getattr(owner, attr, None)), (layer, attr)


def test_every_tool_loads():
    # each tool's imports, private ditsp names among them, resolve; a
    # rename would otherwise show only when the tool runs
    tools = sorted(TOOLS.glob("*.py"))
    assert len(tools) >= 6
    for tool in tools:
        assert callable(_load(tool).main), tool.name
