"""The benchmark's workloads: inputs made from a seed, one timed job, checks.

Each workload is three functions:

* ``inputs(seed, tiny, tmp)`` builds everything the job needs, untimed;
* ``job(inp)`` makes only the calls into ditsp's public functions and is the
  timed region;
* ``evaluate(inp, out)`` checks the outputs, untimed, and returns an
  :class:`Outcome`.

Jobs look every ditsp function up through its module at call time
(``harness.run_experiment``, not an imported name), so that the traced run
can wrap them from outside the program.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from ditsp import bounds, cli, harness, planners
from ditsp.etsp import PointSet
from ditsp.vehicle import VehicleParams

UNIT = VehicleParams(r_vel=1.0, r_ctr=1.0)   # stop-go-stop, as in criterion 6
SLOW = VehicleParams(r_vel=0.1, r_ctr=1.0)   # rec_bta, as in criteria 4, 5, 9
P3D = VehicleParams(r_vel=0.3, r_ctr=1.0)    # rec_cca, as in criterion 6

# uniform sgs tour length over sqrt(n*A): the seed commit gives about 0.79 and
# the nearest-neighbour walk without 2-opt 0.91, so a 2-opt that stops early
# leaves this window; BHH's asymptote is about 0.7124
TOUR_LEN_WINDOW = (0.70, 0.85)
SGS_SLOPE_MAX = 0.80                          # criterion 6
HOTSPOT_LAYOUT = 0                            # seed of the hotspot centres

SIZES = {
    "full": {
        "sgs_ns": (1000, 2000, 4000), "sgs_seeds": 3, "grid_n": 4000,
        "uniform_n": 150_000,
        "clustered_n": 7_000, "hotspots": 20, "sigma": 0.02,
        "lams": (20.0, 40.0), "horizons": (200, 2000), "dtrp_seeds": 3,
    },
    "tiny": {
        "sgs_ns": (100, 200, 400), "sgs_seeds": 2, "grid_n": 400,
        "uniform_n": 2000,
        "clustered_n": 600, "hotspots": 5, "sigma": 0.02,
        "lams": (20.0, 40.0), "horizons": (10, 20), "dtrp_seeds": 2,
    },
}


@dataclass
class Outcome:
    """What one job produced, reduced to the numbers the benchmark reports."""

    rows: list                       # result rows; their digest is reported
    targets: int                     # targets planned or served
    bound_ratio: float               # geometric mean of result / lower bound
    checks: list = field(default_factory=list)   # (name, passed)
    extra: dict = field(default_factory=dict)    # workload-specific figures

    @property
    def digest(self) -> str:
        """sha256 of the rows, floats written with ``repr``."""
        h = hashlib.sha256()
        for row in self.rows:
            h.update(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row).encode())
            h.update(b"\n")
        return h.hexdigest()


def _finite_positive(x) -> bool:
    return math.isfinite(x) and x > 0


def _geomean(values) -> float:
    # DTRP ratios span 10 to 1e6 across policies and rates; a geometric mean
    # lets each result weigh the same
    return float(np.exp(np.mean(np.log(values))))


def _is_permutation(order, n) -> bool:
    return len(order) == n and np.array_equal(np.sort(order), np.arange(n))


# -- sgs-scaling -------------------------------------------------------------

def sgs_inputs(seed, tiny, tmp):
    size = SIZES["tiny" if tiny else "full"]
    sgs = harness.ExperimentConfig(
        algo="sgs", dims=(1.0, 1.0), params=UNIT, ns=size["sgs_ns"],
        n_seeds=size["sgs_seeds"], master_seed=seed, workers=1)
    grid = harness.ExperimentConfig(
        algo="sgs_grid", dims=(1.0, 1.0), params=UNIT, ns=(size["grid_n"],),
        n_seeds=1, master_seed=seed, workers=1)
    return {"sgs": sgs, "grid": grid, "csv": tmp / "sgs.csv"}


def sgs_job(inp):
    results = harness.run_experiment(inp["sgs"])
    results += harness.run_experiment(inp["grid"])
    fit = harness.fit_experiment([r for r in results if r.algo == "sgs"])
    harness.write_tour_csv(results, inp["csv"])
    return results, fit


def sgs_evaluate(inp, out):
    results, fit = out
    with open(inp["csv"], newline="") as fh:
        rows = [tuple(r) for r in csv.reader(fh)]
    rows.append(("fit", fit.slope, fit.intercept, fit.r_squared))
    uniform = [r for r in results if r.algo == "sgs"]
    len_ratio = float(np.mean([r.total_length / math.sqrt(r.n)
                               for r in uniform]))
    time_ratio = _geomean([
        r.total_time / bounds.tour_lower_2d(1.0, 1.0, UNIT, r.n)
        for r in results])
    want = len(inp["sgs"].ns) * inp["sgs"].n_seeds + 1
    lo, hi = TOUR_LEN_WINDOW
    checks = [
        ("all trials returned", len(results) == want),
        ("totals finite and positive",
         all(_finite_positive(r.total_time) and _finite_positive(r.total_length)
             for r in results)),
        ("sgs leaves no leftovers",
         all(r.leftover_after_phases == 0 for r in results)),
        (f"uniform sgs slope {fit.slope:.3f} <= {SGS_SLOPE_MAX}",
         fit.slope <= SGS_SLOPE_MAX),
        (f"tour length ratio {len_ratio:.4f} in [{lo}, {hi}]",
         lo <= len_ratio <= hi),
    ]
    return Outcome(rows=rows, targets=sum(r.n for r in results),
                   bound_ratio=time_ratio, checks=checks,
                   extra={"tour_len_ratio": len_ratio, "sgs_slope": fit.slope})


# -- sweeps ------------------------------------------------------------------

def _clustered_points(rng, n, d, hotspots, sigma):
    # one fixed layout of hotspots, so that the seed varies only the points:
    # with centres drawn from the seed, rec_cca's total_time moved 7% from
    # seed to seed, with this layout 1%
    centers = np.random.default_rng([HOTSPOT_LAYOUT, d]).uniform(
        size=(hotspots, d))
    pick = rng.integers(hotspots, size=n)
    pts = centers[pick] + rng.normal(scale=sigma, size=(n, d))
    return np.clip(pts, 0.0, 1.0)


def sweeps_inputs(seed, tiny, tmp):
    """(label, planner, points): rec_bta in 2D and rec_cca in 3D, each on
    uniform points and on points around hotspots."""
    size = SIZES["tiny" if tiny else "full"]
    uniform = np.random.default_rng([seed, 0])
    clustered = np.random.default_rng([seed, 1])
    n, m = size["uniform_n"], size["clustered_n"]
    hot = lambda d: _clustered_points(clustered, m, d, size["hotspots"],
                                      size["sigma"])
    return [
        ("uniform", "rec_bta", PointSet(points=uniform.uniform(size=(n, 2)))),
        ("uniform", "rec_cca", PointSet(points=uniform.uniform(size=(n, 3)))),
        ("clustered", "rec_bta", PointSet(points=hot(2))),
        ("clustered", "rec_cca", PointSet(points=hot(3))),
    ]


def sweeps_job(inp):
    return [planners.rec_bta(pset, SLOW) if algo == "rec_bta"
            else planners.rec_cca(pset, P3D) for _, algo, pset in inp]


def sweeps_evaluate(inp, out):
    rows, checks, ratios, targets, extra = [], [], [], 0, {}
    for (label, algo, pset), (tour, reports) in zip(inp, out):
        n = pset.n
        total_time, total_length = tour.total_time, tour.total_length
        if algo == "rec_bta":
            lower = bounds.tour_lower_2d(1.0, 1.0, SLOW, n)
        else:
            lower = bounds.tour_lower_3d(1.0, 1.0, 1.0, P3D, n)
        ratios.append(total_time / lower)
        targets += n
        extra[f"{label} {algo} leftover_after_phases"] = \
            reports[-1].leftover_after
        order = np.asarray(tour.visit_order)
        rows.append((label, algo, n, total_time, total_length,
                     reports[-1].leftover_after, len(reports),
                     hashlib.sha256(order.astype(np.int64).tobytes()).hexdigest()))
        rows.extend((label, algo, r.phase, r.subphase, r.meta_size,
                     r.cells_traversed, r.served, r.leftover_after, r.length)
                    for r in reports)
        checks += [
            (f"{label} {algo} visit_order is a permutation of range(n)",
             _is_permutation(order, n)),
            (f"{label} {algo} totals finite and positive",
             _finite_positive(total_time) and _finite_positive(total_length)),
        ]
    return Outcome(rows=rows, targets=targets, bound_ratio=_geomean(ratios),
                   checks=checks, extra=extra)


# -- dtrp-sweep --------------------------------------------------------------

def dtrp_inputs(seed, tiny, tmp):
    size = SIZES["tiny" if tiny else "full"]
    runs = []
    for policy, dim_args in (("bta", ["--dim", "2"]),
                             ("cca", ["--dim", "3", "--D", "1"])):
        for lam in size["lams"]:
            for horizon in size["horizons"]:
                out = tmp / f"dtrp_{policy}_{lam:g}_{horizon}.csv"
                argv = ["dtrp", "--policy", policy, *dim_args,
                        "--lambda", repr(lam), "--horizon", str(horizon),
                        "--seeds", str(size["dtrp_seeds"]),
                        "--seed", str(seed), "--out", str(out)]
                runs.append((f"{policy} lambda {lam:g} horizon {horizon}",
                             policy, lam, argv, out))
    return runs


def dtrp_job(inp):
    return [cli.main(argv) for _, _, _, argv, _ in inp]


def dtrp_evaluate(inp, out):
    # the CLI's default vehicle (r_vel = 0.1, r_ctr = 1) is SLOW
    lower = {"bta": bounds.dtrp_lower(2, (1.0, 1.0), SLOW),
             "cca": bounds.dtrp_lower(3, (1.0, 1.0, 1.0), SLOW)}
    power = {"bta": 2, "cca": 4}
    lo2 = 0.5 * lower["bta"]
    hi2 = 1.5 * bounds.dtrp_upper(2, (1.0, 1.0), SLOW)
    rows, ratios, checks, served = [], [], [], 0
    for (label, policy, lam, _, path), code in zip(inp, out):
        with open(path, newline="") as fh:
            table = list(csv.DictReader(fh))
        rows.extend(tuple(r.values()) for r in table)
        checks.append((f"ditsp dtrp {label} exits 0", code == 0))
        for r in table:
            t = float(r["mean_system_time"])
            served += int(r["served"])
            ratios.append(t / (lower[policy] * lam ** power[policy]))
            checks.append((f"{label} divergent_flag is 0",
                           r["divergent_flag"] == "0"))
            checks.append((f"{label} system time finite and positive",
                           _finite_positive(t)))
            if policy == "bta":
                checks.append((f"{label} T/lambda^2 in criterion 9's window",
                               lo2 <= t / lam**2 <= hi2))
    return Outcome(rows=rows, targets=served,
                   bound_ratio=_geomean(ratios), checks=checks)


@dataclass(frozen=True)
class Workload:
    inputs: object
    job: object
    evaluate: object


WORKLOADS = {
    "sgs-scaling": Workload(sgs_inputs, sgs_job, sgs_evaluate),
    "sweeps": Workload(sweeps_inputs, sweeps_job, sweeps_evaluate),
    "dtrp-sweep": Workload(dtrp_inputs, dtrp_job, dtrp_evaluate),
}


def warm_up(tmp):
    """One call of each entry point on a tiny input."""
    cfg = harness.ExperimentConfig(algo="sgs", dims=(1.0, 1.0), params=UNIT,
                                   ns=(20, 40), n_seeds=1)
    results = harness.run_experiment(cfg)
    harness.fit_experiment(results)
    harness.write_tour_csv(results, tmp / "warm_up.csv")
    pts = np.random.default_rng(0).uniform(size=(50, 3))
    planners.rec_bta(PointSet(points=pts[:, :2]), SLOW)
    planners.rec_cca(PointSet(points=pts), P3D)
    for policy, dim_args in (("bta", ["--dim", "2"]),
                             ("cca", ["--dim", "3", "--D", "1"])):
        cli.main(["dtrp", "--policy", policy, *dim_args, "--horizon", "5",
                  "--out", str(tmp / "warm_up_dtrp.csv")])
