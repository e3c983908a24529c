"""Monte Carlo scaling experiments: run tours over a grid of (n, seed),
emit CSV, and fit log-log growth exponents.

Every trial draws from its own counter-based stream keyed by (master seed,
n, seed), and results are sorted by (n, seed) before use, so output is
bitwise identical for any worker count.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass

import numpy as np

from ditsp import planners
from ditsp.etsp import PointSet, worst_case_grid
from ditsp.planners import stop_go_stop
from ditsp.rng import substream
from ditsp.vehicle import VehicleParams

TOUR_CSV_FIELDS = ("algo", "n", "seed", "total_time", "total_length",
                   "leftover_after_phases", "phase_count")
ALGOS = ("sgs", "sgs_grid", "rec_bta", "rec_cca")


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep of one tour algorithm over target counts and seeds."""

    algo: str
    dims: tuple
    params: VehicleParams
    ns: tuple
    n_seeds: int
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.algo not in ALGOS:
            raise ValueError(f"algo must be one of {ALGOS}")
        if min(self.ns, default=1) < 1:
            raise ValueError(f"n must be >= 1, got {min(self.ns)}")
        if self.n_seeds < 1:
            raise ValueError(f"n_seeds must be >= 1, got {self.n_seeds}")
        want = 3 if self.algo == "rec_cca" else 2
        if len(self.dims) != want:
            raise ValueError(f"{self.algo} needs {want} workspace dimensions")
        if not all(math.isfinite(d) and d > 0 for d in self.dims):
            raise ValueError(f"dims must be finite and positive, got {self.dims}")
        # the cell grids run their rows along the longest side
        if self.algo.startswith("rec_") and list(self.dims) != sorted(self.dims)[::-1]:
            raise ValueError(f"dims must satisfy W >= H (>= D) for {self.algo}, "
                             f"got {self.dims}")


@dataclass(frozen=True)
class TrialResult:
    algo: str
    n: int
    seed: int
    total_time: float
    total_length: float
    leftover_after_phases: int
    phase_count: int


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit of log(value) against log(n)."""

    slope: float
    intercept: float
    r_squared: float
    n_points: int


def sample_uniform(n: int, dims: tuple, rng: np.random.Generator) -> np.ndarray:
    """n points uniform over the axis-aligned box with the given side lengths."""
    return rng.uniform(size=(n, len(dims))) * np.asarray(dims, dtype=float)


def run_trial(config: ExperimentConfig, n: int, seed: int) -> TrialResult:
    """One tour instance; deterministic given (master_seed, n, seed)."""
    rng = substream(config.master_seed, n, seed)
    dims = config.dims
    params = config.params
    if config.algo == "sgs_grid":
        pset = worst_case_grid(n, len(dims), *dims)
    else:
        pset = PointSet(points=sample_uniform(n, dims, rng))

    # the sweep planners are looked up on their module at each call, so a
    # wrapper set there (perfbench's tracer) sees these trials too
    if config.algo in ("sgs", "sgs_grid"):
        tour, reports = stop_go_stop(pset, params, seed=seed), []
    elif config.algo == "rec_bta":
        tour, reports = planners.rec_bta(pset, params, *dims)
    else:
        tour, reports = planners.rec_cca(pset, params, *dims)
    leftover = reports[-1].leftover_after if reports else 0
    return TrialResult(algo=config.algo, n=n, seed=seed,
                       total_time=tour.total_time,
                       total_length=tour.total_length,
                       leftover_after_phases=leftover, phase_count=len(reports))


def run_experiment(config: ExperimentConfig) -> list:
    """All (n, seed) trials, sorted by (n, seed)."""
    jobs = [(config, n, seed)
            for n in config.ns for seed in range(config.n_seeds)]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(run_trial, *zip(*jobs), chunksize=1))
    else:
        results = [run_trial(*j) for j in jobs]
    results.sort(key=lambda r: (r.n, r.seed))
    return results


def fit_scaling(ns, values) -> FitResult:
    """Fit slope of log(value) vs log(n) by ordinary least squares."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    if len(x) < 2:
        raise ValueError("need at least two points to fit a slope")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return FitResult(slope=float(slope), intercept=float(intercept),
                     r_squared=r2, n_points=len(x))


def fit_experiment(results) -> FitResult:
    """Fit the growth exponent of mean total time per n."""
    ns = sorted({r.n for r in results})
    means = [float(np.mean([r.total_time for r in results if r.n == n]))
             for n in ns]
    return fit_scaling(ns, means)


def write_tour_csv(results, path):
    """Emit trial rows with the standard tour header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TOUR_CSV_FIELDS)
        writer.writerows(astuple(r) for r in results)
