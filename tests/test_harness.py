"""Sampling, scaling fits, CSV output, and worker-count reproducibility."""

import numpy as np
import pytest
from scipy import stats as sstats

from ditsp.harness import (ExperimentConfig, FitResult, fit_experiment,
                           fit_scaling, run_experiment, run_trial,
                           sample_uniform, write_tour_csv)
from ditsp.rng import substream
from ditsp.vehicle import VehicleParams

SLOW = VehicleParams(r_vel=0.1, r_ctr=1.0)


def test_sample_uniform_moments():
    rng = substream(17, 0)
    pts = sample_uniform(10**5, (1.0, 1.0), rng)
    assert pts.shape == (10**5, 2)
    # CLT: per-axis mean within 0.5 +- 0.005 (about 5.5 sigma)
    assert abs(pts[:, 0].mean() - 0.5) < 0.005
    assert abs(pts[:, 1].mean() - 0.5) < 0.005


def test_sample_uniform_chi_square_grid():
    rng = substream(17, 1)
    pts = sample_uniform(10**5, (1.0, 1.0), rng)
    ix = np.minimum((pts[:, 0] * 10).astype(int), 9)
    iy = np.minimum((pts[:, 1] * 10).astype(int), 9)
    counts = np.bincount(ix * 10 + iy, minlength=100)
    chi2 = ((counts - 1000.0) ** 2 / 1000.0).sum()
    # 99 degrees of freedom; reject only below the 0.01 tail
    assert chi2 < sstats.chi2.ppf(0.99, 99)


def test_sample_uniform_respects_box():
    rng = substream(17, 2)
    pts = sample_uniform(1000, (2.0, 0.5, 0.25), rng)
    assert pts.shape == (1000, 3)
    assert np.all(pts >= 0) and np.all(pts <= [2.0, 0.5, 0.25])


def test_fit_scaling_exact_power_law():
    ns = [10**3, 10**4, 10**5]
    vals = [3.0 * n ** (2.0 / 3.0) for n in ns]
    fit = fit_scaling(ns, vals)
    assert isinstance(fit, FitResult)
    assert fit.slope == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_scaling([10], [1.0])


def test_run_trial_deterministic():
    cfg = ExperimentConfig(algo="rec_bta", dims=(1.0, 1.0), params=SLOW,
                           ns=(500,), n_seeds=1, master_seed=4)
    a = run_trial(cfg, 500, 0)
    b = run_trial(cfg, 500, 0)
    assert a == b
    c = run_trial(cfg, 500, 1)
    assert c.seed == 1


def test_experiment_reproducible_across_worker_counts(tmp_path):
    cfg1 = ExperimentConfig(algo="sgs", dims=(1.0, 1.0), params=SLOW,
                            ns=(100, 300), n_seeds=3, master_seed=9, workers=1)
    cfg4 = ExperimentConfig(algo="sgs", dims=(1.0, 1.0), params=SLOW,
                            ns=(100, 300), n_seeds=3, master_seed=9, workers=4)
    r1 = run_experiment(cfg1)
    r4 = run_experiment(cfg4)
    assert r1 == r4
    p1, p4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
    write_tour_csv(r1, p1)
    write_tour_csv(r4, p4)
    assert p1.read_bytes() == p4.read_bytes()


class _RecordingPool:
    """Stands in for the process pool: records its size, maps in process."""

    sizes: list = []

    def __init__(self, max_workers):
        _RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.mark.parametrize("workers, ns, n_seeds, sizes", [
    (8, (100,), 2, [2]), (3, (100, 200), 2, [3]), (8, (100,), 1, []),
    (1, (100, 200), 2, [])])
def test_pool_has_at_most_one_worker_per_trial(monkeypatch, workers, ns,
                                               n_seeds, sizes):
    # a fork pool starts every worker at once, however few the trials
    monkeypatch.setattr("ditsp.harness.ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    cfg = ExperimentConfig(algo="sgs", dims=(1.0, 1.0), params=SLOW, ns=ns,
                           n_seeds=n_seeds, master_seed=9, workers=workers)
    results = run_experiment(cfg)
    assert _RecordingPool.sizes == sizes
    assert results == [run_trial(cfg, n, seed)
                       for n in ns for seed in range(n_seeds)]


def test_fit_experiment_on_results():
    cfg = ExperimentConfig(algo="rec_bta", dims=(1.0, 1.0), params=SLOW,
                           ns=(1000, 4000, 16000), n_seeds=2, master_seed=2)
    results = run_experiment(cfg)
    assert len(results) == 6
    fit = fit_experiment(results)
    assert 0.3 < fit.slope < 1.0


def test_csv_header_and_rows(tmp_path):
    cfg = ExperimentConfig(algo="sgs_grid", dims=(1.0, 1.0), params=SLOW,
                           ns=(64,), n_seeds=2, master_seed=0)
    results = run_experiment(cfg)
    path = tmp_path / "out.csv"
    write_tour_csv(results, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("algo,n,seed,total_time,total_length,"
                       "leftover_after_phases,phase_count")
    assert len(lines) == 3
    assert lines[1].startswith("sgs_grid,64,0,")


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(algo="nope", dims=(1.0, 1.0), params=SLOW,
                         ns=(10,), n_seeds=1)
    with pytest.raises(ValueError):
        ExperimentConfig(algo="rec_cca", dims=(1.0, 1.0), params=SLOW,
                         ns=(10,), n_seeds=1)
    for ns in ((0,), (10, -5)):
        with pytest.raises(ValueError, match=f"n must be >= 1, got {min(ns)}"):
            ExperimentConfig(algo="sgs", dims=(1.0, 1.0), params=SLOW, ns=ns,
                             n_seeds=1)
    for n_seeds in (0, -2):
        with pytest.raises(ValueError,
                           match=f"n_seeds must be >= 1, got {n_seeds}"):
            ExperimentConfig(algo="sgs", dims=(1.0, 1.0), params=SLOW,
                             ns=(10,), n_seeds=n_seeds)
    for workers in (0, -3):
        with pytest.raises(ValueError,
                           match=f"workers must be >= 1, got {workers}"):
            ExperimentConfig(algo="sgs", dims=(1.0, 1.0), params=SLOW,
                             ns=(10,), n_seeds=1, workers=workers)


@pytest.mark.parametrize("dims", [(float("nan"), 1.0), (1.0, -1.0),
                                  (1.0, float("inf"))])
def test_config_rejects_bad_dims(dims):
    with pytest.raises(ValueError, match="dims"):
        ExperimentConfig(algo="sgs", dims=dims, params=SLOW, ns=(10,),
                         n_seeds=1)


@pytest.mark.parametrize("algo, dims", [("rec_bta", (0.5, 1.0)),
                                        ("rec_cca", (1.0, 1.0, 2.0)),
                                        ("rec_cca", (1.0, 0.5, 0.7))])
def test_config_rejects_unordered_dims_for_sweeps(algo, dims):
    with pytest.raises(ValueError, match="dims must satisfy W >= H"):
        ExperimentConfig(algo=algo, dims=dims, params=SLOW, ns=(10,), n_seeds=1)


def test_config_accepts_equal_dims_and_any_order_for_sgs():
    for algo in ("sgs", "sgs_grid"):
        ExperimentConfig(algo=algo, dims=(0.5, 1.0), params=SLOW, ns=(10,),
                         n_seeds=1)
    ExperimentConfig(algo="rec_cca", dims=(1.0, 1.0, 1.0), params=SLOW,
                     ns=(10,), n_seeds=1)
