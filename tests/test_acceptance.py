"""Acceptance suite: one test per criterion, each reporting a pass/fail line.

Heavy Monte Carlo artifacts (large tour batches, scaling sweeps) are computed
once per session and shared between criteria.
"""

import math

import numpy as np
import pytest
from oracles import sample_in_bead, simulate_md1

from ditsp.bounds import dtrp_lower, dtrp_upper, tour_lower_2d, tour_upper_2d
from ditsp.dtrp import DtrpConfig, md1_system_time, run_bta, tune_policy
from ditsp.etsp import PointSet
from ditsp.geometry import BeadGrid, BeadSpec, bead_area, bead_width, ell_for_n
from ditsp.harness import (ExperimentConfig, fit_experiment, run_experiment,
                           write_tour_csv)
from ditsp.planners import rec_bta, stop_go_stop
from ditsp.rng import substream
from ditsp.vehicle import VehicleParams, stop_go_time

SLOW = VehicleParams(r_vel=0.1, r_ctr=1.0)
UNIT = VehicleParams(r_vel=1.0, r_ctr=1.0)
P3D = VehicleParams(r_vel=0.3, r_ctr=1.0)

NS = (10**3, 10**4, 10**5)


def _check(report, num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}"
    report(line)
    assert ok, line


@pytest.fixture(scope="module")
def recbta_batches():
    """rec_bta tours on the unit square, r_vel=0.1: 50 seeds per n in NS."""
    out = {}
    for n in NS:
        rows = []
        for seed in range(50):
            rng = substream(1000, n, seed)
            ps = PointSet(points=rng.uniform(size=(n, 2)))
            tour, reports = rec_bta(ps, SLOW)
            rows.append((tour.total_time, reports[-1].leftover_after))
        out[n] = rows
    return out


def test_criterion_1_geometry_audit(criterion_report):
    ok_exact = abs(bead_width(1.0, 4.0) - 4.0) < 1e-12
    w_small = bead_width(1.0, 0.1)
    ok_series = abs(w_small - 0.1**2 / 8.0) / (0.1**2 / 8.0) < 0.01
    # Monte Carlo area at ell/rho = 0.5 with 1e6 samples
    spec = BeadSpec.create(1.0, 0.5)
    rng = substream(1001, 0)
    x = rng.uniform(-spec.ell / 2, spec.ell / 2, size=10**6)
    y = rng.uniform(-spec.w / 2, spec.w / 2, size=10**6)
    inside = np.abs(x) / (spec.ell / 2) + np.abs(y) / (spec.w / 2) <= 1.0
    mc_area = inside.mean() * spec.ell * spec.w
    ok_area = abs(mc_area - bead_area(spec)) / bead_area(spec) < 0.01
    # tiling coverage of 1e5 uniform points
    gspec = BeadSpec.create(0.01, 0.02)
    grid = BeadGrid(1.0, 1.0, gspec)
    pts = rng.uniform(size=(10**5, 2))
    rows, cols = grid.cell_index(pts)
    cx, cy = grid.cell_center(rows, cols)
    covered = (np.abs(pts[:, 0] - cx) / (gspec.ell / 2)
               + np.abs(pts[:, 1] - cy) / (gspec.w / 2)) <= 1.0 + 1e-9
    ok_cover = bool(np.all(covered))
    _check(criterion_report, 1, ok_exact and ok_series and ok_area and ok_cover,
           f"w(4rho) exact, series ok, MC area err "
           f"{abs(mc_area - bead_area(spec)) / bead_area(spec):.2e}, "
           f"coverage {covered.mean() * 100:.1f}%")


def test_criterion_2_circumradius(criterion_report):
    rng = substream(1002, 0)
    worst = np.inf
    for k in range(20):
        rho = float(rng.uniform(0.05, 2.0))
        ell = float(rng.uniform(0.05, 1.0)) * 4.0 * rho
        spec = BeadSpec.create(rho, ell)
        pts = sample_in_bead(spec, (0.0, 0.0), rng, 10**4)
        px, py = pts[:, 0], pts[:, 1]
        mask = np.abs(py) > 1e-15
        px, py = px[mask], py[mask]
        # circle through (-ell/2, 0), (px, py), (ell/2, 0): radius formula
        a = np.hypot(px + ell / 2.0, py)
        b = np.hypot(px - ell / 2.0, py)
        cross = np.abs((-ell) * py)
        radius = a * b * ell / cross
        worst = min(worst, float((radius / rho).min()))
        assert radius.min() >= 2.0 * rho - 1e-9
    _check(criterion_report, 2, worst >= 2.0 - 1e-9,
           f"min circumradius/rho over 20 specs = {worst:.6f} (need >= 2)")


def test_criterion_3_stop_go_timing(criterion_report):
    rng = substream(1003, 0)
    max_err = 0.0
    for _ in range(100):
        r_vel = float(rng.uniform(0.05, 5.0))
        r_ctr = float(rng.uniform(0.05, 5.0))
        delta = float(rng.uniform(1e-6, 10.0))
        params = VehicleParams(r_vel, r_ctr)
        sat = r_vel**2 / r_ctr
        want = (2.0 * math.sqrt(delta / r_ctr) if delta <= sat
                else r_vel / r_ctr + delta / r_vel)
        # oracle: invert the monotone reachable-distance map by bisection
        lo, hi = 0.0, 1.0

        def reach(T):
            if T <= 2.0 * r_vel / r_ctr:
                return r_ctr * T * T / 4.0
            return r_vel * (T - r_vel / r_ctr)

        while reach(hi) < delta:
            hi *= 2.0
        for _b in range(200):
            mid = 0.5 * (lo + hi)
            if reach(mid) < delta:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        got = stop_go_time(delta, params)
        max_err = max(max_err, abs(got - oracle) / oracle)
        assert abs(got - want) < 1e-12 * max(1.0, want)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    square = stop_go_stop(PointSet(points=pts), UNIT).total_time
    ok = max_err <= 1e-9 and abs(square - 8.0) < 1e-9
    _check(criterion_report, 3, ok,
           f"max rel err vs oracle {max_err:.2e}, square tour {square:.12f}")


def test_criterion_4_leftover(criterion_report, recbta_batches):
    fracs = []
    for n in NS:
        bound = 24.0 * math.log2(n)
        good = sum(1 for _, left in recbta_batches[n] if left <= bound)
        fracs.append(good / len(recbta_batches[n]))
    ok = all(f >= 0.95 for f in fracs)
    _check(criterion_report, 4, ok,
           "P(leftover <= 24 log2 n) per n = "
           + ", ".join(f"{f:.2f}" for f in fracs))


def test_criterion_5_recbta_constant(criterion_report, recbta_batches):
    n = 10**5
    mean_t = float(np.mean([t for t, _ in recbta_batches[n]]))
    scaled = mean_t / n ** (2.0 / 3.0)
    upper = tour_upper_2d(1.0, 1.0, SLOW, n) / n ** (2.0 / 3.0)
    lower = 0.9 * tour_lower_2d(1.0, 1.0, SLOW, n) / n ** (2.0 / 3.0)
    ok = lower <= scaled <= upper
    _check(criterion_report, 5, ok,
           f"time/n^(2/3) = {scaled:.2f} in [{lower:.2f}, {upper:.2f}]")


@pytest.fixture(scope="module")
def scaling_fits():
    # two workers: the trials do not depend on the worker count (criterion
    # 11), and the n = 1e5 tours, nearly all of the time, run two at a time
    fits = {}
    cfgs = {
        "rec_bta": ExperimentConfig(algo="rec_bta", dims=(1.0, 1.0),
                                    params=SLOW, ns=NS, n_seeds=10,
                                    master_seed=1006, workers=2),
        "rec_cca": ExperimentConfig(algo="rec_cca", dims=(1.0, 1.0, 1.0),
                                    params=P3D, ns=NS, n_seeds=5,
                                    master_seed=1006, workers=2),
        "sgs": ExperimentConfig(algo="sgs", dims=(1.0, 1.0), params=UNIT,
                                ns=NS, n_seeds=3, master_seed=1006,
                                workers=2),
        "sgs_grid": ExperimentConfig(algo="sgs_grid", dims=(1.0, 1.0),
                                     params=UNIT, ns=NS, n_seeds=2,
                                     master_seed=1006, workers=2),
    }
    for name, cfg in cfgs.items():
        fits[name] = fit_experiment(run_experiment(cfg))
    return fits


def test_criterion_6_scaling_slopes(criterion_report, scaling_fits):
    s = {k: f.slope for k, f in scaling_fits.items()}
    ok = (0.60 <= s["rec_bta"] <= 0.74 and 0.72 <= s["rec_cca"] <= 0.88
          and s["sgs"] <= 0.80 and s["sgs_grid"] >= 0.45)
    _check(criterion_report, 6, ok,
           f"slopes rec_bta {s['rec_bta']:.3f} [0.60,0.74], "
           f"rec_cca {s['rec_cca']:.3f} [0.72,0.88], "
           f"sgs {s['sgs']:.3f} <=0.80, sgs_grid {s['sgs_grid']:.3f} >=0.45")


def test_criterion_7_phase_lengths(criterion_report):
    # even phases no longer than twice the next odd phase, 20 seeds at n=1e4
    even_ok = True
    for seed in range(20):
        rng = substream(1007, seed)
        ps = PointSet(points=rng.uniform(size=(10**4, 2)))
        _, reports = rec_bta(ps, SLOW)
        lengths = [r.length for r in reports]
        for j in range(1, len(lengths) - 1, 2):  # 0-based: phases 2, 4, ...
            even_ok &= lengths[j] <= 2.0 * lengths[j + 1] * (1 + 1e-12)
    # first-phase length within 1.1x of its closed-form bound at ell/rho <= 0.2
    n = 10**4
    rho = UNIT.turn_radius
    ell, _ = ell_for_n(1.0, 1.0, rho, n)
    assert ell / rho <= 0.2
    rng = substream(1007, 99)
    ps = PointSet(points=rng.uniform(size=(n, 2)))
    _, reports = rec_bta(ps, UNIT)
    l1 = reports[0].length
    bound = (16.0 * rho / ell**2) * (1.0 + 7.0 * math.pi * rho / 3.0)
    ratio = l1 / bound
    ok = even_ok and ratio <= 1.1
    _check(criterion_report, 7, ok,
           f"even<=2*odd {'ok' if even_ok else 'violated'}, "
           f"L1/bound = {ratio:.3f} (<= 1.1)")


def test_criterion_8_md1_oracle(criterion_report):
    got = simulate_md1(0.5, 1.0, 10**6, seed=1008, warmup=10**4)
    want = md1_system_time(0.5, 1.0)
    err = abs(got - want) / want
    _check(criterion_report, 8, err <= 0.02,
           f"simulated {got:.4f} vs closed form {want:.4f} (err {err:.2%})")


def test_criterion_9_dtrp_sandwich(criterion_report):
    lo = 0.5 * dtrp_lower(2, (1.0, 1.0), SLOW)
    hi = 1.5 * dtrp_upper(2, (1.0, 1.0), SLOW)
    stable = True
    resid_ok = True
    ratios = []
    for lam in (20.0, 40.0):
        for seed in range(10):
            cfg = DtrpConfig(dims=(1.0, 1.0), params=SLOW, lam=lam,
                             n_slots=200, n_sample_cells=500, seed=seed)
            st = run_bta(cfg)
            stable &= not st.divergent
            resid_ok &= st.little_residual <= 0.15
            ratios.append(st.mean_system_time / lam**2)
    in_window = all(lo <= r <= hi for r in ratios)
    ok = stable and resid_ok and in_window
    _check(criterion_report, 9, ok,
           f"T/lam^2 in [{min(ratios):.0f}, {max(ratios):.0f}] vs window "
           f"[{lo:.1f}, {hi:.1f}]; stable={stable}, little_ok={resid_ok}")


def test_criterion_10_tuning(criterion_report):
    t = tune_policy(2)
    x_want = (7.0 - math.sqrt(17.0)) / 4.0
    ok = (abs(t.x_star - x_want) <= 1e-6
          and abs(t.coefficient - 70.5) <= 0.1
          and not t.printed_consistent)
    _check(criterion_report, 10, ok,
           f"x* = {t.x_star:.8f} (target {x_want:.8f}), coeff "
           f"{t.coefficient:.3f}; printed C={t.c_printed} flagged "
           f"inconsistent (implies coeff {t.coefficient_at_printed:.1f})")


def test_criterion_11_reproducibility(criterion_report, tmp_path):
    mk = lambda w: ExperimentConfig(algo="rec_bta", dims=(1.0, 1.0),
                                    params=SLOW, ns=(500, 2000), n_seeds=4,
                                    master_seed=1011, workers=w)
    p1 = tmp_path / "w1.csv"
    p8 = tmp_path / "w8.csv"
    write_tour_csv(run_experiment(mk(1)), p1)
    write_tour_csv(run_experiment(mk(8)), p8)
    ok = p1.read_bytes() == p8.read_bytes()
    _check(criterion_report, 11, ok,
           f"CSV bitwise identical for 1 vs 8 workers: {ok}")
