"""Repair-policy tuning, queue oracles, and the sampled-cell simulator."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import simulate_md1
from scipy import stats as sstats

from ditsp import dtrp
from ditsp.cli import main
from ditsp.dtrp import (DtrpConfig, X_FACTOR_3D, _simulate_cells, _size_cell,
                        md1_system_time, predicted_system_time, run_bta,
                        run_cca, tune_policy)
from ditsp.geometry import BeadSpec, CylinderGrid, bead_width
from ditsp.rng import substream
from ditsp.vehicle import VehicleParams

SLOW = VehicleParams(r_vel=0.1, r_ctr=1.0)


def test_tuning_2d_analytic_optimum():
    t = tune_policy(2)
    # d/dx of x^-2 (1 + x/(2(1-x))) vanishes at (7 - sqrt(17))/4
    assert t.x_star == (7.0 - math.sqrt(17.0)) / 4.0
    assert t.coefficient == pytest.approx(70.5, abs=0.1)
    assert not t.printed_consistent  # printed 0.5241 is not the minimizer
    assert t.coefficient_at_printed > t.coefficient + 10.0


def test_tuning_3d_consistent_with_printed():
    t = tune_policy(3)
    # d/dx of x^-4 (1 + x/(2(1-x))) vanishes at (13 - sqrt(41))/8
    assert t.x_star == (13.0 - math.sqrt(41.0)) / 8.0
    assert t.c_over_a == pytest.approx(t.x_star / X_FACTOR_3D, rel=1e-12)
    assert t.printed_consistent  # printed 0.1615 matches the minimizer
    assert t.coefficient == pytest.approx(2e7, rel=0.25)
    with pytest.raises(ValueError):
        tune_policy(4)


def test_md1_closed_form():
    # at utilization 0.5 with unit service, T = 1.5
    assert md1_system_time(0.5, 1.0) == pytest.approx(1.5, rel=1e-12)
    with pytest.raises(ValueError):
        md1_system_time(1.0, 1.0)


def test_md1_simulation_matches_formula():
    got = simulate_md1(0.5, 1.0, 10**6, seed=3, warmup=10**4)
    assert got == pytest.approx(md1_system_time(0.5, 1.0), rel=0.02)


def test_md1_simulation_low_load():
    # nearly empty queue: system time is just the service time
    got = simulate_md1(0.01, 1.0, 10**5, seed=4)
    assert got == pytest.approx(1.0, rel=0.01)


def test_size_cell_hits_target_utilization():
    cfg = DtrpConfig(dims=(1.0, 1.0), params=SLOW, lam=20.0)
    ell, period, rate, clamped = _size_cell(cfg, 0.7)
    assert rate * period == pytest.approx(0.7, rel=1e-9)
    assert 0 < ell < 4.0 * SLOW.turn_radius
    assert not clamped


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("lam", [5.0, 20.0, 40.0, 80.0])
def test_size_cell_hits_tuned_utilization_to_ulps(dim, lam):
    # the cell length is solved to neighbouring floats, so the utilization
    # lands on x* although ell is of order 1e-3
    x_star = tune_policy(dim).x_star
    cfg = DtrpConfig(dims=(1.0,) * dim, params=SLOW, lam=lam)
    _, period, rate, _ = _size_cell(cfg, x_star)
    assert rate * period == pytest.approx(x_star, rel=1e-13)


def test_size_cell_clamps_at_light_load():
    cfg = DtrpConfig(dims=(1.0, 1.0), params=SLOW, lam=1e-6)
    ell, period, rate, clamped = _size_cell(cfg, 0.7)
    assert ell == 4.0 * SLOW.turn_radius
    assert clamped
    assert rate * period < 0.7


@pytest.mark.parametrize("dims, params, lam", [
    ((1.0, 1.0, 1.0), SLOW, 20.0),
    ((2.0, 1.0, 0.5), VehicleParams(0.5, 1.0), 5.0),
])
def test_3d_period_sweeps_the_cylinder_covering(dims, params, lam):
    # one cell-enlargement cycle: 3.25 times a sweep of every row of every
    # layer of the covering, floor(2H/w + 1/2) + 2 rows per layer and
    # floor(4D/w) + 3 layers, written out without the sweep model
    W, H, D = dims
    ell, period, _, _ = _size_cell(DtrpConfig(dims=dims, params=params,
                                              lam=lam), 0.7)
    rho = params.turn_radius
    w = bead_width(rho, ell)
    rows = math.floor(2.0 * H / w + 0.5) + 2
    layers = math.floor(4.0 * D / w) + 3
    grid = CylinderGrid(W, H, D, BeadSpec.create(rho, ell))
    assert (grid.n_rows, grid.n_layers) == (rows, layers)
    uturn = 7.0 * math.pi * rho / 3.0
    row = 2.0 * (W + 2.0 * ell) + uturn + ell / 2.0 + uturn + w / 2.0
    sweep = (rows * layers * row + layers * (uturn + w / 4.0)
             + W + H + D + 2.0 * math.pi * rho + 2.0 * ell)
    assert period == pytest.approx(3.25 * sweep / params.r_vel, rel=1e-12)


def test_run_bta_stable_and_little_consistent():
    cfg = DtrpConfig(dims=(1.0, 1.0), params=SLOW, lam=20.0, n_slots=200,
                     n_sample_cells=800, seed=5)
    st = run_bta(cfg)
    assert not st.divergent
    assert st.little_residual < 0.15
    assert st.mean_system_time > st.sweep_period  # must wait at least a sweep
    assert st.served > 0
    assert st.mean_queue_len == pytest.approx(cfg.lam * st.mean_system_time)


@pytest.mark.parametrize("case", ["cells-0.3", "cells-0.5", "cells-0.72",
                                  "cells-0.82", "bta", "cca"])
def test_run_bta_matches_slotted_queue_theory(case):
    # service is instantaneous at the slot: half a period of residual delay
    # plus M/D/1-style queueing x/(2(1-x)) periods, written out here and
    # shared with no simulator code
    if case.startswith("cells"):
        cfg = DtrpConfig(dims=(1.0, 1.0), params=SLOW, lam=1.0, n_slots=20000,
                         n_sample_cells=200, seed=6)
        st = _simulate_cells(cfg, period=1.0, cell_rate=float(case[6:]))
    else:
        # each policy at its tuned utilization x*
        run, dims = {"bta": (run_bta, (1.0, 1.0)),
                     "cca": (run_cca, (1.0, 1.0, 1.0))}[case]
        st = run(DtrpConfig(dims=dims, params=SLOW, lam=20.0, n_slots=2000,
                            seed=6))
    x = st.utilization
    predict = st.sweep_period * (0.5 + x / (2.0 * (1.0 - x)))
    # seeds 1-10 of every case fell within 1.5% of the law (cca, seed 4)
    assert st.mean_system_time == pytest.approx(predict, rel=0.03)


def test_run_bta_lambda_scale_invariance():
    # in heavy load T/lambda^2 is a constant of the policy
    vals = []
    for lam in (20.0, 40.0):
        cfg = DtrpConfig(dims=(1.0, 1.0), params=SLOW, lam=lam, n_slots=200,
                         n_sample_cells=800, seed=7)
        vals.append(run_bta(cfg).mean_system_time / lam**2)
    assert vals[0] == pytest.approx(vals[1], rel=0.10)


def test_run_cca_stable():
    cfg = DtrpConfig(dims=(1.0, 1.0, 1.0), params=VehicleParams(0.5, 1.0),
                     lam=5.0, n_slots=150, n_sample_cells=600, seed=8)
    st = run_cca(cfg)
    assert not st.divergent
    assert st.little_residual < 0.15


def test_divergence_flag_when_overloaded():
    cfg = DtrpConfig(dims=(1.0, 1.0), params=SLOW, lam=20.0, n_slots=100,
                     n_sample_cells=50, seed=9)
    st = _simulate_cells(cfg, period=1.0, cell_rate=1.2)
    assert st.divergent


@pytest.mark.parametrize("field, value", [
    ("n_sample_cells", 0), ("n_slots", 0), ("warmup_fraction", 1.0),
    ("warmup_fraction", -0.1), ("warmup_fraction", float("nan")),
    ("lam", float("nan")), ("lam", -1.0), ("lam", float("inf")),
    ("dims", (0.0, 1.0)), ("dims", (1.0, -1.0)), ("dims", (1.0, 1.0, 0.0)),
    ("dims", (float("nan"), 1.0)), ("dims", (0.5, 1.0)),
    ("dims", (1.0, 0.5, 0.7)), ("dims", (1.0,)), ("dims", (4.0, 3.0, 2.0, 1.0)),
])
def test_config_rejects_bad_values(field, value):
    kwargs = {"dims": (1.0, 1.0), "params": SLOW, "lam": 20.0, field: value}
    with pytest.raises(ValueError, match=field):
        DtrpConfig(**kwargs)


def test_zero_rate_gives_nan_statistics():
    st = run_bta(DtrpConfig(dims=(1.0, 1.0), params=SLOW, lam=0.0,
                            n_slots=50, n_sample_cells=20))
    assert st.served == 0
    assert math.isnan(st.mean_system_time) and math.isnan(st.mean_queue_len)
    assert st.cell_clamped


@pytest.mark.parametrize("run, dims", [(run_bta, (1.0, 1.0)),
                                       (run_cca, (1.0, 1.0, 1.0))])
def test_cell_clamped_reported(run, dims):
    def stats(lam):
        return run(DtrpConfig(dims=dims, params=SLOW, lam=lam, n_slots=50,
                              n_sample_cells=20))
    assert stats(1e-3).cell_clamped
    assert not stats(20.0).cell_clamped


def test_tune_policy_is_memoised():
    assert tune_policy(2) is tune_policy(2)
    assert tune_policy(3) is not tune_policy(2)


def test_dim_checks():
    with pytest.raises(ValueError):
        run_bta(DtrpConfig(dims=(1.0, 1.0, 1.0), params=SLOW, lam=1.0))
    with pytest.raises(ValueError):
        run_cca(DtrpConfig(dims=(1.0, 1.0), params=SLOW, lam=1.0))


def test_predicted_system_time_dim_must_match_dims():
    with pytest.raises(ValueError, match=r"dim = 2 does not match dims = \("):
        predicted_system_time(2, (1.0, 1.0, 1.0), SLOW, 10.0)
    with pytest.raises(ValueError, match=r"dim = 3 does not match dims = \("):
        predicted_system_time(3, (1.0, 1.0), SLOW, 10.0)


def test_predicted_system_time_scales():
    p2 = predicted_system_time(2, (1.0, 1.0), SLOW, 10.0)
    p2b = predicted_system_time(2, (1.0, 1.0), SLOW, 20.0)
    assert p2b == pytest.approx(4.0 * p2, rel=1e-12)
    p3 = predicted_system_time(3, (1.0, 1.0, 1.0), VehicleParams(0.5, 1.0), 2.0)
    p3b = predicted_system_time(3, (1.0, 1.0, 1.0), VehicleParams(0.5, 1.0), 4.0)
    assert p3b == pytest.approx(16.0 * p3, rel=1e-12)


def test_light_load_residual_delay():
    # an almost-empty cell only waits the Uniform(0, period) residual until
    # its next slot: mean half a period
    lam_cell = 0.05
    cfg = DtrpConfig(dims=(1.0, 1.0), params=SLOW, lam=1.0, n_slots=500,
                     n_sample_cells=200, seed=10, warmup_fraction=0.1)
    st = _simulate_cells(cfg, period=1.0, cell_rate=lam_cell)
    assert st.mean_system_time == pytest.approx(0.5, rel=0.07)


def test_stream_uniformity_ks():
    # the substream generator behind every simulation passes a KS uniformity
    # check (statistical oracle for the arrival-offset sampling)
    rng = substream(10, 0)
    u = rng.uniform(0.0, 1.0, size=20000)
    assert sstats.kstest(u, "uniform").pvalue > 0.01


# -- pins and oracles --------------------------------------------------------

def _stats_tuple(s):
    # the eight fields DtrpStats had when the pins were recorded; a tuple, so
    # that a new field does not move them
    return (s.mean_system_time, s.mean_queue_len, s.served, s.divergent,
            s.utilization, s.sweep_period, s.cell_rate, s.little_residual)


def _pinned_case(name, tmp_path):
    if name == "cli-trace":
        # more than 50 slots and more than 200 arrivals in a traced cell, so
        # both caps of the trace apply
        out, trace = tmp_path / "d.csv", tmp_path / "trace.json"
        rc = main(["dtrp", "--policy", "bta", "--lambda", "20", "--horizon",
                   "600", "--seeds", "2", "--seed", "3", "--out", str(out),
                   "--trace", str(trace)])
        return f"{rc}\n{out.read_text()}{trace.read_text()}"
    if name.startswith(("bta", "cca")):
        policy, lam = name.split("-")
        dims = (1.0, 1.0) if policy == "bta" else (1.0, 1.0, 1.0)
        run = run_bta if policy == "bta" else run_cca
        cfg = DtrpConfig(dims=dims, params=SLOW, lam=float(lam), n_slots=300,
                         n_sample_cells=120, seed=21)
        return repr(_stats_tuple(run(cfg)))
    cfg = DtrpConfig(dims=(1.0, 1.0), params=SLOW, lam=1.0, n_slots=400,
                     n_sample_cells=150, seed=22)
    if name == "late-early":
        # utilization 0.95 < 1 over several blocks: stable, so not divergent
        out = _simulate_cells(cfg, period=0.5, cell_rate=1.9)
        return repr(_stats_tuple(out))
    if name == "late-early-fires":
        # utilization 0.98 < 1 is stable: with no warm-up the queue is still
        # filling from empty at 400 slots, a slow transient, not divergence
        cfg = DtrpConfig(dims=(1.0, 1.0), params=SLOW, lam=1.0, n_slots=400,
                         n_sample_cells=150, seed=22, warmup_fraction=0.0)
        out = _simulate_cells(cfg, period=1.0, cell_rate=0.98)
        assert not out.divergent
        return repr(_stats_tuple(out))
    if name == "divergent":
        # the queue grows, so the last traced arrivals are never served
        cfg = DtrpConfig(dims=(1.0, 1.0), params=SLOW, lam=1.0, n_slots=100,
                         n_sample_cells=150, seed=23)
        trace = []
        out = _simulate_cells(cfg, period=1.0, cell_rate=1.2, trace=trace)
        return repr(_stats_tuple(out)) + repr(trace)
    # about one arrival per cell over the horizon: many cells draw none; the
    # trace covers ten cells, some of them empty
    trace = []
    out = _simulate_cells(cfg, period=2.0, cell_rate=1.0 / 800.0, trace=trace,
                          trace_cells=10)
    return repr(_stats_tuple(out)) + repr(trace)


PINNED_DTRP = {
    # the five run_bta/run_cca pins were re-recorded when _size_cell began
    # to solve the cell length with geometry.solve_cell, to a few ulps
    # instead of brentq's absolute 2e-12: in 2D the values moved in their
    # 10th-13th digits (utilization 0.7192235962476942 -> 0.7192235963748627
    # at lambda 20); in 3D the utilization is a sawtooth in ell and the new
    # bracket lands on a neighbouring crossing, so cca-20's period and mean
    # system time moved by -7.05e-6 (relative); served counts did not move.
    # bta-40, cca-20, cca-40, cli-trace and late-early were re-recorded
    # again when the mean wait became a sum per cell added in cell order,
    # like the occupancy: the mean system time and the mean queue length
    # moved by 1-6 ulps (at most 1.1e-15 relative), the Little residual, a
    # difference of near-equal terms, by at most 3.1e-14 relative; the
    # trace and the served counts did not move.
    # bta-20, bta-40, cca-20, cca-40 and cli-trace were re-recorded once more
    # when tune_policy's x* became the closed-form root of
    # p x**2 - (3p+1) x + 2p instead of a bounded scalar minimization: x*
    # moved by -3.9e-9 (2D) and +3.4e-10 (3D) relative, toward the exact
    # optimum, and with it the utilization and the cell rate; the mean system
    # time and queue length moved by -8.1e-12/-4.0e-12 (bta-20/40) and
    # +1.0e-13/+5.6e-14 (cca-20/40) relative, the Little residual by
    # +3.3e-7 (2D) and -1.8e-8 (3D); served counts and the trace's event
    # kinds and counts did not move, its times by at most 8.1e-12 relative.
    # The same five were re-recorded when solve_cell's Brent steps gave way
    # to a float bisection with a certificate: the sawtooth's crossing
    # found moved, so the period moved by -6.9e-5/+1.7e-5 (bta-20/40) and
    # +7.1e-6/-3.1e-6 (cca-20/40) relative, the mean system time and queue
    # length with it; every utilization is now at most x* (cca-40's was 3
    # ulps above it), and served counts did not move.
    # All nine were re-recorded when the substreams became PCG64DXSM
    # generators and each run drew every offset, then every count, then the
    # arrivals in cell order: new draws, so new Monte Carlo values (bta-20's
    # mean system time 271893 -> 265653, served 25784 -> 25700; cca-20's
    # 3.1094e13 -> 3.0242e13, served 29441 -> 29339); the cell sizes and
    # utilizations did not move
    "cli-trace":
        "dd9ba6bdd6655c12660c67f80502360d13c4e635e0866789275a94a1ad97cf02",
    "bta-20":
        "39a71866cb8e27058bf7789b1bbcb3a71de97cbe22b094e438ffcd7475ccc7f2",
    "bta-40":
        "92a524b7ccf84670226c93c6f94a374519b40a1dd05b402dd10c9234292e568f",
    "cca-20":
        "060c6c6a5881cdfc929f92dae0040269a67c44e9c1ec7caa8ee48efa693c5eed",
    "cca-40":
        "04e78578eb8b1bbe852efa79aeeda5f8552fab0d6d7004848ec2549e923fcb60",
    "late-early":
        "0c7cedc4ffa9a829ce04d98048e280341a96daf453c7ddd5479e80fac2b22d0d",
    # re-recorded when divergence became utilization >= 1 alone: only the
    # divergent field moved, True -> False
    "late-early-fires":
        "6ba0a53b74169f334dee36745ba8c2c1b789f062dce54ea9f797dd44cdab47d6",
    "divergent":
        "e2d1f3d5b1b835e128e474a9a46df1736d4a76fcc545af3314ea5d38e85ebbe9",
    "sparse":
        "146e5a6166ee0614f0061195e55294432fda74a696d7a82b55c4d9ce07afbbaf",
}


@pytest.mark.parametrize("name", sorted(PINNED_DTRP))
def test_dtrp_digest_pinned(name, tmp_path):
    got = hashlib.sha256(_pinned_case(name, tmp_path).encode()).hexdigest()
    assert got == PINNED_DTRP[name]


@pytest.mark.parametrize("dim", [2, 3])
def test_sized_cells_stay_at_or_below_x_star(dim):
    # the cell length's certificate keeps the realised utilization at most
    # x*, as DtrpStats.divergent states, not an ulp above it
    x_star = tune_policy(dim).x_star
    for lam in (2.5, 5.0, 10.0, 20.0, 40.0, 150.0):
        cfg = DtrpConfig(dims=(1.0,) * dim, params=SLOW, lam=lam)
        _, period, rate, clamped = _size_cell(cfg, x_star)
        assert not clamped and rate * period <= x_star


def _block_case(name, tmp_path):
    if name != "long-cells":
        return _pinned_case(name, tmp_path)
    # about 20000 arrivals per cell, more than _BLOCK_ARRIVALS, so every
    # block is one cell that fills most of the draw buffer
    cfg = DtrpConfig(dims=(1.0, 1.0), params=SLOW, lam=1.0, n_slots=40000,
                     n_sample_cells=4, seed=24)
    trace = []
    out = _simulate_cells(cfg, period=1.0, cell_rate=0.5, trace=trace)
    return repr(_stats_tuple(out)) + repr(trace)


@pytest.mark.parametrize("block", [1, 7, 10**6])
@pytest.mark.parametrize("name", ["long-cells", "sparse", "divergent"])
def test_results_do_not_depend_on_block_size(name, block, tmp_path,
                                             monkeypatch):
    # one cell per block, a few cells per block, and the whole run in one
    # block give the default's statistics and trace bit for bit
    want = _block_case(name, tmp_path)
    monkeypatch.setattr(dtrp, "_BLOCK_ARRIVALS", block)
    assert _block_case(name, tmp_path) == want


def _whole_run_block(cfg, period, cell_rate):
    """The cells with arrivals, their offsets and their arrivals as one
    block of the whole run, redrawn from the same substream in the draws'
    order: every cell's offset, then every cell's count, then each cell's
    arrivals, sorted, in cell order."""
    horizon = cfg.n_slots * period
    rng = substream(cfg.seed, 7)
    all_offsets = rng.uniform(0.0, period, size=cfg.n_sample_cells)
    counts = rng.poisson(cell_rate * horizon, size=cfg.n_sample_cells)
    cells, offsets, arrivals = [], [], []
    for cell in range(cfg.n_sample_cells):
        if counts[cell]:
            cells.append(cell)
            offsets.append(float(all_offsets[cell]))
            arrivals.append(np.sort(rng.uniform(0.0, horizon,
                                                size=counts[cell])))
    return cells, offsets, arrivals


@settings(max_examples=100, deadline=None)
@given(n_cells=st.integers(1, 40), log_mean=st.floats(-3.0, 3.2),
       block=st.sampled_from([1, 7, dtrp._BLOCK_ARRIVALS]),
       seed=st.integers(0, 2**16))
@example(n_cells=40, log_mean=3.2, block=dtrp._BLOCK_ARRIVALS, seed=0)
@example(n_cells=12, log_mean=-1.0, block=1, seed=1)
def test_draw_blocks_cut_one_whole_run_block(n_cells, log_mean, block, seed):
    # 10**log_mean arrivals per cell on average, down to 1e-3 so that many
    # cells, the trailing ones included, draw nothing
    cfg = DtrpConfig(dims=(1.0, 1.0), params=SLOW, lam=1.0, n_slots=100,
                     n_sample_cells=n_cells, seed=seed)
    cell_rate = 10.0**log_mean / 100.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dtrp, "_BLOCK_ARRIVALS", block)
        # copies: the next block overwrites the arrivals' buffer
        blocks = [(cells, offsets, bounds, arrivals.copy()) for
                  cells, offsets, bounds, arrivals in
                  dtrp._draw_blocks(cfg, 1.0, cell_rate)]
    want_cells, want_offsets, want_arrivals = _whole_run_block(cfg, 1.0,
                                                               cell_rate)
    got_arrivals = []
    for i, (cells, offsets, bounds, arrivals) in enumerate(blocks):
        assert cells and len(cells) == len(offsets) == len(bounds) - 1
        assert bounds[0] == 0 and bounds[-1] == len(arrivals)
        assert all(s < e for s, e in zip(bounds, bounds[1:]))
        assert i == len(blocks) - 1 or len(arrivals) >= block
        got_arrivals += [arrivals[s:e] for s, e in zip(bounds, bounds[1:])]
    assert [c for b in blocks for c in b[0]] == want_cells
    assert [o for b in blocks for o in b[1]] == want_offsets
    assert len(got_arrivals) == len(want_arrivals)
    for got, want in zip(got_arrivals, want_arrivals):
        assert np.array_equal(got, want)


def _fifo_oracle(cfg, period, cell_rate):
    """The slotted queue one arrival at a time, in plain Python: the cells
    redraw their offsets, counts and arrivals from the same substream in the
    draws' order, and arrival i departs at slot max(first slot after it,
    slot of arrival i-1 + 1)."""
    horizon = cfg.n_slots * period
    warmup = cfg.warmup_fraction * horizon
    rng = substream(cfg.seed, 7)
    offsets = rng.uniform(0.0, period, size=cfg.n_sample_cells).tolist()
    counts = rng.poisson(cell_rate * horizon, size=cfg.n_sample_cells)
    served, waits = 0, []
    for offset, n_arr in zip(offsets, counts.tolist()):
        if n_arr == 0:
            continue
        prev = -1
        for a in np.sort(rng.uniform(0.0, horizon, size=n_arr)).tolist():
            slot = max(max(math.floor((a - offset) / period) + 1, 0), prev + 1)
            prev = slot
            depart = offset + slot * period
            if depart < horizon:
                served += 1
                if a >= warmup:
                    waits.append(depart - a)
    return served, (math.fsum(waits) / len(waits) if waits else float("nan"))


@settings(max_examples=200, deadline=None)
@example(seed=5, n_slots=300, n_cells=120, load=0.95, period=0.7,
         warmup_fraction=0.2)  # about 34k arrivals: several blocks
@given(seed=st.integers(0, 2**31), n_slots=st.integers(1, 300),
       n_cells=st.integers(1, 40), load=st.floats(0.0, 1.6),
       period=st.floats(0.05, 20.0),
       warmup_fraction=st.sampled_from([0.0, 0.2, 0.5, 0.9]))
def test_simulate_cells_matches_fifo_oracle(seed, n_slots, n_cells, load,
                                            period, warmup_fraction):
    cfg = DtrpConfig(dims=(1.0, 1.0), params=SLOW, lam=1.0, n_slots=n_slots,
                     n_sample_cells=n_cells, seed=seed,
                     warmup_fraction=warmup_fraction)
    cell_rate = load / period
    served, mean_t = _fifo_oracle(cfg, period, cell_rate)
    got = _simulate_cells(cfg, period, cell_rate)
    assert got.served == served
    assert got.utilization == cell_rate * period
    assert got.divergent == (cell_rate * period >= 1.0)
    if math.isnan(mean_t):
        assert math.isnan(got.mean_system_time)
    else:
        assert got.mean_system_time == pytest.approx(mean_t, rel=1e-12)


def _per_cell_fifo(quotients, counts):
    """Departure slots cell by cell in Python integers: with F_k the floor
    of arrival k's time after its cell's offset in periods, D_k =
    max(F_k + 1, D_{k-1} + 1), and D_0 = F_0 + 1."""
    out, i = [], 0
    for n in counts:
        prev = None
        for q in quotients[i:i + n]:
            first = math.floor(q) + 1
            prev = first if prev is None else max(first, prev + 1)
            out.append(prev)
        i += n
    return out


@settings(max_examples=100, deadline=None)
@given(n_cells=st.integers(1, 200), largest=st.integers(1, 50),
       at_bound=st.booleans(), seed=st.integers(0, 2**32 - 1))
# a full block of one-arrival cells, its lifted slots near 2**52
@example(n_cells=dtrp._BLOCK_ARRIVALS, largest=1, at_bound=True, seed=0)
@example(n_cells=dtrp._BLOCK_ARRIVALS, largest=1, at_bound=False, seed=1)
def test_fifo_slots_match_a_per_cell_fifo(n_cells, largest, at_bound, seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, largest, n_cells, endpoint=True)
    n = int(counts.sum())
    # at the bound, n_slots + 1 plus the largest count is 2**_LIFT_BITS - 1,
    # the most that _draw_blocks admits
    n_slots = 2**dtrp._LIFT_BITS - 2 - int(counts.max()) if at_bound else 20
    floors = rng.integers(-1, n_slots, n, endpoint=True)
    edge = rng.integers(0, 4, n)
    floors[edge == 0] = -1          # before the cell's offset: first slot 0
    floors[edge == 1] = n_slots     # the last first slot, n_slots + 1
    # 0.0 makes exact-integer quotients, whose first slot is the next one;
    # the quotients are in no order, which the recurrence does not need
    quotients = floors + rng.choice([0.0, 0.25, 0.5, 0.75], n)
    starts = [0, *np.cumsum(counts)[:-1].tolist()]
    index = np.arange(n + 3.0)      # longer than the block, as between blocks
    got = dtrp._fifo_slots(quotients.copy(), starts, counts, index)
    assert got.dtype == np.float64
    assert got.tolist() == _per_cell_fifo(quotients.tolist(), counts.tolist())


def _exactness_case(n_cells):
    """The guard's run: 300 slots at load 0.95, and the largest first slot
    plus count, n_slots + 1 + the largest cell count, from a replay of the
    draws."""
    cfg = DtrpConfig(dims=(1.0, 1.0), params=SLOW, lam=1.0, n_slots=300,
                     n_sample_cells=n_cells, seed=5)
    period = 0.7
    cell_rate = 0.95 / period
    rng = substream(cfg.seed, 7)
    rng.random(n_cells)
    counts = rng.poisson(cell_rate * cfg.n_slots * period, n_cells)
    assert counts.all()     # every cell in the block
    return cfg, period, cell_rate, cfg.n_slots + 1 + int(counts.max())


def test_lift_bound_is_checked(monkeypatch):
    # with too few lift bits a cell's slots run into the next cell's and the
    # statistics go wrong, so the run is refused; the fewest bits that the
    # bound admits give the oracle's results
    cfg, period, cell_rate, top = _exactness_case(40)
    bits = top.bit_length()
    served, mean_t = _fifo_oracle(cfg, period, cell_rate)
    monkeypatch.setattr(dtrp, "_LIFT_BITS", bits)
    got = _simulate_cells(cfg, period, cell_rate)
    assert got.served == served
    assert got.mean_system_time == pytest.approx(mean_t, rel=1e-12)
    for short in (bits - 1, 4):
        monkeypatch.setattr(dtrp, "_LIFT_BITS", short)
        with pytest.raises(ValueError, match="horizon of 300 slots"):
            _simulate_cells(cfg, period, cell_rate)


def test_double_bound_is_checked(monkeypatch):
    # at 2**48 per cell, 31 cells in one block lift their slots to just
    # below 2**53, where doubles still hold every integer, and give the
    # oracle's results; a 32nd cell would pass 2**53
    monkeypatch.setattr(dtrp, "_LIFT_BITS", 48)
    cfg, period, cell_rate, _ = _exactness_case(31)
    served, mean_t = _fifo_oracle(cfg, period, cell_rate)
    got = _simulate_cells(cfg, period, cell_rate)
    assert got.served == served
    assert got.mean_system_time == pytest.approx(mean_t, rel=1e-12)
    cfg, period, cell_rate, _ = _exactness_case(32)
    with pytest.raises(ValueError, match="horizon of 300 slots"):
        _simulate_cells(cfg, period, cell_rate)


def test_simulate_cells_memory_does_not_grow_with_horizon():
    # the statistics are streamed block by block, so a run ten times as long
    # peaks at about the same traced memory: one block, not every wait
    def peak(n_slots):
        cfg = DtrpConfig(dims=(1.0, 1.0), params=SLOW, lam=1.0,
                         n_slots=n_slots, n_sample_cells=100, seed=0)
        tracemalloc.start()
        try:
            _simulate_cells(cfg, period=1.0, cell_rate=0.9)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(20000) <= 1.5 * peak(2000)
