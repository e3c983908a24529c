"""Tour planners: conservation, phase accounting, and timing identities."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from oracles import brute_force_walk

from ditsp.etsp import PointSet
from ditsp.geometry import (CHUNK, BeadGrid, BeadSpec, CylinderGrid,
                            bead_meta_exponents, bead_schedule,
                            bead_sweep, cylinder_schedule, cylinder_sweep,
                            ell_for_n, ell_for_n_3d, meta_index)
from ditsp.planners import (Tour, _serve_and_order, greedy_cleanup,
                            rec_bta, rec_cca, stop_go_stop)
from ditsp.rng import substream
from ditsp.vehicle import VehicleParams, stop_go_time


PARAMS = VehicleParams(r_vel=0.1, r_ctr=1.0)


def test_stop_go_stop_square_corners():
    # 4 corners of the unit square at r_vel = r_ctr = 1: each unit leg takes
    # 2 s (bang-bang), so the closed tour takes exactly 8
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tour = stop_go_stop(PointSet(points=pts), VehicleParams(1.0, 1.0))
    assert tour.total_time == pytest.approx(8.0, rel=1e-12)
    assert tour.total_length == pytest.approx(4.0, rel=1e-12)
    # one point: a closed tour of one zero leg
    one = stop_go_stop(PointSet(points=pts[:1]), VehicleParams(1.0, 1.0))
    assert (one.total_time, one.total_length) == (0.0, 0.0)
    assert one.visit_order.tolist() == [0]


def test_stop_go_stop_durations_match_edges():
    rng = substream(13, 0)
    ps = PointSet(points=rng.uniform(size=(40, 2)))
    tour = stop_go_stop(ps, PARAMS, seed=2)
    assert len(tour.segments) == 40
    for length, duration in tour.segments.tolist():
        assert duration == pytest.approx(stop_go_time(length, PARAMS), rel=1e-12)


def test_greedy_cleanup_visits_all_nearest_first():
    pts = np.array([[1.0, 0.0], [0.2, 0.0], [3.0, 0.0]])
    lengths, order = greedy_cleanup(pts, np.zeros(2))
    assert order.tolist() == [1, 0, 2]
    assert lengths == pytest.approx([0.2, 0.8, 2.0])
    empty_lengths, empty_order = greedy_cleanup(np.empty((0, 2)), np.zeros(2))
    assert empty_lengths == [] and len(empty_order) == 0


def _uniform_pset(n, seed, d=2):
    rng = substream(13, seed, d)
    return PointSet(points=rng.uniform(size=(n, d)))


def test_rec_bta_serves_everything_once():
    ps = _uniform_pset(2000, 1)
    tour, reports = rec_bta(ps, PARAMS)
    assert sorted(tour.visit_order.tolist()) == list(range(2000))
    assert sum(r.served for r in reports) + reports[-1].leftover_after == 2000
    assert reports[-1].leftover_after >= 0


def test_rec_bta_phase_count_and_meta_sizes():
    n = 1024
    ps = _uniform_pset(n, 2)
    _, reports = rec_bta(ps, PARAMS)
    assert len(reports) == int(math.ceil(math.log2(n))) + 1
    assert [r.meta_size for r in reports] == [2**i for i in range(len(reports))]


@pytest.mark.parametrize("n", [10**3, 10**4])
def test_rec_bta_total_is_point_free_schedule_sum(n):
    # uniform inputs leave no targets to the cleanup, and every phase
    # charges every meta-row, so the total depends on n alone: the sum of
    # the schedule's sweeps over the speed cap, bit for bit
    ps = PointSet(points=substream(1006, n, 0).uniform(size=(n, 2)))
    tour, reports = rec_bta(ps, PARAMS)
    assert reports[-1].leftover_after == 0
    ell, _ = ell_for_n(1.0, 1.0, PARAMS.turn_radius, n)
    stages = bead_schedule(1.0, 1.0, PARAMS.turn_radius, ell, n)
    assert tour.total_time == math.fsum(
        bead_sweep(grid, phase).length / PARAMS.r_vel
        for phase, _, grid, _ in stages)


def test_rec_bta_leftover_nonincreasing():
    ps = _uniform_pset(5000, 3)
    _, reports = rec_bta(ps, PARAMS)
    lefts = [r.leftover_after for r in reports]
    assert all(b <= a for a, b in zip(lefts, lefts[1:]))


def test_rec_bta_serves_at_most_one_per_meta_cell_per_phase():
    n = 3000
    ps = _uniform_pset(n, 4)
    rho = PARAMS.turn_radius
    ell, _ = ell_for_n(1.0, 1.0, rho, n)
    stages = list(bead_schedule(1.0, 1.0, rho, ell, n))
    rows, cols = stages[0][2].cell_index(ps.points)
    tour, reports = rec_bta(ps, PARAMS)
    assert [r.phase for r in reports] == [stage[0] for stage in stages]
    pos = 0
    for r, (*_, exponents) in zip(reports, stages):
        batch = tour.visit_order[pos:pos + r.served]
        pos += r.served
        mr, mc = meta_index((rows[batch], cols[batch]), exponents)
        keys = set(zip(mr.tolist(), mc.tolist()))
        assert len(keys) == r.served  # one served target per meta-cell


def test_rec_bta_oldest_first_within_cell():
    # two points in the same cell: the lower index must be served earlier
    rho = PARAMS.turn_radius
    ell, _ = ell_for_n(1.0, 1.0, rho, 2)
    pts = np.array([[0.5, 0.5], [0.5 + ell * 1e-3, 0.5]])
    tour, _ = rec_bta(PointSet(points=pts), PARAMS)
    assert tour.visit_order.tolist().index(0) < tour.visit_order.tolist().index(1)


def _cleanup_legs(tour, reports, points):
    """Leg lengths of the cleanup, recomputed from the visit order: from the
    origin through the targets left after the last phase."""
    tail = points[tour.visit_order[len(tour.visit_order)
                                   - reports[-1].leftover_after:]]
    path = np.vstack([np.zeros((1, points.shape[1])), tail])
    return np.linalg.norm(np.diff(path, axis=0), axis=1).tolist()


def _check_accounting(tour, reports, points, params):
    # one row per (sub-)phase sweep, then one per cleanup leg; each total is
    # the correctly rounded sum of those rows
    legs = _cleanup_legs(tour, reports, points)
    assert len(tour.segments) == len(reports) + len(legs)
    sweeps, leg_rows = tour.segments[:len(reports)], tour.segments[len(reports):]
    assert sweeps.tolist() == [[r.length, r.length / params.r_vel] for r in reports]
    assert leg_rows[:, 0].tolist() == legs
    assert leg_rows[:, 1].tolist() == [stop_go_time(x, params) for x in legs]
    assert tour.total_length == math.fsum([r.length for r in reports] + legs)
    assert tour.total_time == math.fsum(
        [r.length / params.r_vel for r in reports]
        + [stop_go_time(x, params) for x in legs])


def test_rec_bta_length_accounting_consistent():
    # clustered, so that many targets are left to the cleanup
    ps = PointSet(points=_pin_clustered(1000, 2))
    tour, reports = rec_bta(ps, PARAMS)
    assert reports[-1].leftover_after > 0
    _check_accounting(tour, reports, ps.points, PARAMS)


def test_rec_bta_even_phase_le_twice_next_odd():
    # the even-phase sweep is at most twice the following odd-phase sweep
    ps = _uniform_pset(10**4, 6)
    _, reports = rec_bta(ps, PARAMS)
    lengths = [r.length for r in reports]
    for j in range(1, len(lengths) - 1, 2):  # phases 2, 4, ... (0-based odd)
        assert lengths[j] <= 2.0 * lengths[j + 1] * (1 + 1e-12)


def test_rec_bta_rejects_3d():
    with pytest.raises(ValueError):
        rec_bta(_uniform_pset(10, 7, d=3), PARAMS)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rec_bta_rejects_non_finite_points(bad):
    pts = _uniform_pset(50, 13).points
    pts[17, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        rec_bta(PointSet(points=pts), PARAMS)


@pytest.mark.parametrize("plan, dims", [(rec_bta, (2.0, 1.0)),
                                        (rec_cca, (2.0, 1.0, 0.5))])
def test_sweep_planners_accept_closed_workspace_only(plan, dims):
    # corners and edges lie in the closed box; 1e-9 past any face does not
    corners = np.stack(np.meshgrid(*[(0.0, s) for s in dims]), -1)
    pts = np.vstack([corners.reshape(-1, len(dims)), np.asarray(dims) / 2.0])
    tour, _ = plan(PointSet(points=pts), PARAMS, *dims)
    assert sorted(tour.visit_order.tolist()) == list(range(len(pts)))
    for axis, name in enumerate("WHD"[:len(dims)]):
        for value, bound in ((-1e-9, "< 0"), (dims[axis] + 1e-9, f"> {name} =")):
            bad = pts.copy()
            bad[-1, axis] = value
            with pytest.raises(ValueError, match=f"{'xyz'[axis]} = .* {bound}"):
                plan(PointSet(points=bad), PARAMS, *dims)


PARAMS3 = VehicleParams(r_vel=0.5, r_ctr=1.0)


def test_rec_cca_serves_everything_once():
    ps = _uniform_pset(2000, 8, d=3)
    tour, reports = rec_cca(ps, PARAMS3)
    assert sorted(tour.visit_order.tolist()) == list(range(2000))
    assert sum(r.served for r in reports) + reports[-1].leftover_after == 2000


def test_rec_cca_phase_structure():
    n = 2000
    ps = _uniform_pset(n, 9, d=3)
    _, reports = rec_cca(ps, PARAMS3)
    expect_phases = int(math.ceil((math.log2(n) + 7.0) / 5.0))
    assert len(reports) == 5 * expect_phases
    assert [r.subphase for r in reports] == [1, 2, 3, 4, 5] * expect_phases
    assert [r.meta_size for r in reports[:5]] == [1, 2, 4, 8, 16]


def test_rec_cca_length_accounting_consistent():
    ps = PointSet(points=_pin_clustered(500, 3))
    tour, reports = rec_cca(ps, PARAMS3)
    assert reports[-1].leftover_after > 0
    _check_accounting(tour, reports, ps.points, PARAMS3)


@pytest.mark.parametrize("params", [PARAMS3, VehicleParams(r_vel=0.3, r_ctr=1.0)])
def test_rec_cca_chunks_layer_major_top_down(params):
    # each sub-phase serves layer by layer and, within a layer, meta-row by
    # meta-row from the top: (meta-layer, -meta-row) never decreases
    n = 3000
    ps = _uniform_pset(n, 12, d=3)
    tour, reports = rec_cca(ps, params)
    rho = params.turn_radius
    ell0, _ = ell_for_n_3d(1.0, 1.0, 1.0, rho, n)
    stages = list(cylinder_schedule(1.0, 1.0, 1.0, rho, ell0, n))
    assert len(stages) == len(reports)
    pos = 0
    for r, (phase, sub, grid, exponents) in zip(reports, stages):
        assert (r.phase, r.subphase) == (phase, sub)
        batch = tour.visit_order[pos:pos + r.served]
        pos += r.served
        ml, mr, _ = meta_index(grid.cell_index(ps.points[batch]), exponents)
        steps = list(zip(ml.tolist(), (-mr).tolist()))
        assert steps == sorted(steps)


def test_rec_cca_rejects_2d():
    with pytest.raises(ValueError):
        rec_cca(_uniform_pset(10, 11, d=2), PARAMS3)


@settings(max_examples=200, deadline=None)
@given(W=st.floats(0.05, 20.0), h=st.floats(0.01, 1.0), d=st.floats(0.01, 1.0),
       rho=st.floats(1e-3, 10.0), f=st.floats(1e-9, 1.0))
def test_full_sweeps_reach_closed_form_lower_bounds(W, h, d, rho, f):
    # W >= H >= D and ell in (0, 4 rho]: a full bead sweep passes the width
    # at least 2H/w times; a full cylinder sweep runs at least 2H/w rows in
    # each of at least 4D/w layers, each row out and back
    H, ell = W * h, 4.0 * rho * f
    D = H * d
    spec = BeadSpec.create(rho, ell)
    assert (bead_sweep(BeadGrid(W, H, spec), 1).length
            >= (2.0 * H / spec.w) * W)
    assert (cylinder_sweep(CylinderGrid(W, H, D, spec)).length
            >= (2.0 * H / spec.w) * (4.0 * D / spec.w) * 2.0 * W)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 300), W=st.floats(0.2, 3.0), h=st.floats(0.1, 1.0),
       d=st.floats(0.1, 1.0), r_vel=st.floats(0.01, 2.0),
       seed=st.integers(0, 2**16))
@example(n=5, W=1.0, h=1.0, d=1.0, r_vel=2.0, seed=0)  # clamped cells
def test_sweep_planners_serve_every_target_once(n, W, h, d, r_vel, seed):
    params = VehicleParams(r_vel=r_vel, r_ctr=1.0)
    H = W * h
    for plan, dims, size in ((rec_bta, (W, H), ell_for_n),
                             (rec_cca, (W, H, H * d), ell_for_n_3d)):
        if size(*dims, params.turn_radius, n)[1]:
            event(f"{plan.__name__}: clamped cell")
        pts = substream(57, seed, len(dims)).uniform(size=(n, len(dims))) * dims
        tour, reports = plan(PointSet(points=pts), params, *dims)
        assert sorted(tour.visit_order.tolist()) == list(range(n))
        assert sum(r.served for r in reports) + reports[-1].leftover_after == n


def test_tour_totals_are_segment_sums():
    t = Tour(segments=[(2.0, 4.0), (1.0, 2.0)], visit_order=np.array([0]))
    assert t.total_length == 3.0
    assert t.total_time == 6.0
    # correctly rounded, whatever the row order: a left-to-right sum gives 0
    t = Tour(segments=[(1e16, 1.0), (1.0, 1e-16), (-1e16, 1.0)])
    assert t.total_length == 1.0
    assert t.total_time == math.fsum([1.0, 1e-16, 1.0])
    assert Tour().total_length == 0.0 and len(Tour().segments) == 0


# -- pins: sweep planners' outputs ------------------------------------------

def _pin_uniform(n, d):
    return substream(31, 0, d).uniform(size=(n, d))


def _pin_clustered(n, d):
    # eight tight hotspots clipped to the workspace: about 60% of the points
    # are left to greedy_cleanup, and clipping puts many on the boundary
    rng = substream(31, 1, d)
    centers = rng.uniform(size=(8, d))
    pts = centers[rng.integers(8, size=n)] + rng.normal(scale=0.02, size=(n, d))
    return np.clip(pts, 0.0, 1.0)


# name: (planner, params, points, sha256 of the totals and phase reports,
# sha256 of visit_order as int64).  The visit orders were recorded at commit
# e0a8677, except the rec_cca ones, re-recorded when each sub-phase's order
# was made layer-major with every target ranked by its own meta-cell (it had
# ranked targets by other targets' cells).  The totals digests were
# re-recorded when a tour became one row per sweep and per leg, summed with
# math.fsum, and each leg was charged the distance that chose it: the totals
# moved by at most 1.3e-14 relative, the phase reports did not move.  All
# four were re-recorded when the substreams became PCG64DXSM generators:
# new points (bta-uniform's total time stayed bit for bit, cca-uniform's
# moved 19194.397 -> 19193.600; bta-clustered's leftovers 1931 -> 1974)
PINNED_SWEEPS = {
    "bta-uniform-3000": (
        rec_bta, PARAMS, lambda: _pin_uniform(3000, 2),
        "0788e5d5a45434e817ee345ff11a074632cbfb6415c9c446566512515356775a",
        "9c99f4ff9e8b325823e78ae77db8213d36b6cad4b8495ba1cc419354162da6fc"),
    "bta-clustered-3000": (
        rec_bta, PARAMS, lambda: _pin_clustered(3000, 2),
        "f90bbd85568a2301422a61cc79e623cf4bf3a8bea270f8ea10a66fe76a112cec",
        "d8acfaa23386632809d4d57553738cfeb0892dcb2e4dc9b577ac86c021934f55"),
    "cca-uniform-1500": (
        rec_cca, PARAMS3, lambda: _pin_uniform(1500, 3),
        "9da1a1b162edefcb0de7ec48d57319af9af6b2867c71b9de217c2bdd1a41545e",
        "f0507f69edb6bfa18cc78247fc36bbf057399cf5bd7f3acaed138a651a23172b"),
    "cca-clustered-1500": (
        rec_cca, PARAMS3, lambda: _pin_clustered(1500, 3),
        "c2cdb3033611d3ddfb9c728470b377b2118cf0649899e0de78fe11b1ad90c7c1",
        "c7c83a940776cfad95941e6968f6f0bb3bbc778af74f8b7387370d6e357c10d2"),
}


@pytest.mark.parametrize("name", sorted(PINNED_SWEEPS))
def test_sweep_digest_pinned(name):
    plan, params, make, totals_digest, order_digest = PINNED_SWEEPS[name]
    tour, reports = plan(PointSet(points=make()), params)
    h = hashlib.sha256(f"{tour.total_time!r},{tour.total_length!r}\n".encode())
    for r in reports:
        h.update(repr((r.phase, r.subphase, r.meta_size, r.cells_traversed,
                       r.served, r.leftover_after, r.length)).encode())
    assert h.hexdigest() == totals_digest
    order = np.asarray(tour.visit_order, dtype=np.int64)
    assert hashlib.sha256(order.tobytes()).hexdigest() == order_digest


def _cleanup_case(name, d):
    rng = substream(41, d, len(name))
    if name == "uniform":
        return rng.uniform(size=(400, d))
    if name == "duplicates":
        base = rng.uniform(size=(60, d))
        return base[rng.integers(60, size=400)]
    if name == "rounded-ties":
        return np.round(rng.uniform(size=(400, d)), 1)
    if name == "clipped":
        # clusters around points near the boundary, clipped onto it
        centers = rng.uniform(-0.05, 0.05, size=(6, d)) % 1.0
        pick = rng.integers(6, size=400)
        return np.clip(centers[pick] + rng.normal(scale=0.05, size=(400, d)),
                       0.0, 1.0)
    # far clusters: each is used up long before the walk leaves it, so the
    # neighbour rows run dry and the tree is queried again with more points
    centers = rng.uniform(size=(5, d)) * 1e3
    pick = rng.integers(5, size=400)
    return centers[pick] + np.round(rng.normal(scale=1.0, size=(400, d)), 2)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("name", ["uniform", "duplicates", "rounded-ties",
                                  "clipped", "far-clusters"])
def test_greedy_cleanup_matches_brute_force(name, d):
    pts = _cleanup_case(name, d)
    for start in (np.zeros(d), pts[7].copy(), np.full(d, 0.5)):
        lengths, order = greedy_cleanup(pts, start)
        want_order, want_lengths = brute_force_walk(pts, start)
        assert order.tolist() == want_order
        assert lengths == want_lengths


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                min_size=1, max_size=30),
       st.integers(2, 3))
def test_greedy_cleanup_small_grids_match_brute_force(cells, d):
    # integer coordinates: many exact ties and duplicates
    pts = np.array([c + (c[0],) * (d - 2) for c in cells], dtype=float)
    lengths, order = greedy_cleanup(pts, np.zeros(d))
    want_order, want_lengths = brute_force_walk(pts, np.zeros(d))
    assert order.tolist() == want_order
    assert lengths == want_lengths


def test_serve_and_order_rejects_key_span_past_int64():
    # four meta-cells in one row; their sweep keys times m would overflow
    cols = np.array([0, 2**62, 1, 2**61], dtype=np.int64)
    with pytest.raises(ValueError, match=f"span {2**62 + 1} times 4 "):
        _serve_and_order((np.zeros(4, np.int64), cols), None, 0, (0, 0),
                         np.empty(4, np.int64))


def _rows(n, seed, spread=3):
    """n random key rows with ages, as the strategy below draws them."""
    rng = substream(29, n, seed)
    cells = rng.integers(-spread, spread + 1, size=(n, 3))
    return [(*c, a) for c, a in zip(cells.tolist(),
                                    rng.integers(1, 4, size=n).tolist())]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-4, 4),
                          st.integers(-5, 5), st.integers(1, 3)), max_size=200),
       st.integers(2, 3), st.integers(-4, 6),
       st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)))
@example(rows=[(0, 0, 0, 1)] * 40 + [(0, 1, 0, 1)] * 40, k=2, row_top=1,
         exponents=(0, 0, 0))
@example(rows=[], k=3, row_top=0, exponents=(0, 0, 0))  # 3D counts (0, 0)
@example(rows=[(2, -1, 3, 1)], k=3, row_top=0,
         exponents=(0, 0, 0))  # 3D counts (1, 1)
# sizes that straddle a chunk of the key and head passes, and runs longer
# than a chunk: one meta-cell, and two whose border is past the first chunk
@example(rows=_rows(CHUNK - 1, 0), k=2, row_top=1, exponents=(0, 0, 0))
@example(rows=_rows(CHUNK, 1), k=3, row_top=2, exponents=(0, 1, 1))
@example(rows=_rows(CHUNK + 1, 2), k=3, row_top=-1, exponents=(0, 0, 0))
@example(rows=_rows(2 * CHUNK + 3, 3, 40), k=2, row_top=5, exponents=(0, 1, 0))
@example(rows=[(0, 0, 0, 1)] * (CHUNK + 1), k=3, row_top=0,
         exponents=(0, 0, 0))
@example(rows=[(1, 2, 3, 1)] * (CHUNK + 5) + [(1, 2, 4, 2)] * 9, k=3,
         row_top=0, exponents=(0, 0, 0))
def test_serve_and_order_matches_dict_and_sorted(rows, k, row_top, exponents):
    # small index ranges: many targets share a meta-cell; gapped ascending
    # ages, as the planners keep them
    keys = np.array([r[3 - k:3] for r in rows], dtype=np.int64).reshape(-1, k)
    exponents = exponents[3 - k:]
    idx = np.cumsum([r[3] for r in rows], dtype=np.int64)
    ages = idx.copy()
    oldest = {}
    for age, key in zip(ages.tolist(), map(tuple, keys.tolist())):
        oldest.setdefault(tuple(v >> e for v, e in zip(key, exponents)), age)

    def sweep(key):
        rank = row_top - key[-2]
        return (*key[:-2], rank, key[-1] if rank % 2 == 0 else -key[-1])

    want = sorted(oldest.items(), key=lambda item: sweep(item[0]))
    # the planners' int32 cell columns; the keys go to a work space
    cells = tuple(c.astype(np.int32) for c in keys.T)
    out = np.full(len(keys), -1, dtype=np.int64)
    first, left, left_cells, *counts = _serve_and_order(
        cells, idx, row_top, exponents, out)
    # the served targets are the work space's front, in sweep order
    assert first.ctypes.data == out.ctypes.data
    assert first.tolist() == [age for _, age in want]
    # the unserved targets' indices and cells, oldest first, compacted to
    # the front of their own arrays
    unserved = np.isin(ages, first, invert=True)
    assert left.ctypes.data == idx.ctypes.data
    assert left.tolist() == ages[unserved].tolist()
    for c, v, column in zip(left_cells, cells, keys.T):
        assert c.ctypes.data == v.ctypes.data
        assert c.tolist() == column[unserved].tolist()
    # 3D keys also count the distinct (layer, row) pairs and layers; 2D
    # keys count nothing
    want_counts = [len({key[:-1] for key in oldest}),
                   len({key[:1] for key in oldest})]
    assert counts == (want_counts if k == 3 else [])


def test_sweep_planners_peak_memory_and_zero_shift_keys():
    # one n-long int64 array is the visit order and every stage's keys, the
    # cell columns are int32 and compacted in place, and the other passes
    # work a chunk at a time: at the benchmark's 1.5e5 uniform points one
    # call's traced peak is 1.27x the points' bytes for rec_bta and 1.02x
    # for rec_cca (3.00x and 2.48x with n-long temporaries); the bounds
    # leave about 10%
    for plan, params, d, bound in (
            (rec_bta, PARAMS, 2, 1.4),
            (rec_cca, VehicleParams(r_vel=0.3, r_ctr=1.0), 3, 1.12)):
        pset = _uniform_pset(150_000, 4, d)
        tracemalloc.start()
        try:
            plan(pset, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * pset.points.nbytes, (plan.__name__, peak)
    # a column whose exponent is 0 is the caller's own object
    rows, cols = np.arange(5), np.arange(5, 10)
    assert all(a is b for a, b in zip(meta_index((rows, cols),
                                                 bead_meta_exponents(1)),
                                      (rows, cols)))
    assert meta_index((rows, cols), bead_meta_exponents(2))[0] is rows
    assert meta_index((rows, cols), bead_meta_exponents(3))[0] is not rows
    stages = list(cylinder_schedule(1.0, 1.0, 1.0, 0.2, 0.3, 1))
    for sub, same in ((1, (True, True, True)), (2, (True, True, False)),
                      (5, (False, False, False))):
        keys = meta_index((rows, cols, rows), stages[sub - 1][3])
        assert tuple(k is c for k, c in zip(keys, (rows, cols, rows))) == same
