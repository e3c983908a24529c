"""Cell geometry, tiling/covering lookups, and cell-size solvers."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import bead_contains, covers, sample_in_bead

from ditsp import bounds, dtrp, geometry
from ditsp.dtrp import DtrpConfig, _size_cell, predicted_system_time
from ditsp.etsp import PointSet, worst_case_grid
from ditsp.geometry import (CHUNK, MAX_TURN_RATIO, MIN_TURN_RATIO, BeadGrid, BeadSpec,
                            CylinderGrid, bead_area, bead_meta_exponents,
                            bead_schedule, bead_sweep, bead_width, cell_dtype,
                            cylinder_schedule, cylinder_sweep, cylinder_volume, ell_for_n,
                            ell_for_n_3d, meta_index)
from ditsp.harness import ExperimentConfig
from ditsp.planners import rec_bta, rec_cca
from ditsp.rng import substream
from ditsp.vehicle import VehicleParams


def circumradius(p1, p2, p3):
    """Radius of the circle through three points (oracle, cross-product form)."""
    a = np.linalg.norm(p2 - p3)
    b = np.linalg.norm(p1 - p3)
    c = np.linalg.norm(p1 - p2)
    cross = abs((p2[0] - p1[0]) * (p3[1] - p1[1])
                - (p2[1] - p1[1]) * (p3[0] - p1[0]))
    if cross == 0.0:
        return np.inf
    return a * b * c / (2.0 * cross)


def test_bead_width_exact_at_full_length():
    assert bead_width(1.0, 4.0) == pytest.approx(4.0, rel=1e-12)
    assert bead_width(0.25, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_bead_width_small_ell_series():
    # w -> ell^2/(8 rho) with relative error O((ell/rho)^2)
    rho = 1.0
    for ratio in (0.1, 0.01, 1e-5):
        ell = ratio * rho
        assert bead_width(rho, ell) == pytest.approx(
            ell**2 / (8.0 * rho), rel=ratio**2)


def test_bead_width_stable_for_tiny_cells():
    w = bead_width(1.0, 1e-12)
    assert w == pytest.approx(1e-24 / 8.0, rel=1e-12)
    assert w > 0.0


def test_bead_width_domain():
    with pytest.raises(ValueError):
        bead_width(1.0, 0.0)
    with pytest.raises(ValueError):
        bead_width(1.0, 4.1)
    with pytest.raises(ValueError):
        bead_width(-1.0, 0.5)
    for rho in (np.nan, np.inf):
        with pytest.raises(ValueError, match="rho"):
            bead_width(rho, 0.5)
    with pytest.raises(ValueError, match="ell"):
        bead_width(1.0, np.nan)
    # ell**2 / (16 rho**2) underflows: a zero width is an error, not a cell
    with pytest.raises(ValueError, match=r"ell 1e-170 .* rho 1\.0"):
        bead_width(1.0, 1e-170)


def test_bead_area_monte_carlo():
    # bounding-box rejection estimate of the cell area vs ell*w/2
    rng = substream(7, 0)
    spec = BeadSpec.create(1.0, 0.5)
    n = 10**6
    x = rng.uniform(-spec.ell / 2, spec.ell / 2, size=n)
    y = rng.uniform(-spec.w / 2, spec.w / 2, size=n)
    inside = (np.abs(x) / (spec.ell / 2) + np.abs(y) / (spec.w / 2)) <= 1.0
    est = inside.mean() * spec.ell * spec.w
    assert est == pytest.approx(bead_area(spec), rel=0.01)


def test_sample_in_bead_lands_inside_and_fills():
    rng = substream(7, 1)
    spec = BeadSpec.create(0.5, 1.0)
    pts = sample_in_bead(spec, (0.3, -0.2), rng, 20000)
    assert all(bead_contains(spec, (0.3, -0.2), p) for p in pts)
    # all four quadrants of the cell are hit
    dx, dy = pts[:, 0] - 0.3, pts[:, 1] + 0.2
    assert (dx > 0).mean() == pytest.approx(0.5, abs=0.02)
    assert (dy > 0).mean() == pytest.approx(0.5, abs=0.02)


def test_circumradius_property_across_specs():
    # any interior point sits on a circle through the two axis endpoints of
    # radius >= 2 rho (the bounded-curvature pass-through property)
    rng = substream(7, 2)
    for k in range(20):
        rho = float(rng.uniform(0.05, 2.0))
        ell = float(rng.uniform(0.05, 1.0)) * 4.0 * rho
        spec = BeadSpec.create(rho, ell)
        pts = sample_in_bead(spec, (0.0, 0.0), rng, 500)
        pm = np.array([-ell / 2.0, 0.0])
        pp = np.array([ell / 2.0, 0.0])
        for p in pts:
            if abs(p[1]) < 1e-15:
                continue
            assert circumradius(pm, p, pp) >= 2.0 * rho - 1e-9


def test_arc_length_bound():
    spec = BeadSpec.create(1.0, 4.0)
    assert spec.arc_length == pytest.approx(2.0 * math.pi, rel=1e-12)
    small = BeadSpec.create(1.0, 0.1)
    assert small.arc_length >= small.ell


def test_bead_grid_lookup_matches_containment():
    spec = BeadSpec.create(0.05, 0.1)
    grid = BeadGrid(1.0, 1.0, spec)
    rng = substream(7, 3)
    pts = rng.uniform(size=(10**5, 2))
    rows, cols = grid.cell_index(pts)
    cx, cy = grid.cell_center(rows, cols)
    # tiling coverage: every point is inside its assigned cell
    dx = np.abs(pts[:, 0] - cx) / (spec.ell / 2.0)
    dy = np.abs(pts[:, 1] - cy) / (spec.w / 2.0)
    assert np.all(dx + dy <= 1.0 + 1e-9)


def test_bead_grid_lookup_periodicity():
    spec = BeadSpec.create(0.05, 0.1)
    grid = BeadGrid(1.0, 1.0, spec)
    rng = substream(7, 4)
    pts = rng.uniform(size=(1000, 2)) * [0.3, 0.1]
    r0, c0 = grid.cell_index(pts)
    # shifting by one column / one row lattice vector shifts the index
    r1, c1 = grid.cell_index(pts + [spec.ell, 0.0])
    assert np.array_equal(r1, r0) and np.array_equal(c1, c0 + 1)
    r2, c2 = grid.cell_index(pts + [spec.ell / 2.0, spec.w / 2.0])
    assert np.array_equal(r2, r0 + 1) and np.array_equal(c2, c0)


def test_bead_grid_cells_cover_rectangle_count():
    spec = BeadSpec.create(0.05, 0.1)
    grid = BeadGrid(1.0, 0.5, spec)
    cells = list(grid.cells())
    assert len(cells) == len(set(cells))
    # about area/cell_area cells, allowing a boundary band
    expect = 1.0 * 0.5 / bead_area(spec)
    assert expect <= len(cells) <= 2.0 * expect + 4 * (grid.n_rows + 10)


def test_meta_index_halving():
    rows = np.arange(0, 16)
    cols = np.arange(0, 16)
    # n = 4 runs phases 1 to ceil(log2 4) + 1 = 3, all on one grid
    stages = list(bead_schedule(1.0, 1.0, 0.05, 0.1, 4))
    assert [stage[:2] for stage in stages] == [(1, None), (2, None), (3, None)]
    assert all(stage[2] is stages[0][2] for stage in stages)
    (r1, c1), (r2, c2), (r3, c3) = (meta_index((rows, cols), exponents)
                                    for *_, exponents in stages)
    assert np.array_equal(r1, rows) and np.array_equal(c1, cols)
    assert np.array_equal(c2, cols // 2) and np.array_equal(r2, rows)
    assert np.array_equal(r3, rows // 2) and np.array_equal(c3, cols // 2)
    # meta-cell of phase i groups 2**(i-1) base cells
    for phase in range(1, 8):
        vr = (phase - 1) // 2
        vc = phase // 2
        assert 2**(vr + vc) == 2**(phase - 1)
    with pytest.raises(ValueError, match="phase"):
        bead_meta_exponents(0)


def test_meta_row_count_monotone():
    spec = BeadSpec.create(0.05, 0.1)
    grid = BeadGrid(1.0, 1.0, spec)
    counts = [bead_sweep(grid, p).n_rows for p in range(1, 12)]
    assert counts[0] == grid.n_rows
    assert all(b <= a for a, b in zip(counts, counts[1:]))
    assert counts[-1] >= 1


def test_cylinder_volume_identity():
    spec = BeadSpec.create(1.0, 0.5)
    w = bead_width(1.0, 0.5)
    assert spec.radius == w / 4.0
    assert cylinder_volume(spec) == pytest.approx(
        math.pi * (w / 4.0) ** 2 * 0.25, rel=1e-12)
    # leading term pi*ell^5/(2048 rho^2)
    tiny = BeadSpec.create(1.0, 1e-3)
    assert cylinder_volume(tiny) == pytest.approx(
        math.pi * 1e-15 / 2048.0, rel=1e-5)


def test_cylinder_grid_covers_box():
    spec = BeadSpec.create(0.2, 0.3)
    grid = CylinderGrid(1.0, 0.8, 0.6, spec)
    rng = substream(7, 5)
    pts = rng.uniform(size=(10**5, 3)) * [1.0, 0.8, 0.6]
    assert np.all(covers(grid, pts))


def _nearest_axis_scan(grid, pts):
    """(layer, row) of the nearest axis by a scan of every axis in the grid,
    ties to the lowest (layer, row)."""
    ll, rr = np.meshgrid(np.arange(grid.layer_min, grid.layer_max + 1),
                         np.arange(grid.row_min, grid.row_max + 1), indexing="ij")
    ll, rr = ll.ravel(), rr.ravel()
    ya, za = grid.axis_center(ll, rr)
    d2 = (pts[:, 1, None] - ya) ** 2 + (pts[:, 2, None] - za) ** 2
    best = np.argmin(d2, axis=1)  # the first minimum, in (layer, row) order
    return ll[best], rr[best]


def _voronoi_boundary_points(grid, rng, n):
    """Points equidistant from two or four nearest axes, exact in binary.

    In units of the radius the axes sit at ``(y, z) = (s - t, s + t)`` for
    integers ``s, t``; a half-integer ``s`` or ``t`` (or both) puts a point
    on a Voronoi boundary.  Coordinates are multiples of 1/64 of the radius.
    """
    s = rng.integers(-64, 512, size=n) / 64.0
    t = rng.integers(-320, 256, size=n) / 64.0
    kind = rng.integers(0, 3, size=n)
    s = np.where(kind != 1, np.floor(s) + 0.5, s)
    t = np.where(kind != 0, np.floor(t) + 0.5, t)
    rad = grid.spec.radius
    pts = np.column_stack([rng.uniform(0.0, grid.W, size=n),
                           rad * (s - t), rad * (s + t)])
    inside = ((pts[:, 1] >= 0) & (pts[:, 1] <= grid.H)
              & (pts[:, 2] >= 0) & (pts[:, 2] <= grid.D))
    return pts[inside]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rho=st.floats(0.05, 0.5),
       ell_frac=st.floats(0.5, 1.0), W=st.floats(0.5, 2.0),
       h=st.floats(0.1, 1.0), d=st.floats(0.1, 1.0))
def test_cylinder_grid_owner_is_nearest_axis(seed, rho, ell_frac, W, h, d):
    rng = substream(7, 6, seed)
    # random points in a random box
    grid = CylinderGrid(W, W * h, W * h * d,
                        BeadSpec.create(rho, 4.0 * rho * ell_frac))
    pts = rng.uniform(size=(500, 3)) * [grid.W, grid.H, grid.D]
    k, r, c = grid.cell_index(pts)
    assert np.array_equal(np.stack([k, r]), np.stack(_nearest_axis_scan(grid, pts)))
    # exact ties, on a grid of radius 1/4
    grid = CylinderGrid(2.0, 2.0, 1.5, BeadSpec.create(0.25, 1.0))
    assert grid.spec.radius == 0.25
    pts = _voronoi_boundary_points(grid, rng, 600)
    k, r, c = grid.cell_index(pts)
    assert np.array_equal(np.stack([k, r]), np.stack(_nearest_axis_scan(grid, pts)))


def test_cylinder_meta_index():
    # n = 2 runs ceil((1 + 7)/5) = 2 phases of five sub-phases
    stages = list(cylinder_schedule(1.0, 1.0, 1.0, 0.2, 0.3, 2))
    assert [stage[:2] for stage in stages] == [
        (p, sub) for p in (1, 2) for sub in range(1, 6)]
    keys = [tuple(int(k) for k in meta_index((5, 6, 7), exponents))
            for *_, exponents in stages[:5]]
    assert keys == [(5, 6, 7), (5, 6, 3), (5, 3, 3), (5, 3, 1), (2, 3, 1)]
    # the sweep takes the sub-phase number, and rejects one outside 1..5
    grid = stages[0][2]
    for sub in (0, -1, 6):
        with pytest.raises(ValueError, match="subphase must be in 1..5"):
            cylinder_sweep(grid, sub)


@pytest.mark.parametrize("n", [1, 2, 10**6, 10**12])
def test_cylinder_schedule_doubles_cell_up_to_4rho(n):
    # point-free: five sub-phases per phase on one grid, and each phase's
    # cell twice the previous one until it is held at exactly 4*rho
    rho = 0.3
    ell, _ = ell_for_n_3d(1.0, 1.0, 1.0, rho, n)
    stages = list(cylinder_schedule(1.0, 1.0, 1.0, rho, ell, n))
    n_phases = math.ceil((math.log2(n) + 7.0) / 5.0) if n > 1 else 1
    assert [stage[:2] for stage in stages] == [
        (p, sub) for p in range(1, n_phases + 1) for sub in range(1, 6)]
    grids = [stage[2] for stage in stages[::5]]
    assert all(stage[2] is grids[stage[0] - 1] for stage in stages)
    cells = [grid.spec.ell for grid in grids]
    assert cells[0] == ell
    for before, after in zip(cells, cells[1:]):
        assert after == min(2.0 * before, 4.0 * rho)
    assert max(cells) <= 4.0 * rho


def test_ell_for_n_solves_area_equation():
    for n in (10**3, 10**4, 10**6):
        ell, clamped = ell_for_n(1.0, 1.0, 0.01, n)
        assert not clamped
        w = bead_width(0.01, ell)
        assert ell * w / 2.0 == pytest.approx(1.0 / (2.0 * n), rel=1e-10)
    # matches the asymptotic form 2*(rho*W*H/n)**(1/3) at large n
    ell, _ = ell_for_n(1.0, 1.0, 0.01, 10**6)
    assert ell == pytest.approx(2.0 * (0.01 / 10**6) ** (1.0 / 3.0), rel=1e-3)


def test_ell_for_n_clamps_small_n():
    ell, clamped = ell_for_n(1.0, 1.0, 0.25, 1)
    assert clamped and ell == 1.0  # 4 rho


def test_ell_for_n_3d_solves_volume_equation():
    for n in (10**2, 10**5):
        ell, clamped = ell_for_n_3d(1.0, 1.0, 1.0, 0.25, n)
        assert not clamped
        spec = BeadSpec.create(0.25, ell)
        assert cylinder_volume(spec) == pytest.approx(1.0 / (4.0 * n),
                                                      rel=1e-10)
    # and the asymptotic form 2*(16*rho**2*W*H*D/(pi*n))**(1/5)
    ell, _ = ell_for_n_3d(1.0, 1.0, 1.0, 0.25, 10**7)
    assert ell == pytest.approx(
        2.0 * (16.0 * 0.25**2 / (math.pi * 10**7)) ** (1.0 / 5.0), rel=2e-2)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 10**6), step=st.integers(0, 10**6),
       rho=st.floats(1e-3, 10.0), W=st.floats(0.05, 20.0),
       h=st.floats(0.01, 1.0), d=st.floats(0.01, 1.0))
def test_ell_for_n_nonincreasing_in_n(n, step, rho, W, h, d):
    H = W * h
    D = H * d
    assert ell_for_n(W, H, rho, n + step)[0] <= ell_for_n(W, H, rho, n)[0]
    assert (ell_for_n_3d(W, H, D, rho, n + step)[0]
            <= ell_for_n_3d(W, H, D, rho, n)[0])


@st.composite
def _bad_dims(draw):
    """2 or 3 sides that break the workspace rule: one side NaN, infinite or
    not positive, or two neighbouring sides ascending (W < H or H < D)."""
    d = draw(st.sampled_from((2, 3)))
    sides = sorted(draw(st.lists(st.floats(0.5, 2.0), min_size=d, max_size=d)),
                   reverse=True)
    i = draw(st.integers(0, d - 1))
    if i == d - 1 or draw(st.booleans()):
        sides[i] = draw(st.floats(max_value=0.0)
                        | st.sampled_from((math.nan, math.inf)))
    else:
        sides[i + 1] = sides[i] + draw(st.floats(1e-6, 1.0))
    return tuple(sides)


@settings(max_examples=200, deadline=None)
@given(dims=_bad_dims())
def test_every_entry_that_takes_sides_rejects_bad_ones(dims):
    d = len(dims)
    params = VehicleParams(r_vel=0.1, r_ctr=1.0)
    origin = PointSet(points=np.zeros((1, d)))
    calls = [lambda: bounds.dtrp_lower(d, dims, params),
             lambda: bounds.dtrp_upper(d, dims, params),
             lambda: bounds.bound_set(dims, params),
             lambda: predicted_system_time(d, dims, params, 10.0),
             lambda: DtrpConfig(dims=dims, params=params, lam=10.0)]
    if d == 2:
        calls += [lambda: BeadGrid(*dims, BeadSpec.create(0.1, 0.2)),
                  lambda: ell_for_n(*dims, 0.1, 100),
                  lambda: rec_bta(origin, params, *dims),
                  lambda: bounds.tour_lower_2d(*dims, params, 100),
                  lambda: bounds.tour_upper_2d(*dims, params, 100)]
    else:
        calls += [lambda: CylinderGrid(*dims, BeadSpec.create(0.1, 0.2)),
                  lambda: ell_for_n_3d(*dims, 0.1, 100),
                  lambda: rec_cca(origin, params, *dims),
                  lambda: bounds.tour_lower_3d(*dims, params, 100),
                  lambda: bounds.tour_upper_3d(*dims, params, 100),
                  lambda: bounds.dtrp_lower_printed_3d(dims, params)]
    algos = ["rec_bta" if d == 2 else "rec_cca"]
    # a stop-go trial and the worst-case grid take their sides in any order
    if all(math.isfinite(s) and s > 0 for s in dims):
        assert worst_case_grid(4, d, *dims).n == 4
    else:
        calls.append(lambda: worst_case_grid(4, d, *dims))
        algos += ["sgs", "sgs_grid"] if d == 2 else []
    calls += [lambda algo=algo: ExperimentConfig(algo=algo, dims=dims,
                                                 params=params, ns=(4,),
                                                 n_seeds=1)
              for algo in algos]
    for call in calls:
        with pytest.raises(ValueError, match="^dims "):
            call()


# -- lookups built in place, and their int64 reach ---------------------------

def _bead_lookup_reference(grid, pts):
    """``(row, col)`` by the shear formulas, one fresh array per step."""
    a, b = grid.spec.ell / 2.0, grid.spec.w / 2.0
    p = pts[:, 0] / a + pts[:, 1] / b
    q = pts[:, 0] / a - pts[:, 1] / b
    P = 2.0 * np.round(p / 2.0)
    Q = 2.0 * np.round(q / 2.0)
    return ((P - Q) / 2.0).astype(np.int64), (Q / 2.0).astype(np.int64)


def _cylinder_lookup_reference(grid, pts):
    """``(layer, row, col)`` by the lattice formulas, one fresh array per step."""
    u = pts[:, 1] / grid.spec.radius
    v = pts[:, 2] / grid.spec.radius
    s = np.ceil((u + v) / 2.0 - 0.5).astype(np.int64)
    t = np.ceil((v - u) / 2.0 - 0.5).astype(np.int64)
    col = np.clip(np.floor(pts[:, 0] / grid.spec.ell).astype(np.int64),
                  0, grid.n_cols - 1)
    return s + t, (s + t) // 2 - t, col


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rho=st.floats(1e-4, 1.0),
       ell_frac=st.floats(1e-3, 1.0), W=st.floats(0.5, 2.0),
       h=st.floats(0.1, 1.0), d=st.floats(0.1, 1.0))
def test_lookups_match_reference_and_stay_within_reach(seed, rho, ell_frac, W,
                                                       h, d):
    rng = substream(7, 7, seed)
    spec2 = BeadSpec.create(rho, 4.0 * rho * ell_frac)
    spec3 = BeadSpec.create(rho, 4.0 * rho * ell_frac)
    for box, grid, reference in (
            ((W, W * h), BeadGrid(W, W * h, spec2), _bead_lookup_reference),
            ((W, W * h, W * h * d), CylinderGrid(W, W * h, W * h * d, spec3),
             _cylinder_lookup_reference)):
        dim = len(box)
        # the box's corners, then random points, some rounded onto ties
        corners = np.array(np.meshgrid(*[[0.0, 1.0]] * dim)).reshape(dim, -1).T
        pts = np.vstack((corners, rng.uniform(size=(300, dim)),
                         np.round(rng.uniform(size=(100, dim)), 2))) * box
        got, want = grid.cell_index(pts), reference(grid, pts)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert max(int(np.abs(g).max()) for g in got) <= grid.reach


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1])
def test_lookups_match_reference_across_a_chunk(n):
    rng = substream(7, 8, n)
    for box, grid, reference in (
            ((1.0, 0.5), BeadGrid(1.0, 0.5, BeadSpec.create(0.01, 0.03)),
             _bead_lookup_reference),
            ((1.0, 0.5, 0.25), CylinderGrid(1.0, 0.5, 0.25, BeadSpec.create(
                0.05, 0.15)), _cylinder_lookup_reference)):
        pts = rng.uniform(size=(n, len(box))) * box
        got, want = grid.cell_index(pts), reference(grid, pts)
        assert all(g.dtype == np.int32 and np.array_equal(g, w)
                   for g, w in zip(got, want))
        # gathered through an index, into the caller's columns
        index = rng.permutation(n)
        out = tuple(np.full(n, -7, dtype=np.int32) for _ in box)
        assert grid.cell_index(pts, index, out) is out
        assert all(np.array_equal(o, w[index]) for o, w in zip(out, want))


def test_cell_columns_are_int32_below_reach_2_31_else_int64():
    assert cell_dtype(SimpleNamespace(reach=2.0**31 - 1)) == np.int32
    assert cell_dtype(SimpleNamespace(reach=2.0**31)) == np.int64
    # cells of 4e-10 and 1e-9: indices up to 5e9 and 4e9
    rng = substream(7, 9)
    for small, large, reference in (
            (BeadGrid(1.0, 1.0, BeadSpec.create(0.01, 0.02)),
             BeadGrid(1.0, 1.0, BeadSpec.create(1e-10, 4e-10)),
             _bead_lookup_reference),
            (CylinderGrid(1.0, 1.0, 1.0, BeadSpec.create(0.01, 0.02)),
             CylinderGrid(1.0, 1.0, 1.0, BeadSpec.create(2.5e-10, 1e-9)),
             _cylinder_lookup_reference)):
        assert small.reach < 2**31 <= large.reach
        d = 2 if isinstance(small, BeadGrid) else 3
        pts = np.vstack((np.zeros(d), np.ones(d), rng.uniform(size=(100, d))))
        for grid, dtype in ((small, np.int32), (large, np.int64)):
            got = grid.cell_index(pts)
            assert cell_dtype(grid) == dtype
            assert all(g.dtype == dtype for g in got)
            assert all(np.array_equal(g, w)
                       for g, w in zip(got, reference(grid, pts)))
        assert max(int(np.abs(g).max()) for g in large.cell_index(pts)) > 2**31


def test_lookup_rejects_a_grid_past_int64():
    # a turn radius of 2**-511 with cells of its largest size: 5e153 rows
    rho = 2.0**-511
    for d, grid in ((2, BeadGrid(1.0, 1.0, BeadSpec.create(rho, 4.0 * rho))),
                    (3, CylinderGrid(1.0, 1.0, 1.0,
                                     BeadSpec.create(rho, 4.0 * rho)))):
        # built, as the DTRP cell sizing builds its bracket's short cells
        assert grid.reach > 2.0**63
        with pytest.raises(ValueError, match=f"int64: turn radius {rho} "):
            grid.cell_index(np.zeros((1, d)))


def test_lookup_rejects_an_index_past_its_column():
    # int32 columns: a point a billion cells out has no index in them
    cylinders = CylinderGrid(1.0, 1.0, 1.0, BeadSpec.create(0.01, 0.02))
    for grid, point in ((BeadGrid(1.0, 1.0, BeadSpec.create(0.01, 0.02)),
                         [1e9, 0.5]),
                        (cylinders, [0.5, 1e9, 0.5]),
                        # s and t fit int32, their sum, the layer, does not
                        (cylinders, [0.5, 0.5, 4.3e6])):
        assert cell_dtype(grid) == np.int32
        pts = np.vstack((np.full((CHUNK + 1, len(point)), 0.5), point))
        for index in (None, np.arange(len(pts))[::-1]):
            with pytest.raises(ValueError,
                               match="^a cell index does not fit the int32 "):
                grid.cell_index(pts, index)


def test_cylinder_layer_is_exact_past_2_53():
    # int64 columns: the layer s + t is an integer sum, which a float sum
    # past 2**53 is not
    grid = CylinderGrid(1.0, 1.0, 1.0, BeadSpec.create(1e-17, 4e-17))
    pts = substream(7, 11).uniform(size=(1000, 3))
    got, want = grid.cell_index(pts), _cylinder_lookup_reference(grid, pts)
    assert got[0].dtype == np.int64 and got[0].max() > 2**53
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@settings(max_examples=200, deadline=None)
@given(log_rho=st.floats(-9.0, 0.0), n=st.integers(2, 10**12))
def test_cylinder_schedule_reach_never_grows(log_rho, n):
    # point-free: a later stage's cell is no shorter, so its indices fit the
    # columns of the first stage's lookup
    rho = 10.0**log_rho
    ell, _ = ell_for_n_3d(1.0, 1.0, 1.0, rho, n)
    reach = [grid.reach for _, _, grid, _ in
             cylinder_schedule(1.0, 1.0, 1.0, rho, ell, n)]
    assert all(a >= b for a, b in zip(reach, reach[1:]))


def test_cell_sizing_rejects_a_turn_radius_past_the_ratio():
    above = math.nextafter(MAX_TURN_RATIO, math.inf)
    for scale in (1.0, 1e-10, 1e10):
        # the bound scales with the workspace, and holds at equality
        assert 0.0 < ell_for_n(scale, scale, MAX_TURN_RATIO * scale, 10**6)[0]
        assert 0.0 < ell_for_n_3d(scale, scale, scale, MAX_TURN_RATIO * scale,
                                  10**6)[0]
        with pytest.raises(ValueError, match="^turn radius "):
            ell_for_n(scale, scale, above * scale, 50)
        with pytest.raises(ValueError, match="^turn radius "):
            ell_for_n_3d(scale, scale, scale, above * scale, 50)
    # far past it, the cell geometry would overflow: (4 * rho)**2 is inf
    with pytest.raises(ValueError, match="^turn radius 1e\\+200 "):
        ell_for_n(1.0, 1.0, 1e200, 50)


def test_cell_sizing_rejects_a_turn_radius_below_the_ratio():
    # powers of two, so that the bound and its next float below are exact
    for scale in (1.0, 2.0**-30, 2.0**30):
        rho = MIN_TURN_RATIO * scale
        below = math.nextafter(rho, 0.0)
        assert ell_for_n(scale, scale, rho, 50) == (4.0 * rho, True)
        # a tour needs n past 2**124 to solve below the clamp at the bound
        assert not ell_for_n(scale, scale, rho, 2**130)[1]
        assert not ell_for_n_3d(scale, scale, scale, rho, 2**200)[1]
        with pytest.raises(ValueError, match="int64: turn radius "):
            ell_for_n(scale, scale, below, 50)
        with pytest.raises(ValueError, match="int64: turn radius "):
            ell_for_n_3d(scale, scale, scale, below, 50)
        at = VehicleParams(r_vel=1.0, r_ctr=1.0 / rho)
        # two ulps below: 1 / (1/rho + one ulp)
        under = VehicleParams(r_vel=1.0,
                              r_ctr=math.nextafter(1.0 / rho, math.inf))
        assert at.turn_radius == rho
        assert under.turn_radius == math.nextafter(below, 0.0)
        for dims in ((scale, scale), (scale, scale, scale)):
            # at the bound the bracket's probe grids stay finite; the cell
            # found is past int64 for the lookups, as every cell of the
            # radius is (at most 4*rho long, 2**62 of them along the side)
            with pytest.raises(ValueError, match="too small for the workspace"):
                _size_cell(DtrpConfig(dims=dims, params=at, lam=20.0), 0.7)
            with pytest.raises(ValueError, match="less than 2\\*\\*-64 times"):
                _size_cell(DtrpConfig(dims=dims, params=under, lam=20.0), 0.7)


@pytest.fixture
def cell_solves(monkeypatch):
    """Record every solve_cell call, of the tours and of the DTRP alike, as
    ``(rho, excess, (ell, clamped))``."""
    solve, solves = geometry.solve_cell, []

    def recorded(rho, dims, excess):
        solves.append((rho, excess, solve(rho, dims, excess)))
        return solves[-1][2]

    monkeypatch.setattr(geometry, "solve_cell", recorded)
    monkeypatch.setattr(dtrp, "solve_cell", recorded)
    return solves


def test_cell_length_has_a_certificate(cell_solves):
    # the excess of the tours' cells is smooth; the DTRP's is a sawtooth in
    # ell with several crossings near the root, and the certificate names
    # one of them exactly
    for side in (1.0, 7.5, 1e-3, 1e4):
        for rho in (0.003 * side, 0.02 * side, 0.1 * side, 0.6 * side):
            for n in (2, 30, 200, 3000, 10**4, 10**5, 10**6, 10**9, 10**12):
                ell_for_n(side, 0.6 * side, rho, n)
                ell_for_n_3d(side, 0.8 * side, 0.5 * side, rho, n)
    for dims, r_vel in (((1.0, 1.0), 0.1), ((2.0, 0.5), 0.3),
                        ((1.0, 1.0, 1.0), 0.1), ((3.0, 1.0, 0.5), 0.05)):
        params = VehicleParams(r_vel=r_vel, r_ctr=1.0)
        for lam in (0.5, 2.0, 7.0, 20.0, 40.0, 150.0, 600.0):
            for x in (0.5, 0.7192235935955849, 0.8246094703208939):
                _size_cell(DtrpConfig(dims=dims, params=params, lam=lam), x)
    assert sum(not clamped for *_, (_, clamped) in cell_solves) > 250
    for rho, excess, (ell, clamped) in cell_solves:
        if clamped:
            assert ell == 4.0 * rho and excess(ell) <= 0
        else:
            assert excess(ell) <= 0 < excess(math.nextafter(ell, math.inf))


def test_cell_solver_names_a_nan_excess():
    # NaN below ell = 1: the bracket's low end, 4e-9 * rho, is the first NaN
    with pytest.raises(ValueError, match="^cell excess at ell = 4e-09 is NaN"):
        geometry.solve_cell(1.0, (1.0, 1.0),
                            lambda ell: ell - 2.0 if ell >= 1.0 else math.nan)
