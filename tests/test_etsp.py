"""Tour heuristic quality and diagnostics against exact small-case solutions."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import ditsp.etsp
from ditsp.etsp import (_KD_MARGIN, PointSet, _reverse_arc, _two_opt,
                        etsp_tour, held_karp_length, kd_neighbours,
                        long_edge_count, nearest_walk, row_distance,
                        row_distances, worst_case_grid)
from ditsp.rng import substream


def test_point_set_validation():
    with pytest.raises(ValueError):
        PointSet(points=np.zeros((3, 4)))
    with pytest.raises(ValueError):
        PointSet(points=np.zeros((0, 2)))
    with pytest.raises(ValueError):
        PointSet(points=np.zeros(5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("d", [2, 3])
def test_point_set_rejects_non_finite(bad, d):
    pts = np.full((4, d), 0.5)
    pts[2, d - 1] = bad
    with pytest.raises(ValueError, match="finite"):
        PointSet(points=pts)


def test_tour_is_permutation():
    rng = substream(11, 0)
    for n in (1, 2, 3, 7, 200):
        ps = PointSet(points=rng.uniform(size=(n, 2)))
        tour = etsp_tour(ps, seed=1)
        assert sorted(tour.order.tolist()) == list(range(n))
        assert len(tour.edge_lengths) == n


def test_heuristic_close_to_exact():
    # within 25% of Held-Karp on random 10-point instances
    rng = substream(11, 1)
    for k in range(10):
        pts = rng.uniform(size=(10, 2))
        exact = held_karp_length(pts)
        got = etsp_tour(PointSet(points=pts), seed=k).length
        assert exact <= got * (1 + 1e-9)
        assert got <= 1.25 * exact


def test_heuristic_close_to_exact_3d():
    rng = substream(11, 2)
    for k in range(5):
        pts = rng.uniform(size=(9, 3))
        exact = held_karp_length(pts)
        got = etsp_tour(PointSet(points=pts), seed=k).length
        assert got <= 1.25 * exact


def test_square_tour_exact():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tour = etsp_tour(PointSet(points=pts), seed=0)
    assert tour.length == pytest.approx(4.0, rel=1e-12)


def test_two_opt_no_crossing_improvement():
    # a deliberately crossed order must not survive optimization on a convex set
    rng = substream(11, 3)
    theta = np.sort(rng.uniform(0, 2 * np.pi, size=30))
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    hull_len = float(np.linalg.norm(pts - np.roll(pts, 1, axis=0),
                                    axis=1).sum())
    tour = etsp_tour(PointSet(points=pts), seed=0)
    assert tour.length == pytest.approx(hull_len, rel=1e-9)


def test_long_edge_count():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.1, 1.0], [0.0, 1.0]])
    tour = etsp_tour(PointSet(points=pts), seed=0)
    assert long_edge_count(tour, 0.5) == 2
    assert long_edge_count(tour, 2.0) == 0
    with pytest.raises(ValueError):
        long_edge_count(tour, 0.0)


def test_worst_case_grid_spacing():
    for n, d in ((50, 2), (100, 2), (60, 3)):
        ps = worst_case_grid(n, d, 1.0, 1.0, 1.0)
        assert ps.n == n and ps.d == d
        pts = ps.points
        dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        np.fill_diagonal(dists, np.inf)
        assert dists.min() >= 0.5 * n ** (-1.0 / d) - 1e-12
        assert np.all(pts >= 0.0) and np.all(pts <= 1.0)


def test_worst_case_grid_exact_square():
    ps = worst_case_grid(9, 2, 1.0, 1.0)
    xs = sorted(set(np.round(ps.points[:, 0], 12)))
    assert xs == [pytest.approx(v) for v in (1 / 6, 1 / 2, 5 / 6)]


def test_held_karp_known_case():
    # unit square optimum is the perimeter
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert held_karp_length(pts) == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(ValueError):
        held_karp_length(np.zeros((13, 2)))


def test_etsp_deterministic_given_seed():
    rng = substream(11, 4)
    pts = rng.uniform(size=(300, 2))
    a = etsp_tour(PointSet(points=pts), seed=5)
    b = etsp_tour(PointSet(points=pts), seed=5)
    assert np.array_equal(a.order, b.order)


# sha256 of etsp_tour(..., seed=3).order as int64, recorded with the
# per-step kd-tree walk and per-pair np.linalg.norm 2-opt of commit 53bf733;
# the neighbour-list rewrite must give the same tours byte for byte.  A
# "-dense" input has n <= _GROW_ROWS_LIMIT, where 2-opt rows grow to every
# point (once a dense distance matrix).  grid-900-dense-ties was re-recorded
# when that matrix went: its exact distance ties are now scanned in kd-tree
# order instead of argsort order (length 30.82755... -> 30.79994...).  Both
# grid pins were re-recorded when the walk's ties went to the lowest index
# instead of kd order (grid-900: 30.79994... -> 30.31734..., grid-1600:
# 40.88924... -> 40.36227...).  Both were re-recorded again when 2-opt took
# its rows from the walk's k = 16 query, which orders exact ties unlike a
# k = 9 query (grid-900: 30.317344640832047 -> 30.344958878323588,
# grid-1600: 40.362272549335955 -> 40.32085119309864)
PINNED_TOURS = {
    "uniform-1000-dense":
        ("b30518cd4eb02e5270f2aeaa583ac03743a1c6e094ef2daaab2643b6c6c8d833",
         lambda: substream(21, 0).uniform(size=(1000, 2))),
    "uniform-2000-neighbour-lists":
        ("ccef2d03752ae8acf87cef778c9904b34ab657b53ff077f88fe8cb099cb4229d",
         lambda: substream(21, 1).uniform(size=(2000, 2))),
    "uniform-3d-1500":
        ("3956339cec51263f7662548bdcb6389e12b19d15f14e67d42cc00ddcab7b8c1f",
         lambda: substream(21, 2).uniform(size=(1500, 3))),
    "uniform-3d-700-dense":
        ("adc74b89ceea7bbf2b9b41c33ee31e3a871b09f4bce15e6a96886bc34ad6f912",
         lambda: substream(21, 3).uniform(size=(700, 3))),
    "grid-1600-ties":
        ("0d3fcab0ec299922a6e8d4a8930772447ce8d4c96fbbe3d788f03bb7a063ac65",
         lambda: worst_case_grid(1600, 2, 1.0, 1.0).points),
    "grid-900-dense-ties":
        ("879aa907a45a7c9be14a108e7bc98d479772375468a0009c2e832196b35889a8",
         lambda: worst_case_grid(900, 2, 1.0, 1.0).points),
}


@pytest.mark.parametrize("name", sorted(PINNED_TOURS))
def test_tour_digest_pinned(name):
    digest, make = PINNED_TOURS[name]
    order = etsp_tour(PointSet(points=make()), seed=3).order
    got = hashlib.sha256(np.asarray(order, dtype=np.int64).tobytes())
    assert got.hexdigest() == digest


def _brute_force_walk(points, start):
    """Nearest-neighbour walk by full distance scans (no kd-tree)."""
    n = len(points)
    visited = np.zeros(n, dtype=bool)
    order = [start]
    visited[start] = True
    for _ in range(1, n):
        d = np.linalg.norm(points - points[order[-1]], axis=1)
        d[visited] = np.inf
        nxt = int(np.argmin(d))
        order.append(nxt)
        visited[nxt] = True
    return np.array(order)


class _CountingTree(cKDTree):
    """kd-tree that records every tree built, the ``k`` of every query, the
    number of batched (2-D) queries and the ``k`` of every single-point
    query."""

    ks = []
    built = 0
    batched = 0
    single = []

    def __init__(self, *args, **kw):
        _CountingTree.built += 1
        super().__init__(*args, **kw)

    def query(self, x, k=1, **kw):
        _CountingTree.ks.append(k)
        if np.ndim(x) == 2:
            _CountingTree.batched += 1
        else:
            _CountingTree.single.append(k)
        return super().query(x, k=k, **kw)


def test_etsp_tour_builds_one_tree_and_one_batched_query(monkeypatch):
    # the walk and 2-opt share one neighbour source
    monkeypatch.setattr(ditsp.etsp, "cKDTree", _CountingTree)
    monkeypatch.setattr(_CountingTree, "built", 0)
    monkeypatch.setattr(_CountingTree, "batched", 0)
    etsp_tour(PointSet(points=substream(11, 8).uniform(size=(1000, 2))), seed=1)
    assert (_CountingTree.built, _CountingTree.batched) == (1, 1)


def _tie_cases(d):
    """Inputs with many exact distance ties: grids, duplicates, rounding."""
    rng = substream(11, 6, d)
    grids = [worst_case_grid(n, d, 1.0, 1.0, 1.0).points for n in (16, 100, 400)]
    base = rng.uniform(size=(50, d))
    return grids + [base[rng.integers(50, size=300)],
                    np.round(rng.uniform(size=(400, d)), 1)]


def _walk(points, start, neighbours):
    lengths, order = nearest_walk(points, start, neighbours)
    return lengths, np.append(start, order)


def _walks_match_brute_force():
    """Walk every input from three starts and compare with the brute-force
    walk, order and exact leg lengths; return the ``k`` of every single-point
    kd query the walks made."""
    rng = substream(11, 5)
    # two clusters of 300 far apart use up the 16- and 64-neighbour lists of
    # the last point of the first one; clusters of 40 use up 16
    centres = [(0.0, 0.0), (50.0, 0.0), (0.0, 50.0), (50.0, 50.0), (25, 90)]
    sizes = [300, 300, 40, 40, 40]
    clustered = np.concatenate([c + rng.uniform(size=(m, 2))
                                for c, m in zip(centres, sizes)])
    inputs = [rng.uniform(size=(n, d)) for n, d in
              ((1, 2), (2, 3), (3, 2), (17, 2), (500, 2), (400, 3))]
    inputs += _tie_cases(2) + _tie_cases(3) + [clustered]
    _CountingTree.single.clear()
    for pts in inputs:
        for start in (0, len(pts) // 2, len(pts) - 1):
            lengths, got = _walk(pts, start, kd_neighbours(pts))
            assert np.array_equal(got, _brute_force_walk(pts, start))
            legs = np.linalg.norm(pts[got[1:]] - pts[got[:-1]], axis=1)
            assert lengths == legs.tolist()
    return _CountingTree.single


def test_nearest_neighbor_walk_matches_brute_force(monkeypatch):
    # every input has fewer than _SCAN_UNVISITED_MAX points, so a row that
    # runs out goes straight to the pass over the unvisited points: the one
    # batched k = 16 query per input is the walk's only kd query
    monkeypatch.setattr(ditsp.etsp, "cKDTree", _CountingTree)
    assert _walks_match_brute_force() == []


def test_nearest_neighbor_walk_grows_a_row_once(monkeypatch):
    # above _SCAN_UNVISITED_MAX unvisited points a row that runs out grows
    # once, 16 -> 64, and a grown row that runs out goes to the full pass
    monkeypatch.setattr(ditsp.etsp, "cKDTree", _CountingTree)
    monkeypatch.setattr(ditsp.etsp, "_SCAN_UNVISITED_MAX", 0)
    single = _walks_match_brute_force()
    assert 64 in single and max(single) <= 64


@st.composite
def _walk_inputs(draw):
    """Up to 300 points in 2D or 3D, coordinates rounded to 0.1 (exact
    distance ties) and drawn from a pool of ``m <= n`` (exact duplicates),
    with a start row."""
    d = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 300))
    m = draw(st.integers(1, n))
    span = draw(st.sampled_from((0.5, 2.0, 10.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.round(rng.uniform(0.0, span, size=(m, d)), 1)
    return pool[rng.integers(m, size=n)], draw(st.integers(0, n - 1))


@pytest.mark.parametrize("scan_max", [ditsp.etsp._SCAN_UNVISITED_MAX, 0])
@settings(max_examples=100, deadline=None)
@given(case=_walk_inputs())
def test_nearest_walk_property_matches_brute_force(scan_max, case):
    pts, start = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ditsp.etsp, "_SCAN_UNVISITED_MAX", scan_max)
        lengths, got = _walk(pts, start, kd_neighbours(pts))
    assert np.array_equal(got, _brute_force_walk(pts, start))
    legs = np.linalg.norm(pts[got[1:]] - pts[got[:-1]], axis=1)
    assert lengths == legs.tolist()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
def test_kd_distances_within_margin_of_row_distance(d, scale):
    # nearest_walk is exact only if a kd distance and row_distance of the
    # same pair differ by less than _KD_MARGIN relative
    pts = substream(11, 7, d).uniform(size=(2000, d)) * scale
    kd, nbrs = cKDTree(pts).query(pts, k=16)
    dist = row_distance(pts)
    exact = np.array([[dist(u, v) for v in row]
                      for u, row in enumerate(nbrs.tolist())])
    apart = exact > 0
    gap = np.abs(kd - exact)[apart] / exact[apart]
    assert gap.max() < _KD_MARGIN and np.all(kd[~apart] == 0)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
def test_row_distances_bit_equal_to_row_distance(d, scale):
    # the walk's full pass takes the same step as a row_distance scan only
    # if the two agree in every bit
    rng = substream(11, 9, d)
    pts = rng.uniform(-1.0, 1.0, size=(500, d)) * scale
    dist, dists = row_distance(pts), row_distances(pts)
    rows = rng.permutation(500)
    for u in range(0, 500, 7):
        want = [dist(u, v) for v in rows.tolist()]
        assert dists(u, rows).tolist() == want


def _improving_moves(points, tour):
    """Edge pairs whose 2-opt exchange shortens the tour by more than 1e-12."""
    dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    a, b = tour, np.roll(tour, -1)
    removed = dist[a, b]
    gain = (removed[:, None] + removed[None, :]
            - dist[a[:, None], a[None, :]] - dist[b[:, None], b[None, :]])
    return int(np.count_nonzero(np.triu(gain, 2) > 1e-12))


@pytest.mark.parametrize("d", [2, 3])
def test_two_opt_fixed_point_is_local_optimum(d):
    # a tour the full-candidate scan leaves unchanged admits no improving
    # 2-opt move; one call need not reach such a tour (see _two_opt)
    inputs = [substream(13, 10 * d + k).uniform(size=(n, d))
              for k, n in enumerate((5, 12, 50, 120, 200, 200))]
    for pts in inputs + _tie_cases(d):
        n = len(pts)
        tour = _walk(pts, 0, neighbours := kd_neighbours(pts))[1]
        for _ in range(50):
            nxt = _two_opt(pts, tour, max_moves=50 * n, neighbours=neighbours)
            if np.array_equal(nxt, tour):
                break
            tour = nxt
        else:
            pytest.fail("2-opt did not reach a fixed point")
        assert sorted(tour.tolist()) == list(range(n))
        assert _improving_moves(pts, tour) == 0


def _dense_two_opt(points, order, max_moves):
    """``_two_opt`` scanning full rows of a dense distance matrix.

    Each anchor's candidates are every other city, in ``argsort`` order of
    its row of the n x n matrix; the loop is ``_two_opt``'s.
    """
    n = len(order)
    if n < 4:
        return order
    full = np.sqrt(sum((p[:, None] - p[None, :]) ** 2 for p in points.T))
    cand = np.argsort(full, axis=1)[:, 1:]
    dist = full.item
    tour = order.copy()
    pos = np.empty(n, dtype=np.int64)
    pos[tour] = np.arange(n)
    dont_look = bytearray(n)
    moves = 0
    queue = list(range(n))
    while queue and moves < max_moves:
        a = queue.pop()
        if dont_look[a]:
            continue
        improved = False
        ia = int(pos[a])
        for step in (1, -1):
            ib = (ia + step) % n
            b = int(tour[ib])
            d_ab = dist(a, b)
            for c in cand[a].tolist():
                if c == b or c == a:
                    continue
                d_ac = dist(a, c)
                if d_ac >= d_ab:
                    break
                ic = int(pos[c])
                idd = (ic + step) % n
                d = int(tour[idd])
                if d == a:
                    continue
                delta = d_ac + dist(b, d) - d_ab - dist(c, d)
                if delta < -1e-12:
                    if step == 1:
                        _reverse_arc(tour, pos, ib, ic)
                    else:
                        _reverse_arc(tour, pos, ia, idd)
                    moves += 1
                    improved = True
                    for t in (a, b, c, d):
                        dont_look[t] = 0
                        queue.append(t)
                    break
            if improved:
                break
        if improved:
            queue.append(a)
        else:
            dont_look[a] = 1
            if not queue:
                queue = [t for t in range(n) if not dont_look[t]]
    return tour


@pytest.mark.parametrize("d", [2, 3])
def test_two_opt_matches_dense_scan(monkeypatch, d):
    # rows that grow on demand see every candidate the dense scan sees; on
    # inputs without exact distance ties both scan them in the same order
    monkeypatch.setattr(ditsp.etsp, "cKDTree", _CountingTree)
    grown = []
    for k, n in enumerate((50, 300, 1000, 1200)):
        pts = substream(17, 10 * d + k).uniform(size=(n, d))
        for start in (0, n // 2):
            order = _walk(pts, start, neighbours := kd_neighbours(pts))[1]
            _CountingTree.ks.clear()
            got = _two_opt(pts, order, max_moves=50 * n, neighbours=neighbours)
            grown += [q for q in _CountingTree.ks if q > ditsp.etsp._KNN + 1]
            want = _dense_two_opt(pts, order, max_moves=50 * n)
            assert got.tobytes() == want.tobytes()
    # some scan ran off its first row, so the growth branch ran
    assert grown
