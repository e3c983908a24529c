"""Euclidean TSP tour ordering (nearest neighbor + 2-opt) and edge diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from ditsp.rng import substream

# 2-opt scans each city's _KNN nearest neighbours; up to this size a row that
# a scan runs off grows on demand, up to every point, so scans see every
# candidate the move test could accept
_GROW_ROWS_LIMIT = 1200
_KNN = 8
# a point whose kd distance exceeds the best candidate's row_distance by this
# relative margin can be neither nearer nor tied: kd distances and
# row_distance differ by far less
_KD_MARGIN = 1e-9
# below this many unvisited points, one row_distances pass over them all
# costs about one single-point kd re-query (~20 us), so a walk row that runs
# out is settled by that pass instead of a grown row
_SCAN_UNVISITED_MAX = 4096


@dataclass
class PointSet:
    """Point collection in R^d, d in {2, 3}."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] not in (2, 3):
            raise ValueError("points must be an (n, d) array with d in {2, 3}")
        if len(self.points) < 1:
            raise ValueError("point set must be nonempty")
        if not np.isfinite(self.points).all():
            raise ValueError("points must be finite (no NaN or inf coordinates)")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass
class TourOrder:
    """Closed tour: permutation of point indices plus per-edge lengths."""

    order: np.ndarray
    edge_lengths: np.ndarray = field(default=None)

    @property
    def length(self) -> float:
        return float(self.edge_lengths.sum())


def _edge_lengths(points: np.ndarray, order: np.ndarray) -> np.ndarray:
    nxt = np.roll(order, -1)
    return np.linalg.norm(points[order] - points[nxt], axis=1)


def row_distance(points: np.ndarray):
    """``dist(u, v)``, the distance between rows ``u`` and ``v`` of an (n, 2)
    or (n, 3) array.

    The one point distance of 2-opt and the greedy cleanup: the
    per-dimension differences, squared and summed left to right, then
    ``sqrt``, on Python floats.  It is bit-for-bit
    ``np.linalg.norm(..., axis=1)``.  ``math.hypot`` and ``np.linalg.norm``
    of a 1-D vector (a ``dot`` with fused multiply-adds) each differ from it
    in the last bit on many pairs.  Swapping ``u`` and ``v`` negates each
    difference and leaves its square unchanged.
    """
    if points.shape[1] == 2:
        xs, ys = points.T.tolist()

        def dist(u, v):
            dx = xs[u] - xs[v]
            dy = ys[u] - ys[v]
            return math.sqrt(dx * dx + dy * dy)
    else:
        xs, ys, zs = points.T.tolist()

        def dist(u, v):
            dx = xs[u] - xs[v]
            dy = ys[u] - ys[v]
            dz = zs[u] - zs[v]
            return math.sqrt(dx * dx + dy * dy + dz * dz)
    return dist


def row_distances(points: np.ndarray):
    """``dists(u, rows)``, the distances from row ``u`` to each row of the
    integer array ``rows`` of an (n, 2) or (n, 3) array, as a float array.

    The vectorised :func:`row_distance`, bit-equal to it pair for pair: the
    same per-dimension differences (negated, which leaves each square
    unchanged), squared and summed left to right, then ``np.sqrt``; numpy's
    subtraction, product, sum and ``sqrt`` are correctly rounded, as
    Python's are.
    """
    first, *rest = [np.ascontiguousarray(axis) for axis in points.T]

    def dists(u, rows):
        diff = first[rows] - first[u]
        total = diff * diff
        for axis in rest:
            diff = axis[rows] - axis[u]
            total += diff * diff
        return np.sqrt(total, out=total)
    return dists


def kd_neighbours(points: np.ndarray):
    """The one neighbour source of :func:`nearest_walk` and ``_two_opt``.

    Builds the kd-tree over ``points`` and makes one batched query for every
    row's ``min(n, 16)`` nearest points, the row itself included (among
    exact duplicates, not always first).  Returns ``(tree, kd, idx)``, the
    kd distances and indices as (n, k) arrays; :func:`grow_row` lengthens a
    row from the same tree.  Points must be finite (the kd-tree rejects
    others).
    """
    n = len(points)
    tree = cKDTree(points)
    kd, idx = tree.query(points, k=min(n, 16))
    # for k = 1 the query returns 1-D arrays
    return tree, kd.reshape(n, -1), idx.reshape(n, -1)


def grow_row(tree: cKDTree, u: int, length: int):
    """Row ``u`` re-queried for 4x ``length`` points, capped at ``n``, as
    lists of kd distances and indices.

    ``_two_opt`` grows a row as often as its scans need; a
    :func:`nearest_walk` row grows at most once.
    """
    kd, idx = tree.query(tree.data[u], k=min(tree.n, 4 * length))
    return kd.tolist(), idx.tolist()


def nearest_walk(points: np.ndarray, start: int, neighbours):
    """Nearest-neighbour walk from row ``start`` over the other rows.

    Each step goes to the unvisited row nearest the current one by
    :func:`row_distance`, ties to the lowest index.  Candidates come from
    ``neighbours``, the :func:`kd_neighbours` rows of ``points``: every
    row's 16 nearest, scanned in kd order up to the first unvisited entry
    whose kd distance exceeds the best candidate's by the relative
    ``_KD_MARGIN``; no entry past it can be nearer or tie (kd distances and
    :func:`row_distance` differ by far less).  A row runs out when the scan
    passes its end, it does not list every point, and its last kd distance
    is within the margin of the best.  Then, with fewer than
    ``_SCAN_UNVISITED_MAX`` rows unvisited, one :func:`row_distances` pass
    over every unvisited row takes the step; with more, the row grows once
    by :func:`grow_row` (16 -> 64), and only if that row runs out too does
    the pass take the step.  So a walk row grows at most once.

    Returns ``(lengths, order)``: ``order`` lists every row but ``start`` in
    visiting order and each length is the distance that chose its step.
    """
    n = len(points)
    dist = row_distance(points)
    dists = row_distances(points)
    tree, kd_rows, nbr_rows = neighbours
    k = kd_rows.shape[1]
    # one row is a slice of flat memoryviews, read as Python scalars
    kd_flat = memoryview(kd_rows.reshape(-1))
    nbr_flat = memoryview(nbr_rows.reshape(-1))
    visited = bytearray(n)
    visited[start] = 1
    # ascending unvisited rows for the full pass, compacted when it runs
    unvisited = np.arange(n)
    is_visited = np.frombuffer(visited, np.uint8)
    cur = start
    lengths = []
    order = np.empty(n - 1, dtype=np.int64)
    for step in range(n - 1):
        kd, nbrs = kd_flat[cur * k:(cur + 1) * k], nbr_flat[cur * k:(cur + 1) * k]
        while True:
            best, best_d, cut = -1, math.inf, math.inf
            for i, j in enumerate(nbrs):
                if visited[j]:
                    continue
                if kd[i] > cut:
                    break
                dj = dist(cur, j)
                if dj < best_d or (dj == best_d and j < best):
                    best, best_d, cut = j, dj, dj * (1.0 + _KD_MARGIN)
            else:
                # the row ran out; a point outside it may still be nearer
                # or tie unless its last kd distance is past the cut or it
                # lists every point
                if len(nbrs) < n and kd[-1] <= cut:
                    # grow a first row once, while many rows are unvisited
                    if len(nbrs) == k and n - 1 - step >= _SCAN_UNVISITED_MAX:
                        kd, nbrs = grow_row(tree, cur, k)
                        continue
                    unvisited = unvisited[is_visited[unvisited] == 0]
                    d = dists(cur, unvisited)
                    # the first minimum: ties go to the lowest index
                    i = int(d.argmin())
                    best, best_d = int(unvisited[i]), float(d[i])
            break
        lengths.append(best_d)
        order[step] = best
        visited[best] = 1
        cur = best
    return lengths, order


def _two_opt(points: np.ndarray, order: np.ndarray, max_moves: int, neighbours):
    """First-improvement 2-opt with don't-look bits; reverses the shorter arc.

    Candidate cities are scanned in increasing distance from the anchor city
    and the scan stops once the candidate edge is no shorter than the removed
    one; checking both tour directions per anchor makes this exhaustive when
    the scan sees every candidate.  Each city's row starts as the first
    ``_KNN + 1`` columns of ``neighbours``, the :func:`kd_neighbours` rows
    of ``points``; a row keeps the city itself, which the scan skips.  For
    ``n <= _GROW_ROWS_LIMIT``, a scan that runs off the end of a row without
    stopping or moving grows it by :func:`grow_row` and rescans the longer
    row, so a fixed point is a true 2-opt local optimum; above the limit
    rows keep ``_KNN + 1`` entries.  One call need not end at a fixed point:
    a move clears the don't-look bits of its four endpoints only, so an
    anchor set aside earlier can keep an improving move (3D tours of 50-200
    points show this).

    Every distance is :func:`row_distance`'s, bit-for-bit the
    ``np.linalg.norm(..., axis=...)`` of ``_edge_lengths``, so move tests and
    edge lengths agree.  Exact distance ties are scanned in kd-tree order.
    """
    n = len(order)
    if n < 4:
        return order
    tree, _, idx = neighbours
    rows = idx[:, :_KNN + 1].tolist()

    dist = row_distance(points)
    tour = order.copy()
    pos = np.empty(n, dtype=np.int64)
    pos[tour] = np.arange(n)
    # the loop reads single entries as Python ints through memoryviews and
    # _reverse_arc writes whole arcs through the arrays
    tour_at, pos_of = memoryview(tour), memoryview(pos)
    dont_look = bytearray(n)
    moves = 0
    queue = list(range(n))
    while queue and moves < max_moves:
        a = queue.pop()
        if dont_look[a]:
            continue
        improved = False
        ia = pos_of[a]
        for step in (1, -1):
            ib = (ia + step) % n
            b = tour_at[ib]
            d_ab = dist(a, b)
            row = rows[a]
            while True:
                for c in row:
                    if c == b or c == a:
                        continue
                    d_ac = dist(a, c)
                    if d_ac >= d_ab:
                        break
                    ic = pos_of[c]
                    idd = (ic + step) % n
                    d = tour_at[idd]
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
                else:
                    # the row ran out before a stop, so the scan had no
                    # effect: rescan a grown row
                    if len(row) < n <= _GROW_ROWS_LIMIT:
                        row = rows[a] = grow_row(tree, a, len(row))[1]
                        continue
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


def _reverse_arc(tour: np.ndarray, pos: np.ndarray, i: int, j: int):
    """Reverse tour positions i..j (cyclic), choosing the shorter arc."""
    n = len(tour)
    inner = (j - i) % n + 1
    if inner > n - inner:
        # reverse the complementary arc instead; the cycle is equivalent
        i, j = (j + 1) % n, (i - 1) % n
        inner = (j - i) % n + 1
    if i <= j:
        tour[i:j + 1] = tour[i:j + 1][::-1]
        pos[tour[i:j + 1]] = np.arange(i, j + 1)
    else:
        # the arc wraps past the end of the array
        idx = (np.arange(inner) + i) % n
        tour[idx] = tour[idx[::-1]]
        pos[tour[idx]] = idx


def etsp_tour(pset: PointSet, seed: int = 0) -> TourOrder:
    """Heuristic closed tour: nearest-neighbor construction plus 2-opt cleanup.

    Deterministic given ``seed``, which selects the start of the
    construction, a :func:`nearest_walk`.
    The 2-opt pass (``_two_opt``) runs first-improvement until no anchor is
    left to try or until ``50 * n`` moves; its scans see every candidate for
    ``n <= _GROW_ROWS_LIMIT`` and each city's ``_KNN`` nearest neighbours
    above that.  The walk and 2-opt share one :func:`kd_neighbours` source:
    one kd-tree and one batched query per tour.
    """
    points = pset.points
    n = pset.n
    rng = substream(seed, 0)
    start = int(rng.integers(n))
    neighbours = kd_neighbours(points)
    order = np.append(start, nearest_walk(points, start, neighbours)[1])
    order = _two_opt(points, order, max_moves=50 * n, neighbours=neighbours)
    return TourOrder(order=order, edge_lengths=_edge_lengths(points, order))


def long_edge_count(tour: TourOrder, eta: float) -> int:
    """Number of tour edges strictly longer than ``eta``."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return int(np.count_nonzero(tour.edge_lengths > eta))


def worst_case_grid(n: int, d: int, W: float, H: float, D: float | None = None) -> PointSet:
    """Regular grid point set whose pairwise spacing scales like n**(-1/d).

    Uses ``k = ceil(n**(1/d))`` cells per side with points at cell centers
    (pitch = side/k), clipped to the first ``n`` points.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    sides = [W, H] if d == 2 else [W, H, D]
    if any(s is None or s <= 0 for s in sides):
        raise ValueError("workspace dimensions must be positive")
    k = int(math_ceil_root(n, d))
    axes = [(np.arange(k) + 0.5) * (s / k) for s in sides]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])[:n]
    return PointSet(points=pts)


def math_ceil_root(n: int, d: int) -> int:
    k = int(round(n ** (1.0 / d)))
    while k**d < n:
        k += 1
    while (k - 1) ** d >= n:
        k -= 1
    return k


def held_karp_length(points: np.ndarray) -> float:
    """Exact optimal closed-tour length by dynamic programming (n <= 12)."""
    n = len(points)
    if n == 1:
        return 0.0
    if n > 12:
        raise ValueError("exact solver limited to n <= 12")
    dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    full = 1 << (n - 1)
    dp = np.full((full, n - 1), np.inf)
    for j in range(n - 1):
        dp[1 << j, j] = dist[n - 1, j]
    for mask in range(full):
        for j in range(n - 1):
            cur = dp[mask, j]
            if not np.isfinite(cur):
                continue
            for k in range(n - 1):
                if mask & (1 << k):
                    continue
                nm = mask | (1 << k)
                cand = cur + dist[j, k]
                if cand < dp[nm, k]:
                    dp[nm, k] = cand
    best = np.inf
    for j in range(n - 1):
        best = min(best, dp[full - 1, j] + dist[j, n - 1])
    return float(best)
