"""Tour strategies: stop-go-stop, recursive bead tiling (2D), recursive
cylinder covering (3D).

The recursive planners produce *accounted* tours rather than synthesized
curves: a tour is one ``(length, duration)`` row per (sub-)phase sweep, whose
length is the sweep's closed form (row passes, heading-reversal u-turns, tour
closing), and one row per stop-go leg of the cleanup.  Their (sub-)phases,
grids and meta-cells come from the point-free schedules
:func:`~ditsp.geometry.bead_schedule` and
:func:`~ditsp.geometry.cylinder_schedule`, which both planners run through
one loop, :func:`_sweep_tour`.  Each (sub-)phase is one
:class:`~ditsp.geometry.Sweep`, defined once per grid type by
:func:`~ditsp.geometry.bead_sweep` and :func:`~ditsp.geometry.cylinder_sweep`;
the DTRP policies take their sweep periods from the same two functions.
Bead sweeps cover every meta-row intersecting the workspace, which keeps the
per-phase lengths deterministic and preserves the even/odd phase-length
relations used by the analysis; cylinder sweeps skip empty meta-rows.  Within
any cell, targets are always served oldest first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ditsp.etsp import (PointSet, _edge_lengths, etsp_tour, kd_neighbours,
                        nearest_walk)
from ditsp.geometry import (
    CHUNK,
    _check_dims,
    bead_schedule,
    bead_sweep,
    cylinder_schedule,
    cylinder_sweep,
    ell_for_n,
    ell_for_n_3d,
    meta_index,
)
from ditsp.vehicle import VehicleParams, stop_go_time


@dataclass
class Tour:
    """One ``(length, duration)`` row per sweep, then one per stop-go leg, as
    an (m, 2) float array, plus the order in which targets are served."""

    segments: np.ndarray = field(default_factory=list)
    visit_order: np.ndarray = None

    def __post_init__(self):
        self.segments = np.asarray(self.segments, dtype=float).reshape(-1, 2)

    # math.fsum is correctly rounded, so a total does not depend on row order
    @property
    def total_length(self) -> float:
        return math.fsum(self.segments[:, 0].tolist())

    @property
    def total_time(self) -> float:
        return math.fsum(self.segments[:, 1].tolist())


@dataclass
class PhaseReport:
    """Per-phase accounting for the recursive planners."""

    phase: int
    meta_size: int
    cells_traversed: int
    served: int
    leftover_after: int
    length: float
    subphase: int | None = None


def stop_go_stop(pset: PointSet, params: VehicleParams, seed: int = 0) -> Tour:
    """Visit the heuristic ETSP order, coming to rest at every target."""
    order = etsp_tour(pset, seed=seed)
    return Tour(segments=_leg_rows(_edge_lengths(pset.points, order), params),
                visit_order=order)


def _leg_rows(lengths, params: VehicleParams) -> np.ndarray:
    """One ``(length, duration)`` row per stop-go leg, as an (m, 2) array,
    from one :func:`~ditsp.vehicle.stop_go_time` call over the lengths."""
    return np.column_stack((lengths, stop_go_time(lengths, params)))


def greedy_cleanup(points: np.ndarray, start: np.ndarray):
    """Nearest-neighbor stop-go sweep over leftover targets from ``start``.

    The walk is :func:`~ditsp.etsp.nearest_walk` with ``start`` as row
    ``m``: each step goes to the remaining point nearest the current
    position by :func:`~ditsp.etsp.row_distance` (bit-equal to
    ``np.linalg.norm(..., axis=1)``), ties to the lowest index.  Each call
    builds one :func:`~ditsp.etsp.kd_neighbours` source over the leftovers
    and ``start``; a walk row grows at most once, and a used-up row is
    settled by one vectorised pass over the unvisited points.

    Returns ``(lengths, order)``: each leg's length is the distance that
    chose it, and ``order`` indexes into ``points``.
    """
    rows = np.vstack((points, start))
    return nearest_walk(rows, len(rows) - 1, kd_neighbours(rows))


def _serve_and_order(cells, idx, row_top: int, exponents, out):
    """Serve one (sub-)phase: the oldest unserved target of each occupied
    meta-cell, in sweep order; then compact the targets left unserved.

    ``cells`` holds the cell columns ``[layer,] row, col`` of the m
    unserved targets, oldest first, and ``idx`` their ascending indices
    (None when they are all the targets, whose positions are then their
    indices); ``exponents`` aggregate cells to meta-cells
    (:func:`~ditsp.geometry.meta_index`).  The sweep goes layer by layer,
    rows from ``row_top`` down, serpentine within rows: a target's sweep
    key combines ``(layer..., rank, col)`` in mixed radix, first column
    most significant, each offset to 0 by the column's least meta index,
    with ``rank = row_top - row`` and, on odd ranks, the column reflected
    (its greatest meta index less it).  So the keys sort as the sweep goes
    and are equal iff the meta-cells are.

    ``out`` is an m-long int64 work space.  Each target's sweep key times m
    plus its position is written there ``CHUNK`` targets at a time; one
    in-place sort puts each meta-cell's targets in a run, oldest first, and
    the runs in sweep order.  A run's head is served, and its target goes
    to the front of ``out``, in place.  This needs ``(key span) * m <
    2**63``, the span the product of the meta columns' spans, else a
    ``ValueError`` names both numbers.  On 1e6 uniform points (``r_vel``
    0.1 and 0.3, unit workspace) the largest ``(key + 1) * m`` is 7.4e13
    for :func:`rec_bta`, 8e-6 of 2**63, and 6.5e12 for :func:`rec_cca`; in
    2D it grows about as ``n**(7/3)``.  Last, the unserved targets' indices
    and cell entries move to the front of their columns, in order, ``CHUNK``
    at a time (phase 1 makes the index column).

    Returns ``(first, idx, cells)``: the served targets in sweep order, the
    front of ``out``, and the unserved targets' indices and cell columns.
    For 3D cells it returns ``(first, idx, cells, n_rows, n_layers)``, the
    counts of the distinct (layer, meta-row) pairs and layers among the
    served targets, taken from the same sort.
    """
    m = len(cells[-1])
    if not m:
        return out[:0], idx, cells, *((0, 0) if len(cells) == 3 else ())
    lows = [int(v) for v in meta_index([c.min() for c in cells], exponents)]
    highs = [int(v) for v in meta_index([c.max() for c in cells], exponents)]
    widths = [hi - lo + 1 for lo, hi in zip(lows, highs)]
    span = math.prod(widths)
    if span * m >= 2**63:
        raise ValueError(f"key span {span} times {m} is not below 2**63")
    row_width, col_width = widths[-2:]
    tmp, positions = np.empty(min(m, CHUNK), np.int64), np.arange(min(m, CHUNK))
    # int64 arithmetic wraps, so each sum is exact whatever its
    # intermediate values
    for a in range(0, m, CHUNK):
        k = out[a:a + CHUNK]
        t = tmp[:len(k)]
        *meta_layers, meta_row, meta_col = meta_index(
            [c[a:a + CHUNK] for c in cells], exponents)
        # the column, offset, then reflected where the rank is odd:
        # there t = -1, and k ^ t = -k - 1, to which t & width adds
        # the width
        np.subtract(meta_col, lows[-1], out=k, dtype=np.int64)
        np.bitwise_and(meta_row, 1, out=t, dtype=np.int64)
        if row_top & 1:
            t ^= 1
        np.negative(t, out=t)
        k ^= t
        t &= col_width
        k += t
        # the layer and rank, offset, above it; then the position
        if meta_layers:
            np.subtract(meta_layers[0], lows[0], out=t, dtype=np.int64)
            t *= row_width
            t += highs[-2]
            t -= meta_row
        else:
            np.subtract(highs[-2], meta_row, out=t, dtype=np.int64)
        t *= col_width
        k += t
        k *= m
        k += a
        k += positions[:len(k)]
    # 3D: floor-divided by the column span, then by the rank span too, the
    # heads' sweep keys hold one run per (layer, row), then per layer
    divisors = widths[:0:-1] if len(cells) == 3 else ()
    # the key pass's buffers, the last chunk's views of them and its other
    # names go before the sort, as they would with a scope of their own
    del (tmp, t, positions, meta_layers, meta_row, meta_col, lows, highs,
         widths, span, row_width, col_width)
    out.sort()
    keep = np.ones(m, dtype=bool)
    # the last head's sweep key, then its (layer, row) and layer keys, and
    # the counts of the latter two; sweep keys are >= 0, so -1 starts a run
    last = [-1] * (len(divisors) + 1)
    counts = [0] * len(divisors)
    served = 0
    sweeps, starts = np.empty(min(m, CHUNK), np.int64), np.empty(min(m, CHUNK), bool)
    for a in range(0, m, CHUNK):
        k = out[a:a + CHUNK]
        sweep, start = sweeps[:len(k)], starts[:len(k)]
        np.floor_divide(k, m, out=sweep)
        start[0] = sweep[0] != last[0]
        np.not_equal(sweep[1:], sweep[:-1], out=start[1:])
        last[0] = sweep[-1]
        level_key = sweep[start] if divisors else None
        for level, width in enumerate(divisors, 1):
            level_key //= width
            if len(level_key):
                counts[level - 1] += int(np.count_nonzero(
                    np.diff(level_key, prepend=last[level])))
                last[level] = level_key[-1]
        # positions, then the heads' ones to the front, then their targets:
        # the chunk is read
        sweep *= m
        np.subtract(k, sweep, out=sweep)
        first = out[served:served + np.count_nonzero(start)]
        np.compress(start, sweep, out=first)
        keep[first] = False
        if idx is not None:
            np.take(idx, first, out=first)
        served += len(first)
    # so do the head pass's, before the compaction
    del sweeps, sweep, starts, start, level_key, k, first, last
    left = np.empty(m - served, np.int64) if idx is None else idx
    size = 0
    for a in range(0, m, CHUNK):
        at = np.flatnonzero(keep[a:a + CHUNK])
        at += a
        # taken before it is written: the front never passes the chunk
        for col in cells:
            col[size:size + len(at)] = np.take(col, at)
        left[size:size + len(at)] = at if idx is None else np.take(idx, at)
        size += len(at)
    return out[:served], left[:size], tuple(c[:size] for c in cells), *counts


def _check_workspace(pset: PointSet, dims) -> None:
    """Reject sides that break :func:`~ditsp.geometry._check_dims`, then
    points outside the closed box ``[0, W]x[0, H](x[0, D])``, naming the
    violated bound."""
    for axis, name, size, col in zip("xyz", "WHD", _check_dims(dims),
                                     pset.points.T):
        low, high = col.min(), col.max()
        if low < 0.0:
            raise ValueError(f"points must lie in the workspace: {axis} = {low} < 0")
        if high > size:
            raise ValueError(f"points must lie in the workspace: "
                             f"{axis} = {high} > {name} = {size}")


def _sweep_tour(pset: PointSet, params: VehicleParams, dims):
    """The recursive tour of :func:`rec_bta` (2 sides in ``dims``) or
    :func:`rec_cca` (3 sides); returns (Tour, phase reports).

    Checks the points and the workspace, sizes the cell by
    :func:`~ditsp.geometry.ell_for_n` or
    :func:`~ditsp.geometry.ell_for_n_3d`, and runs the stages ``(phase,
    subphase, grid, exponents)`` of :func:`~ditsp.geometry.bead_schedule`
    or :func:`~ditsp.geometry.cylinder_schedule`.  Each stage serves the
    oldest unserved target of each occupied meta-cell in sweep order
    (:func:`_serve_and_order`), and charges its sweep at the speed cap:
    :func:`~ditsp.geometry.bead_sweep` when ``subphase`` is None, else
    :func:`~ditsp.geometry.cylinder_sweep` over the occupied (layer,
    meta-row) pairs and layers.  Cells are looked up only when a stage's
    grid is not the previous stage's, on the targets still unserved, into
    the same columns.  A greedy stop-go cleanup from the origin completes
    the tour.

    One n-long int64 array is the visit order: the served targets fill it
    from the front, and each stage sorts its keys in the free tail.
    """
    d = len(dims)
    if pset.d != d:
        raise ValueError(f"{'rec_bta' if d == 2 else 'rec_cca'} requires {d}D points")
    _check_workspace(pset, dims)
    n, rho = pset.n, params.turn_radius
    # looked up at each call, so a wrapper set on this module sees it
    ell, _ = (ell_for_n if d == 2 else ell_for_n_3d)(*dims, rho, n)
    schedule = (bead_schedule if d == 2 else cylinder_schedule)(*dims, rho, ell, n)
    order = np.empty(n, dtype=np.int64)
    served, idx, cells, grid = 0, None, None, None
    reports = []
    for phase, sub, stage_grid, exponents in schedule:
        if stage_grid is not grid:
            cells = stage_grid.cell_index(pset.points, idx, cells)
            grid = stage_grid
        first, idx, cells, *counts = _serve_and_order(
            cells, idx, grid.row_max >> exponents[-2], exponents, order[served:])
        served += len(first)
        sweep = (bead_sweep(grid, phase) if sub is None
                 else cylinder_sweep(grid, sub, *counts))
        reports.append(PhaseReport(
            phase=phase, meta_size=1 << sum(exponents),
            cells_traversed=sweep.n_rows * sweep.n_cols, served=len(first),
            leftover_after=len(idx), length=sweep.length, subphase=sub))

    legs, clean_order = greedy_cleanup(np.take(pset.points, idx, axis=0),
                                       np.zeros(pset.d))
    np.take(idx, clean_order, out=order[served:])
    rows = [(r.length, r.length / params.r_vel) for r in reports]
    return Tour(segments=np.vstack((np.reshape(rows, (-1, 2)),
                                    _leg_rows(legs, params))),
                visit_order=order), reports


def rec_bta(pset: PointSet, params: VehicleParams, W: float = 1.0, H: float = 1.0):
    """Recursive bead-tiling tour over a rectangle; returns (Tour, phase reports).

    The vehicle cruises at the speed cap during the recursive sweeps (turn
    radius ``params.turn_radius``) and uses stop-go legs for the final greedy
    cleanup.  Runs the ``ceil(log2 n) + 1`` phases of
    :func:`~ditsp.geometry.bead_schedule` on cells sized by
    :func:`~ditsp.geometry.ell_for_n`, through :func:`_sweep_tour`: the
    cells are looked up once, and phase ``i`` serves one target per
    meta-cell of ``2**(i-1)`` beads.
    """
    return _sweep_tour(pset, params, (W, H))


def rec_cca(pset: PointSet, params: VehicleParams,
            W: float = 1.0, H: float = 1.0, D: float = 1.0):
    """Recursive cylinder-covering tour over a box; returns (Tour, phase reports).

    Runs the ``ceil((log2 n + 7) / 5)`` phases of
    :func:`~ditsp.geometry.cylinder_schedule` from the cell sized by
    :func:`~ditsp.geometry.ell_for_n_3d`, through :func:`_sweep_tour`, then
    a greedy stop-go cleanup.  Each phase runs five sub-phases over
    meta-cylinders of 1, 2, 4, 8 and 16 cells, and looks up the cells of
    the targets still unserved on its own grid; between phases the cell
    doubles in length (about 32 times its volume), held at ``4*rho``.
    """
    return _sweep_tour(pset, params, (W, H, D))
