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
    cell_dtype,
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


def _group_key(cells, row_top: int, exponents, key) -> list[int]:
    """Write the sweep key of each of the m targets whose cell columns
    ``[layer,] row, col`` are ``cells``, times m plus the target's position,
    into the m-long int64 array ``key``; return the key's column spans.

    A target's meta-cell is its cells aggregated by ``exponents``
    (:func:`~ditsp.geometry.meta_index`), and its sweep key combines
    ``(layer..., rank, col)`` in mixed radix, first column most significant,
    each offset to 0 by the column's least meta index.  ``rank = row_top -
    row`` counts meta-rows from the top, and on odd ranks the column is
    reflected, its greatest meta index less it.  So the keys sort as the
    sweep goes, serpentine within rows, and are equal iff the meta-cells
    are.  The spans are those of the meta columns, from one ``min`` and one
    ``max`` per cell column: a ValueError names their product ``span`` and
    m unless ``span * m < 2**63``.  The keys are built ``CHUNK`` targets at
    a time, in place; ``cells`` are not written.
    """
    *layers, row, col = cells
    m = len(col)
    lows = [int(v) for v in meta_index([c.min() for c in cells], exponents)]
    highs = [int(v) for v in meta_index([c.max() for c in cells], exponents)]
    widths = [hi - lo + 1 for lo, hi in zip(lows, highs)]
    span = math.prod(widths)
    if span * m >= 2**63:
        raise ValueError(f"key span {span} times {m} is not below 2**63")
    *_, row_width, col_width = widths
    flip = row_top & 1
    chunk = min(m, CHUNK)
    tmp, positions = np.empty(chunk, np.int64), np.arange(chunk)
    # int64 arithmetic wraps, so each sum is exact whatever its
    # intermediate values
    for a in range(0, m, CHUNK):
        k = key[a:a + CHUNK]
        t = tmp[:len(k)]
        *meta_layers, meta_row, meta_col = meta_index(
            [c[a:a + CHUNK] for c in cells], exponents)
        # the column, offset, then reflected where the rank is odd: there
        # t = -1, and k ^ t = -k - 1, to which t & width adds the width
        np.subtract(meta_col, lows[-1], out=k, dtype=np.int64)
        np.bitwise_and(meta_row, 1, out=t, dtype=np.int64)
        if flip:
            t ^= 1
        np.negative(t, out=t)
        k ^= t
        t &= col_width
        k += t
        # the layer and rank, offset, above it
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
        k += positions[:len(k)]
        if a + CHUNK < m:
            positions += CHUNK
    return widths


def _serve_and_order(cells, row_top: int, exponents=None, out=None):
    """Pick the oldest target of each meta-cell; return their positions in
    sweep order and a mask of the targets left unserved.

    ``cells`` holds the cell columns ``[layer,] row, col`` of the m
    unserved targets, oldest first, and is not written; ``exponents``
    aggregate them to meta-cells (none by default).  The sweep goes layer
    by layer, rows from ``row_top`` down, serpentine within rows.
    :func:`_group_key` writes each target's sweep key times m plus its
    position into ``out``, an m-long int64 work space (a new one by
    default); one in-place sort puts each meta-cell's targets in a run,
    oldest first, and the runs in sweep order.  A run's head is a served
    target, and the heads' positions go to the front of ``out``, in place.
    This needs ``(key span) * m < 2**63``, else a ``ValueError`` names both
    numbers.  On 1e6 uniform points (``r_vel`` 0.1 and 0.3, unit workspace)
    the largest ``(key + 1) * m`` is 7.4e13 for :func:`rec_bta`, 8e-6 of
    2**63, and 6.5e12 for :func:`rec_cca`; in 2D it grows about as
    ``n**(7/3)``.

    Returns ``(first, keep)``: ``first`` the served positions in sweep
    order, the front of ``out`` (index ``cells`` with them), and ``keep``
    an m-long mask, False at ``first``.  For 3D cells it returns ``(first,
    keep, n_rows, n_layers)``, the counts of the distinct (layer, meta-row)
    pairs and layers among the served targets, taken from the same sort.
    """
    m = len(cells[-1])
    key = np.empty(m, np.int64) if out is None else out
    # 3D: floor-divided by the column span, then by the rank span too, the
    # heads' sweep keys hold one run per (layer, row), then per layer
    widths = [1] * len(cells)
    if m:
        widths = _group_key(cells, row_top, exponents or (0,) * len(cells),
                            key)
        key.sort()
    divisors = widths[:0:-1] if len(cells) == 3 else ()
    keep = np.ones(m, dtype=bool)
    # the last head's sweep key, then its (layer, row) and layer keys, and
    # the counts of the latter two; sweep keys are >= 0, so -1 starts a run
    last = [-1] * (len(divisors) + 1)
    counts = [0] * len(divisors)
    served = 0
    chunk = min(m, CHUNK)
    sweeps, starts = np.empty(chunk, np.int64), np.empty(chunk, bool)
    for a in range(0, m, CHUNK):
        k = key[a:a + CHUNK]
        sweep, start = sweeps[:len(k)], starts[:len(k)]
        np.floor_divide(k, m, out=sweep)
        start[0] = sweep[0] != last[0]
        np.not_equal(sweep[1:], sweep[:-1], out=start[1:])
        last[0] = sweep[-1]
        if divisors:
            level_key = sweep[start]
            for level, width in enumerate(divisors, 1):
                level_key //= width
                if len(level_key):
                    counts[level - 1] += int(np.count_nonzero(
                        np.diff(level_key, prepend=last[level])))
                    last[level] = level_key[-1]
        # positions, then the heads' ones to the front: the chunk is read
        sweep *= m
        np.subtract(k, sweep, out=sweep)
        first = key[served:served + np.count_nonzero(start)]
        np.compress(start, sweep, out=first)
        keep[first] = False
        served += len(first)
    return key[:served], keep, *counts


def _compact(columns, keep, positions=None) -> int:
    """Move the entries of each column where ``keep`` is True to its front,
    in order, ``CHUNK`` at a time, and write their positions into
    ``positions`` if given; returns their number."""
    size = 0
    for a in range(0, len(keep), CHUNK):
        at = np.flatnonzero(keep[a:a + CHUNK])
        for col in columns:
            # taken before it is written: the front never passes the chunk
            col[size:size + len(at)] = np.take(col[a:a + CHUNK], at)
        if positions is not None:
            np.add(at, a, out=positions[size:size + len(at)])
        size += len(at)
    return size


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


def _sweep_tour(pset: PointSet, params: VehicleParams, schedule):
    """Serve the targets over a schedule of (sub-)phases; returns (Tour,
    phase reports).

    Each stage ``(phase, subphase, grid, exponents)`` of
    :func:`~ditsp.geometry.bead_schedule` or
    :func:`~ditsp.geometry.cylinder_schedule` serves the oldest unserved
    target of each occupied meta-cell in sweep order, and charges its sweep
    at the speed cap: :func:`~ditsp.geometry.bead_sweep` when ``subphase``
    is None, else :func:`~ditsp.geometry.cylinder_sweep` over the occupied
    (layer, meta-row) pairs and layers.  Cells are looked up only when a
    stage's grid is not the previous stage's, on the targets still
    unserved, into the same columns.  A greedy stop-go cleanup from the
    origin completes the tour.

    One n-long int64 array is the visit order: the served targets fill it
    from the front, and each stage sorts its keys in the free tail
    (:func:`_serve_and_order`) and maps the heads there to targets.  Then it
    compacts the unserved targets' ascending indices and cell columns in
    place (:func:`_compact`).  The first stage serves from every target, so
    its positions are the targets and it makes no index array.
    """
    n = pset.n
    order = np.empty(n, dtype=np.int64)
    served, idx, cells, grid = 0, None, None, None
    reports = []
    for phase, sub, stage_grid, exponents in schedule:
        if stage_grid is not grid:
            if cells is not None and cells[0].dtype != cell_dtype(stage_grid):
                cells = None
            cells = stage_grid.cell_index(pset.points, idx, cells)
            grid = stage_grid
        first, keep, *counts = _serve_and_order(
            cells, grid.row_max >> exponents[-2], exponents, order[served:])
        if idx is None:
            idx = np.empty(len(keep) - len(first), dtype=np.int64)
            left = _compact(cells, keep, idx)
        else:
            for a in range(0, len(first), CHUNK):
                np.take(idx, first[a:a + CHUNK], out=first[a:a + CHUNK])
            left = _compact((*cells, idx), keep)
        del keep  # before the next stage makes its own
        served += len(first)
        idx, *cells = (v[:left] for v in (idx, *cells))
        sweep = (bead_sweep(grid, phase) if sub is None
                 else cylinder_sweep(grid, sub, *counts))
        reports.append(PhaseReport(
            phase=phase, meta_size=1 << sum(exponents),
            cells_traversed=sweep.n_rows * sweep.n_cols, served=len(first),
            leftover_after=left, length=sweep.length, subphase=sub))

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
    if pset.d != 2:
        raise ValueError("rec_bta requires 2D points")
    _check_workspace(pset, (W, H))
    rho = params.turn_radius
    ell, _ = ell_for_n(W, H, rho, pset.n)
    return _sweep_tour(pset, params, bead_schedule(W, H, rho, ell, pset.n))


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
    if pset.d != 3:
        raise ValueError("rec_cca requires 3D points")
    _check_workspace(pset, (W, H, D))
    rho = params.turn_radius
    ell, _ = ell_for_n_3d(W, H, D, rho, pset.n)
    return _sweep_tour(pset, params,
                       cylinder_schedule(W, H, D, rho, ell, pset.n))
