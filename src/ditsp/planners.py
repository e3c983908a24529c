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


def _group_key(cols, scale: int = 1) -> tuple[np.ndarray, list[int]]:
    """One int64 per row of equal-length integer key columns, equal iff the
    rows are, and the column spans.

    Columns are offset to 0 and combined in mixed radix, first column most
    significant, so the keys sort as the rows do lexicographically.  The keys
    lie in ``[0, span)``, ``span`` the product of the column spans; a
    ``ValueError`` names ``span`` and ``scale`` unless ``span * scale <
    2**63``, the room a caller needs to multiply the keys by ``scale``.
    Each column is reduced on its own: along axis 0 of a (1.5e5, 3) int64
    array, ``min`` is about 30x slower.

    Returns ``(key, widths)``, ``widths`` the spans (1 for empty columns).
    """
    if len(cols[0]) == 0:
        return np.empty(0, dtype=np.int64), [1] * len(cols)
    lows = [col.min() for col in cols]
    widths = [int(col.max()) - int(lo) + 1 for col, lo in zip(cols, lows)]
    span = math.prod(widths)
    if span * scale >= 2**63:
        raise ValueError(f"key span {span} times {scale} is not below 2**63")
    # one array, built in place: key * width + (col - lo) per column; int64
    # arithmetic wraps, so the sum is exact whatever its intermediate values
    key = np.subtract(cols[0], lows[0])
    for col, lo, width in zip(cols[1:], lows[1:], widths[1:]):
        key *= width
        key += col
        key -= lo
    return key, widths


def _serve_and_order(keys, row_top: int):
    """Pick the oldest target of each meta-cell; return their positions in
    sweep order and a mask of the targets left unserved.

    ``keys`` holds the columns ``[layer,] row, col`` of the m unserved
    targets, oldest first, and is not written.  The sweep goes layer by
    layer, rows from ``row_top`` down, serpentine within rows: its key over
    ``(layer..., row_top - row, +-col)``, the column negated on odd ranks,
    is a bijection of the meta-cell key.  One in-place sort of ``sweep_key
    * m + position`` puts each meta-cell's targets in a run, oldest first,
    and the runs in sweep order; a run's head is a served target.  This
    needs ``(key span) * m < 2**63``, else a ``ValueError`` names both
    numbers.  On 1e6 uniform points (``r_vel`` 0.1 and 0.3, unit workspace)
    the largest ``(key + 1) * m`` is 7.4e13 for :func:`rec_bta`, 8e-6 of
    2**63, and 6.5e12 for :func:`rec_cca`; in 2D it grows about as
    ``n**(7/3)``.

    Returns ``(first, keep)``: the served positions in sweep order (index
    ``keys`` with them) and an m-long mask, False at ``first``.  For 3D keys
    it returns ``(first, keep, n_rows, n_layers)``, the counts of the
    distinct (layer, row) pairs and layers among the served targets, taken
    from the same sort.
    """
    *layers, row, col = keys
    m = len(col)
    rank = np.subtract(row_top, row)  # 0 for the top row
    signed_col = np.bitwise_and(rank, 1)  # col * (1 - 2 * (rank & 1))
    signed_col *= -2
    signed_col += 1
    signed_col *= col
    key, widths = _group_key((*layers, rank, signed_col), m)
    del rank, signed_col
    key *= m
    key += np.arange(m)
    key.sort()
    # a run starts where the sweep key changes; sweep keys are >= 0.  The
    # m-long arrays go as soon as they are used, so the peak stays low
    sweep = key // m
    starts = np.ones(m, dtype=bool)
    np.not_equal(sweep[1:], sweep[:-1], out=starts[1:])
    del sweep
    first = np.take(key, np.flatnonzero(starts))
    del key, starts
    sweep = first // m
    first -= sweep * m
    counts = []
    # 3D: floor-divided by the column span, then by the rank span too, the
    # ascending heads' sweep keys hold one run per (layer, row), then per
    # layer; they are >= 0, so -1 starts the first run
    for width in widths[:0:-1] if layers else ():
        sweep //= width
        counts.append(int(np.count_nonzero(np.diff(sweep, prepend=-1))))
    keep = np.ones(m, dtype=bool)
    keep[first] = False
    return first, keep, *counts


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
    stage's grid is not the previous stage's, on the targets still unserved;
    each stage compacts their ascending indices and cell columns with one
    index.  A greedy stop-go cleanup from the origin completes the tour.
    """
    idx = np.arange(pset.n)
    reports, visit_chunks = [], []
    grid = None
    for phase, sub, stage_grid, exponents in schedule:
        if stage_grid is not grid:
            # the first stage serves from every target, so only later
            # lookups gather
            cells = stage_grid.cell_index(pset.points if grid is None else
                                          np.take(pset.points, idx, axis=0))
            grid = stage_grid
        first, keep, *counts = _serve_and_order(
            meta_index(cells, exponents), grid.row_max >> exponents[-2])
        visit_chunks.append(idx[first])
        rest = np.flatnonzero(keep)
        idx, *cells = (np.take(v, rest) for v in (idx, *cells))
        sweep = (bead_sweep(grid, phase) if sub is None
                 else cylinder_sweep(grid, sub, *counts))
        reports.append(PhaseReport(
            phase=phase, meta_size=1 << sum(exponents),
            cells_traversed=sweep.n_rows * sweep.n_cols, served=len(first),
            leftover_after=len(idx), length=sweep.length, subphase=sub))

    legs, clean_order = greedy_cleanup(pset.points[idx], np.zeros(pset.d))
    visit_chunks.append(idx[clean_order])
    rows = [(r.length, r.length / params.r_vel) for r in reports]
    return Tour(segments=np.vstack((np.reshape(rows, (-1, 2)),
                                    _leg_rows(legs, params))),
                visit_order=np.concatenate(visit_chunks)), reports


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
