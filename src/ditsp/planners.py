"""Tour strategies: stop-go-stop, recursive bead tiling (2D), recursive
cylinder covering (3D).

The recursive planners produce *accounted* tours rather than synthesized
curves: a tour is one ``(length, duration)`` row per (sub-)phase sweep, whose
length is the sweep's closed form (row passes, heading-reversal u-turns, tour
closing), and one row per stop-go leg of the cleanup.  Each (sub-)phase is
one :class:`Sweep`, defined once per grid type by :func:`bead_sweep` and
:func:`cylinder_sweep`; the DTRP policies take their sweep periods from the
same two functions.  Bead sweeps cover every meta-row intersecting the
workspace, which keeps the per-phase lengths deterministic and preserves the
even/odd phase-length relations used by the analysis; cylinder sweeps skip
empty meta-rows.  Within any cell, targets are always served oldest first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ditsp.etsp import PointSet, etsp_tour, kd_neighbours, nearest_walk
from ditsp.geometry import (
    SUBPHASE_EXPONENTS,
    BeadGrid,
    BeadSpec,
    CylinderGrid,
    CylinderSpec,
    bead_meta_exponents,
    cylinder_meta_index,
    ell_for_n,
    ell_for_n_3d,
)
from ditsp.vehicle import VehicleParams, stop_go_time, u_turn_length


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
    tour = etsp_tour(pset, seed=seed)
    if pset.n == 1:
        return Tour(visit_order=tour.order)
    return Tour(segments=_leg_rows(tour.edge_lengths.tolist(), params),
                visit_order=tour.order)


def _leg_rows(lengths, params: VehicleParams) -> list:
    """One ``(length, duration)`` row per stop-go leg."""
    return [(d, stop_go_time(d, params)) for d in lengths]


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


def _group_key(cols, scale: int = 1) -> np.ndarray:
    """One int64 per row of equal-length integer key columns, equal iff the
    rows are.

    Columns are offset to 0 and combined in mixed radix, first column most
    significant, so the keys sort as the rows do lexicographically.  The keys
    lie in ``[0, span)``, ``span`` the product of the column spans; a
    ``ValueError`` names ``span`` and ``scale`` unless ``span * scale <
    2**63``, the room a caller needs to multiply the keys by ``scale``.
    Each column is reduced on its own: along axis 0 of a (1.5e5, 3) int64
    array, ``min`` is about 30x slower.
    """
    if len(cols[0]) == 0:
        return np.empty(0, dtype=np.int64)
    lows = [col.min() for col in cols]
    widths = [int(col.max()) - int(lo) + 1 for col, lo in zip(cols, lows)]
    span = math.prod(widths)
    if span * scale >= 2**63:
        raise ValueError(f"key span {span} times {scale} is not below 2**63")
    key = 0
    for col, lo, width in zip(cols, lows, widths):
        key = key * width + (col - lo)
    return key


def _serve_and_order(unserved: np.ndarray, idx: np.ndarray, keys, row_top: int):
    """Mark the oldest target of each meta-cell served; return the served
    targets in sweep order with their meta-cells.

    ``keys`` holds the columns ``[layer,] row, col`` of the unserved targets
    ``idx`` (ascending, so position is age).  The sweep goes layer by layer,
    rows from ``row_top`` down, serpentine within rows: its key over
    ``(layer..., row_top - row, +-col)``, the column negated on odd ranks, is
    a bijection of the meta-cell key.  One sort of ``sweep_key * m +
    position`` puts each meta-cell's targets in a run, oldest first, and the
    runs in sweep order.  This needs ``(key span) * m < 2**63``, else a
    ``ValueError`` names both numbers.  On 1e6
    uniform points (``r_vel`` 0.1 and 0.3, unit workspace) the largest
    ``(key + 1) * m`` is 7.4e13 for :func:`rec_bta`, 8e-6 of 2**63, and
    6.5e12 for :func:`rec_cca`; in 2D it grows about as ``n**(7/3)``.
    """
    m = len(idx)
    *layers, row, col = keys
    rank = row_top - row  # 0 for the top row
    signed_col = np.where(rank % 2 == 0, col, -col)
    sweep = _group_key((*layers, rank, signed_col), m)
    ranked = np.sort(sweep * m + np.arange(m))
    # a run starts where the sweep key changes; sweep keys are >= 0
    first = ranked[np.diff(ranked // m, prepend=-1) != 0] % m
    unserved[idx[first]] = False
    return idx[first], tuple(k[first] for k in keys)


def _runs(cols) -> int:
    """Number of runs of equal rows in key columns: in sweep order, the
    distinct layers or (layer, row) pairs."""
    # group keys are >= 0, so the first row starts a run
    return int(np.count_nonzero(np.diff(_group_key(cols), prepend=-1)))


def _check_workspace(pset: PointSet, dims) -> None:
    """Reject points outside the closed box ``[0, W]x[0, H](x[0, D])``,
    naming the violated bound."""
    for axis, name, size, col in zip("xyz", "WHD", dims, pset.points.T):
        low, high = col.min(), col.max()
        if low < 0.0:
            raise ValueError(f"points must lie in the workspace: {axis} = {low} < 0")
        if high > size:
            raise ValueError(f"points must lie in the workspace: "
                             f"{axis} = {high} > {name} = {size}")


def _cleanup_tail(pset, unserved, reports, visit_chunks, params) -> Tour:
    """The sweeps' tour, one row per phase report at the speed cap, completed
    by a greedy stop-go cleanup from the origin."""
    leftover_idx = np.flatnonzero(unserved)
    legs, clean_order = greedy_cleanup(pset.points[leftover_idx], np.zeros(pset.d))
    visit_chunks.append(leftover_idx[clean_order])
    rows = [(r.length, r.length / params.r_vel) for r in reports]
    return Tour(segments=rows + _leg_rows(legs, params),
                visit_order=np.concatenate(visit_chunks))


@dataclass(frozen=True)
class Sweep:
    """One (sub-)phase sweep: ``n_rows`` passes, each ended by a u-turn,
    ``n_layers`` layer turns and a closing leg."""

    n_rows: int
    pass_len: float
    turn_len: float
    closing_len: float
    n_layers: int = 0
    layer_turn_len: float = 0.0

    @property
    def length(self) -> float:
        return (self.n_rows * (self.pass_len + self.turn_len)
                + self.n_layers * self.layer_turn_len + self.closing_len)


def bead_sweep(grid: BeadGrid, phase: int) -> Sweep:
    """Sweep of every meta-row of a bead tiling at recursive phase ``phase``."""
    # passes reach one meta-cell past each end; u-turns step a meta-row pitch
    vr, vc = bead_meta_exponents(phase)
    spec = grid.spec
    meta_width = (1 << vc) * spec.ell
    return Sweep(
        n_rows=grid.meta_row_count(phase),
        pass_len=grid.W + 2.0 * meta_width,
        turn_len=u_turn_length(spec.rho) + (1 << vr) * spec.w / 2.0,
        closing_len=grid.W + grid.H + 2.0 * math.pi * spec.rho + 2.0 * meta_width)


def cylinder_sweep(grid: CylinderGrid, sub: int = 1, n_rows: int | None = None,
                   n_layers: int | None = None) -> Sweep:
    """Sweep of sub-phase ``sub`` over ``n_rows`` (layer, meta-row) pairs in
    ``n_layers`` layers of a cylinder covering; by default every row of
    every layer."""
    # a row runs the width out and back, one meta-cylinder past each end;
    # u-turns step a meta-row pitch, layer turns a meta-layer pitch
    a, b, c = SUBPHASE_EXPONENTS[sub - 1]
    n_rows = grid.n_rows * grid.n_layers if n_rows is None else n_rows
    n_layers = grid.n_layers if n_layers is None else n_layers
    spec = grid.spec
    ell_m = (1 << a) * spec.ell
    uturn = u_turn_length(spec.rho)
    return Sweep(
        n_rows=n_rows,
        pass_len=2.0 * (grid.W + 2.0 * ell_m) + uturn + ell_m / 2.0,
        turn_len=uturn + (1 << b) * spec.w / 2.0,
        closing_len=grid.W + grid.H + grid.D + 2.0 * math.pi * spec.rho + 2.0 * ell_m,
        n_layers=n_layers, layer_turn_len=uturn + (1 << c) * spec.w / 4.0)


def rec_bta(pset: PointSet, params: VehicleParams, W: float = 1.0, H: float = 1.0):
    """Recursive bead-tiling tour over a rectangle; returns (Tour, phase reports).

    The vehicle cruises at the speed cap during the recursive sweeps (turn
    radius ``params.turn_radius``) and uses stop-go legs for the final greedy
    cleanup.  Runs ``ceil(log2 n) + 1`` recursive phases.
    """
    if pset.d != 2:
        raise ValueError("rec_bta requires 2D points")
    _check_workspace(pset, (W, H))
    n = pset.n
    rho = params.turn_radius
    ell, _ = ell_for_n(W, H, rho, n)
    grid = BeadGrid(W, H, BeadSpec.create(rho, ell))
    rows, cols = grid.cell_index(pset.points)
    lo, hi = grid.col_range(0)

    n_phases = int(math.ceil(math.log2(n))) + 1
    unserved = np.ones(n, dtype=bool)
    reports, visit_chunks = [], []

    for phase in range(1, n_phases + 1):
        idx = np.flatnonzero(unserved)
        keys = grid.meta_index(phase, rows[idx], cols[idx])
        top, (col_lo, col_hi) = grid.meta_index(phase, grid.row_max, [lo, hi])
        order, _ = _serve_and_order(unserved, idx, keys, top)
        visit_chunks.append(order)
        sweep = bead_sweep(grid, phase)
        reports.append(PhaseReport(
            phase=phase, meta_size=1 << (phase - 1),
            cells_traversed=sweep.n_rows * int(col_hi - col_lo + 1),
            served=len(order), leftover_after=int(unserved.sum()),
            length=sweep.length))

    return _cleanup_tail(pset, unserved, reports, visit_chunks, params), reports


def rec_cca(pset: PointSet, params: VehicleParams,
            W: float = 1.0, H: float = 1.0, D: float = 1.0):
    """Recursive cylinder-covering tour over a box; returns (Tour, phase reports).

    Each phase runs five sub-phases over meta-cylinders of 1, 2, 4, 8 and 16
    cells; between phases the cell is enlarged to twice its length (about 32
    times its volume).  Runs ``ceil((log2 n + 7) / 5)`` phases, then a greedy
    stop-go cleanup.
    """
    if pset.d != 3:
        raise ValueError("rec_cca requires 3D points")
    _check_workspace(pset, (W, H, D))
    n = pset.n
    rho = params.turn_radius
    ell0, _ = ell_for_n_3d(W, H, D, rho, n)
    n_phases = int(math.ceil((math.log2(n) + 7.0) / 5.0)) if n > 1 else 1
    unserved = np.ones(n, dtype=bool)
    reports, visit_chunks = [], []

    for phase in range(1, n_phases + 1):
        ell_p = min(2.0 ** (phase - 1) * ell0, 4.0 * rho)
        grid = CylinderGrid(W, H, D, CylinderSpec.create(rho, ell_p))
        idx_phase = np.flatnonzero(unserved)
        lay, row, col = grid.cell_index(pset.points[idx_phase])

        for sub, (a, b, c) in enumerate(SUBPHASE_EXPONENTS, 1):
            still = unserved[idx_phase]
            idx = idx_phase[still]
            keys = cylinder_meta_index(sub, lay[still], row[still], col[still])
            _, top, col_last = cylinder_meta_index(sub, 0, grid.row_max,
                                                   grid.n_cols - 1)
            order, served_keys = _serve_and_order(unserved, idx, keys, top)
            visit_chunks.append(order)
            # only meta-rows that still hold unserved targets are swept;
            # empty cylinders need no pass.  Every occupied meta-cylinder
            # serves one target, so the runs of the served targets' keys, in
            # sweep order, count the occupied (layer, row) pairs and layers
            sweep = cylinder_sweep(grid, sub, n_rows=_runs(served_keys[:2]),
                                   n_layers=_runs(served_keys[:1]))
            reports.append(PhaseReport(
                phase=phase, meta_size=1 << (a + b + c),
                cells_traversed=sweep.n_rows * int(col_last + 1),
                served=len(order), leftover_after=int(unserved.sum()),
                length=sweep.length, subphase=sub))

    return _cleanup_tail(pset, unserved, reports, visit_chunks, params), reports
