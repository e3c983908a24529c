"""Dynamic repair policies over recurring sweeps, their tuning, and queues.

Both policies tile the workspace into cells sized to the arrival rate and
sweep the whole tiling with a fixed period, serving the oldest waiting target
of each cell once per sweep.  Because the sweep schedule is deterministic and
cells receive independent Poisson streams, every cell is an identical slotted
queue with a uniformly random slot offset; simulating a sample of cells gives
the same statistics as simulating all of them.  Each run reports utilization
and a divergence flag alongside the time averages.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from ditsp.bounds import _dim, heavy_load
from ditsp.geometry import (CYCLE_FACTOR_3D, BeadGrid, BeadSpec, CylinderGrid,
                            CylinderSpec, bead_area, cylinder_volume,
                            solve_cell)
from ditsp.planners import bead_sweep, cylinder_sweep
from ditsp.rng import substream
from ditsp.vehicle import VehicleParams

# utilization per unit (lam * ell / a) in 3D
X_FACTOR_3D = math.pi / 2.0 * CYCLE_FACTOR_3D

# cell-size constants as printed alongside the policies (C = lam * ell in
# units of the turn-adjusted speed a)
C_PRINTED_2D = 0.5241
C_PRINTED_3D = 0.1615

# _simulate_cells works on blocks of consecutive cells with at least this many
# arrivals: enough to spread numpy's per-call cost over many cells, few enough
# that a block's temporaries stay in cache
_BLOCK_ARRIVALS = 16384
# bit shift that lifts each cell of a block above the previous one in the
# single running maximum of _fifo_slots
_LIFT_BITS = 40


@dataclass(frozen=True)
class PolicyTuning:
    """Optimal slot utilization and the constants it implies."""

    dim: int
    x_star: float           # optimal utilization of a cell's service slot
    c_over_a: float         # implied cell-size constant lam*ell/a
    coefficient: float      # heavy-load system-time coefficient
    c_printed: float        # the constant as printed
    printed_consistent: bool
    coefficient_at_printed: float


@functools.cache
def tune_policy(dim: int) -> PolicyTuning:
    """Minimize the heavy-load system-time coefficient over slot utilization.

    The system time scales as ``g(x) = x**-p * (1 + x/(2(1-x)))``, the M/D/1
    time at unit service, with p = 2 in the plane and p = 4 in space; the
    cell size realizing utilization x is ``ell = x * a / lam`` (2D) or
    ``ell = x * a / (X_FACTOR_3D * lam)`` (3D).
    """
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    # utilization per unit lam*ell/a, the sweep budget, the printed constant
    x_factor, budget, c_printed = {
        2: (1.0, 16.0, C_PRINTED_2D),
        3: (X_FACTOR_3D, 1024.0 * CYCLE_FACTOR_3D, C_PRINTED_3D),  # 3328
    }[dim]
    p = 2 * dim - 2
    g = lambda x: x ** (-p) * md1_system_time(x, 1.0)
    res = minimize_scalar(g, bounds=(1e-9, 1.0 - 1e-9), method="bounded",
                          options={"xatol": 1e-13})
    x_star = float(res.x)
    c_over_a = x_star / x_factor
    # the coefficient at utilization x is scale * g(x)
    scale = budget * x_factor**p
    return PolicyTuning(
        dim=dim, x_star=x_star, c_over_a=c_over_a,
        coefficient=scale * float(res.fun), c_printed=c_printed,
        printed_consistent=abs(c_over_a - c_printed) / c_printed < 0.01,
        coefficient_at_printed=scale * g(c_printed * x_factor))


@dataclass(frozen=True)
class DtrpConfig:
    """One simulation run: workspace, vehicle, total arrival rate, horizon."""

    dims: tuple
    params: VehicleParams
    lam: float
    n_slots: int = 2000
    n_sample_cells: int = 1000
    warmup_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not all(math.isfinite(d) and d > 0 for d in self.dims):
            raise ValueError(f"dims must be finite and positive, got {self.dims}")
        # the cell grids need W >= H (>= D)
        if any(a < b for a, b in zip(self.dims, self.dims[1:])):
            raise ValueError(f"dims must be ordered W >= H (>= D), got {self.dims}")
        # lam = 0 is allowed: no arrivals, NaN time averages
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if self.n_slots < 1:
            raise ValueError(f"n_slots must be >= 1, got {self.n_slots}")
        if self.n_sample_cells < 1:
            raise ValueError(
                f"n_sample_cells must be >= 1, got {self.n_sample_cells}")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1), got "
                             f"{self.warmup_fraction}")


@dataclass
class DtrpStats:
    """Aggregate queue statistics of one run."""

    mean_system_time: float
    mean_queue_len: float       # whole-system time average, by Little's law
    served: int
    divergent: bool             # utilization >= 1; run_bta and run_cca size
                                # cells to utilization <= x* < 1
    utilization: float
    sweep_period: float
    cell_rate: float            # per-cell Poisson arrival rate
    little_residual: float      # |measured queue - lam * T| / (lam * T)
    cell_clamped: bool = False  # cell held at its largest size, ell = 4 rho


def _size_cell(config: DtrpConfig, x_target: float):
    """Cell length whose measured slot utilization equals ``x_target``.

    The period is one full sweep of the cell's grid at the speed cap: the
    phase-1 bead sweep in 2D, and in 3D ``CYCLE_FACTOR_3D`` times the sweep
    of every row of every layer of the cylinder covering, one
    cell-enlargement cycle.  The length comes from
    :func:`~ditsp.geometry.solve_cell`; the period jumps where the grid
    gains a row or a layer, so the utilization is a sawtooth in ``ell`` and
    the solver returns one of its crossings of ``x_target``.  Returns
    ``(ell, period, cell_rate, clamped)``; if even the largest admissible
    cell (ell = 4 rho) cannot reach the target, it is used as is and
    ``clamped`` is True.
    """
    params = config.params
    rho = params.turn_radius
    dims = config.dims
    measure = math.prod(dims)  # area or volume

    def measured(ell):
        if len(dims) == 2:
            spec = BeadSpec.create(rho, ell)
            cell, sweep = bead_area(spec), bead_sweep(BeadGrid(*dims, spec), 1).length
        else:
            spec = CylinderSpec.create(rho, ell)
            cell = cylinder_volume(spec)
            sweep = CYCLE_FACTOR_3D * cylinder_sweep(CylinderGrid(*dims, spec)).length
        return config.lam * cell / measure, sweep / params.r_vel

    def excess(ell):
        rate, period = measured(ell)
        return rate * period - x_target

    ell, clamped = solve_cell(rho, excess)
    rate, period = measured(ell)
    return ell, period, rate, clamped


def _fifo_slots(base: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """FIFO service slots of several cells' queues at once.

    ``base`` holds each arrival's first slot after its arrival, the
    arrivals sorted by (cell, time) with cell c in ``base[starts[c]:
    starts[c+1]]``.  Within a cell the k-th arrival leaves at slot
    ``k + max(base[i] - i for i <= k)``; one running maximum serves every
    cell because cell c's values are lifted by ``c << _LIFT_BITS``, above all
    of cell c-1's.  ``base - k`` lies in ``(-n_arr, n_slots + 1]``, so the
    cells stay apart while ``n_slots`` plus one cell's arrivals stays below
    ``2**_LIFT_BITS``, and int64 holds the lift while the cell count stays
    below ``2**(63 - _LIFT_BITS)``; a block holds at most ``_BLOCK_ARRIVALS``
    cells.
    """
    # base[i] - k + (c << _LIFT_BITS) = base[i] + shift[i], k = i - starts[c]
    rank = np.arange(len(starts) - 1, dtype=np.int64) << _LIFT_BITS
    shift = np.repeat(rank + starts[:-1], np.diff(starts))
    shift -= np.arange(len(base), dtype=np.int64)
    run = np.maximum.accumulate(base + shift)
    run -= shift
    return run


def _draw_blocks(config: DtrpConfig, period: float, cell_rate: float):
    """Each sample cell's slot offset and sorted arrivals, drawn cell after
    cell from one substream, grouped into blocks of consecutive cells with
    arrivals that hold at least ``_BLOCK_ARRIVALS`` arrivals (the last block
    fewer).  Yields ``(cells, offsets, arrivals)`` lists."""
    horizon = config.n_slots * period
    rng = substream(config.seed, 7)
    cells, offsets, arrivals, n_block = [], [], [], 0
    for cell in range(config.n_sample_cells):
        # rng.random() * x is rng.uniform(0.0, x) bit for bit (that computes
        # 0.0 + x * u from the same double u), at a third of the call cost
        offset = rng.random() * period
        n_arr = rng.poisson(cell_rate * horizon)
        if n_arr == 0:
            continue
        cells.append(cell)
        offsets.append(offset)
        arr = rng.random(n_arr)
        arr *= horizon
        arr.sort()
        arrivals.append(arr)
        n_block += n_arr
        if n_block >= _BLOCK_ARRIVALS:
            yield cells, offsets, arrivals
            cells, offsets, arrivals, n_block = [], [], [], 0
    if cells:
        yield cells, offsets, arrivals


def _simulate_cells(config: DtrpConfig, period: float, cell_rate: float,
                    trace: list | None = None,
                    trace_cells: int = 3) -> DtrpStats:
    """Slotted-queue simulation of a sample of independent cells.

    Each cell gets one service slot per period at a uniform random offset;
    the slot serves the oldest target that arrived before it (FIFO within a
    cell), so the k-th arrival departs at slot ``max(first slot after its
    arrival, departure slot of arrival k-1 + 1)`` — a running maximum.  The
    utilization is ``cell_rate * period``, and the run is divergent iff it
    is at least 1: a slotted queue is stable iff its utilization is below 1.

    Cells are simulated in blocks of about ``_BLOCK_ARRIVALS`` arrivals
    (:func:`_draw_blocks`): each block's arrivals, concatenated in (cell,
    time) order, go through whole-array passes, and one running maximum
    gives every cell's slots (:func:`_fifo_slots`).  Blocks keep the
    temporaries in cache; one pass over a whole long run is slower.  Sums
    that feed the statistics are taken per cell and added in cell order, so
    the results do not depend on the block size.  The trace holds each of
    the first ``trace_cells`` cells' first 50 slots and first 200 arrivals
    with their services.
    """
    horizon = config.n_slots * period
    warmup = config.warmup_fraction * horizon
    times = []
    served_total = 0
    occupancy = 0.0  # integral of queue length over the post-warmup window
    first_target_id = 0
    for cells, offsets, arrs in _draw_blocks(config, period, cell_rate):
        counts = [len(a) for a in arrs]
        starts = np.cumsum([0] + counts)
        arrivals = np.concatenate(arrs)
        offset = np.repeat(offsets, counts)
        # first slot after each arrival; arrivals are >= 0 and offsets are
        # below one period, so the quotient is > -1 and base >= 0
        first = arrivals - offset
        first /= period
        base = np.floor(first, out=first).astype(np.int64)
        base += 1
        depart = offset + _fifo_slots(base, starts) * period
        if trace is not None and cells[0] < trace_cells:
            _trace_block(trace, cells, offsets, starts.tolist(), arrivals,
                         depart, first_target_id, period, horizon,
                         min(config.n_slots, 50), trace_cells)
        first_target_id += len(arrivals)
        in_run = depart < horizon
        served_total += int(np.count_nonzero(in_run))
        keep = in_run & (arrivals >= warmup)
        times.append((depart - arrivals)[keep])
        span = np.minimum(depart, horizon)
        span -= np.maximum(arrivals, warmup)
        np.maximum(span, 0.0, out=span)
        # every cell of a block has arrivals, so no segment is empty
        for cell_sum in np.add.reduceat(span, starts[:-1]).tolist():
            occupancy += cell_sum

    if times:
        all_waits = np.concatenate(times)
        mean_t = float(all_waits.mean()) if len(all_waits) else float("nan")
    else:
        mean_t = float("nan")
    window = horizon - warmup
    queue_per_cell = occupancy / (window * config.n_sample_cells)
    expected_queue = cell_rate * mean_t
    residual = (abs(queue_per_cell - expected_queue) / expected_queue
                if expected_queue > 0 else float("nan"))
    utilization = cell_rate * period
    # whole-system queue length via Little's law on the total stream
    return DtrpStats(
        mean_system_time=mean_t, mean_queue_len=config.lam * mean_t,
        served=served_total, divergent=utilization >= 1.0,
        utilization=utilization, sweep_period=period, cell_rate=cell_rate,
        little_residual=residual)


def _trace_block(trace, cells, offsets, bounds, arrivals, depart,
                 first_target_id, period, horizon, n_slots, trace_cells):
    """Append the events of a block's cells numbered below ``trace_cells``:
    per cell its first ``n_slots`` slot starts, then its first 200 arrivals,
    each followed by its service if that falls within the horizon."""
    for i, cell in enumerate(cells):
        if cell >= trace_cells:
            break
        offset = offsets[i]
        for k_slot in range(n_slots):
            trace.append({"t": offset + k_slot * period,
                          "event": "sweep_start", "target_id": None,
                          "cell_index": cell})
        s = bounds[i]
        e = min(bounds[i + 1], s + 200)
        tid = first_target_id + s
        for a, d in zip(arrivals[s:e].tolist(), depart[s:e].tolist()):
            trace.append({"t": a, "event": "arrival", "target_id": tid,
                          "cell_index": cell})
            if d < horizon:
                trace.append({"t": d, "event": "service", "target_id": tid,
                              "cell_index": cell})
            tid += 1


def _run_policy(config: DtrpConfig, dim: int, trace: list | None) -> DtrpStats:
    _, period, rate, clamped = _size_cell(config, tune_policy(dim).x_star)
    stats = _simulate_cells(config, period, rate, trace=trace)
    stats.cell_clamped = clamped
    return stats


def run_bta(config: DtrpConfig, trace: list | None = None) -> DtrpStats:
    """Bead-sweep repair policy in a rectangle."""
    if len(config.dims) != 2:
        raise ValueError("policy bta requires dims = (W, H)")
    return _run_policy(config, 2, trace)


def run_cca(config: DtrpConfig, trace: list | None = None) -> DtrpStats:
    """Cylinder-sweep repair policy in a box."""
    if len(config.dims) != 3:
        raise ValueError("policy cca requires dims = (W, H, D)")
    return _run_policy(config, 3, trace)


def predicted_system_time(dim: int, dims: tuple, params: VehicleParams,
                          lam: float) -> float:
    """Heavy-load prediction at the tuned utilization:
    ``heavy_load(tune_policy(dim).coefficient, ...) * lam^(2 or 4)``.

    This is the bound's law, a wait of ``1 + x/(2(1-x))`` sweep periods per
    cell.  The simulated mean follows ``P(1/2 + x/(2(1-x)))``, half a period
    to the next slot plus the M/D/1 queueing term, so at ``x*`` the
    prediction is 1.281 times that value in 2D and 1.175 times in 3D.
    """
    return heavy_load(tune_policy(_dim(dim, dims)).coefficient, dims, params) \
        * lam ** (2 * dim - 2)


def md1_system_time(lam: float, service: float) -> float:
    """Closed-form M/D/1 mean system time: S * (1 + rho/(2(1-rho)))."""
    rho = lam * service
    if not 0 <= rho < 1:
        raise ValueError("need 0 <= lam * service < 1")
    return service * (1.0 + rho / (2.0 * (1.0 - rho)))


def simulate_md1(lam: float, service: float, n_customers: int,
                 seed: int = 0, warmup: int = 0) -> float:
    """M/D/1 mean system time by the Lindley waiting-time recursion.

    Uses the closed form of the recursion W_i = max(0, W_{i-1} + S - A_{i-1}):
    with C the zero-prefixed cumulative sum of (S - A), W equals C minus its
    running minimum.
    """
    rng = substream(seed, 11)
    inter = rng.exponential(1.0 / lam, size=n_customers - 1)
    c = np.concatenate([[0.0], np.cumsum(service - inter)])
    waits = c - np.minimum.accumulate(c)
    return float(waits[warmup:].mean() + service)
