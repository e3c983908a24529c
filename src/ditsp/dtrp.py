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
from dataclasses import dataclass, replace

import numpy as np

from ditsp.bounds import _dim, heavy_load
from ditsp.geometry import (CYCLE_FACTOR_3D, SWEEP_BUDGET_3D, BeadGrid,
                            BeadSpec, CylinderGrid, _check_dims, _check_reach,
                            bead_area, bead_sweep, cylinder_sweep,
                            cylinder_volume, solve_cell)
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
    ``ell = x * a / (X_FACTOR_3D * lam)`` (3D).  ``g``'s log-derivative
    ``-p/x + 1/((1-x)(2-x))`` vanishes in (0, 1) at the smaller root of
    ``p x**2 - (3p+1) x + 2p``: ``(7 - sqrt(17))/4`` in 2D and
    ``(13 - sqrt(41))/8`` in 3D.
    """
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    # utilization per unit lam*ell/a, the sweep budget, the printed constant
    x_factor, budget, c_printed = {
        2: (1.0, 16.0, C_PRINTED_2D),
        3: (X_FACTOR_3D, SWEEP_BUDGET_3D, C_PRINTED_3D),
    }[dim]
    p = 2 * dim - 2
    g = lambda x: x ** (-p) * md1_system_time(x, 1.0)
    q = 3 * p + 1
    x_star = (q - math.sqrt(q * q - 8 * p * p)) / (2 * p)
    c_over_a = x_star / x_factor
    # the coefficient at utilization x is scale * g(x)
    scale = budget * x_factor**p
    return PolicyTuning(
        dim=dim, x_star=x_star, c_over_a=c_over_a,
        coefficient=scale * g(x_star), c_printed=c_printed,
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
        _check_dims(self.dims)
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


@dataclass(frozen=True)
class DtrpStats:
    """Aggregate queue statistics of one run, streamed block by block: a
    run holds no per-arrival data beyond one block of the simulation, about
    ``_BLOCK_ARRIVALS`` plus the largest cell's arrivals."""

    mean_system_time: float
    mean_queue_len: float       # whole-system time average, by Little's law
    served: int
    divergent: bool             # utilization >= 1; run_bta and run_cca size
                                # cells to utilization <= x* < 1, as the
                                # cell length's certificate guarantees
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
    gains a row or a layer, so the utilization is a sawtooth in ``ell``;
    the solver's bisection certifies one of its crossings of ``x_target``:
    the utilization is at most ``x_target`` at ``ell`` and above it at the
    next float.  Returns
    ``(ell, period, cell_rate, clamped)``; if even the largest admissible
    cell (ell = 4 rho) cannot reach the target, it is used as is and
    ``clamped`` is True.  A grid of that cell whose indices do not fit
    int64 is a ``ValueError``, as in the tours' cell lookup; it names
    ``lam`` unless the cell is clamped.  So does a cell that still exceeds
    the target with such a grid: the crossing lies at shorter cells yet.
    """
    params = config.params
    rho = params.turn_radius
    dims = config.dims
    measure = math.prod(dims)  # area or volume

    def measured(ell):
        spec = BeadSpec.create(rho, ell)
        if len(dims) == 2:
            grid = BeadGrid(*dims, spec)
            cell, sweep = bead_area(spec), bead_sweep(grid, 1).length
        else:
            grid = CylinderGrid(*dims, spec)
            cell = cylinder_volume(spec)
            sweep = CYCLE_FACTOR_3D * cylinder_sweep(grid).length
        return config.lam * cell / measure, sweep / params.r_vel, grid

    too_high = (f"arrival rate lam {config.lam:g} is too high for the "
                "workspace and turn radius")

    def excess(ell):
        rate, period, grid = measured(ell)
        value = rate * period - x_target
        if value > 0:
            # before the probe grids overflow and the solver runs astray
            _check_reach(grid, too_high)
        return value

    ell, clamped = solve_cell(rho, dims, excess)
    rate, period, grid = measured(ell)
    # the bracket's short cells make grids past int64, the policy's may not
    _check_reach(grid, None if clamped else too_high)
    return ell, period, rate, clamped


def _fifo_slots(base: np.ndarray, starts: list, counts: np.ndarray,
                index: np.ndarray) -> np.ndarray:
    """FIFO service slots of several cells' queues at once, written over
    ``base``.

    ``base`` holds each arrival's first slot after its arrival, the
    arrivals sorted by (cell, time), with cell c's ``counts[c]`` arrivals
    from ``base[starts[c]]`` on; ``index`` is an ``arange`` at least as long
    as ``base``, kept from block to block.  Within a cell the k-th arrival
    leaves at slot ``k + max(base[i] - i for i <= k)``; one running maximum
    serves every cell because cell c's values are lifted by ``c <<
    _LIFT_BITS``, above all of cell c-1's.  ``base - k`` lies in ``(-n_arr,
    n_slots + 1]``, so the cells stay apart while ``n_slots`` plus one
    cell's arrivals stays below ``2**_LIFT_BITS``, and int64 holds the lift
    while the cell count stays below ``2**(63 - _LIFT_BITS)``; a block holds
    at most ``_BLOCK_ARRIVALS`` cells.
    """
    # base[i] - k + (c << _LIFT_BITS) = base[i] + shift[i], k = i - starts[c]
    lift = np.arange(len(starts), dtype=np.int64) << _LIFT_BITS
    lift += starts
    shift = np.repeat(lift, counts)
    shift -= index[:len(base)]
    base += shift
    np.maximum.accumulate(base, out=base)
    base -= shift
    return base


def _draw_blocks(config: DtrpConfig, period: float, cell_rate: float):
    """Each sample cell's slot offset and sorted arrivals, drawn cell after
    cell from one substream, grouped into blocks of consecutive cells with
    arrivals.  A block is yielded once it holds at least ``_BLOCK_ARRIVALS``
    arrivals, and at the last sample cell if it holds any; so no block is
    empty, and only the last may hold fewer.

    Yields ``(cells, offsets, bounds, arrivals)``: lists of the block's
    cell numbers and their slot offsets, the one list ``[0, end_1, ...]``
    of the bounds of the cells' arrivals (the i-th cell's are
    ``arrivals[bounds[i]:bounds[i + 1]]``), and ``arrivals``, a view of one
    float64 buffer that the next block overwrites.  Each cell's arrivals
    are drawn into their slice of the buffer by ``rng.random(out=...)``
    (the doubles of ``rng.random(n)``) and sorted there; the whole block is
    then scaled by the horizon once.
    ``x -> fl(x * horizon)`` is monotone, so sorting before scaling gives
    the same arrivals bit for bit as scaling before sorting.  The buffer
    grows, keeping the block drawn so far, when a cell would overflow it.
    """
    horizon = config.n_slots * period
    mean_arrivals = cell_rate * horizon
    rng = substream(config.seed, 7)
    buf = np.empty(_BLOCK_ARRIVALS)
    last = config.n_sample_cells - 1
    cells, offsets, bounds, n_block = [], [], [0], 0
    for cell in range(config.n_sample_cells):
        # rng.random() * x is rng.uniform(0.0, x) bit for bit (that computes
        # 0.0 + x * u from the same double u), at a third of the call cost
        offset = rng.random() * period
        n_arr = rng.poisson(mean_arrivals)
        if n_arr:
            end = n_block + n_arr
            if end > len(buf):
                buf = np.resize(buf, max(end, 2 * len(buf)))
            arr = buf[n_block:end]
            rng.random(out=arr)
            arr.sort()
            cells.append(cell)
            offsets.append(offset)
            bounds.append(end)
            n_block = end
        if n_block >= _BLOCK_ARRIVALS or cell == last and cells:
            arrivals = buf[:n_block]
            arrivals *= horizon
            yield cells, offsets, bounds, arrivals
            cells, offsets, bounds, n_block = [], [], [0], 0


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
    (:func:`_draw_blocks`): each block's arrivals, in (cell, time) order in
    one buffer, go through whole-array passes, and one running maximum
    gives every cell's slots (:func:`_fifo_slots`).  The block's ``bounds``
    give the cells' starts, ``bounds[:-1]``, their arrival counts, and the
    trace's slices.  Blocks keep the temporaries in cache; one pass over a
    whole long run is slower.  Each temporary is overwritten in place once
    it is no longer needed: the first slots become the service slots, the
    offsets the waits (zeroed where not kept), the departures the occupancy
    spans.  Both statistics, the mean wait and the occupancy integral, are
    sums taken per cell and added in cell order, so the results do not
    depend on the block size, and no wait outlives its block: memory holds
    one block, that is ``_BLOCK_ARRIVALS`` plus the largest cell's
    arrivals, whatever the horizon.  The trace holds each of the first
    ``trace_cells`` cells' first 50 slots and first 200 arrivals with their
    services.
    """
    horizon = config.n_slots * period
    warmup = config.warmup_fraction * horizon
    served_total = 0
    kept_total = 0      # served arrivals past the warm-up
    wait_total = 0.0    # the sum of their system times
    occupancy = 0.0     # integral of queue length over the post-warmup window
    first_target_id = 0
    index = np.empty(0, dtype=np.int64)
    for cells, offsets, bounds, arrivals in _draw_blocks(config, period,
                                                         cell_rate):
        n = len(arrivals)
        if len(index) < n:
            index = np.arange(n, dtype=np.int64)
        starts = bounds[:-1]
        counts = np.subtract(bounds[1:], starts)
        offset = np.repeat(offsets, counts)
        # first slot after each arrival; arrivals are >= 0 and offsets are
        # below one period, so the quotient is > -1 and the slot >= 0
        first = arrivals - offset
        first /= period
        slots = np.floor(first, out=first).astype(np.int64)
        slots += 1
        depart = _fifo_slots(slots, starts, counts, index) * period
        depart += offset
        if trace is not None and cells[0] < trace_cells:
            _trace_block(trace, cells, offsets, bounds, arrivals,
                         depart, first_target_id, period, horizon,
                         min(config.n_slots, 50), trace_cells)
        first_target_id += n
        keep = depart < horizon
        served_total += int(np.count_nonzero(keep))
        keep &= arrivals >= warmup
        kept_total += int(np.count_nonzero(keep))
        waits = np.subtract(depart, arrivals, out=offset)
        waits *= keep
        span = np.minimum(depart, horizon, out=depart)
        span -= np.maximum(arrivals, warmup, out=arrivals)
        np.maximum(span, 0.0, out=span)
        # every cell of a block has arrivals, so no segment is empty
        for wait_sum, span_sum in zip(np.add.reduceat(waits, starts).tolist(),
                                      np.add.reduceat(span, starts).tolist()):
            wait_total += wait_sum
            occupancy += span_sum

    mean_t = wait_total / kept_total if kept_total else float("nan")
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
    for cell, offset, s, e in zip(cells, offsets, bounds, bounds[1:]):
        if cell >= trace_cells:
            break
        for k_slot in range(n_slots):
            trace.append({"t": offset + k_slot * period,
                          "event": "sweep_start", "target_id": None,
                          "cell_index": cell})
        e = min(e, s + 200)
        for tid, a, d in zip(range(first_target_id + s, first_target_id + e),
                             arrivals[s:e].tolist(), depart[s:e].tolist()):
            trace.append({"t": a, "event": "arrival", "target_id": tid,
                          "cell_index": cell})
            if d < horizon:
                trace.append({"t": d, "event": "service", "target_id": tid,
                              "cell_index": cell})


def _run_policy(config: DtrpConfig, trace: list | None) -> DtrpStats:
    x_star = tune_policy(len(config.dims)).x_star
    _, period, rate, clamped = _size_cell(config, x_star)
    stats = _simulate_cells(config, period, rate, trace=trace)
    return replace(stats, cell_clamped=clamped)


def run_bta(config: DtrpConfig, trace: list | None = None) -> DtrpStats:
    """Bead-sweep repair policy in a rectangle."""
    if len(config.dims) != 2:
        raise ValueError("policy bta requires dims = (W, H)")
    return _run_policy(config, trace)


def run_cca(config: DtrpConfig, trace: list | None = None) -> DtrpStats:
    """Cylinder-sweep repair policy in a box."""
    if len(config.dims) != 3:
        raise ValueError("policy cca requires dims = (W, H, D)")
    return _run_policy(config, trace)


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

