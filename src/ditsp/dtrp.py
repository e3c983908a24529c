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

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from ditsp.bounds import turn_penalty
from ditsp.geometry import BeadSpec, CylinderSpec, bead_area, cylinder_volume
from ditsp.rng import substream
from ditsp.vehicle import VehicleParams, u_turn_length

# extra sweep length of one cell-enlargement cycle relative to its first
# sub-phase (coefficients 1024, 1024, 512, 512, 256 in units of 1/1024)
CYCLE_FACTOR_3D = 3328.0 / 1024.0
# utilization per unit (lam * ell / a) in 3D: (pi/2) * CYCLE_FACTOR_3D
X_FACTOR_3D = 3328.0 * math.pi / 2048.0

# cell-size constants as printed alongside the policies (C = lam * ell in
# units of the turn-adjusted speed a)
C_PRINTED_2D = 0.5241
C_PRINTED_3D = 0.1615


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


def _slot_overhead(x: float) -> float:
    """Mean slotted-queue system time in sweep periods: 1 + x/(2(1-x))."""
    return 1.0 + x / (2.0 * (1.0 - x))


def tune_policy(dim: int) -> PolicyTuning:
    """Minimize the heavy-load system-time coefficient over slot utilization.

    The system time scales as ``g(x) = x**-p * (1 + x/(2(1-x)))`` with p = 2
    in the plane and p = 4 in space; the cell size realizing utilization x is
    ``ell = x * a / lam`` (2D) or ``ell = x * a / (X_FACTOR_3D * lam)`` (3D).
    """
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    p = 2 if dim == 2 else 4
    g = lambda x: x ** (-p) * _slot_overhead(x)
    res = minimize_scalar(g, bounds=(1e-9, 1.0 - 1e-9), method="bounded",
                          options={"xatol": 1e-13})
    x_star = float(res.x)
    if dim == 2:
        c_over_a = x_star
        coefficient = 16.0 * float(res.fun)
        c_printed = C_PRINTED_2D
        coeff_printed = 16.0 * g(c_printed)
    else:
        c_over_a = x_star / X_FACTOR_3D
        coefficient = 3328.0 * X_FACTOR_3D**4 * float(res.fun)
        c_printed = C_PRINTED_3D
        coeff_printed = 3328.0 * X_FACTOR_3D**4 * g(c_printed * X_FACTOR_3D)
    return PolicyTuning(
        dim=dim, x_star=x_star, c_over_a=c_over_a, coefficient=coefficient,
        c_printed=c_printed,
        printed_consistent=abs(c_over_a - c_printed) / c_printed < 0.01,
        coefficient_at_printed=coeff_printed)


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


@dataclass
class DtrpStats:
    """Aggregate queue statistics of one run."""

    mean_system_time: float
    mean_queue_len: float       # whole-system time average, by Little's law
    served: int
    divergent: bool
    utilization: float
    sweep_period: float
    cell_rate: float            # per-cell Poisson arrival rate
    little_residual: float      # |measured queue - lam * T| / (lam * T)


def _sweep_period_2d(ell: float, W: float, H: float, params: VehicleParams) -> float:
    """Time of one full first-phase bead sweep at the speed cap."""
    s = params.r_vel
    rho = params.turn_radius
    spec = BeadSpec.create(rho, ell)
    n_rows = int(math.floor(2.0 * H / spec.w)) + 3  # matches BeadGrid row span
    pass_len = W + 2.0 * ell
    ut = u_turn_length(rho) + spec.w / 2.0
    closing = W + H + 2.0 * math.pi * rho + 2.0 * ell
    return (n_rows * (pass_len + ut) + closing) / s


def _sweep_period_3d(ell: float, W: float, H: float, D: float,
                     params: VehicleParams) -> float:
    """Time of one full cell-enlargement cycle (five sub-phases) at the speed cap."""
    s = params.r_vel
    rho = params.turn_radius
    spec = CylinderSpec.create(rho, ell)
    n_rows = int(math.floor(2.0 * H / spec.w)) + 2
    n_layers = int(math.floor(4.0 * D / spec.w)) + 2
    row_len = 2.0 * (W + 2.0 * ell) + u_turn_length(rho) + ell / 2.0
    ut_row = u_turn_length(rho) + spec.w / 2.0
    ut_layer = u_turn_length(rho) + spec.w / 4.0
    closing = W + H + D + 2.0 * math.pi * rho + 2.0 * ell
    base = n_layers * (n_rows * (row_len + ut_row) + ut_layer) + closing
    return CYCLE_FACTOR_3D * base / s


def _size_cell(config: DtrpConfig, x_target: float):
    """Cell length whose measured slot utilization equals ``x_target``.

    Returns ``(ell, period, cell_rate, utilization)``; if even the largest
    admissible cell (ell = 4 rho) cannot reach the target, it is used as is.
    """
    params = config.params
    rho = params.turn_radius
    dims = config.dims

    def measured(ell):
        if len(dims) == 2:
            W, H = dims
            spec = BeadSpec.create(rho, ell)
            rate = config.lam * bead_area(spec) / (W * H)
            period = _sweep_period_2d(ell, W, H, params)
        else:
            W, H, D = dims
            spec = CylinderSpec.create(rho, ell)
            rate = config.lam * cylinder_volume(spec) / (W * H * D)
            period = _sweep_period_3d(ell, W, H, D, params)
        return rate, period

    def excess(ell):
        rate, period = measured(ell)
        return rate * period - x_target

    ell_hi = 4.0 * rho
    if excess(ell_hi) <= 0.0:
        ell = ell_hi
    else:
        ell = brentq(excess, 1e-9 * rho, ell_hi, rtol=1e-12)
    rate, period = measured(ell)
    return ell, period, rate, rate * period


def _simulate_cells(config: DtrpConfig, period: float, cell_rate: float,
                    utilization: float, trace: list | None = None,
                    trace_cells: int = 3) -> DtrpStats:
    """Slotted-queue simulation of a sample of independent cells.

    Each cell gets one service slot per period at a uniform random offset;
    the slot serves the oldest target that arrived before it (FIFO within a
    cell), so the k-th arrival departs at slot ``max(first slot after its
    arrival, departure slot of arrival k-1 + 1)`` — a running maximum.
    """
    horizon = config.n_slots * period
    warmup = config.warmup_fraction * horizon
    rng = substream(config.seed, 7)
    times = []
    served_total = 0
    occupancy = 0.0  # integral of queue length over the post-warmup window
    late_sum = late_n = early_sum = early_n = 0.0
    next_target_id = 0
    for cell in range(config.n_sample_cells):
        offset = rng.uniform(0.0, period)
        n_arr = rng.poisson(cell_rate * horizon)
        if n_arr == 0:
            continue
        arrivals = np.sort(rng.uniform(0.0, horizon, size=n_arr))
        base = np.floor((arrivals - offset) / period).astype(np.int64) + 1
        np.maximum(base, 0, out=base)
        k = np.arange(n_arr)
        slot = k + np.maximum.accumulate(base - k)
        depart = offset + slot * period
        if trace is not None and cell < trace_cells:
            for k_slot in range(min(config.n_slots, 50)):
                trace.append({"t": offset + k_slot * period,
                              "event": "sweep_start", "target_id": None,
                              "cell_index": cell})
            for i in range(min(n_arr, 200)):
                tid = next_target_id + i
                trace.append({"t": float(arrivals[i]), "event": "arrival",
                              "target_id": tid, "cell_index": cell})
                if depart[i] < horizon:
                    trace.append({"t": float(depart[i]), "event": "service",
                                  "target_id": tid, "cell_index": cell})
        next_target_id += n_arr
        in_run = depart < horizon
        served_total += int(np.count_nonzero(in_run))
        keep = in_run & (arrivals >= warmup)
        waits = depart[keep] - arrivals[keep]
        times.append(waits)
        span = np.minimum(depart, horizon) - np.maximum(arrivals, warmup)
        occupancy += float(np.clip(span, 0.0, None).sum())
        mid = (warmup + horizon) / 2.0
        late = keep & (arrivals >= mid)
        early = keep & (arrivals < mid)
        late_sum += float(np.sum(depart[late] - arrivals[late]))
        late_n += int(np.count_nonzero(late))
        early_sum += float(np.sum(depart[early] - arrivals[early]))
        early_n += int(np.count_nonzero(early))

    if times:
        all_waits = np.concatenate(times)
        mean_t = float(all_waits.mean()) if len(all_waits) else float("nan")
    else:
        mean_t = float("nan")
    window = horizon - warmup
    queue_per_cell = occupancy / (window * config.n_sample_cells)
    expected_queue = cell_rate * mean_t if mean_t == mean_t else float("nan")
    residual = (abs(queue_per_cell - expected_queue) / expected_queue
                if expected_queue and expected_queue > 0 else float("nan"))
    divergent = utilization >= 1.0
    if not divergent and early_n > 0 and late_n > 0 and utilization > 0.9:
        divergent = (late_sum / late_n) > 1.5 * (early_sum / early_n)
    # whole-system queue length via Little's law on the total stream
    mean_queue = config.lam * mean_t if mean_t == mean_t else float("nan")
    return DtrpStats(
        mean_system_time=mean_t, mean_queue_len=mean_queue,
        served=served_total, divergent=divergent, utilization=utilization,
        sweep_period=period, cell_rate=cell_rate, little_residual=residual)


def run_bta(config: DtrpConfig, trace: list | None = None) -> DtrpStats:
    """Bead-sweep repair policy in a rectangle."""
    if len(config.dims) != 2:
        raise ValueError("run_bta requires dims = (W, H)")
    tuning = tune_policy(2)
    _, period, rate, x = _size_cell(config, tuning.x_star)
    return _simulate_cells(config, period, rate, x, trace=trace)


def run_cca(config: DtrpConfig, trace: list | None = None) -> DtrpStats:
    """Cylinder-sweep repair policy in a box."""
    if len(config.dims) != 3:
        raise ValueError("run_cca requires dims = (W, H, D)")
    tuning = tune_policy(3)
    _, period, rate, x = _size_cell(config, tuning.x_star)
    return _simulate_cells(config, period, rate, x, trace=trace)


def predicted_system_time(dim: int, dims: tuple, params: VehicleParams,
                          lam: float) -> float:
    """Heavy-load prediction at the tuned utilization: coeff * lam^(2 or 4)."""
    tuning = tune_policy(dim)
    pen = turn_penalty(dims[0], params)
    if dim == 2:
        W, H = dims
        return tuning.coefficient * W * H / (params.r_vel * params.r_ctr) \
            * pen**3 * lam**2
    W, H, D = dims
    return tuning.coefficient * W * H * D / (params.r_vel * params.r_ctr**2) \
        * pen**5 * lam**4


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
