"""Test oracles: exact or brute-force references for the reproduction.

Nothing of the package is imported here but ``ditsp.rng.substream``, so a
simulated oracle draws the same stream as the package would;
``tests/test_oracles.py`` checks that.  Cells and grids come in as
arguments.
"""

from __future__ import annotations

import numpy as np

from ditsp.rng import substream


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


def brute_force_walk(points: np.ndarray, pos, skip=None):
    """Nearest-neighbour walk by full distance scans (no kd-tree), from the
    position ``pos`` over every row of ``points`` but ``skip``;
    ``(order, lengths)``.

    Each step takes the nearest remaining row by the axis-1 norm, ties to
    the lowest index, and charges the leg the distance that chose it.  A
    tour's walk starts at row ``start`` with ``pos = points[start]`` and
    ``skip = start``: marked visited first, so that an exact duplicate of
    the start row with a lower index does not tie with it at distance 0.
    """
    remaining = np.ones(len(points), dtype=bool)
    if skip is not None:
        remaining[skip] = False
    pos = np.asarray(pos, dtype=float)
    order, lengths = [], []
    for _ in range(np.count_nonzero(remaining)):
        idx = np.flatnonzero(remaining)
        dists = np.linalg.norm(points[idx] - pos, axis=1)
        k = int(np.argmin(dists))
        j = idx[k]
        lengths.append(float(dists[k]))
        order.append(j)
        remaining[j] = False
        pos = points[j]
    return order, lengths


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


def bead_contains(spec, center, point) -> bool:
    """True iff ``point`` lies in the bead ``spec`` centered at ``center``,
    axis along +x."""
    dx = abs(point[0] - center[0])
    dy = abs(point[1] - center[1])
    return dx / (spec.ell / 2.0) + dy / (spec.w / 2.0) <= 1.0 + 1e-12


def sample_in_bead(spec, center, rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform samples inside a bead (linear image of the unit square)."""
    u = rng.uniform(-1.0, 1.0, size=n)
    v = rng.uniform(-1.0, 1.0, size=n)
    x = center[0] + (spec.ell / 4.0) * (u + v)
    y = center[1] + (spec.w / 4.0) * (u - v)
    return np.column_stack([x, y])


def covers(grid, points: np.ndarray) -> np.ndarray:
    """Boolean mask: point lies within its owning cylinder of the
    ``CylinderGrid`` ``grid``."""
    pts = np.atleast_2d(points)
    k, r, c = grid.cell_index(pts)
    y, z = grid.axis_center(k, r)
    d2 = (pts[:, 1] - y) ** 2 + (pts[:, 2] - z) ** 2
    in_radius = d2 <= grid.spec.radius**2 * (1.0 + 1e-9)
    x0 = c * grid.spec.ell
    in_length = (pts[:, 0] >= x0 - 1e-12) & (pts[:, 0] <= x0 + grid.spec.ell + 1e-12)
    return in_radius & in_length
