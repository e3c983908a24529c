"""Bead and cylinder cells, the planar bead tiling and the 3D cylinder covering.

A bead of length ``ell <= 4*rho`` is the rhombic cell spanned by the axis
endpoints ``(+-ell/2, 0)`` and the thickness apexes ``(0, +-w/2)`` with
``w = 4*rho*(1 - sqrt(1 - ell**2/(16*rho**2)))``.  Every interior point ``p``
lies on a circle through the two axis endpoints of radius at least ``2*rho``,
so a bounded-curvature vehicle with turn radius ``rho`` can pass through
``p`` while entering and leaving along the axis; the connecting arc is never
longer than ``4*rho*arcsin(ell/(4*rho))``.  Identical beads tile the plane
periodically with lattice vectors ``(ell, 0)`` and ``(ell/2, w/2)``.

The cylinder cell is obtained by revolving the bead's inner rectangle about
its axis: radius ``w/4``, length ``ell``, and nominal cell volume
``pi*(w/4)**2*(ell/2)``.  Cylinders cover 3-space in rows (end to end along
x), rows stacked at pitch ``w/2`` in y, and layers stacked at pitch ``w/4``
in z with alternate layers offset by one radius in y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

_RTOL = 4 * np.finfo(float).eps


def bead_width(rho: float, ell: float) -> float:
    """Maximum thickness of a bead of length ``ell`` for turn radius ``rho``.

    Closed form ``4*rho*(1 - sqrt(1 - ell**2/(16*rho**2)))``; behaves like
    ``ell**2/(8*rho)`` for short beads.  A width that underflows to 0 is
    rejected.
    """
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError(f"rho must be finite and positive, got {rho}")
    if not 0 < ell <= 4 * rho * (1 + 1e-12):
        raise ValueError(f"ell must lie in (0, 4*rho], got {ell} for rho {rho}")
    x = min(1.0, ell**2 / (16.0 * rho**2))
    # 1 - sqrt(1-x) written as x/(1+sqrt(1-x)) to stay accurate for small x
    w = 4.0 * rho * x / (1.0 + math.sqrt(1.0 - x))
    if w == 0.0:
        raise ValueError(f"ell {ell} is too short for rho {rho}: "
                         "the bead width underflows to 0")
    return w


@dataclass(frozen=True)
class BeadSpec:
    """Bead cell parameters: turn radius ``rho``, length ``ell``, thickness ``w``."""

    rho: float
    ell: float
    w: float

    @classmethod
    def create(cls, rho: float, ell: float) -> "BeadSpec":
        w = bead_width(rho, ell)
        assert 0 < w <= ell * (1 + 1e-12)
        return cls(rho=rho, ell=ell, w=w)

    @property
    def arc_length(self) -> float:
        """Upper bound on the through-cell arc, ``4*rho*arcsin(ell/(4*rho))``."""
        return 4.0 * self.rho * math.asin(min(1.0, self.ell / (4.0 * self.rho)))


@dataclass(frozen=True)
class CylinderSpec:
    """Cylinder cell: radius ``w(ell)/4``, length ``ell``."""

    rho: float
    ell: float
    radius: float

    @classmethod
    def create(cls, rho: float, ell: float) -> "CylinderSpec":
        w = bead_width(rho, ell)
        return cls(rho=rho, ell=ell, radius=w / 4.0)

    @property
    def w(self) -> float:
        return 4.0 * self.radius


def bead_area(spec: BeadSpec) -> float:
    """Cell area ``ell * w / 2`` (exact for the rhombic cell)."""
    return spec.ell * spec.w / 2.0


def cylinder_volume(spec: CylinderSpec) -> float:
    """Nominal cell volume ``pi * (w/4)**2 * (ell/2)``.

    This is the volume budget per cell used by the covering (overlaps between
    neighboring cylinders are deliberately not subtracted); its leading term
    is ``pi * ell**5 / (2048 * rho**2)``.
    """
    return math.pi * spec.radius**2 * (spec.ell / 2.0)


def bead_contains(spec: BeadSpec, center, point) -> bool:
    """True iff ``point`` lies in the bead centered at ``center``, axis along +x."""
    dx = abs(point[0] - center[0])
    dy = abs(point[1] - center[1])
    return dx / (spec.ell / 2.0) + dy / (spec.w / 2.0) <= 1.0 + 1e-12


def sample_in_bead(spec: BeadSpec, center, rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform samples inside a bead (linear image of the unit square)."""
    u = rng.uniform(-1.0, 1.0, size=n)
    v = rng.uniform(-1.0, 1.0, size=n)
    x = center[0] + (spec.ell / 4.0) * (u + v)
    y = center[1] + (spec.w / 4.0) * (u - v)
    return np.column_stack([x, y])


class BeadGrid:
    """Periodic bead tiling of the plane, clipped to the rectangle [0,W]x[0,H].

    Cell centers sit on the lattice ``(i*ell + j*ell/2, j*w/2)``: column step
    ``(ell, 0)``, row step ``(ell/2, w/2)`` (adjacent rows staggered by half a
    cell).  Index is ``(row, col) = (j, i)``.  Point-to-cell lookup is O(1)
    through the shear coordinates ``p = x/(ell/2) + y/(w/2)`` and
    ``q = x/(ell/2) - y/(w/2)``, in which the cells are unit sup-norm balls
    centered on the even integer lattice.
    """

    def __init__(self, W: float, H: float, spec: BeadSpec):
        if not (W >= H > 0):
            raise ValueError("workspace must satisfy W >= H > 0")
        self.W = W
        self.H = H
        self.spec = spec
        w, ell = spec.w, spec.ell
        self.row_min = -1
        self.row_max = int(math.floor(2.0 * H / w)) + 1
        # widest column range over all rows; per-row ranges are derived on demand
        self.n_rows = self.row_max - self.row_min + 1

    def col_range(self, row: int) -> tuple[int, int]:
        """Inclusive column index range of cells in ``row`` intersecting the rectangle."""
        ell = self.spec.ell
        shift = row * ell / 2.0
        lo = int(math.ceil((-ell / 2.0 - shift) / ell))
        hi = int(math.floor((self.W + ell / 2.0 - shift) / ell))
        return lo, hi

    def cell_center(self, row, col):
        """Center coordinates of cell ``(row, col)``; accepts arrays."""
        row = np.asarray(row)
        col = np.asarray(col)
        return (col * self.spec.ell + row * self.spec.ell / 2.0,
                row * self.spec.w / 2.0)

    def cell_index(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Owning cell ``(row, col)`` for each point of an (n, 2) array."""
        pts = np.atleast_2d(points)
        a = self.spec.ell / 2.0
        b = self.spec.w / 2.0
        p = pts[:, 0] / a + pts[:, 1] / b
        q = pts[:, 0] / a - pts[:, 1] / b
        P = 2.0 * np.round(p / 2.0)
        Q = 2.0 * np.round(q / 2.0)
        i = (Q / 2.0).astype(np.int64)
        j = ((P - Q) / 2.0).astype(np.int64)
        return j, i

    def cells(self):
        """Iterate ``(row, col)`` over all cells intersecting the rectangle."""
        for row in range(self.row_min, self.row_max + 1):
            lo, hi = self.col_range(row)
            for col in range(lo, hi + 1):
                yield row, col

    def meta_index(self, phase: int, row, col):
        """Aggregate cell index to the meta-cell index of the given phase
        (see :func:`bead_meta_exponents`)."""
        vr, vc = bead_meta_exponents(phase)
        return np.asarray(row) >> vr, np.asarray(col) >> vc

    def meta_row_count(self, phase: int) -> int:
        """Number of meta-rows intersecting the rectangle at the given phase."""
        vr, _ = bead_meta_exponents(phase)
        return (self.row_max >> vr) - (self.row_min >> vr) + 1


def bead_meta_exponents(phase: int) -> tuple[int, int]:
    """Aggregation exponents ``(rows, cols)`` of bead phase ``phase``: its
    meta-cells are ``2**rows`` bead rows by ``2**cols`` bead columns.

    Phase ``i`` meta-cells group ``2**(i-1)`` neighboring beads: pairing
    alternates horizontal (phase 2) then vertical (phase 3) and so on, so
    odd-phase meta-cells are square blocks of ``2**(i-1)`` beads.
    """
    if phase < 1:
        raise ValueError("phase must be >= 1")
    return (phase - 1) // 2, phase // 2


class CylinderGrid:
    """Cylinder covering of the box [0,W]x[0,H]x[0,D], index ``(layer, row, col)``.

    Axes run along x.  Row pitch in y is ``w/2`` (two radii), layer pitch in z
    is ``w/4`` (one radius), odd layers offset by one radius in y; the circle
    cross-sections then cover the (y, z) plane.  Overlapping cells are
    disambiguated by assigning each point to the cylinder with the nearest
    axis (ties: lowest ``(layer, row)``).

    In units of the radius the axis of ``(layer, row)`` sits at
    ``(y, z) = (2*row + layer % 2, layer) = (s - t, s + t)`` for integers
    ``s, t``: a square lattice turned by 45 degrees.  Its nearest point takes
    two roundings, ``s`` of ``(y + z)/2`` and ``t`` of ``(z - y)/2``, halves
    down; then ``layer = s + t`` and ``row = layer // 2 - t``.  A point outside
    the box gets the nearest axis of the extrapolated lattice, which may lie
    outside the grid's row and layer ranges; only the column is clipped.
    """

    def __init__(self, W: float, H: float, D: float, spec: CylinderSpec):
        if not (W >= H >= D > 0):
            raise ValueError("box must satisfy W >= H >= D > 0")
        self.W, self.H, self.D = W, H, D
        self.spec = spec
        rad = spec.radius
        self.n_cols = max(1, int(math.ceil(W / spec.ell)))
        self.row_min = -1
        self.row_max = int(math.floor((H + rad) / (2.0 * rad)))
        self.layer_min = -1
        self.layer_max = int(math.floor((D + rad) / rad))
        self.n_rows = self.row_max - self.row_min + 1
        self.n_layers = self.layer_max - self.layer_min + 1

    def axis_center(self, layer, row):
        """(y, z) coordinates of the cylinder axis for ``(layer, row)``; accepts arrays."""
        layer = np.asarray(layer)
        row = np.asarray(row)
        rad = self.spec.radius
        y = row * 2.0 * rad + (layer % 2) * rad
        z = layer * rad
        return y, z

    def cell_index(self, points: np.ndarray):
        """Owning cell ``(layer, row, col)`` for each point of an (n, 3) array."""
        pts = np.atleast_2d(points)
        u = pts[:, 1] / self.spec.radius
        v = pts[:, 2] / self.spec.radius
        # round s and t half down: ties go to the lowest (layer, row)
        s = np.ceil((u + v) / 2.0 - 0.5).astype(np.int64)
        t = np.ceil((v - u) / 2.0 - 0.5).astype(np.int64)
        layer = s + t
        col = np.clip(np.floor(pts[:, 0] / self.spec.ell).astype(np.int64), 0, self.n_cols - 1)
        return layer, layer // 2 - t, col

    def covers(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask: point lies within its owning cylinder."""
        pts = np.atleast_2d(points)
        k, r, c = self.cell_index(pts)
        y, z = self.axis_center(k, r)
        d2 = (pts[:, 1] - y) ** 2 + (pts[:, 2] - z) ** 2
        in_radius = d2 <= self.spec.radius**2 * (1.0 + 1e-9)
        x0 = c * self.spec.ell
        in_length = (pts[:, 0] >= x0 - 1e-12) & (pts[:, 0] <= x0 + self.spec.ell + 1e-12)
        return in_radius & in_length


# sub-phase aggregation exponents (cols, rows, layers): meta-cylinders of
# 1, 2, 4, 8, 16 cells
SUBPHASE_EXPONENTS = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0), (2, 1, 1))
# sweep length of one cell-enlargement cycle (five sub-phases) relative to its
# first sub-phase: aggregating 2**b rows and 2**c layers divides the rows
# swept by 2**(b+c), so 1 + 1 + 1/2 + 1/2 + 1/4 = 3.25 (3328/1024)
CYCLE_FACTOR_3D = sum(2.0 ** -(b + c) for _, b, c in SUBPHASE_EXPONENTS)


def cylinder_meta_index(subphase: int, layer, row, col):
    """Meta-cylinder index for sub-phase ``subphase`` in {1..5}."""
    if not 1 <= subphase <= 5:
        raise ValueError("subphase must be in 1..5")
    a, b, c = SUBPHASE_EXPONENTS[subphase - 1]
    return np.asarray(layer) >> c, np.asarray(row) >> b, np.asarray(col) >> a


def ell_asymptotic_2d(W: float, H: float, rho: float, n: int) -> float:
    """Large-n approximation ``2*(rho*W*H/n)**(1/3)`` of the 2D cell length."""
    return 2.0 * (rho * W * H / n) ** (1.0 / 3.0)


def ell_asymptotic_3d(W: float, H: float, D: float, rho: float, n: int) -> float:
    """Large-n approximation ``2*(16*rho**2*W*H*D/(pi*n))**(1/5)``."""
    return 2.0 * (16.0 * rho**2 * W * H * D / (math.pi * n)) ** (1.0 / 5.0)


def _check_n(n: int):
    if n < 1:
        raise ValueError("n must be >= 1")


def solve_cell(rho: float, excess) -> tuple[float, bool]:
    """Cell length where ``excess`` crosses zero on ``(0, 4*rho]``;
    ``(ell, clamped)``.

    ``excess(ell)`` is negative for short cells.  When even the largest
    admissible cell is not enough, ``excess(4*rho) <= 0``, the result is
    ``(4*rho, True)``.  Otherwise the bracket's low end starts at
    ``4e-9*rho`` and shrinks until ``excess`` is negative there, and
    ``brentq`` solves to a relative tolerance of a few ulps.  Where
    ``excess`` involves a sweep period it is a sawtooth, not monotone: the
    grid's row and layer counts are floors, so it crosses zero several
    times close to the root, and ``brentq`` returns one of those crossings.
    """
    hi = 4.0 * rho
    if excess(hi) <= 0:
        return hi, True
    lo = hi * 1e-9
    while excess(lo) > 0:
        lo *= 1e-3
    ell = brentq(excess, lo, hi, rtol=_RTOL, xtol=1e-300)
    return float(ell), False


def ell_for_n(W: float, H: float, rho: float, n: int) -> tuple[float, bool]:
    """Cell length making bead area equal W*H/(2n); ``(ell, clamped)``."""
    _check_n(n)
    return solve_cell(rho, lambda ell: bead_area(BeadSpec.create(rho, ell))
                      - W * H / 2.0 / n)


def ell_for_n_3d(W: float, H: float, D: float, rho: float, n: int) -> tuple[float, bool]:
    """Cell length making cylinder volume equal W*H*D/(4n); ``(ell, clamped)``."""
    _check_n(n)
    return solve_cell(rho, lambda ell: cylinder_volume(CylinderSpec.create(rho, ell))
                      - W * H * D / 4.0 / n)
