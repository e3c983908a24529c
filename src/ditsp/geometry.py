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

The sweeps of both grids are defined here too, once per grid type: a
(sub-)phase sweep is one :class:`Sweep` (row passes, heading-reversal
u-turns, layer turns and the tour closing), given by :func:`bead_sweep` and
:func:`cylinder_sweep`.  The recursive tours charge them per phase and the
DTRP policies take their sweep periods from them.  So are the recursive
tours' schedules, without points: :func:`bead_schedule` and
:func:`cylinder_schedule` yield each (sub-)phase's grid and meta-cell
exponents, which :func:`meta_index` applies to cell indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ditsp.vehicle import u_turn_length


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
    """Cell parameters: turn radius ``rho``, length ``ell``, thickness ``w``;
    the bead in the plane, and revolved about its axis the cylinder of
    radius ``w/4``."""

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

    @property
    def radius(self) -> float:
        """Radius ``w/4`` of the cylinder cell."""
        return self.w / 4.0


def bead_area(spec: BeadSpec) -> float:
    """Cell area ``ell * w / 2`` (exact for the rhombic cell)."""
    return spec.ell * spec.w / 2.0


def cylinder_volume(spec: BeadSpec) -> float:
    """Nominal cell volume ``pi * (w/4)**2 * (ell/2)``.

    This is the volume budget per cell used by the covering (overlaps between
    neighboring cylinders are deliberately not subtracted); its leading term
    is ``pi * ell**5 / (2048 * rho**2)``.
    """
    return math.pi * spec.radius**2 * (spec.ell / 2.0)


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
        self.W, self.H = _check_dims((W, H))
        self.spec = spec
        w, ell = spec.w, spec.ell
        self.row_min = -1
        self.row_max = int(math.floor(2.0 * H / w)) + 1
        # widest column range over all rows; per-row ranges are derived on demand
        self.n_rows = self.row_max - self.row_min + 1
        # no lookup of a point of the rectangle gives an index past this
        self.reach = self.row_max + W / ell + 2.0

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

    def cell_index(self, points: np.ndarray, index=None, out=None):
        """Owning cell ``(row, col)`` of each point of an (n, 2) array, or of
        ``points[index]``, as :func:`_lookup` writes them."""
        a = self.spec.ell / 2.0
        b = self.spec.w / 2.0

        def lookup(pts, row, col):
            # in place: p, q = x/a +- y/b; P, Q = 2*round(p/2), 2*round(q/2);
            # col = Q/2, row = (P - Q)/2
            p = pts[:, 0] / a
            q = pts[:, 1] / b
            p, q = p + q, np.subtract(p, q, out=q)
            for r in (p, q):
                r /= 2.0
                np.round(r, out=r)
                r *= 2.0
            p -= q
            p /= 2.0
            q /= 2.0
            row[:] = p
            col[:] = q

        return _lookup(self, points, index, out, lookup)

    def cells(self):
        """Iterate ``(row, col)`` over all cells intersecting the rectangle."""
        for row in range(self.row_min, self.row_max + 1):
            lo, hi = self.col_range(row)
            for col in range(lo, hi + 1):
                yield row, col

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

    def __init__(self, W: float, H: float, D: float, spec: BeadSpec):
        self.W, self.H, self.D = _check_dims((W, H, D))
        self.spec = spec
        rad = spec.radius
        self.n_cols = max(1, int(math.ceil(W / spec.ell)))
        self.row_min = -1
        self.row_max = int(math.floor((H + rad) / (2.0 * rad)))
        self.layer_min = -1
        self.layer_max = int(math.floor((D + rad) / rad))
        self.n_rows = self.row_max - self.row_min + 1
        self.n_layers = self.layer_max - self.layer_min + 1
        # no lookup of a point of the box gives an index past this
        self.reach = self.layer_max + self.row_max + self.n_cols + 2.0

    def axis_center(self, layer, row):
        """(y, z) coordinates of the cylinder axis for ``(layer, row)``; accepts arrays."""
        layer = np.asarray(layer)
        row = np.asarray(row)
        rad = self.spec.radius
        y = row * 2.0 * rad + (layer % 2) * rad
        z = layer * rad
        return y, z

    def cell_index(self, points: np.ndarray, index=None, out=None):
        """Owning cell ``(layer, row, col)`` of each point of an (n, 3)
        array, or of ``points[index]``, as :func:`_lookup` writes them."""
        ell, rad, last = self.spec.ell, self.spec.radius, self.n_cols - 1

        def lookup(pts, layer, row, col):
            x = pts[:, 0] / ell
            np.floor(x, out=x)
            col[:] = np.clip(x, 0, last, out=x)
            # in place, from u = y/radius and v = z/radius: s, t = (u + v)/2
            # - 1/2 and (v - u)/2 - 1/2 rounded up, which rounds half down:
            # ties go to the lowest (layer, row); layer = s + t, row =
            # layer//2 - t
            s = pts[:, 1] / rad
            t = pts[:, 2] / rad
            s, t = s + t, np.subtract(t, s, out=t)
            for h in (s, t):
                h /= 2.0
                h -= 0.5
                np.ceil(h, out=h)
            layer[:] = s
            s += t
            # the integer sum below is exact but wraps silently: the cast
            # of the float sum into ``row`` only checks that it fits
            row[:] = s
            row[:] = t
            layer += row
            np.subtract(layer // 2, row, out=row)

        return _lookup(self, points, index, out, lookup)


# sub-phase aggregation exponents (layers, rows, cols), in the order of the
# cell index columns: meta-cylinders of 1, 2, 4, 8, 16 cells
SUBPHASE_EXPONENTS = ((0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2), (1, 1, 2))
# sweep length of one cell-enlargement cycle (five sub-phases) relative to its
# first sub-phase: aggregating 2**b rows and 2**c layers divides the rows
# swept by 2**(b+c), so 1 + 1 + 1/2 + 1/2 + 1/4 = 3.25 (3328/1024)
CYCLE_FACTOR_3D = sum(2.0 ** -(b + c) for c, b, _ in SUBPHASE_EXPONENTS)
# the five-sub-phase sweep budget of the 3D tour bound and the cca policy
SWEEP_BUDGET_3D = 1024.0 * CYCLE_FACTOR_3D  # 3328


def meta_index(keys, exponents):
    """Meta-cell index columns of the cell index columns ``keys``: each
    column aggregated ``2**exponent`` to one, exponents in the columns'
    order, as the schedules yield them.

    A column whose exponent is 0 comes back unchanged, the caller's own
    object, so callers must not write into the keys."""
    return tuple(key if e == 0 else np.asarray(key) >> e
                 for key, e in zip(keys, exponents))


def bead_schedule(W: float, H: float, rho: float, ell: float, n: int):
    """The phases of the recursive bead tiling of ``n`` targets, without
    points: yields ``(phase, None, grid, exponents)``.

    Phases run from 1 to ``ceil(log2 n) + 1``, all on one grid of cells of
    length ``ell``; the exponents are :func:`bead_meta_exponents`."""
    _check_n(n)
    grid = BeadGrid(W, H, BeadSpec.create(rho, ell))
    for phase in range(1, math.ceil(math.log2(n)) + 2):
        yield phase, None, grid, bead_meta_exponents(phase)


def cylinder_schedule(W: float, H: float, D: float, rho: float, ell: float,
                      n: int):
    """The sub-phases of the recursive cylinder covering of ``n`` targets,
    without points: yields ``(phase, subphase, grid, exponents)``.

    Phases run from 1 to ``ceil((log2 n + 7) / 5)`` (1 for ``n = 1``), each
    of the five sub-phases of ``SUBPHASE_EXPONENTS`` on one grid.  Phase
    ``p``'s cell is ``2**(p-1) * ell`` long, held at ``4*rho``: each phase
    doubles the cell (about 32 times its volume) until it is the largest
    admissible."""
    _check_n(n)
    n_phases = math.ceil((math.log2(n) + 7.0) / 5.0) if n > 1 else 1
    for phase in range(1, n_phases + 1):
        grid = CylinderGrid(W, H, D, BeadSpec.create(
            rho, min(2.0 ** (phase - 1) * ell, 4.0 * rho)))
        for sub, exponents in enumerate(SUBPHASE_EXPONENTS, 1):
            yield phase, sub, grid, exponents


@dataclass(frozen=True)
class Sweep:
    """One (sub-)phase sweep: ``n_rows`` passes over ``n_cols``
    meta-columns, each ended by a u-turn, ``n_layers`` layer turns and a
    closing leg."""

    n_rows: int
    n_cols: int
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
    """Sweep of a bead tiling at recursive phase ``phase`` over every
    meta-row intersecting the rectangle."""
    # passes reach one meta-cell past each end; u-turns step a meta-row pitch
    vr, vc = bead_meta_exponents(phase)
    spec = grid.spec
    meta_width = (1 << vc) * spec.ell
    lo, hi = grid.col_range(0)
    return Sweep(
        n_rows=(grid.row_max >> vr) - (grid.row_min >> vr) + 1,
        n_cols=(hi >> vc) - (lo >> vc) + 1,
        pass_len=grid.W + 2.0 * meta_width,
        turn_len=u_turn_length(spec.rho) + (1 << vr) * spec.w / 2.0,
        closing_len=grid.W + grid.H + 2.0 * math.pi * spec.rho + 2.0 * meta_width)


def cylinder_sweep(grid: CylinderGrid, sub: int = 1, n_rows: int | None = None,
                   n_layers: int | None = None) -> Sweep:
    """Sweep of sub-phase ``sub`` over ``n_rows`` (layer, meta-row) pairs in
    ``n_layers`` layers of a cylinder covering; by default every row of
    every layer.  A ``sub`` outside 1..5 is a ``ValueError``."""
    # a row runs the width out and back, one meta-cylinder past each end;
    # u-turns step a meta-row pitch, layer turns a meta-layer pitch
    if not 1 <= sub <= 5:
        raise ValueError(f"subphase must be in 1..5, got {sub}")
    c, b, a = SUBPHASE_EXPONENTS[sub - 1]
    n_rows = grid.n_rows * grid.n_layers if n_rows is None else n_rows
    n_layers = grid.n_layers if n_layers is None else n_layers
    spec = grid.spec
    ell_m = (1 << a) * spec.ell
    uturn = u_turn_length(spec.rho)
    return Sweep(
        n_rows=n_rows, n_cols=((grid.n_cols - 1) >> a) + 1,
        pass_len=2.0 * (grid.W + 2.0 * ell_m) + uturn + ell_m / 2.0,
        turn_len=uturn + (1 << b) * spec.w / 2.0,
        closing_len=grid.W + grid.H + grid.D + 2.0 * math.pi * spec.rho + 2.0 * ell_m,
        n_layers=n_layers, layer_turn_len=uturn + (1 << c) * spec.w / 4.0)


# indices past this do not fit int64 once lookups add a few cells
_MAX_REACH = 2.0**62


def _check_reach(grid, cause: str | None = None) -> None:
    """Reject a grid whose row, column or layer indices, up to
    ``grid.reach``, do not fit int64: its cells are too small for its
    workspace.  Lookups and sweep keys hold indices in int64.  The error
    blames the turn radius unless ``cause`` names what made the cells."""
    if grid.reach >= _MAX_REACH:
        cause = cause or (f"turn radius {grid.spec.rho} is too small for "
                          "the workspace")
        raise ValueError(f"cell indices up to {grid.reach:.4g} do not fit "
                         f"int64: {cause}")


# points per chunk of the lookups and of the sweep tours' passes over their
# targets: a chunk's temporaries take a few hundred KiB, whatever n
CHUNK = 1 << 14


def cell_dtype(grid) -> np.dtype:
    """The integer type of ``grid``'s cell index columns: int32 while every
    index up to ``grid.reach`` fits it, else int64."""
    return np.dtype(np.int32 if grid.reach < 2**31 else np.int64)


def _lookup(grid, points, index, out, lookup):
    """Cell index columns of ``points``, or of ``points[index]``, computed
    ``CHUNK`` points at a time by ``lookup(pts, *columns)``.

    The columns are :func:`cell_dtype`'s, written into ``out`` when it is
    given (one n-long column each) and returned; no n-long temporary is
    made, nor a gathered copy of the points.  The indices of the points of
    the grid's workspace fit the columns; an index of a point far outside
    that does not fit its column is a ``ValueError``, and so is a grid
    whose indices do not fit int64 (:func:`_check_reach`)."""
    _check_reach(grid)
    pts = np.atleast_2d(points)
    n = len(pts) if index is None else len(index)
    if out is None:
        out = tuple(np.empty(n, cell_dtype(grid)) for _ in range(pts.shape[1]))
    try:
        # for finite points, the one invalid operation is a cast of an
        # index past its column's type
        with np.errstate(invalid="raise"):
            for a in range(0, n, CHUNK):
                chunk = (pts[a:a + CHUNK] if index is None
                         else np.take(pts, index[a:a + CHUNK], axis=0))
                lookup(chunk, *(col[a:a + CHUNK] for col in out))
    except FloatingPointError:
        raise ValueError(f"a cell index does not fit the {out[0].dtype} "
                         "cell columns: a point lies far outside the "
                         "workspace") from None
    return out


def _check_n(n: int):
    if n < 1:
        raise ValueError("n must be >= 1")


def _check_dims(dims) -> tuple:
    """``dims`` as a tuple once it holds 2 or 3 sides, each finite and
    positive, ordered ``W >= H (>= D)``: the one workspace rule.

    The tilings and coverings run their rows along the longest side, so
    every entry that takes sides (grids, cell sizing, sweep planners,
    bounds, configs) checks them here.
    """
    dims = tuple(dims)
    if len(dims) not in (2, 3):
        raise ValueError(f"dims must hold 2 or 3 sides, got {dims}")
    if not all(math.isfinite(d) and d > 0 for d in dims):
        raise ValueError(f"dims must be finite and positive, got {dims}")
    if any(a < b for a, b in zip(dims, dims[1:])):
        raise ValueError(f"dims must satisfy W >= H (>= D), got {dims}")
    return dims


# largest turn radius, over the workspace's longest side, whose cell
# solve_cell looks for: the bisection converges wherever the cell geometry
# stays finite, on a unit workspace up to rho = 1e153, and from 1e154 on
# rho**2 overflows; the bound keeps a wide margin below that
MAX_TURN_RATIO = 2.0**50
# smallest one: a cell is never longer than 4*rho, so below this a row along
# the longest side alone has more than _MAX_REACH cells and no grid of the
# radius indexes in int64; far below, the bracket's probe grids overflow
MIN_TURN_RATIO = 1.0 / (4.0 * _MAX_REACH)


def solve_cell(rho: float, dims, excess) -> tuple[float, bool]:
    """Cell length where ``excess`` crosses zero on ``(0, 4*rho]``;
    ``(ell, clamped)``.

    ``dims`` are the workspace's sides (:func:`_check_dims`); a turn radius
    above ``MAX_TURN_RATIO`` or below ``MIN_TURN_RATIO`` (2**-64) times the
    longest side is a ``ValueError`` that names it.  ``excess(ell)`` is
    negative for short cells.  When even the largest admissible cell is not
    enough, ``excess(4*rho) <= 0``, the result is ``(4*rho, True)``.
    Otherwise the bracket's low end starts at ``4e-9*rho`` and shrinks until
    ``excess`` is at most 0 there, and a bisection over the floats of the
    bracket returns the one ``ell`` with the certificate ``excess(ell) <= 0
    < excess(next float above ell)``.  Where ``excess`` involves a sweep
    period it is a sawtooth, not monotone: the grid's row and layer counts
    are floors, so it crosses zero several times close to the root, and the
    certificate holds at the crossing found.  A NaN ``excess`` is a
    ``ValueError`` that names ``ell``.
    """
    longest = _check_dims(dims)[0]
    if not rho <= MAX_TURN_RATIO * longest:
        raise ValueError(f"turn radius {rho} is more than 2**50 times the "
                         f"workspace's longest side {longest}")
    if not rho >= MIN_TURN_RATIO * longest:
        raise ValueError(f"cell indices past 2**62 do not fit int64: turn "
                         f"radius {rho} is less than 2**-64 times the "
                         f"workspace's longest side {longest}")

    def positive(ell):
        value = excess(ell)
        if math.isnan(value):
            raise ValueError(f"cell excess at ell = {ell} is NaN")
        return value > 0

    hi = 4.0 * rho
    if not positive(hi):
        return hi, True
    lo = hi * 1e-9
    while positive(lo):
        lo *= 1e-3
    # the bit patterns of positive floats, read as integers, are in the
    # floats' order and count the floats between them: halve the bracket
    # of patterns until its ends are neighbours, at most 63 halvings
    word = memoryview(bytearray(8))
    bits, probe = word.cast("q"), word.cast("d")
    probe[0] = lo
    a = bits[0]
    probe[0] = hi
    b = bits[0]
    while b - a > 1:
        bits[0] = m = (a + b) // 2
        if positive(probe[0]):
            b = m
        else:
            a = m
    bits[0] = a
    return probe[0], False


def ell_for_n(W: float, H: float, rho: float, n: int) -> tuple[float, bool]:
    """Cell length making bead area equal W*H/(2n); ``(ell, clamped)``."""
    _check_n(n)
    return solve_cell(rho, (W, H), lambda ell:
                      bead_area(BeadSpec.create(rho, ell)) - W * H / 2.0 / n)


def ell_for_n_3d(W: float, H: float, D: float, rho: float, n: int) -> tuple[float, bool]:
    """Cell length making cylinder volume equal W*H*D/(4n); ``(ell, clamped)``."""
    _check_n(n)
    return solve_cell(rho, (W, H, D), lambda ell:
                      cylinder_volume(BeadSpec.create(rho, ell))
                      - W * H * D / 4.0 / n)
