"""Grid-cell models of compact planar sets.

A set is a finite union of closed axis-aligned cells taken from a uniform
partition of a reference rectangle.  All semantics are those of the closed
point set: a section along a shared grid line collects the runs of both
adjacent cell rows, and two cells that meet in a single corner point are
considered connected.

Conventions used throughout:

* cell ``(i, j)`` is the rectangle ``[x_i, x_{i+1}] x [y_j, y_{j+1}]`` with
  ``x_i = a + i * cell_w`` and ``y_j = c + j * cell_h``;
* index ``i`` runs along the x axis (columns), ``j`` along the y axis (rows);
* boolean cell masks are numpy arrays of shape ``(m, n)`` indexed ``[i, j]``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoverageError,
    EmptySet,
    FormatError,
    GeometryMismatch,
    InvalidParameter,
    TooLarge,
)

__all__ = [
    "Box",
    "GridGeometry",
    "GridSet",
    "projections",
    "in_level_set",
    "in_sublevel_set",
    "is_hv_convex",
    "is_connected",
    "has_contiguous_runs",
    "thin_contact",
    "subset_of",
    "combine",
    "dilate",
    "min_cover",
    "xrays_equal_ae",
    "sample_hv_convex",
    "count_hv_connected",
    "enumerate_hv_connected",
    "parse_hvset",
    "format_hvset",
]


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned rectangle ``[a, b] x [c, d]`` with finite, positive sides."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.as_tuple()):
            raise InvalidParameter(f"box sides must be finite, got {self.as_tuple()}")
        if not (self.a < self.b and self.c < self.d):
            raise InvalidParameter(f"degenerate box {self.as_tuple()}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def height(self) -> float:
        return self.d - self.c

    def perimeter(self) -> float:
        return 2.0 * (self.width + self.height)

    def contains_box(self, other: "Box") -> bool:
        return (
            self.a <= other.a
            and other.b <= self.b
            and self.c <= other.c
            and other.d <= self.d
        )

    def contains_point(self, x: float, y: float) -> bool:
        return self.a <= x <= self.b and self.c <= y <= self.d


@dataclass(frozen=True)
class GridGeometry:
    """Uniform ``m x n`` cell partition of a reference box."""

    box: Box
    m: int
    n: int

    def __post_init__(self):
        message = f"grid dims must be positive integers, got {self.m}x{self.n}"
        for name in ("m", "n"):
            object.__setattr__(self, name, InvalidParameter.whole(getattr(self, name), 1, message))

    @property
    def cell_w(self) -> float:
        return self.box.width / self.m

    @property
    def cell_h(self) -> float:
        return self.box.height / self.n

    def xline(self, i: int) -> float:
        return self.box.a + i * self.cell_w

    def yline(self, j: int) -> float:
        return self.box.c + j * self.cell_h

    def xlines(self) -> np.ndarray:
        return self.box.a + np.arange(self.m + 1) * self.cell_w

    def ylines(self) -> np.ndarray:
        return self.box.c + np.arange(self.n + 1) * self.cell_h

    def refined(self, k: int) -> "GridGeometry":
        k = InvalidParameter.whole(k, 1, f"refinement factor must be an integer >= 1, got {k}")
        return GridGeometry(self.box, self.m * k, self.n * k)


class GridSet:
    """Immutable union of closed grid cells on a fixed geometry.

    The cell mask may be empty; operations that require at least one
    occupied cell raise :class:`EmptySet`.  Instances hash and compare by
    geometry plus exact cell mask.
    """

    __slots__ = ("geometry", "cells")

    def __init__(self, geometry: GridGeometry, cells: np.ndarray):
        arr = np.array(cells, dtype=bool, copy=True)
        if arr.shape != (geometry.m, geometry.n):
            raise InvalidParameter(
                f"cell mask shape {arr.shape} does not match "
                f"{geometry.m}x{geometry.n} grid"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "cells", arr)

    def __setattr__(self, name, value):
        raise AttributeError("GridSet is immutable")

    @classmethod
    def from_cells(cls, geometry: GridGeometry, pairs) -> "GridSet":
        TooLarge.raster(geometry.m, geometry.n)
        arr = np.zeros((geometry.m, geometry.n), dtype=bool)
        for i, j in pairs:
            if not (0 <= i < geometry.m and 0 <= j < geometry.n):
                raise InvalidParameter(f"cell ({i}, {j}) outside grid")
            arr[i, j] = True
        return cls(geometry, arr)

    @classmethod
    def full(cls, geometry: GridGeometry) -> "GridSet":
        TooLarge.raster(geometry.m, geometry.n)
        return cls(geometry, np.ones((geometry.m, geometry.n), dtype=bool))

    @property
    def is_empty(self) -> bool:
        return not self.cells.any()

    @property
    def count(self) -> int:
        return int(self.cells.sum())

    def area(self) -> float:
        return self.count * self.geometry.cell_w * self.geometry.cell_h

    def col_counts(self) -> np.ndarray:
        """Occupied cells per column, as integers."""
        return self.cells.sum(axis=1).astype(np.int64)

    def row_counts(self) -> np.ndarray:
        return self.cells.sum(axis=0).astype(np.int64)

    def occupied(self) -> np.ndarray:
        """``(k, 2)`` array of occupied ``(i, j)`` indices in scan order."""
        return np.argwhere(self.cells)

    def rects(self) -> np.ndarray:
        """``(k, 4)`` array of occupied cell rectangles ``[x0, x1, y0, y1]``."""
        if self.is_empty:
            raise EmptySet("no occupied cells")
        g = self.geometry
        idx = self.occupied()
        x0 = g.box.a + idx[:, 0] * g.cell_w
        y0 = g.box.c + idx[:, 1] * g.cell_h
        return np.column_stack([x0, x0 + g.cell_w, y0, y0 + g.cell_h])

    def run_rects(self) -> np.ndarray:
        """``(k, 4)`` array ``[x0, x1, y0, y1]``, one per maximal run of
        occupied cells in a column, in scan order.

        Each bound is computed by the same expression as in :meth:`rects`
        for the run's end cell, so the rectangle is the union of its cells.
        """
        if self.is_empty:
            raise EmptySet("no occupied cells")
        g = self.geometry
        c = self.cells
        first = c.copy()
        first[:, 1:] &= ~c[:, :-1]
        last = c.copy()
        last[:, :-1] &= ~c[:, 1:]
        cols, lo = np.nonzero(first)
        hi = np.nonzero(last)[1]
        x0 = g.box.a + cols * g.cell_w
        y0 = g.box.c + lo * g.cell_h
        y1 = (g.box.c + hi * g.cell_h) + g.cell_h
        return np.column_stack([x0, x0 + g.cell_w, y0, y1])

    def bounding_box(self) -> Box:
        """Tight axis-parallel bounding box of the occupied cells."""
        if self.is_empty:
            raise EmptySet("empty set has no bounding box")
        cols = np.flatnonzero(self.cells.any(axis=1))
        rows = np.flatnonzero(self.cells.any(axis=0))
        g = self.geometry
        return Box(
            g.xline(int(cols[0])),
            g.xline(int(cols[-1]) + 1),
            g.yline(int(rows[0])),
            g.yline(int(rows[-1]) + 1),
        )

    def refined(self, k: int) -> "GridSet":
        """The same point set represented on the ``k``-fold refined grid."""
        geometry = self.geometry.refined(k)
        TooLarge.raster(geometry.m, geometry.n)
        k = geometry.m // self.geometry.m
        mask = np.repeat(np.repeat(self.cells, k, axis=0), k, axis=1)
        return GridSet(geometry, mask)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridSet):
            return NotImplemented
        return self.geometry == other.geometry and np.array_equal(self.cells, other.cells)

    def __hash__(self) -> int:
        return hash((self.geometry, self.cells.tobytes()))

    def __repr__(self) -> str:
        g = self.geometry
        return f"GridSet({g.m}x{g.n} on {g.box.as_tuple()}, {self.count} cells)"


# ---------------------------------------------------------------------------
# projections and membership predicates


def _merge_runs(flags: np.ndarray, lines: np.ndarray) -> list[tuple[float, float]]:
    # maximal runs of True in flags -> closed coordinate intervals: the
    # flags change at each run's first index and just past its last
    edges = np.flatnonzero(np.diff(flags, prepend=False, append=False))
    return [(float(lines[i]), float(lines[j])) for i, j in zip(edges[::2], edges[1::2])]


def projections(L: GridSet) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """Projections onto the axes as minimal lists of disjoint closed intervals."""
    if L.is_empty:
        raise EmptySet("empty set has no projections")
    g = L.geometry
    return (
        _merge_runs(L.cells.any(axis=1), g.xlines()),
        _merge_runs(L.cells.any(axis=0), g.ylines()),
    )


def in_level_set(L: GridSet, box: Box) -> bool:
    """True when both projections of ``L`` equal the full sides of ``box``.

    On ``L``'s own box every column and every row must be occupied; floats
    are not compared, because ``a + m * cell_w`` can round short of ``b``.
    """
    if L.is_empty:
        raise EmptySet("empty set has no projections")
    if box == L.geometry.box:
        return bool(L.cells.any(axis=1).all() and L.cells.any(axis=0).all())
    pr1, pr2 = projections(L)
    return pr1 == [(box.a, box.b)] and pr2 == [(box.c, box.d)]


def in_sublevel_set(L: GridSet, box: Box) -> bool:
    """True when ``L`` (hence the product of its projections) lies inside ``box``.

    A set lies inside its own box; floats are compared only for another
    box, because ``a + m * cell_w`` can round past ``b``.
    """
    if L.is_empty:
        raise EmptySet("empty set has no projections")
    return box == L.geometry.box or box.contains_box(L.bounding_box())


def is_connected(L: GridSet) -> bool:
    """Connectivity of the closed cell union.

    Two cells are neighbours when their closed rectangles intersect, which
    on the grid means they share an edge or a corner.
    """
    if L.is_empty:
        raise EmptySet("connectivity is about non-empty sets")
    m, n = L.cells.shape
    # Python lists and ints: indexing numpy scalars costs several times more
    cells = L.cells.tolist()
    start = tuple(np.argwhere(L.cells)[0].tolist())
    seen = {start}
    stack = [start]
    while stack:
        i, j = stack.pop()
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                ii, jj = i + di, j + dj
                if 0 <= ii < m and 0 <= jj < n and cells[ii][jj]:
                    if (ii, jj) not in seen:
                        seen.add((ii, jj))
                        stack.append((ii, jj))
    return len(seen) == L.count


def thin_contact(L: GridSet) -> bool:
    """True when some pair of occupied cells meets only in a corner point.

    Detected locally: a 2x2 block holding one of the two diagonal patterns
    with both off-diagonal cells free.  For hv-convex sets this is exactly
    the situation where connectivity passes through a single point.
    """
    c = L.cells
    if c.shape[0] < 2 or c.shape[1] < 2:
        return False
    a = c[:-1, :-1]
    b = c[1:, 1:]
    p = c[1:, :-1]
    q = c[:-1, 1:]
    diag = a & b & ~p & ~q
    anti = p & q & ~a & ~b
    return bool(diag.any() or anti.any())


def subset_of(inner: GridSet, outer: GridSet) -> bool:
    """Exact containment of closed cell unions, geometries may differ."""
    if inner.is_empty:
        return True
    if outer.is_empty:
        return False
    if inner.geometry == outer.geometry:
        return not (inner.cells & ~outer.cells).any()
    if not in_sublevel_set(inner, outer.geometry.box):
        return False
    # a cell of `inner` is covered iff every outer cell overlapping it is occupied
    holes = _overlap_counts(inner.geometry, outer.geometry, ~outer.cells)
    return not (inner.cells & (holes > 0)).any()


# ---------------------------------------------------------------------------
# which cells of two grids overlap


def _cell_pairs(m: int, p: int) -> tuple[list, list]:
    """Index lists ``(i, k)`` of the cells that overlap with positive
    length when one side is cut into ``m`` cells and into ``p``: ``i * p <
    (k + 1) * m`` and ``k * m < (i + 1) * p``.  In units of ``1 / (m * p)``
    of the side, each such pair starts one cell of the common refinement at
    ``max(i * p, k * m)``, so the pairs, fewer than ``m + p``, are read off
    the merged cell starts."""
    starts = sorted({*range(0, m * p, p), *range(0, m * p, m)})
    return [s // p for s in starts], [s // m for s in starts]


def _overlap_counts(ga: GridGeometry, gb: GridGeometry, cells: np.ndarray) -> np.ndarray:
    """How many of the ``cells`` of ``gb`` overlap each cell of ``ga`` with
    positive area, decided on indices on one box, where a line ``a + i *
    cell_w`` can round an ulp past the line it should meet; float lines are
    compared only across boxes."""
    mats = []
    for a, b, lines_a, lines_b in ((ga.m, gb.m, ga.xlines, gb.xlines),
                                   (ga.n, gb.n, ga.ylines, gb.ylines)):
        if ga.box == gb.box:
            ov = np.zeros((a, b), dtype=np.int64)
            ov[_cell_pairs(a, b)] = 1
        else:
            la, lb = lines_a(), lines_b()
            ov = ((la[:-1, None] < lb[None, 1:]) & (lb[None, :-1] < la[1:, None])).astype(np.int64)
        mats.append(ov)
    return mats[0] @ cells.astype(np.int64) @ mats[1].T


def xrays_equal_ae(L1: GridSet, L2: GridSet) -> bool:
    """Exact almost-everywhere equality of both X-ray pairs.

    Decided in integer cell-count arithmetic; the two sets must share the
    reference box (dims may differ: on each pair of overlapping cells the
    counts, scaled by the other grid's cells across, must agree).
    """
    g1, g2 = L1.geometry, L2.geometry
    if g1.box != g2.box:
        raise GeometryMismatch("X-ray comparison needs a shared reference box")
    for counts, n1, n2 in ((GridSet.col_counts, g1.n, g2.n), (GridSet.row_counts, g1.m, g2.m)):
        c1, c2 = counts(L1).tolist(), counts(L2).tolist()
        if any(c1[i] * n2 != c2[k] * n1 for i, k in zip(*_cell_pairs(len(c1), len(c2)))):
            return False
    return True


# ---------------------------------------------------------------------------
# the run-bit rule of hv-convexity, on lines of cells held as an int's bits


def _line_bits(cells: np.ndarray) -> list:
    """Occupied positions of each line (row of ``cells``) as an int's bits."""
    packed = np.packbits(cells, axis=1, bitorder="little")
    return [int.from_bytes(line.tobytes(), "little") for line in packed]


def _is_run(b: int) -> bool:
    # the set bits of ``b`` are one contiguous run; an empty line counts as one
    return not b & (b + (b & -b))


def _touch(a: int, b: int) -> bool:
    # whether the runs ``a`` and ``b`` overlap or meet at a corner
    return (a | a << 1 | a >> 1) & b != 0


def _sections_ok(lines: list) -> bool:
    """Every line is one run, and the runs of adjacent non-empty lines
    meet in the closed sense (overlap or share a corner)."""
    prev = 0
    for b in lines:
        if not _is_run(b) or (prev and b and not _touch(prev, b)):
            return False
        prev = b
    return True


def is_hv_convex(L: GridSet) -> bool:
    """Every horizontal and vertical section of the closed union is convex.

    Equivalent cell-level conditions: each row and each column of occupied
    cells is one contiguous run, and the closed coordinate intervals of runs
    in adjacent non-empty rows (and columns) intersect, touching included.
    """
    if L.is_empty:
        raise EmptySet("hv-convexity is about non-empty sets")
    return _sections_ok(_line_bits(L.cells.T)) and _sections_ok(_line_bits(L.cells))


def has_contiguous_runs(L: GridSet) -> bool:
    """Weaker predicate: every row and column is a single run (no gap)."""
    if L.is_empty:
        raise EmptySet("empty set")
    return all(map(_is_run, _line_bits(L.cells) + _line_bits(L.cells.T)))


def _line_mask(lines: list, k: int, size: int, full_box: bool) -> int:
    """The positions of line ``k`` of a feasible set, its cells given per
    line as bits in ``lines`` over ``size`` positions, whose toggle keeps
    line ``k`` feasible, as bits: the occupied lines stay one contiguous
    range (and, for a full box, all occupied), and line ``k`` stays empty
    or one run that touches each occupied neighbour.

    Toggling cell ``(i, j)`` changes only column ``i`` and row ``j``, and
    the toggled set is non-empty, hv-convex and connected exactly when the
    masks of both allow it: hv-convexity involves only the changed lines
    and their neighbours, and an hv-convex set whose occupied columns form
    one range is connected (its column runs touch in turn).  A full box
    only loses a projection by emptying a line."""
    b = lines[k]
    prev = lines[k - 1] if k else 0
    nxt = lines[k + 1] if k + 1 < len(lines) else 0
    full = (1 << size) - 1
    if not b:
        # a new lone cell must touch every occupied neighbour; with none
        # it would start a second set
        if not (prev or nxt):
            return 0
        allowed = full
        for side in (prev, nxt):
            if side:
                allowed &= side | side << 1 | side >> 1
        return allowed
    # the two cells just outside the run extend it and keep its contacts
    mask = (b << 1 | b >> 1) & ~b & full
    low, high = b & -b, 1 << (b.bit_length() - 1)
    if low == high:
        # emptying the line leaves the cells on exactly one side of it
        if not full_box and bool(prev) != bool(nxt):
            mask |= b
        return mask
    for end in (low, high):
        short = b ^ end
        if (not prev or _touch(short, prev)) and (not nxt or _touch(short, nxt)):
            mask |= end
    return mask


class _Lines:
    """A feasible set's cells as bits per column (``cols``) and per row
    (``rows``), with each line's ``_line_mask`` (``cmask``, ``rmask``)
    kept fresh by :meth:`toggle`."""

    def __init__(self, cells: np.ndarray, full_box: bool):
        m, n = cells.shape
        self.cols, self.rows, self.full_box = _line_bits(cells), _line_bits(cells.T), full_box
        self.cmask = [_line_mask(self.cols, i, n, full_box) for i in range(m)]
        self.rmask = [_line_mask(self.rows, j, m, full_box) for j in range(n)]
        # the lines whose masks a toggle in line k changes: k and its neighbours
        self.near_c = [range(max(i - 1, 0), min(i + 2, m)) for i in range(m)]
        self.near_r = [range(max(j - 1, 0), min(j + 2, n)) for j in range(n)]

    def toggle(self, i: int, j: int) -> None:
        cols, rows = self.cols, self.rows
        cols[i] ^= 1 << j
        rows[j] ^= 1 << i
        for c in self.near_c[i]:
            self.cmask[c] = _line_mask(cols, c, len(rows), self.full_box)
        for r in self.near_r[j]:
            self.rmask[r] = _line_mask(rows, r, len(cols), self.full_box)


# ---------------------------------------------------------------------------
# convex combination


def combine(L1: GridSet, L2: GridSet, t) -> GridSet:
    """Pointwise convex combination ``t * L1 + (1 - t) * L2`` (Minkowski).

    ``t`` must be rational, ``p/q`` in lowest terms; the result lives on the
    shared geometry refined by factor ``q`` per axis and is exact: every
    combination of an occupied cell pair is a block of ``q x q`` refined
    cells whose corners land on the refined lattice.
    """
    if L1.geometry != L2.geometry:
        raise GeometryMismatch("operands live on different grids")
    if L1.is_empty or L2.is_empty:
        raise EmptySet("convex combination needs two non-empty sets")
    t = InvalidParameter.weight(t)
    p, q = t.numerator, t.denominator
    geom = L1.geometry.refined(q)
    TooLarge.raster(geom.m, geom.n)
    out = np.zeros((geom.m, geom.n), dtype=bool)
    idx1 = L1.occupied()
    idx2 = L2.occupied()
    starts = (p * idx1[:, None, :] + (q - p) * idx2[None, :, :]).reshape(-1, 2)
    si = starts[:, 0]
    sj = starts[:, 1]
    for di in range(q):
        for dj in range(q):
            out[si + di, sj + dj] = True
    return GridSet(geom, out)


# ---------------------------------------------------------------------------
# dilation


def _rect_dist(rect, px, py):
    """Exact Euclidean distance from points to the closed rectangle
    ``rect = (x0, x1, y0, y1)``; all arguments broadcast."""
    x0, x1, y0, y1 = rect
    dx = np.maximum(np.maximum(x0 - px, px - x1), 0.0)
    dy = np.maximum(np.maximum(y0 - py, py - y1), 0.0)
    return np.hypot(dx, dy)


# _min_dist_to_rects measures at most this many (point, rectangle) pairs at
# once, 2 MiB a temporary
_RECT_PAIRS = 1 << 18


def _min_dist_to_rects(points: np.ndarray, rects: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance from each point to a union of closed rectangles."""
    out = np.empty(len(points))
    cols = rects.T[:, None, :]
    step = max(1, _RECT_PAIRS // max(1, len(rects)))
    for s in range(0, len(points), step):
        px = points[s : s + step, 0][:, None]
        py = points[s : s + step, 1][:, None]
        out[s : s + step] = _rect_dist(cols, px, py).min(axis=1)
    return out


def _band_raster(cx, cy, reach, prims, xlo, xhi, yext, dist) -> np.ndarray:
    """Least distance from the raster centres ``(cx[i], cy[j])`` to the
    primitives ``prims``, exact wherever it is below ``reach`` (less a
    rounding margin) and larger or ``inf`` elsewhere.

    Primitive ``p = prims[k]`` is measured only on its band: the columns
    within ``reach`` of its x-extent ``[xlo[k], xhi[k]]`` and, in each, the
    rows within ``reach`` of its y-extent ``yext(p, xa, xb)`` over the
    column's window ``[x - reach, x + reach]``.  ``dist(p, px, py)`` is its
    exact distance from points.
    """
    out = np.full((len(cx), len(cy)), np.inf)
    i0s = np.searchsorted(cx, xlo - reach)
    i1s = np.searchsorted(cx, xhi + reach, side="right")
    for p, i0, i1 in zip(prims, i0s, i1s):
        x = cx[i0:i1]
        ylo, yhi = yext(p, x - reach, x + reach)
        jlo = np.broadcast_to(np.searchsorted(cy, ylo - reach), x.shape)
        lens = np.searchsorted(cy, yhi + reach, side="right") - jlo
        ii = np.repeat(np.arange(i0, i1), lens)
        jj = np.arange(len(ii)) + np.repeat(jlo - (np.cumsum(lens) - lens), lens)
        out[ii, jj] = np.minimum(out[ii, jj], dist(p, cx[ii], cy[jj]))
    return out


def dilate(L: GridSet, eps: float, refine: int = 4) -> tuple[GridSet, GridSet]:
    """Inner and outer rasterizations of the closed ``eps``-neighbourhood.

    Cells of the ``refine``-fold finer grid (extended far enough beyond the
    box to hold the neighbourhood) are classified by the exact distance of
    their centre to ``L``: within ``eps - delta`` they lie fully inside the
    neighbourhood, within ``eps + delta`` they may touch it, where ``delta``
    is half the refined cell diagonal.  Consequently

        inner  is a subset of  the eps-neighbourhood  is a subset of  outer

    and the two areas bracket its measure.  ``inner`` may be empty.  Each
    column run of ``L`` is one rectangle, measured on the centres within
    ``eps + delta`` of it, plus one refined cell of slack.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise InvalidParameter(f"dilation radius must be finite and positive, got {eps}")
    refine = InvalidParameter.whole(refine, 1, f"refine must be a positive integer, got {refine}")
    if L.is_empty:
        raise EmptySet("cannot dilate the empty set")
    g = L.geometry
    # the refined box alone must fit, checked before refine meets a float
    TooLarge.raster(g.m * refine, g.n * refine)
    wr = g.cell_w / refine
    hr = g.cell_h / refine
    delta = 0.5 * math.hypot(wr, hr)
    reach_x, reach_y = (eps + delta) / wr, (eps + delta) / hr
    TooLarge.raster(g.m * refine + 2 * reach_x + 4, g.n * refine + 2 * reach_y + 4)
    kx = math.ceil(reach_x) + 1
    ky = math.ceil(reach_y) + 1
    mm = g.m * refine + 2 * kx
    nn = g.n * refine + 2 * ky
    out_geom = GridGeometry(
        Box(g.box.a - kx * wr, g.box.a - kx * wr + mm * wr,
            g.box.c - ky * hr, g.box.c - ky * hr + nn * hr),
        mm,
        nn,
    )
    cx = g.box.a + (np.arange(mm) - kx + 0.5) * wr
    cy = g.box.c + (np.arange(nn) - ky + 0.5) * hr
    rects = L.run_rects()
    dist = _band_raster(cx, cy, eps + delta + max(wr, hr), rects, rects[:, 0], rects[:, 1],
                        lambda r, xa, xb: (r[2], r[3]), _rect_dist)
    inner = GridSet(out_geom, dist <= eps - delta)
    outer = GridSet(out_geom, dist <= eps + delta)
    return inner, outer


# ---------------------------------------------------------------------------
# minimal covers


def min_cover(L: GridSet, coarse: GridGeometry) -> GridSet:
    """Union of the cells of ``coarse`` that overlap ``L`` with positive area.

    The positive-area convention keeps the cover minimal on aligned grids:
    re-covering a set on its own geometry returns the set itself, so cover
    sequences refine all the way down to the set they cover.
    """
    if L.is_empty:
        raise EmptySet("cannot cover the empty set")
    if not in_sublevel_set(L, coarse.box):
        raise CoverageError(
            f"covering box {coarse.box.as_tuple()} does not contain the set"
        )
    TooLarge.raster(coarse.m, coarse.n)
    return GridSet(coarse, _overlap_counts(coarse, L.geometry, L.cells) > 0)


# ---------------------------------------------------------------------------
# seeded sampling of hv-convex connected sets


def _seeded_rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``; a negative or non-integer seed
    raises InvalidParameter."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:  # numpy: not an integer, or negative
        raise InvalidParameter(f"bad seed {seed!r}: {exc}") from None


def sample_hv_convex(geometry: GridGeometry, seed, require_full_box: bool = False) -> GridSet:
    """Seeded pseudo-random hv-convex connected set on ``geometry``.

    Column tops form a unimodal profile, column bottoms an anti-unimodal
    one, and adjacent columns are clamped so that their closed runs always
    meet; that construction is exactly the class of hv-convex connected
    sets with contiguous column support.  With ``require_full_box`` every
    column is used, the top profile reaches the top of the box and the
    bottom profile its bottom, which forces full projections on both axes.
    ``seed`` may also be a ``np.random.Generator``, which is drawn from as is.
    """
    TooLarge.raster(geometry.m, geometry.n)
    rng = _seeded_rng(seed)
    m, n = geometry.m, geometry.n
    if require_full_box:
        i0, i1 = 0, m - 1
    else:
        i0 = int(rng.integers(0, m))
        i1 = int(rng.integers(i0, m))
    width = i1 - i0 + 1

    h = np.zeros(width, dtype=np.int64)
    peak = int(rng.integers(0, width))
    h[peak] = n if require_full_box else int(rng.integers(1, n + 1))
    for k in range(peak - 1, -1, -1):
        h[k] = int(rng.integers(1, h[k + 1] + 1))
    for k in range(peak + 1, width):
        h[k] = int(rng.integers(1, h[k - 1] + 1))

    # suffix/prefix minima of h keep the bottom profile completable
    suff = np.minimum.accumulate(h[::-1])[::-1]
    pref = np.minimum.accumulate(h)

    g = np.zeros(width, dtype=np.int64)
    valley = int(rng.integers(0, width))
    cap0 = int(min(pref[valley], suff[valley])) - 1
    g[valley] = 0 if require_full_box else int(rng.integers(0, cap0 + 1))
    for k in range(valley + 1, width):
        cap = int(min(suff[k] - 1, h[k - 1]))
        g[k] = int(rng.integers(g[k - 1], cap + 1))
    for k in range(valley - 1, -1, -1):
        cap = int(min(pref[k] - 1, h[k + 1]))
        g[k] = int(rng.integers(g[k + 1], cap + 1))

    cells = np.zeros((m, n), dtype=bool)
    for k in range(width):
        cells[i0 + k, g[k] : h[k]] = True
    return GridSet(geometry, cells)


# ---------------------------------------------------------------------------
# the column-run search: feasible families, built once per grid shape, and
# the sets with given column and row counts
#
# A connected hv-convex set is a contiguous range of columns holding one
# run of rows each.  Runs of adjacent columns meet at least in a corner
# (8-connectivity), and a row that leaves the set never comes back (row
# sections are single runs).  A depth-first search over column runs under
# these two rules visits exactly the feasible sets, never a rejected mask.


def _search(m: int, n: int, full_box: bool, cols=None, rows=None, first: bool = False,
            cap: float = math.inf) -> tuple[np.ndarray, bool]:
    """The feasible sets on an ``m x n`` grid whose column ``i`` holds
    ``cols[i][0]`` to ``cols[i][1]`` cells and row ``j`` ``rows[j][0]`` to
    ``rows[j][1]`` cells, as read-only ``(F, m, n)`` cell masks in ascending
    order of the bit key ``i * n + j``; and whether the search stopped
    because placing one more column run would exceed ``cap``.  With
    ``first`` it stops at the first set it meets.

    ``[0, n]`` for every column and ``[0, m]`` for every row is the whole
    family; called with neither ``cols`` nor ``rows``, the search returns
    it from the per-shape cache of :func:`_family`.  A column run is placed
    only if every row can still end within its interval: a row never takes
    more cells than its upper end, a row whose run ends holds at least its
    lower end, and a row still short must fit in the columns left.  Equal
    ends (``lo == hi``) ask for an X-ray class.
    """
    if cols is None and rows is None:
        return _family(m, n, full_box), False
    need = int(full_box)  # a full box takes every column and every row
    clo, chi = [max(lo, need) for lo, _ in cols], [min(hi, n) for _, hi in cols]
    rlo, rhi = [max(lo, need) for lo, _ in rows], [min(hi, m) for _, hi in rows]
    found = []
    if max(sum(clo), sum(rlo)) > min(sum(chi), sum(rhi)):
        return _masks(m, n, found), False
    # short_of[t]: the rows that need more than t cells
    short_of = [0] * (m + 2)
    for j, lo in enumerate(rlo):
        if lo:
            short_of[min(lo, m + 1) - 1] |= 1 << j
    for t in range(m, -1, -1):
        short_of[t] |= short_of[t + 1]
    count = [0] * n
    path = []  # start and end (exclusive) of the row run of each column taken
    taken = [i for i, lo in enumerate(clo) if lo]
    last = taken[-1] if taken else 0
    nodes = 0

    def runs_of(i, s, e):
        # column i's runs, as start, end and bits, that meet rows [s, e)
        # at least in a corner: all of them for [0, n)
        for size in range(max(clo[i], 1), chi[i] + 1):
            for s2 in range(max(0, s - size), min(e, n - size) + 1):
                yield s2, s2 + size, ((1 << size) - 1) << s2

    no_cells = sum(1 << j for j, hi in enumerate(rhi) if hi <= 0)
    for i0 in range(taken[0] + 1 if taken else m):
        # a frame: column i's candidate runs and the state they extend:
        # column i - 1's run as bits, the rows seen and the rows closed, the
        # rows at their upper end and the rows short of their lower end
        frames = [(i0, runs_of(i0, 0, n), 0, 0, 0, no_cells, short_of[0])]
        while frames:
            i, runs, bits, seen, closed, full, short = frames[-1]
            left = m - 1 - i
            # rows closed or at their upper end take no cell; a row that
            # opens here, or has not opened, must fit in the columns left;
            # continuing rows still fit, as they did one column earlier
            blocked, opens, unseen = closed | full, short_of[left + 1], short_of[left] & ~seen
            for s, e, new in runs:
                if not (new & blocked or bits & short & ~new or new & opens & ~bits
                        or unseen & ~new):
                    break
            else:
                frames.pop()
                if frames:
                    e, s = path.pop(), path.pop()
                    for j in range(s, e):
                        count[j] -= 1
                continue
            nodes += 1
            if nodes > cap:
                return _masks(m, n, found), True
            path += s, e
            for j in range(s, e):
                count[j] += 1
                if count[j] == rhi[j]:
                    full |= 1 << j
                if count[j] == rlo[j]:
                    short &= ~(1 << j)
            if i >= last and not short:
                found.append((0, 0) * i0 + tuple(path) + (0, 0) * left)
                if first:
                    return _masks(m, n, found), False
            frames.append((i + 1, runs_of(i + 1, s, e) if left else iter(()), new, seen | new,
                           closed | (bits & ~new), full, short))
    return _masks(m, n, found), False


def _masks(m: int, n: int, found: list) -> np.ndarray:
    """Read-only ``(F, m, n)`` cell masks of the sets given as the start
    and end of one row run per column (``0, 0`` for an empty column), in
    ascending order of the bit key ``i * n + j``."""
    runs = np.fromiter(itertools.chain.from_iterable(found), dtype=np.intp,
                       count=2 * m * len(found)).reshape(-1, m, 2)
    j = np.arange(n)
    cells = (runs[..., :1] <= j) & (j < runs[..., 1:])
    if len(cells) > 1:
        # lexsort's last key, the highest bit, sorts first
        cells = cells[np.lexsort(cells.reshape(len(cells), -1).T)]
    cells.setflags(write=False)
    return cells


@functools.lru_cache(maxsize=8)
def _family(m: int, n: int, require_full_box: bool) -> np.ndarray:
    """Read-only ``(F, m, n)`` cell masks of every feasible set on an
    ``m x n`` grid, in ascending order of the bit key ``i * n + j``."""
    return _search(m, n, require_full_box, [(0, n)] * m, [(0, m)] * n)[0]


def _guarded_family(geometry: GridGeometry, require_full_box: bool) -> np.ndarray:
    m, n = geometry.m, geometry.n
    if m * n > 20:
        raise TooLarge(f"{m}x{n} grid exceeds the enumeration guard of 20 cells")
    return _family(m, n, bool(require_full_box))


def count_hv_connected(geometry: GridGeometry, require_full_box: bool = False) -> int:
    """Number of sets :func:`enumerate_hv_connected` yields, read from the
    cached family without building any :class:`GridSet`; same guard."""
    return len(_guarded_family(geometry, require_full_box))


def enumerate_hv_connected(geometry: GridGeometry, require_full_box: bool = False):
    """Yield every hv-convex connected set on ``geometry`` exactly once.

    Guarded to ``m * n <= 20``.  Deterministic ascending order of the cell
    indicator encoded with bit ``i * n + j`` per cell ``(i, j)``.  The
    family is built once per ``(m, n, require_full_box)`` by a search over
    column runs and kept in a small cache, so later calls only wrap its
    cell masks.
    """
    for cells in _guarded_family(geometry, require_full_box):
        yield GridSet(geometry, cells)


# ---------------------------------------------------------------------------
# HVSET v1 text format


def format_hvset(L: GridSet) -> str:
    """Serialize to the HVSET v1 text form (rows listed top y first)."""
    g = L.geometry
    lines = [
        "HVSET v1",
        f"box {g.box.a!r} {g.box.b!r} {g.box.c!r} {g.box.d!r}",
        f"dims {g.m} {g.n}",
    ]
    lines += ["".join(row) for row in np.where(L.cells.T[::-1], "1", "0").tolist()]
    return "\n".join(lines) + "\n"


def parse_hvset(text: str) -> GridSet:
    """Parse the HVSET v1 text form; raises :class:`FormatError` with a line number."""
    if not text.endswith("\n"):
        raise FormatError("missing trailing newline")
    lines = text.split("\n")[:-1]
    if len(lines) < 3:
        raise FormatError("expected header, box and dims lines", line=len(lines) + 1)
    if lines[0] != "HVSET v1":
        raise FormatError(f"bad header {lines[0]!r}", line=1)
    parts = lines[1].split()
    if len(parts) != 5 or parts[0] != "box":
        raise FormatError("expected 'box a b c d'", line=2)
    try:
        a, b, c, d = (float(p) for p in parts[1:])
    except ValueError as exc:
        raise FormatError(f"bad box value: {exc}", line=2) from None
    parts = lines[2].split()
    if len(parts) != 3 or parts[0] != "dims":
        raise FormatError("expected 'dims m n'", line=3)
    try:
        m, n = int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise FormatError(f"bad dims value: {exc}", line=3) from None
    try:
        geom = GridGeometry(Box(a, b, c, d), m, n)
    except InvalidParameter as exc:
        raise FormatError(str(exc), line=2) from None
    if len(lines) != 3 + n:
        raise FormatError(
            f"expected {n} data rows, found {len(lines) - 3}", line=len(lines) + 1
        )
    # every row is checked before the (m, n) mask is allocated, so a huge
    # dims line with too few characters fails here, not in numpy
    rows = lines[3:]
    for k, row in enumerate(rows):
        if len(row) != m:
            raise FormatError(f"expected {m} characters, found {len(row)}", line=4 + k)
        bad = row.replace("0", "").replace("1", "")
        if bad:
            raise FormatError(f"bad cell character {bad[0]!r}", line=4 + k)
    # rows are listed top y first; cell (i, j) is character i of row n-1-j
    text_cells = np.frombuffer("".join(reversed(rows)).encode("ascii"), dtype=np.uint8)
    cells = (text_cells.reshape(n, m) == ord("1")).T.copy()
    return GridSet(geom, cells)
