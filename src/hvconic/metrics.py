"""Distances between grid sets and certified area brackets for tubes.

Numeric quantities that cannot be evaluated in closed form are returned as
:class:`Bracket` values: a pair ``lower <= true value <= upper`` certified
by exact point-to-rectangle or point-to-segment distances plus a Lipschitz
sampling margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySet, FormatError, InvalidParameter, NonSimpleChain, TooLarge
from .grid import GridSet, _band_raster, _min_dist_to_rects, subset_of

__all__ = [
    "Bracket",
    "Polyline",
    "dist_p",
    "hausdorff",
    "tube_area",
    "boundary_chains",
    "format_polyline",
    "parse_polyline",
]


@dataclass(frozen=True)
class Bracket:
    """Certified enclosure ``0 <= lower <= true value <= upper``."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper):
            raise InvalidParameter(f"bad bracket [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def dist_p(u: tuple[float, float], v: tuple[float, float], p: float = 2.0) -> float:
    """Minkowski ``p`` distance between two points, ``p >= 1``."""
    if not p >= 1:
        raise InvalidParameter(f"p must be >= 1, got {p}")
    dx = abs(u[0] - v[0])
    dy = abs(u[1] - v[1])
    if p == 1:
        return dx + dy
    if p == 2:
        return math.hypot(dx, dy)
    if math.isinf(p):
        return max(dx, dy)
    return (dx**p + dy**p) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Hausdorff distance


def _directed_bracket(K: GridSet, L: GridSet, s: int) -> Bracket:
    if subset_of(K, L):
        return Bracket(0.0, 0.0)
    g = K.geometry
    rects = K.rects()
    TooLarge.raster(len(rects), s * s)
    frac = np.arange(s) / (s - 1)
    xs = rects[:, 0][:, None] + frac[None, :] * g.cell_w  # (k, s)
    ys = rects[:, 2][:, None] + frac[None, :] * g.cell_h
    pts = np.column_stack([np.repeat(xs, s, axis=1).ravel(), np.tile(ys, (1, s)).ravel()])
    worst = float(_min_dist_to_rects(pts, L.run_rects()).max())
    halfdiag = 0.5 * math.hypot(g.cell_w / (s - 1), g.cell_h / (s - 1))
    return Bracket(worst, worst + halfdiag)


def hausdorff(K: GridSet, L: GridSet, subsamples: int = 4) -> Bracket:
    """Bracketed Hausdorff distance between two closed cell unions.

    Each direction is lower-bounded by the exact distance from an
    ``subsamples x subsamples`` lattice per occupied cell (corners included)
    and upper-bounded by adding half the lattice cell diagonal, since the
    distance field is 1-Lipschitz.  When one set provably contains the
    other the corresponding direction is exactly zero, so equal sets give
    the exact bracket ``[0, 0]``.
    """
    if K.is_empty or L.is_empty:
        raise EmptySet("Hausdorff distance needs non-empty sets")
    subsamples = InvalidParameter.whole(
        subsamples, 2, f"subsamples must be an integer >= 2, got {subsamples}")
    d1 = _directed_bracket(K, L, subsamples)
    d2 = _directed_bracket(L, K, subsamples)
    return Bracket(max(d1.lower, d2.lower), max(d1.upper, d2.upper))


# ---------------------------------------------------------------------------
# polylines


def _orient(ax, ay, bx, by, cx, cy) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _on_segment(ax, ay, bx, by, px, py) -> bool:
    return (
        min(ax, bx) <= px <= max(ax, bx)
        and min(ay, by) <= py <= max(ay, by)
        and _orient(ax, ay, bx, by, px, py) == 0.0
    )


def _segments_intersect(p1, p2, p3, p4) -> bool:
    d1 = _orient(*p3, *p4, *p1)
    d2 = _orient(*p3, *p4, *p2)
    d3 = _orient(*p1, *p2, *p3)
    d4 = _orient(*p1, *p2, *p4)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True
    if d1 == 0 and _on_segment(*p3, *p4, *p1):
        return True
    if d2 == 0 and _on_segment(*p3, *p4, *p2):
        return True
    if d4 == 0 and _on_segment(*p1, *p2, *p4):
        return True
    return False


class Polyline:
    """Simple polygonal chain, open or closed, validated on construction.

    Raises :class:`NonSimpleChain` when consecutive vertices repeat, when
    non-adjacent segments intersect, or when adjacent segments backtrack
    over each other.  A chain that would pass twice through the same point
    is therefore rejected and callers must fall back to set dilation.
    """

    __slots__ = ("vertices", "closed")

    def __init__(self, vertices, closed: bool = False):
        verts = tuple((float(x), float(y)) for x, y in vertices)
        if not all(math.isfinite(c) for v in verts for c in v):
            raise InvalidParameter("chain vertices must be finite")
        if len(verts) < 2:
            raise InvalidParameter("a chain needs at least two vertices")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "closed", bool(closed))
        self._validate_simple()

    def __setattr__(self, name, value):
        raise AttributeError("Polyline is immutable")

    def _segment_list(self) -> list[tuple[tuple[float, float], tuple[float, float]]]:
        v = self.vertices
        segs = [(v[k], v[k + 1]) for k in range(len(v) - 1)]
        if self.closed:
            segs.append((v[-1], v[0]))
        return segs

    def _validate_simple(self):
        segs = self._segment_list()
        ns = len(segs)
        for a, b in segs:
            if a == b:
                raise NonSimpleChain("zero-length segment")
        for i in range(ns):
            p1, p2 = segs[i]
            for j in range(i + 1, ns):
                p3, p4 = segs[j]
                first_last = self.closed and i == 0 and j == ns - 1
                if j == i + 1 or first_last:
                    # adjacent segments share exactly one endpoint; anything
                    # more means the chain doubles back or pinches
                    shared = p2 if j == i + 1 else p1
                    far_i = p1 if j == i + 1 else p2
                    far_j = p4 if j == i + 1 else p3
                    if _on_segment(*p3, *p4, *far_i) and far_i != shared:
                        raise NonSimpleChain(f"segments {i} and {j} overlap")
                    if _on_segment(*p1, *p2, *far_j) and far_j != shared:
                        raise NonSimpleChain(f"segments {i} and {j} overlap")
                elif _segments_intersect(p1, p2, p3, p4):
                    raise NonSimpleChain(f"segments {i} and {j} intersect")

    @property
    def length(self) -> float:
        return float(sum(math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in self._segment_list()))

    def segments(self) -> np.ndarray:
        """``(k, 4)`` array of segments ``[x0, y0, x1, y1]``."""
        return np.array([[a[0], a[1], b[0], b[1]] for a, b in self._segment_list()])

    def __eq__(self, other):
        if not isinstance(other, Polyline):
            return NotImplemented
        return self.vertices == other.vertices and self.closed == other.closed

    def __hash__(self):
        return hash((self.vertices, self.closed))

    def __repr__(self):
        kind = "closed" if self.closed else "open"
        return f"Polyline({len(self.vertices)} vertices, {kind})"


def _segment_dist(seg, px, py):
    """Exact Euclidean distance from points to the segment ``(ax, ay, bx, by)``."""
    ax, ay, bx, by = seg
    ux = bx - ax
    uy = by - ay
    uu = ux * ux + uy * uy
    t = ((px - ax) * ux + (py - ay) * uy) / uu
    t = np.clip(t, 0.0, 1.0)
    dx = px - (ax + t * ux)
    dy = py - (ay + t * uy)
    return np.hypot(dx, dy)


def _segment_yext(seg, xa, xb):
    """y-extent of the segment over the x-windows ``[xa, xb]`` it meets."""
    ax, ay, bx, by = seg
    if ax == bx:
        return min(ay, by), max(ay, by)
    ya, yb = (ay + np.clip((x - ax) / (bx - ax), 0.0, 1.0) * (by - ay) for x in (xa, xb))
    return np.minimum(ya, yb), np.maximum(ya, yb)


def tube_area(P: Polyline, eps: float, refine: int = 32) -> Bracket:
    """Area bracket for the closed ``eps``-neighbourhood of a simple chain.

    Rasterized on a square grid of side ``eps / refine``; cell centres are
    classified by exact point-to-segment distance with the half-diagonal
    Lipschitz margin, exactly as in set dilation, and each segment is
    measured only on the band of centres within ``eps + delta`` (plus one
    raster cell of slack) of it.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise InvalidParameter(f"tube radius must be finite and positive, got {eps}")
    refine = InvalidParameter.whole(refine, 1, f"refine must be a positive integer, got {refine}")
    # the tube around one vertex alone spans 2 * refine raster cells a side,
    # checked before refine meets a float
    TooLarge.raster(2 * refine, 2 * refine)
    c = eps / refine
    delta = 0.5 * math.sqrt(2.0) * c
    xs, ys = np.array(P.vertices).T
    margin = eps + delta + 2 * c
    # Python floats, which overflow to inf without a warning
    x0 = float(xs.min()) - margin
    y0 = float(ys.min()) - margin
    cols = (float(xs.max()) + margin - x0) / c
    rows = (float(ys.max()) + margin - y0) / c
    TooLarge.raster(cols + 2, rows + 2)
    mm = int(math.ceil(cols)) + 1
    nn = int(math.ceil(rows)) + 1
    cx = x0 + (np.arange(mm) + 0.5) * c
    cy = y0 + (np.arange(nn) + 0.5) * c
    segs = P.segments()
    dist = _band_raster(cx, cy, eps + delta + c, segs, np.minimum(segs[:, 0], segs[:, 2]),
                        np.maximum(segs[:, 0], segs[:, 2]), _segment_yext, _segment_dist)
    n_in = int((dist <= eps - delta).sum())
    n_out = int((dist <= eps + delta).sum())
    return Bracket(n_in * c * c, n_out * c * c)


# ---------------------------------------------------------------------------
# boundary extraction

_DIR_INDEX = {(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3}


def boundary_chains(L: GridSet) -> list[Polyline]:
    """Closed boundary loops of the cell union, interior kept on the left.

    Cell edges adjacent to exactly one occupied cell are chained; at a
    pinch vertex (two cells meeting only in a corner) the sharpest left
    turn is taken, which splits the boundary into separate simple loops.
    More than one loop therefore signals a hole or a corner contact, and
    chain-based tube bounds do not apply as-is.
    """
    if L.is_empty:
        raise EmptySet("empty set has no boundary")
    g = L.geometry
    cells = L.cells
    m, n = cells.shape

    def occ(i: int, j: int) -> bool:
        return 0 <= i < m and 0 <= j < n and cells[i, j]

    # directed lattice edges with the occupied cell on the left
    edges: set[tuple[tuple[int, int], tuple[int, int]]] = set()
    by_start: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def add(a: tuple[int, int], b: tuple[int, int]):
        edges.add((a, b))
        by_start.setdefault(a, []).append(b)

    for i in range(m):
        for j in range(n):
            if not cells[i, j]:
                continue
            if not occ(i, j - 1):
                add((i, j), (i + 1, j))
            if not occ(i + 1, j):
                add((i + 1, j), (i + 1, j + 1))
            if not occ(i, j + 1):
                add((i + 1, j + 1), (i, j + 1))
            if not occ(i - 1, j):
                add((i, j + 1), (i, j))

    def turn_rank(din: tuple[int, int], dout: tuple[int, int]) -> int:
        # 0 = left turn, 1 = straight, 2 = right turn, 3 = U-turn
        return (_DIR_INDEX[din] + 1 - _DIR_INDEX[dout]) % 4

    loops: list[list[tuple[int, int]]] = []
    while edges:
        start = min(edges)
        cur = start
        lattice_loop: list[tuple[int, int]] = []
        while True:
            edges.remove(cur)
            a, b = cur
            lattice_loop.append(a)
            if b == start[0]:
                break
            din = (b[0] - a[0], b[1] - a[1])
            outs = [e for e in by_start[b] if (b, e) in edges]
            nxt = min(outs, key=lambda e: turn_rank(din, (e[0] - b[0], e[1] - b[1])))
            cur = (b, nxt)
        loops.append(lattice_loop)

    result = []
    for loop in loops:
        verts = []
        k = len(loop)
        for idx in range(k):
            p0 = loop[idx - 1]
            p1 = loop[idx]
            p2 = loop[(idx + 1) % k]
            if (p1[0] - p0[0], p1[1] - p0[1]) != (p2[0] - p1[0], p2[1] - p1[1]):
                verts.append(p1)
        coords = [(g.xline(i), g.yline(j)) for i, j in verts]
        result.append(Polyline(coords, closed=True))
    return result


# ---------------------------------------------------------------------------
# POLYLINE v1 text format


def format_polyline(P: Polyline) -> str:
    lines = ["POLYLINE v1", f"closed {1 if P.closed else 0}"]
    for x, y in P.vertices:
        lines.append(f"{x!r} {y!r}")
    return "\n".join(lines) + "\n"


def parse_polyline(text: str) -> Polyline:
    if not text.endswith("\n"):
        raise FormatError("missing trailing newline")
    lines = text.split("\n")[:-1]
    if len(lines) < 2 or lines[0] != "POLYLINE v1":
        raise FormatError("bad header", line=1)
    parts = lines[1].split()
    if len(parts) != 2 or parts[0] != "closed" or parts[1] not in ("0", "1"):
        raise FormatError("expected 'closed 0|1'", line=2)
    closed = parts[1] == "1"
    verts = []
    for k, line in enumerate(lines[2:]):
        parts = line.split()
        if len(parts) != 2:
            raise FormatError("expected 'x y'", line=3 + k)
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            raise FormatError("bad coordinate", line=3 + k) from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise FormatError("coordinates must be finite", line=3 + k)
        verts.append((x, y))
    return Polyline(verts, closed=closed)
