"""Reference computations made apart from hvconic, used to check its outputs.

Everything here is written from the definitions, in pure Python with the
standard library only, so that importing this module loads neither the
program nor numpy:

* an HVSET v1 reader and writer;
* hv-convexity and 8-connectivity predicates for closed cell unions;
* the conic field f_K(x, y) = integral over K of |x - a| + |y - b|,
  evaluated exactly in ``Fraction`` arithmetic;
* an enumeration of every connected hv-convex set on a small grid, built
  column run by column run instead of by filtering bitmasks.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Cells:
    """A cell union on the uniform ``m x n`` partition of ``box``.

    ``cells`` holds ``(i, j)`` pairs, ``i`` the column (x) index and ``j``
    the row (y) index, as in the program's HVSET files.
    """

    box: tuple[float, float, float, float]
    m: int
    n: int
    cells: frozenset

    def col_counts(self) -> tuple[int, ...]:
        counts = [0] * self.m
        for i, _ in self.cells:
            counts[i] += 1
        return tuple(counts)

    def row_counts(self) -> tuple[int, ...]:
        counts = [0] * self.n
        for _, j in self.cells:
            counts[j] += 1
        return tuple(counts)


# ---------------------------------------------------------------------------
# HVSET v1


def parse_hvset(text: str) -> Cells:
    """Read HVSET v1 text; raises ValueError on anything malformed."""
    lines = text.split("\n")
    if lines[-1] != "" or len(lines) < 4 or lines[0] != "HVSET v1":
        raise ValueError("not an HVSET v1 text")
    key, *box = lines[1].split()
    key2, m, n = lines[2].split()
    if key != "box" or key2 != "dims" or len(box) != 4:
        raise ValueError("bad box or dims line")
    m, n = int(m), int(n)
    rows = lines[3:-1]
    if len(rows) != n or any(len(r) != m or set(r) - {"0", "1"} for r in rows):
        raise ValueError("bad cell rows")
    cells = frozenset(
        (i, n - 1 - k) for k, row in enumerate(rows) for i, ch in enumerate(row) if ch == "1"
    )
    return Cells(tuple(float(v) for v in box), m, n, cells)


def format_hvset(s: Cells) -> str:
    """HVSET v1 text with the top row first, as the file format prescribes."""
    a, b, c, d = s.box
    lines = ["HVSET v1", f"box {a!r} {b!r} {c!r} {d!r}", f"dims {s.m} {s.n}"]
    for j in range(s.n - 1, -1, -1):
        lines.append("".join("1" if (i, j) in s.cells else "0" for i in range(s.m)))
    return "\n".join(lines) + "\n"


def report_digest(*parts) -> str:
    """The ``inputs_digest`` a checker report carries for these inputs:
    sha256 over each part (a set as HVSET text, anything else by repr),
    each followed by a NUL byte, first twelve hex digits."""
    h = hashlib.sha256()
    for part in parts:
        h.update((format_hvset(part) if isinstance(part, Cells) else repr(part)).encode())
        h.update(b"\x00")
    return h.hexdigest()[:12]


# ---------------------------------------------------------------------------
# predicates


def _runs_ok(lines: list[list[int]]) -> bool:
    # lines: occupied indices along each of a family of parallel cell strips.
    # Each strip must be one run, and the closed runs of adjacent non-empty
    # strips must meet, since the section along their shared grid line is
    # the union of both runs.
    prev = None
    for idx in lines:
        if not idx:
            prev = None
            continue
        lo, hi = min(idx), max(idx)
        if hi - lo + 1 != len(idx):
            return False
        if prev is not None and (lo > prev[1] + 1 or prev[0] > hi + 1):
            return False
        prev = (lo, hi)
    return True


def is_hv_convex(s: Cells) -> bool:
    """Every horizontal and vertical section of the closed union is an interval."""
    if not s.cells:
        return False
    cols = [[j for j in range(s.n) if (i, j) in s.cells] for i in range(s.m)]
    rows = [[i for i in range(s.m) if (i, j) in s.cells] for j in range(s.n)]
    return _runs_ok(cols) and _runs_ok(rows)


def is_connected8(s: Cells) -> bool:
    """Cells meeting along an edge or at a corner are neighbours."""
    if not s.cells:
        return False
    start = next(iter(s.cells))
    seen = {start}
    stack = [start]
    while stack:
        i, j = stack.pop()
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                nb = (i + di, j + dj)
                if nb in s.cells and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
    return len(seen) == len(s.cells)


def has_full_projections(s: Cells) -> bool:
    return all(s.col_counts()) and all(s.row_counts())


# ---------------------------------------------------------------------------
# exact conic field


def _abs_integral(x: Fraction, p: Fraction, q: Fraction) -> Fraction:
    # integral of |x - t| dt over [p, q]
    if x <= p:
        return ((q - x) ** 2 - (p - x) ** 2) / 2
    if x >= q:
        return ((x - p) ** 2 - (x - q) ** 2) / 2
    return ((x - p) ** 2 + (q - x) ** 2) / 2


class ExactField:
    """f_K split as u(x) + v(y), each term summed cell strip by strip:
    a column of c cells of height h adds c * h * integral |x - t| dt over
    the column's x range, a row likewise in y."""

    def __init__(self, s: Cells):
        a, b, c, d = (Fraction(v) for v in s.box)
        self._w = (b - a) / s.m
        self._h = (d - c) / s.n
        self._xs = [(a + i * self._w, a + (i + 1) * self._w) for i in range(s.m)]
        self._ys = [(c + j * self._h, c + (j + 1) * self._h) for j in range(s.n)]
        self._cols = s.col_counts()
        self._rows = s.row_counts()
        self.mass = len(s.cells) * self._w * self._h

    def u(self, x) -> Fraction:
        x = Fraction(x)
        return sum(
            (k * self._h * _abs_integral(x, p, q) for k, (p, q) in zip(self._cols, self._xs) if k),
            Fraction(0),
        )

    def v(self, y) -> Fraction:
        y = Fraction(y)
        return sum(
            (k * self._w * _abs_integral(y, p, q) for k, (p, q) in zip(self._rows, self._ys) if k),
            Fraction(0),
        )

    def node_values(self):
        """u at every vertical grid line and v at every horizontal one."""
        xs = [p for p, _ in self._xs] + [self._xs[-1][1]]
        ys = [p for p, _ in self._ys] + [self._ys[-1][1]]
        return [self.u(x) for x in xs], [self.v(y) for y in ys]


def max_node_difference(s1: Cells, s2: Cells) -> Fraction:
    """Exact max of |f_1 - f_2| over the grid nodes of their shared partition.

    The difference separates as du(x) + dv(y), so its extremes over the
    node lattice pair the extremes of the two one-variable parts.
    """
    u1, v1 = ExactField(s1).node_values()
    u2, v2 = ExactField(s2).node_values()
    du = [p - q for p, q in zip(u1, u2)]
    dv = [p - q for p, q in zip(v1, v2)]
    return max(max(du) + max(dv), -(min(du) + min(dv)))


def field_scale(s: Cells) -> float:
    """A magnitude for rounding tolerances: mass times the box half-perimeter."""
    a, b, c, d = s.box
    return float(ExactField(s).mass) * ((b - a) + (d - c))


# ---------------------------------------------------------------------------
# feasible families


@dataclass(frozen=True)
class Family:
    """Every connected hv-convex set on an ``m x n`` grid, summarized.

    ``size`` counts the whole family and ``size_full`` the sets with full
    projections; ``by_xrays`` and ``by_xrays_full`` count the sets sharing
    each pair of (column counts, row counts).
    """

    m: int
    n: int
    size: int
    size_full: int
    by_xrays: Counter
    by_xrays_full: Counter


def enumerate_family(m: int, n: int) -> Family:
    """Depth-first search over column runs.

    A connected hv-convex set occupies a contiguous range of columns, each
    holding one run ``[lo, hi]`` of rows, and adjacent runs touch (an edge
    or a corner).  The search only builds such sequences; the row
    conditions of hv-convexity are then checked on each candidate.
    """
    runs = [(lo, hi) for lo in range(n) for hi in range(lo, n)]
    by_xrays: Counter = Counter()
    by_xrays_full: Counter = Counter()

    def visit(i0, seq):
        s = Cells(
            (0.0, float(m), 0.0, float(n)),
            m,
            n,
            frozenset((i0 + k, j) for k, (lo, hi) in enumerate(seq) for j in range(lo, hi + 1)),
        )
        if is_hv_convex(s):
            key = (s.col_counts(), s.row_counts())
            by_xrays[key] += 1
            if has_full_projections(s):
                by_xrays_full[key] += 1
        if i0 + len(seq) == m:
            return
        plo, phi = seq[-1]
        for lo, hi in runs:
            if lo <= phi + 1 and plo <= hi + 1:
                seq.append((lo, hi))
                visit(i0, seq)
                seq.pop()

    for i0 in range(m):
        for run in runs:
            visit(i0, [run])
    return Family(
        m, n, sum(by_xrays.values()), sum(by_xrays_full.values()), by_xrays, by_xrays_full
    )
