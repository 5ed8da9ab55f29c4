"""Coordinate X-rays and the taxicab conic distance field of a grid set.

For a union of cells ``K`` the field

    f(x, y) = integral over K of ( |x - alpha| + |y - beta| )

splits into two one-variable terms, one driven by the vertical-section
measures (a function of ``x``), one by the horizontal-section measures (a
function of ``y``).  Each term is piecewise quadratic with second
derivative twice the section measure, so the whole field is carried by the
two X-ray profiles alone.  Profiles store prefix integrals of mass and
first moment at their breakpoints, which makes single-point evaluation a
binary search plus a couple of multiplies.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import GeometryMismatch, InvalidParameter, ZeroMass
from .grid import Box, GridSet
from .metrics import Bracket

__all__ = [
    "XRayProfile",
    "ConicEvaluator",
    "xray_v",
    "xray_h",
    "conic_of",
    "xray_from_conic",
    "sup_norm_diff",
    "l1_norm_diff",
    "xrays_equal_ae",
    "conic_value_exact",
    "profile_to_csv",
    "parse_profile_csv",
    "field_to_csv",
    "field_to_pgm",
]

VERTICAL = "vertical"
HORIZONTAL = "horizontal"


class XRayProfile:
    """Piecewise-constant section-measure profile along one axis.

    ``axis`` is ``"vertical"`` for vertical-section measures (a function of
    x) or ``"horizontal"`` for horizontal-section measures (a function of
    y).  ``breakpoints`` has ``r + 1`` strictly increasing entries and
    ``values`` the ``r`` non-negative plateau values; the function is zero
    outside the breakpoint range and takes the larger neighbouring plateau
    value exactly at a breakpoint (upper semicontinuous convention).
    """

    __slots__ = ("axis", "breakpoints", "values", "prefix_mass", "prefix_moment")

    def __init__(self, axis: str, breakpoints, values):
        if axis not in (VERTICAL, HORIZONTAL):
            raise InvalidParameter(f"unknown axis {axis!r}")
        bp = np.asarray(breakpoints, dtype=float).copy()
        vals = np.asarray(values, dtype=float).copy()
        if bp.ndim != 1 or vals.ndim != 1 or len(bp) != len(vals) + 1 or len(vals) < 1:
            raise InvalidParameter("need r+1 breakpoints for r plateau values")
        if not (np.isfinite(bp).all() and np.isfinite(vals).all()):
            raise InvalidParameter("breakpoints and plateau values must be finite")
        if not np.all(bp[1:] > bp[:-1]):
            raise InvalidParameter("breakpoints must be strictly increasing")
        if not np.all(vals >= 0):
            raise InvalidParameter("plateau values must be non-negative")
        with np.errstate(over="ignore", invalid="ignore"):
            widths = np.diff(bp)
            mids = 0.5 * (bp[:-1] + bp[1:])
            mass = np.concatenate([[0.0], np.cumsum(vals * widths)])
            moment = np.concatenate([[0.0], np.cumsum(vals * widths * mids)])
        if not (np.isfinite(mass[-1]) and np.isfinite(moment).all()):
            raise InvalidParameter("profile mass or first moment overflows")
        for arr in (bp, vals, mass, moment):
            arr.setflags(write=False)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "prefix_mass", mass)
        object.__setattr__(self, "prefix_moment", moment)

    def __setattr__(self, name, value):
        raise AttributeError("XRayProfile is immutable")

    @property
    def total_mass(self) -> float:
        return float(self.prefix_mass[-1])

    def value_at(self, t: float) -> float:
        """Plateau value at ``t``; the larger neighbour exactly on a breakpoint."""
        bp, vals = self.breakpoints, self.values
        if t < bp[0] or t > bp[-1]:
            return 0.0
        k = int(np.searchsorted(bp, t, side="right")) - 1
        if k < len(vals) and t > bp[k]:
            return float(vals[k])
        left = float(vals[k - 1]) if k >= 1 else 0.0
        right = float(vals[k]) if k < len(vals) else 0.0
        return max(left, right)

    def scaled(self, factor: float) -> "XRayProfile":
        if factor < 0:
            raise InvalidParameter("scale factor must be non-negative")
        return XRayProfile(self.axis, self.breakpoints, self.values * factor)

    def __eq__(self, other):
        if not isinstance(other, XRayProfile):
            return NotImplemented
        return (
            self.axis == other.axis
            and np.array_equal(self.breakpoints, other.breakpoints)
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.axis, self.breakpoints.tobytes(), self.values.tobytes()))

    def __repr__(self):
        return (
            f"XRayProfile({self.axis}, {len(self.values)} plateaus on "
            f"[{self.breakpoints[0]}, {self.breakpoints[-1]}])"
        )


def _profile_coeffs(prof: XRayProfile, ts: np.ndarray):
    """Quadratic coefficients (A, B, C) of the absolute-moment integral.

    On the plateau containing each query point the map
    ``t -> integral of |t - s| * value(s) ds`` equals ``A t^2 + B t + C``.
    Queries left and right of the profile range fall on the linear tails.
    """
    bp, v = prof.breakpoints, prof.values
    M, S = prof.prefix_mass, prof.prefix_moment
    mtot, stot = M[-1], S[-1]
    r = len(v)
    k = np.searchsorted(bp, ts, side="right") - 1
    A = np.zeros(len(ts))
    B = np.empty(len(ts))
    C = np.empty(len(ts))
    inside = (k >= 0) & (k < r)
    ki = k[inside]
    A[inside] = v[ki]
    B[inside] = 2.0 * M[ki] - 2.0 * v[ki] * bp[ki] - mtot
    C[inside] = v[ki] * bp[ki] ** 2 - 2.0 * S[ki] + stot
    left = k < 0
    B[left] = -mtot
    C[left] = stot
    right = k >= r
    B[right] = mtot
    C[right] = -stot
    return A, B, C


def _axis_eval(prof: XRayProfile, ts: np.ndarray) -> np.ndarray:
    A, B, C = _profile_coeffs(prof, ts)
    return (A * ts + B) * ts + C


def _axis_slope(prof: XRayProfile, ts: np.ndarray) -> np.ndarray:
    # derivative of the absolute-moment integral: mass below minus mass above
    A, B, C = _profile_coeffs(prof, ts)
    return 2.0 * A * ts + B


class ConicEvaluator:
    """Exact evaluator of the conic distance field from its two profiles."""

    __slots__ = ("yprofile", "xprofile", "mass")

    def __init__(self, yprofile: XRayProfile, xprofile: XRayProfile):
        if yprofile.axis != VERTICAL or xprofile.axis != HORIZONTAL:
            raise InvalidParameter("profiles passed on the wrong axes")
        my, mx = yprofile.total_mass, xprofile.total_mass
        if my <= 0 or mx <= 0:
            raise ZeroMass("profiles must carry positive mass")
        if not math.isclose(my, mx, rel_tol=1e-9, abs_tol=0.0):
            raise InvalidParameter(
                f"profile masses disagree: {my!r} (vertical) vs {mx!r} (horizontal)"
            )
        object.__setattr__(self, "yprofile", yprofile)
        object.__setattr__(self, "xprofile", xprofile)
        object.__setattr__(self, "mass", my)

    def __setattr__(self, name, value):
        raise AttributeError("ConicEvaluator is immutable")

    def evaluate(self, x: float, y: float) -> float:
        xs = np.asarray([x], dtype=float)
        ys = np.asarray([y], dtype=float)
        return float(_axis_eval(self.yprofile, xs)[0] + _axis_eval(self.xprofile, ys)[0])

    def evaluate_grid(self, xs, ys) -> np.ndarray:
        """Field values on a product lattice, shape ``(len(xs), len(ys))``."""
        u = _axis_eval(self.yprofile, np.asarray(xs, dtype=float))
        v = _axis_eval(self.xprofile, np.asarray(ys, dtype=float))
        return u[:, None] + v[None, :]

    def gradient(self, x: float, y: float) -> tuple[float, float]:
        """One-sided right derivatives (the field is differentiable between
        breakpoints and the two sided limits agree everywhere anyway)."""
        gx = _axis_slope(self.yprofile, np.asarray([x], dtype=float))[0]
        gy = _axis_slope(self.xprofile, np.asarray([y], dtype=float))[0]
        return float(gx), float(gy)

    def weighted(self) -> "ConicEvaluator":
        """The same field divided by the set mass (unit-mass normalization)."""
        inv = 1.0 / self.mass
        return ConicEvaluator(self.yprofile.scaled(inv), self.xprofile.scaled(inv))

    def __eq__(self, other):
        if not isinstance(other, ConicEvaluator):
            return NotImplemented
        return self.yprofile == other.yprofile and self.xprofile == other.xprofile

    def __hash__(self):
        return hash((self.yprofile, self.xprofile))


def xray_v(L: GridSet) -> XRayProfile:
    """Vertical-section measures of the cell union, one plateau per column."""
    g = L.geometry
    return XRayProfile(VERTICAL, g.xlines(), L.col_counts() * g.cell_h)


def xray_h(L: GridSet) -> XRayProfile:
    """Horizontal-section measures, one plateau per row."""
    g = L.geometry
    return XRayProfile(HORIZONTAL, g.ylines(), L.row_counts() * g.cell_w)


def conic_of(L: GridSet) -> ConicEvaluator:
    return ConicEvaluator(xray_v(L), xray_h(L))


def xray_from_conic(E: ConicEvaluator) -> tuple[XRayProfile, XRayProfile]:
    """Recover both profiles from the field's piecewise-quadratic data.

    The plateau value on each piece is half the second derivative there,
    i.e. the prefix-mass increment divided by the piece width.
    """
    out = []
    for prof in (E.yprofile, E.xprofile):
        widths = np.diff(prof.breakpoints)
        vals = np.diff(prof.prefix_mass) / widths
        out.append(XRayProfile(prof.axis, prof.breakpoints, vals))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# norms of field differences over a reference box


def _merged_points(p1: XRayProfile, p2: XRayProfile, lo: float, hi: float) -> np.ndarray:
    pts = np.concatenate([[lo, hi], p1.breakpoints, p2.breakpoints])
    pts = np.unique(pts)
    return pts[(pts >= lo) & (pts <= hi)]


def _extrema_from_coeffs(dA, dB, dC, los, his) -> tuple[float, float]:
    """Min and max of per-interval quadratics: endpoints plus interior vertex."""

    def val(t):
        return (dA * t + dB) * t + dC

    cand_lo = val(los)
    cand_hi = val(his)
    best_max = max(cand_lo.max(), cand_hi.max())
    best_min = min(cand_lo.min(), cand_hi.min())
    nz = dA != 0.0
    if nz.any():
        tv = np.full_like(los, np.nan)
        tv[nz] = -dB[nz] / (2.0 * dA[nz])
        ok = nz & (tv > los) & (tv < his)
        if ok.any():
            to = tv[ok]
            vv = (dA[ok] * to + dB[ok]) * to + dC[ok]
            best_max = max(best_max, vv.max())
            best_min = min(best_min, vv.min())
    return float(best_min), float(best_max)


def _axis_extrema(p1: XRayProfile, p2: XRayProfile, lo: float, hi: float) -> tuple[float, float]:
    """Exact min and max of the difference of the two axis terms on [lo, hi]."""
    pts = _merged_points(p1, p2, lo, hi)
    los, his = pts[:-1], pts[1:]
    mids = 0.5 * (los + his)
    A1, B1, C1 = _profile_coeffs(p1, mids)
    A2, B2, C2 = _profile_coeffs(p2, mids)
    return _extrema_from_coeffs(A1 - A2, B1 - B2, C1 - C2, los, his)


def sup_norm_diff(E1: ConicEvaluator, E2: ConicEvaluator, box: Box) -> float:
    """Exact supremum of ``|f1 - f2|`` over the reference box.

    The difference separates into an x term and a y term, so the supremum
    over the product box is reached at an extremal pair: the larger of
    (max + max) and -(min + min), each found exactly on the piecewise
    quadratics (interval endpoints and interior vertices).
    """
    umin, umax = _axis_extrema(E1.yprofile, E2.yprofile, box.a, box.b)
    vmin, vmax = _axis_extrema(E1.xprofile, E2.xprofile, box.c, box.d)
    return max(umax + vmax, -(umin + vmin))


def _axis_values_and_weights(p1, p2, lo, hi, refine):
    pts = _merged_points(p1, p2, lo, hi)
    seg_lo = np.repeat(pts[:-1], refine)
    seg_w = np.repeat(np.diff(pts), refine) / refine
    offs = np.tile(np.arange(refine), len(pts) - 1)
    mids = seg_lo + (offs + 0.5) * seg_w
    vals = _axis_eval(p1, mids) - _axis_eval(p2, mids)
    return mids, seg_w, vals, pts


def _axis_slope_bound(p1, p2, pts) -> float:
    s1 = _axis_slope(p1, pts)
    s2 = _axis_slope(p2, pts)
    # the slope difference is piecewise linear, so its extrema sit at the
    # merged breakpoints; evaluate one-sided on both sides of each point
    inner = 0.5 * (pts[:-1] + pts[1:])
    s1i = _axis_slope(p1, inner)
    s2i = _axis_slope(p2, inner)
    return float(max(np.abs(s1 - s2).max(), np.abs(s1i - s2i).max()))


def l1_norm_diff(E1: ConicEvaluator, E2: ConicEvaluator, box: Box, refine: int = 4) -> Bracket:
    """Bracketed integral of ``|f1 - f2|`` over the reference box.

    Composite midpoint quadrature on the merged breakpoint partition with
    each piece split ``refine`` times, plus a Lipschitz error bound from
    the exact slope ranges of the two separated terms.
    """
    if refine < 1 or int(refine) != refine:
        raise InvalidParameter(f"refine must be a positive integer, got {refine}")
    xm, wx, du, ptsx = _axis_values_and_weights(E1.yprofile, E2.yprofile, box.a, box.b, refine)
    ym, wy, dv, ptsy = _axis_values_and_weights(E1.xprofile, E2.xprofile, box.c, box.d, refine)
    total = float((wx[:, None] * wy[None, :] * np.abs(du[:, None] + dv[None, :])).sum())
    lip_x = _axis_slope_bound(E1.yprofile, E2.yprofile, ptsx)
    lip_y = _axis_slope_bound(E1.xprofile, E2.xprofile, ptsy)
    err = 0.25 * (lip_x * float((wx**2).sum()) * float(wy.sum())
                  + lip_y * float((wy**2).sum()) * float(wx.sum()))
    return Bracket(max(0.0, total - err), total + err)


# ---------------------------------------------------------------------------
# exact X-ray comparison


def _steps_equal(c1: np.ndarray, n1: int, c2: np.ndarray, n2: int) -> bool:
    # two piecewise-constant column-count functions on a shared span,
    # compared exactly: counts scaled by the opposite denominator must
    # agree on every positively overlapping index pair
    m1, m2 = len(c1), len(c2)
    i1 = i2 = 0
    while i1 < m1 and i2 < m2:
        if int(c1[i1]) * n2 != int(c2[i2]) * n1:
            return False
        # advance the interval that ends first; ends at (i+1)/m in box units
        e1 = (i1 + 1) * m2
        e2 = (i2 + 1) * m1
        if e1 <= e2:
            i1 += 1
        if e2 <= e1:
            i2 += 1
    return True


def xrays_equal_ae(L1: GridSet, L2: GridSet) -> bool:
    """Exact almost-everywhere equality of both X-ray pairs.

    Decided in integer cell-count arithmetic; the two sets must share the
    reference box (dims may differ, the counts are compared across the
    common refinement without building it).
    """
    if L1.geometry.box != L2.geometry.box:
        raise GeometryMismatch("X-ray comparison needs a shared reference box")
    g1, g2 = L1.geometry, L2.geometry
    if g1 == g2:
        return bool(
            np.array_equal(L1.col_counts(), L2.col_counts())
            and np.array_equal(L1.row_counts(), L2.row_counts())
        )
    return _steps_equal(L1.col_counts(), g1.n, L2.col_counts(), g2.n) and _steps_equal(
        L1.row_counts(), g1.m, L2.row_counts(), g2.m
    )


# ---------------------------------------------------------------------------
# exact rational evaluation (reference oracle)


def _abs_integral(x: Fraction, p: Fraction, q: Fraction) -> Fraction:
    # integral of |x - s| ds over [p, q], all rational
    if x <= p:
        return ((q - x) ** 2 - (p - x) ** 2) / 2
    if x >= q:
        return ((x - p) ** 2 - (x - q) ** 2) / 2
    return ((x - p) ** 2 + (q - x) ** 2) / 2


def conic_value_exact(L: GridSet, x, y) -> Fraction:
    """Field value as an exact rational, straight from the definition.

    Coordinates are converted through ``Fraction`` (binary floats convert
    exactly), making this an independent oracle for the float evaluator.
    """
    g = L.geometry
    a, b = Fraction(g.box.a), Fraction(g.box.b)
    c, d = Fraction(g.box.c), Fraction(g.box.d)
    w = (b - a) / g.m
    h = (d - c) / g.n
    xf, yf = Fraction(x), Fraction(y)
    total = Fraction(0)
    for i, cnt in enumerate(L.col_counts()):
        if cnt:
            total += int(cnt) * h * _abs_integral(xf, a + i * w, a + (i + 1) * w)
    for j, cnt in enumerate(L.row_counts()):
        if cnt:
            total += int(cnt) * w * _abs_integral(yf, c + j * h, c + (j + 1) * h)
    return total


# ---------------------------------------------------------------------------
# text exports

_CSV_HEADER = "t_lo,t_hi,value"


def profile_to_csv(prof: XRayProfile) -> str:
    rows = [_CSV_HEADER]
    bp, vals = prof.breakpoints, prof.values
    for k in range(len(vals)):
        rows.append(f"{float(bp[k])!r},{float(bp[k + 1])!r},{float(vals[k])!r}")
    return "\n".join(rows) + "\n"


def parse_profile_csv(text: str, axis: str) -> XRayProfile:
    from .errors import FormatError

    if not text.endswith("\n"):
        raise FormatError("missing trailing newline")
    lines = text.split("\n")[:-1]
    if not lines or lines[0] != _CSV_HEADER:
        raise FormatError(f"expected header {_CSV_HEADER!r}", line=1)
    if len(lines) < 2:
        raise FormatError("profile needs at least one row", line=2)
    bps = []
    vals = []
    for k, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != 3:
            raise FormatError("expected 't_lo,t_hi,value'", line=2 + k)
        try:
            lo, hi, v = (float(p) for p in parts)
        except ValueError:
            raise FormatError("bad number", line=2 + k) from None
        if bps and lo != bps[-1]:
            raise FormatError("rows must be contiguous", line=2 + k)
        if not bps:
            bps.append(lo)
        bps.append(hi)
        vals.append(v)
    try:
        return XRayProfile(axis, bps, vals)
    except InvalidParameter as exc:
        raise FormatError(str(exc)) from None


def field_to_csv(E: ConicEvaluator, box: Box, px: int, py: int) -> str:
    if px < 2 or py < 2:
        raise InvalidParameter("need at least a 2x2 sample lattice")
    xs = np.linspace(box.a, box.b, px)
    ys = np.linspace(box.c, box.d, py)
    grid = E.evaluate_grid(xs, ys)
    rows = ["x,y,f"]
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            rows.append(f"{float(x)!r},{float(y)!r},{float(grid[i, j])!r}")
    return "\n".join(rows) + "\n"


def field_to_pgm(E: ConicEvaluator, box: Box, px: int, py: int) -> str:
    """16-bit ASCII PGM of the sampled field, min-max normalized (one way)."""
    if px < 2 or py < 2:
        raise InvalidParameter("need at least a 2x2 sample lattice")
    xs = np.linspace(box.a, box.b, px)
    ys = np.linspace(box.c, box.d, py)
    grid = E.evaluate_grid(xs, ys)
    lo, hi = float(grid.min()), float(grid.max())
    span = hi - lo
    if span == 0.0:
        levels = np.zeros_like(grid, dtype=np.int64)
    else:
        levels = np.rint((grid - lo) / span * 65535).astype(np.int64)
    lines = ["P2", f"{px} {py}", "65535"]
    for j in range(py - 1, -1, -1):  # top row of the image is the top of the box
        lines.append(" ".join(str(int(levels[i, j])) for i in range(px)))
    return "\n".join(lines) + "\n"
