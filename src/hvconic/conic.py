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

import itertools
import math
from collections import namedtuple
from fractions import Fraction

import numpy as np

from .errors import FormatError, InvalidParameter, TooLarge, ZeroMass
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
            mass, moment = _prefix(bp, vals)
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
        if math.isnan(t):
            raise InvalidParameter("profile argument is NaN")
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


# ---------------------------------------------------------------------------
# the axis-term kernel: every evaluation, norm and family scorer runs here,
# on plateau values of any leading shape (one profile, or a stack of
# profiles sharing their breakpoints)


def _pymax(a, b):
    # elementwise builtin max(a, b): keeps ``a`` on ties, so 0.0 and -0.0
    # come out as the scalar scorer returns them (np.maximum may not)
    return np.where(b > a, b, a)


def _pymin(a, b):
    return np.where(b < a, b, a)


def _prefix(bp: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix integrals of mass and first moment at the breakpoints."""
    widths = np.diff(bp)
    mids = 0.5 * (bp[:-1] + bp[1:])
    mass = np.zeros(vals.shape[:-1] + bp.shape)
    moment = np.zeros(vals.shape[:-1] + bp.shape)
    np.cumsum(vals * widths, axis=-1, out=mass[..., 1:])
    np.cumsum(vals * widths * mids, axis=-1, out=moment[..., 1:])
    return mass, moment


# profiles sharing one set of breakpoints, their plateau values stacked
# along leading axes: the arrays of XRayProfile that the kernel reads
_Stack = namedtuple("_Stack", "breakpoints values prefix_mass prefix_moment")


def _at(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    # a[..., k] with k clamped to the last axis; a stack's result comes out
    # column-major, so the reductions along its last axis run over
    # contiguous columns
    return a.T.take(k, axis=0, mode="clip").T


def _coeffs(p, ts: np.ndarray):
    """Quadratic coefficients (A, B, C) of the absolute-moment integral.

    On the plateau containing each query point the map
    ``t -> integral of |t - s| * value(s) ds`` equals ``A t^2 + B t + C``.
    Queries left and right of the profile range fall on the linear tails.
    ``p`` is an :class:`XRayProfile` or a ``_Stack``; the result has
    the leading shape of its values plus one axis over ``ts``.
    """
    bp, v = p.breakpoints, p.values
    M, S = p.prefix_mass, p.prefix_moment
    mtot, stot = M[..., -1:], S[..., -1:]
    r = len(bp) - 1
    # k = -1 and k = r mark the tails, whose clamped lookups are overwritten
    k = np.searchsorted(bp, ts, side="right") - 1
    line = bp.take(k, mode="clip")
    A = _at(v, k)
    B = 2.0 * _at(M, k) - 2.0 * A * line - mtot
    C = A * line**2 - 2.0 * _at(S, k) + stot
    if k.size and (k.min() < 0 or k.max() >= r):
        left, right = k < 0, k >= r
        np.copyto(A, 0.0, where=left | right)
        np.copyto(B, -mtot, where=left)
        np.copyto(C, stot, where=left)
        np.copyto(B, mtot, where=right)
        np.copyto(C, -stot, where=right)
    return A, B, C


def _value(coef, ts):
    A, B, C = coef
    return (A * ts + B) * ts + C


def _slope(coef, ts):
    # derivative of the absolute-moment integral: mass below minus mass above
    A, B, _ = coef
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
        return float(self.evaluate_grid([x], [y])[0, 0])

    def evaluate_grid(self, xs, ys) -> np.ndarray:
        """Field values on a product lattice, shape ``(len(xs), len(ys))``."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        u = _value(_coeffs(self.yprofile, xs), xs)
        v = _value(_coeffs(self.xprofile, ys), ys)
        return u[:, None] + v[None, :]

    def gradient(self, x: float, y: float) -> tuple[float, float]:
        """One-sided right derivatives (the field is differentiable between
        breakpoints and the two sided limits agree everywhere anyway)."""
        xs = np.asarray([x], dtype=float)
        ys = np.asarray([y], dtype=float)
        gx = _slope(_coeffs(self.yprofile, xs), xs)[0]
        gy = _slope(_coeffs(self.xprofile, ys), ys)[0]
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


# the l1 quadrature sum runs over blocks of members holding at most this
# many (member, x-point, y-point) products at once, 512 KiB a temporary
# (a member with more points than that forms a block alone)
_L1_BLOCK = 1 << 16


class _FieldDiff:
    """Fields on fixed breakpoints less a reference field, over a box: the
    kernel of both norms.

    ``xlines`` and ``ylines`` are the breakpoints of the fields' vertical
    and horizontal profiles.  The methods take those profiles as an
    :class:`XRayProfile` or as a ``_Stack`` from :meth:`stack`, so one
    call scores one field or a whole family.  Each axis term of a
    difference is a quadratic on every interval of the merged breakpoint
    partition, which is built once here, with the reference's coefficients
    at the interval midpoints: ``axes[k]`` holds ``(lines, reference
    profile, partition, midpoints, (A, B, C))``.  The reference's l1
    terms are kept per ``(axis, refine)`` on first use.
    """

    # a reference term that overflows here reaches the norms, which refuse it
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, xlines: np.ndarray, ylines: np.ndarray, ref: ConicEvaluator, box: Box):
        self.axes = []
        for lines, rprof, lo, hi in ((xlines, ref.yprofile, box.a, box.b),
                                     (ylines, ref.xprofile, box.c, box.d)):
            # np.unique's sorted merge without its call, which imports numpy.ma
            pts = np.sort(np.concatenate([[lo, hi], lines, rprof.breakpoints]))
            pts = pts[(pts >= lo) & (pts <= hi) & np.concatenate([[True], pts[1:] != pts[:-1]])]
            mids = 0.5 * (pts[:-1] + pts[1:])
            self.axes.append((lines, rprof, pts, mids, _coeffs(rprof, mids)))
        self._l1_ref: dict = {}

    @staticmethod
    def profiles(lines: np.ndarray, vals: np.ndarray) -> _Stack:
        """Profiles on ``lines`` with plateau values ``vals``, stacked
        along the leading axes of ``vals``."""
        return _Stack(lines, vals, *_prefix(lines, vals))

    def stack(self, axk: int, vals: np.ndarray) -> _Stack:
        """Profiles on axis ``axk``'s lines with plateau values ``vals``."""
        return self.profiles(self.axes[axk][0], vals)

    def extrema(self, axk: int, p):
        """Exact ``(min, max)`` over the box side of each field's axis term
        less the reference's: interval endpoints plus interior vertices."""
        _, _, pts, mids, (tA, tB, tC) = self.axes[axk]
        A, B, C = _coeffs(p, mids)
        d = (A - tA, B - tB, C - tC)
        los, his = pts[:-1], pts[1:]
        cand_lo = _value(d, los)
        cand_hi = _value(d, his)
        best_max = _pymax(cand_lo.max(axis=-1), cand_hi.max(axis=-1))
        best_min = _pymin(cand_lo.min(axis=-1), cand_hi.min(axis=-1))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # a linear piece puts its vertex at +-inf or nan, never inside
            tv = -d[1] / (2.0 * d[0])
            ok = (tv > los) & (tv < his)
            if ok.any():
                vv = _value(d, tv)
                best_max = _pymax(best_max, np.where(ok, vv, -np.inf).max(axis=-1))
                best_min = _pymin(best_min, np.where(ok, vv, np.inf).min(axis=-1))
        return best_min, best_max

    @np.errstate(over="ignore", invalid="ignore")
    def sup(self, xp, yp, cinv, rinv):
        """``sup_norm_diff`` of the fields whose profiles are rows
        ``cinv[k]`` of ``xp`` and ``rinv[k]`` of ``yp`` (for a single
        profile both indices are ``()``): the larger of (max + max) and -(min + min) of the two
        separated terms, ties kept as the builtin ``max`` keeps them.  A
        norm that overflows raises :class:`InvalidParameter`."""
        umin, umax = self.extrema(0, xp)
        vmin, vmax = self.extrema(1, yp)
        out = _pymax(umax[cinv] + vmax[rinv], -(umin[cinv] + vmin[rinv]))
        if not np.isfinite(out).all():
            raise InvalidParameter("the sup norm overflows on this box")
        return out

    def _l1_reference(self, axk: int, refine: int):
        """The reference's share of :meth:`l1_terms`, built once per
        ``(axk, refine)``: quadrature weights; the quadrature points,
        partition points and midpoints in one array; the reference term at
        the quadrature points; and its slopes at the partition points and
        midpoints."""
        hit = self._l1_ref.get((axk, refine))
        if hit is None:
            _, rprof, pts, mids, rcoef = self.axes[axk]
            w = np.repeat(np.diff(pts), refine) / refine
            qs = np.repeat(pts[:-1], refine) + (np.tile(np.arange(refine), len(pts) - 1) + 0.5) * w
            hit = self._l1_ref[axk, refine] = (
                w, np.concatenate([qs, pts, mids]), _value(_coeffs(rprof, qs), qs),
                _slope(_coeffs(rprof, pts), pts), _slope(rcoef, mids))
        return hit

    def l1_terms(self, axk: int, p, refine: int):
        """Quadrature weights on the partition, each piece split ``refine``
        times; each field's axis-term difference at the quadrature points;
        and its bound on the slope difference, which is piecewise linear
        and so extremal one-sided at the partition points."""
        w, ts, ref_qs, ref_pts, ref_mids = self._l1_reference(axk, refine)
        # one _coeffs call over the quadrature points, partition points and
        # midpoints; it works elementwise, so each share is what a call on
        # that share alone returns
        A, B, C = _coeffs(p, ts)
        q, e = len(ref_qs), len(ref_qs) + len(ref_pts)
        diff = _value((A[..., :q], B[..., :q], C[..., :q]), ts[:q]) - ref_qs
        gap_pts = np.abs(_slope((A[..., q:e], B[..., q:e], None), ts[q:e]) - ref_pts)
        gap_mids = np.abs(_slope((A[..., e:], B[..., e:], None), ts[e:]) - ref_mids)
        return w, diff, _pymax(gap_pts.max(axis=-1), gap_mids.max(axis=-1))

    @np.errstate(over="ignore", invalid="ignore")
    def l1(self, xp, yp, refine: int, cinv, rinv):
        """``l1_norm_diff`` brackets ``(lower, upper)`` of the fields whose
        profiles are rows ``cinv[k]`` of ``xp`` and ``rinv[k]`` of ``yp``
        (a single profile is one row): composite midpoint quadrature plus
        a Lipschitz error bound from the exact slope ranges of the two
        separated terms.  A norm that overflows raises
        :class:`InvalidParameter`."""
        wx, du, lip_x = self.l1_terms(0, xp, refine)
        wy, dv, lip_y = self.l1_terms(1, yp, refine)
        du, lip_x = du.reshape(-1, len(wx)), np.reshape(lip_x, -1)
        dv, lip_y = dv.reshape(-1, len(wy)), np.reshape(lip_y, -1)
        weights = wx[:, None] * wy[None, :]
        total = np.empty(len(cinv))
        step = max(1, _L1_BLOCK // weights.size)
        for s in range(0, len(cinv), step):
            c, r = cinv[s : s + step], rinv[s : s + step]
            block = du[c][:, :, None] + dv[r][:, None, :]
            np.abs(block, out=block)
            np.multiply(weights, block, out=block)
            total[s : s + step] = block.reshape(len(c), -1).sum(axis=1)
        ex = lip_x * float((wx**2).sum()) * float(wy.sum())
        ey = lip_y * float((wy**2).sum()) * float(wx.sum())
        err = 0.25 * (ex[cinv] + ey[rinv])
        lower = _pymax(0.0, total - err)
        upper = total + err
        if not np.isfinite(upper).all():
            raise InvalidParameter("the l1 norm overflows on this box")
        bad = np.flatnonzero(~(lower <= upper))
        if bad.size:
            raise InvalidParameter(f"bad bracket [{lower[bad[0]]}, {upper[bad[0]]}]")
        return lower, upper

    def sup_scorer(self, cell_h: float, cell_w: float) -> "_SupScore":
        """The scalar twin of :meth:`sup` for fields on uniform lines of
        ``cell_w`` by ``cell_h`` cells, scored from their cell counts."""
        return _SupScore(self.axes, (cell_h, cell_w))


# the scalar sup scorer remembers at most this many count vectors per axis
# and starts its memo afresh when it is full
_MEMO_CAP = 1 << 14


class _SupScore:
    """Exact sup-norm objective from column/row counts alone.

    The merged interval structure shared by every candidate on the fixed
    grid (the candidate breakpoints are always the grid lines) comes from
    the kernel's axes, and the scalar path mirrors :meth:`_FieldDiff.sup`
    term for term, so it is bit-identical to the kernel on the same
    candidate.  Built by :meth:`_FieldDiff.sup_scorer`.
    """

    # a square that overflows leaves the margin infinite, which is refused
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, axes, cell_hw):
        self._scalar, sides, ends, spans = [], [], [], []
        for (lines, rprof, pts, mids, (tA, tB, tC)), cell in zip(axes, cell_hw):
            widths = np.diff(lines)
            cmids = 0.5 * (lines[:-1] + lines[1:])
            kidx = np.searchsorted(lines, mids, side="right") - 1
            # the kernel's terms as Python floats, one tuple per merged
            # interval; the last grid line can round short of the box side,
            # so k = r marks an interval on the linear tail past it (l, l2
            # unused)
            ki = np.clip(kidx, 0, len(widths) - 1)
            segs = list(zip(kidx.tolist(), lines[ki].tolist(), (lines[ki] ** 2).tolist(),
                            *(t.tolist() for t in (tA, tB, tC, pts[:-1], pts[1:]))))
            self._scalar.append((widths.tolist(), cmids.tolist(), float(cell), segs))
            # for the corner bound: the target's terms at the two box sides,
            # in the scorer's own expression on its first and last merged
            # interval, and the coordinates and side lengths of the margin
            *_, a0, b0, c0, lo, _ = segs[0]
            *_, a1, b1, c1, _, hi = segs[-1]
            sides += [(a0 * lo + b0) * lo + c0, (a1 * hi + b1) * hi + c1]
            ends += [lo, hi, *rprof.breakpoints[[0, -1]].tolist()]
            spans.append(hi - lo)
        self._memo: tuple[dict, dict] = ({}, {})
        (width, height), (cell_h, cell_w) = spans, cell_hw
        reach = max(map(abs, ends)) + (width + height)
        try:
            margin = 1e-9 * (axes[0][1].total_mass + width * height) * reach**2
        except OverflowError:
            margin = math.inf
        if not math.isfinite(margin):
            raise InvalidParameter("the sup norm overflows on this box")
        self._corners = (cell_h * cell_w**2 / 2, cell_w * cell_h**2 / 2,
                         2 * len(self._scalar[0][0]), 2 * len(self._scalar[1][0]), *sides, margin)

    def _axis(self, counts, axk: int) -> tuple[float, float]:
        """``(min, max)`` over the axis of the candidate's term minus the
        target's, for one sequence of counts.

        The annealer's hot path, and the one deliberate second copy of the
        kernel: the formulas of ``_coeffs``, ``_prefix`` and
        ``_FieldDiff.extrema`` on Python floats, with no numpy call (whose
        per-call overhead would dominate a step).  It stays bit-identical
        to the kernel, which the tests check.
        """
        key = tuple(counts)
        memo = self._memo[axk]
        hit = memo.get(key)
        if hit is not None:
            return hit
        widths, cmids, cell, segs = self._scalar[axk]
        vals = [c * cell for c in key]
        vw = [v * w for v, w in zip(vals, widths)]
        mass = [0.0, *itertools.accumulate(vw)]
        moment = [0.0, *itertools.accumulate(x * c for x, c in zip(vw, cmids))]
        mtot, stot = mass[-1], moment[-1]
        r = len(vals)
        at_lo, at_hi, vertex = [], [], []
        for k, l, l2, tA, tB, tC, lo, hi in segs:
            if k < r:
                A = vals[k]
                B = 2.0 * mass[k] - 2.0 * A * l - mtot
                C = A * l2 - 2.0 * moment[k] + stot
            else:
                A, B, C = 0.0, mtot, -stot
            dA, dB, dC = A - tA, B - tB, C - tC
            at_lo.append((dA * lo + dB) * lo + dC)
            at_hi.append((dA * hi + dB) * hi + dC)
            if dA != 0.0:
                tv = -dB / (2.0 * dA)
                if tv > lo and tv < hi:
                    vertex.append((dA * tv + dB) * tv + dC)
        best_min = min(min(at_lo), min(at_hi))
        best_max = max(max(at_lo), max(at_hi))
        if vertex:
            best_min = min(best_min, min(vertex))
            best_max = max(best_max, max(vertex))
        if len(memo) >= _MEMO_CAP:
            memo.clear()
        hit = memo[key] = (best_min, best_max)
        return hit

    def __call__(self, col_counts, row_counts) -> float:
        umin, umax = self._axis(col_counts, 0)
        vmin, vmax = self._axis(row_counts, 1)
        return max(umax + vmax, -(umin + vmin))

    def corner_bound(self, cells: int, s_c: int, s_r: int) -> float:
        """A lower bound on the score of a set of ``cells`` cells with
        column and row moments ``s_c = sum c_i (2i + 1)`` and ``s_r = sum
        r_j (2j + 1)``, less a rounding margin.

        The score's extrema run over the box sides too, so it is at least
        ``|d_u(x) + d_v(y)|`` at each corner.  On the uniform grid the
        candidate's term is ``cell_h w^2 / 2 * s_c`` at ``a`` and ``cell_h
        w^2 / 2 * (2 m cells - s_c)`` at ``b`` (``v`` likewise), so the
        bound costs a few float operations and no pass over the counts.
        The margin, 1e-9 (target mass + box area) (reach + width +
        height)^2 with ``reach`` the largest ``|coordinate|`` among the box
        sides and target breakpoints, covers the rounding of the bound and
        of the score (the scorer's quadratics carry coordinate^2 terms).
        """
        kx, ky, m2, n2, ua, ub, vc, vd, margin = self._corners
        u0 = kx * s_c - ua
        u1 = kx * (m2 * cells - s_c) - ub
        v0 = ky * s_r - vc
        v1 = ky * (n2 * cells - s_r) - vd
        if u0 > u1:
            u0, u1 = u1, u0
        if v0 > v1:
            v0, v1 = v1, v0
        return max(u1 + v1, -(u0 + v0)) - margin


def sup_norm_diff(E1: ConicEvaluator, E2: ConicEvaluator, box: Box) -> float:
    """Exact supremum of ``|f1 - f2|`` over the reference box.

    The difference separates into an x term and a y term, so the supremum
    over the product box is reached at an extremal pair: the larger of
    (max + max) and -(min + min), each found exactly on the piecewise
    quadratics (interval endpoints and interior vertices).
    """
    diff = _FieldDiff(E1.yprofile.breakpoints, E1.xprofile.breakpoints, E2, box)
    return float(diff.sup(E1.yprofile, E1.xprofile, (), ()))


def l1_norm_diff(E1: ConicEvaluator, E2: ConicEvaluator, box: Box, refine: int = 4) -> Bracket:
    """Bracketed integral of ``|f1 - f2|`` over the reference box.

    Composite midpoint quadrature on the merged breakpoint partition with
    each piece split ``refine`` times, plus a Lipschitz error bound from
    the exact slope ranges of the two separated terms.
    """
    refine = InvalidParameter.whole(refine, 1, f"refine must be a positive integer, got {refine}")
    diff = _FieldDiff(E1.yprofile.breakpoints, E1.xprofile.breakpoints, E2, box)
    one = np.zeros(1, dtype=np.intp)
    lower, upper = diff.l1(E1.yprofile, E1.xprofile, refine, one, one)
    return Bracket(float(lower[0]), float(upper[0]))


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


def _sample_field(E: ConicEvaluator, box: Box, px: int, py: int):
    """The ``px`` by ``py`` lattice over ``box`` and the field's values on it."""
    px, py = (InvalidParameter.whole(v, 2, "need at least a 2x2 sample lattice") for v in (px, py))
    TooLarge.raster(px, py)
    xs = np.linspace(box.a, box.b, px)
    ys = np.linspace(box.c, box.d, py)
    return xs, ys, E.evaluate_grid(xs, ys)


def field_to_csv(E: ConicEvaluator, box: Box, px: int, py: int) -> str:
    xs, ys, grid = _sample_field(E, box, px, py)
    y_reprs = list(map(repr, ys.tolist()))
    rows = ["x,y,f"]
    for x, column in zip(map(repr, xs.tolist()), grid.tolist()):
        rows += [f"{x},{y},{f!r}" for y, f in zip(y_reprs, column)]
    return "\n".join(rows) + "\n"


def field_to_pgm(E: ConicEvaluator, box: Box, px: int, py: int) -> str:
    """16-bit ASCII PGM of the sampled field, min-max normalized (one way)."""
    grid = _sample_field(E, box, px, py)[2]
    lo, hi = float(grid.min()), float(grid.max())
    span = hi - lo
    if span == 0.0:
        levels = np.zeros_like(grid, dtype=np.int64)
    else:
        levels = np.rint((grid - lo) / span * 65535).astype(np.int64)
    lines = ["P2", "{} {}".format(*grid.shape), "65535"]
    # top row of the image is the top of the box
    lines += [" ".join(map(str, row)) for row in levels.T[::-1].tolist()]
    return "\n".join(lines) + "\n"
