"""Executable verifiers for the package's quantitative guarantees.

Each checker measures one inequality on concrete inputs and returns a
``CheckReport``.  Reports always take the sound side of any numeric
bracket: the measured quantity enters through its certified upper end, so
``holds`` can only be wrong in the pessimistic direction.  A checker
refuses (raises) when its hypotheses fail rather than reporting a
meaningless pass; ``reproduce_remark2`` is the one deliberate exception,
running the mismatched-box counterexample that the area inequality is
known to fail on.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .conic import conic_of, sup_norm_diff
from .errors import GeometryMismatch, InvalidParameter, PreconditionViolated, TooLarge
from .grid import (
    Box,
    GridGeometry,
    GridSet,
    combine,
    dilate,
    format_hvset,
    in_level_set,
    in_sublevel_set,
    is_connected,
    is_hv_convex,
    min_cover,
    xrays_equal_ae,
)
from .metrics import Polyline, format_polyline, hausdorff, tube_area

__all__ = [
    "CheckReport",
    "check_concavity",
    "check_area_superadditivity",
    "reproduce_remark2",
    "check_dilation_bound",
    "check_stability_bound",
    "check_convergence",
    "check_polyline_bound",
]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one inequality check.

    ``margin`` is bound minus measured (measured taken at its certified
    upper end), ``bracket_error`` the width of that certification.  The
    verdict is ``holds = margin >= -bracket_error``: a genuine violation
    always yields False, a pass within numeric slack never turns into a
    spurious failure.
    """

    name: str
    holds: bool
    margin: float
    bracket_error: float = 0.0
    witness: dict | None = None
    inputs_digest: str = ""

    def __post_init__(self):
        if self.holds != (self.margin >= -self.bracket_error):
            raise InvalidParameter("holds must equal margin >= -bracket_error")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "holds": self.holds,
            "margin": self.margin,
            "bracket_error": self.bracket_error,
            "witness": self.witness,
            "inputs_digest": self.inputs_digest,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def _verdict(name, margin, bracket_error, witness, digest):
    return CheckReport(
        name=name,
        holds=bool(margin >= -bracket_error),
        margin=float(margin),
        bracket_error=float(bracket_error),
        witness=witness,
        inputs_digest=digest,
    )


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, GridSet):
            h.update(format_hvset(part).encode())
        elif isinstance(part, Polyline):
            h.update(format_polyline(part).encode())
        else:
            h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()[:12]


def _require_level_pair(L1: GridSet, L2: GridSet):
    box = L1.geometry.box
    if L2.geometry.box != box:
        raise GeometryMismatch("operands must share the reference box")
    if not (in_level_set(L1, box) and in_level_set(L2, box)):
        raise PreconditionViolated(
            "both sets must project onto the full reference box sides"
        )


# ---------------------------------------------------------------------------
# concavity of the conic field along the exact rational combination


def _abs_moment_doubled(X: np.ndarray, T0: np.ndarray, T1: np.ndarray) -> np.ndarray:
    """``2 * integral of |X - s| ds`` over ``[T0, T1]``, all int64, exact."""
    lo = X - T0
    hi = X - T1  # X - right end
    inside = (lo >= 0) & (hi <= 0)
    left = lo < 0
    out = lo * lo - hi * hi  # X right of the interval
    out = np.where(left, hi * hi - lo * lo, out)
    return np.where(inside, lo * lo + hi * hi, out)


def _axis_f_margins(
    deficits: np.ndarray,
    q: int,
    nsamples: int,
    span: float,
    line_scale: float,
) -> np.ndarray:
    """Exact margins of the x (or y) part of the mixture inequality, from
    the integer count deficits of the combination's lines.

    Everything is mapped to the integer lattice with D = lcm(nsamples-1,
    len(deficits)) ticks across the span, where both the sample points
    and every profile breakpoint are integers.  The doubled absolute
    moments are then integers too, so each margin is an exact integer
    times a fixed positive scale.
    """
    r = len(deficits)
    D = math.lcm(nsamples - 1, r)
    ticks = D // r
    T0 = np.arange(r, dtype=np.int64) * ticks
    T1 = T0 + ticks
    X = (np.arange(nsamples, dtype=np.int64) * (D // (nsamples - 1)))[:, None]
    dbl = _abs_moment_doubled(X, T0[None, :], T1[None, :])
    sums = dbl @ deficits  # per sample point, integer
    tau = span / D
    scale = line_scale * tau * tau / (2.0 * q)
    return sums.astype(float) * scale


def check_concavity(L1: GridSet, L2: GridSet, t, samples=(33, 33)) -> CheckReport:
    """Mixture concavity: section measures and field values of the exact
    rational combination dominate the corresponding mixtures.

    Section inequalities are decided in pure cell-count arithmetic on the
    refined grid; the field inequality is evaluated on a ``samples`` lattice
    over the reference box, also exactly (integer-scaled lattice).  Raises
    ``PreconditionViolated`` unless both sets project onto the full box.
    """
    _require_level_pair(L1, L2)
    px, py = (InvalidParameter.whole(v, 2, "need at least a 2x2 sample lattice") for v in samples)
    frac = InvalidParameter.weight(t)
    p, q = frac.numerator, frac.denominator
    g = L1.geometry
    # the exact lattices below: every sample point against every refined line
    TooLarge.raster(px, g.m * q)
    TooLarge.raster(py, g.n * q)
    comb = combine(L1, L2, frac)
    col_def, row_def = (
        counts(comb) - p * np.repeat(counts(L1), q) - (q - p) * np.repeat(counts(L2), q)
        for counts in (GridSet.col_counts, GridSet.row_counts)
    )
    xray_margin = min(
        int(col_def.min()) * g.box.height / (g.n * q),
        int(row_def.min()) * g.box.width / (g.m * q),
    )

    ux = _axis_f_margins(col_def, q, px, g.box.width, g.cell_h)
    vy = _axis_f_margins(row_def, q, py, g.box.height, g.cell_w)
    f_margin = float(ux.min() + vy.min())

    margin = min(xray_margin, f_margin)
    witness = {
        "t": f"{p}/{q}",
        "xray_margin": xray_margin,
        "f_margin": f_margin,
        "worst_sample": [
            float(np.linspace(g.box.a, g.box.b, px)[int(np.argmin(ux))]),
            float(np.linspace(g.box.c, g.box.d, py)[int(np.argmin(vy))]),
        ],
    }
    return _verdict("concavity", margin, 0.0, witness, _digest(L1, L2, frac, (px, py)))


# ---------------------------------------------------------------------------
# area superadditivity of the combination


def _area_margin(L1: GridSet, L2: GridSet, frac: Fraction):
    p, q = frac.numerator, frac.denominator
    comb = combine(L1, L2, frac)
    cell = L1.geometry.cell_w * L1.geometry.cell_h
    deficit = comb.count - q * (p * L1.count + (q - p) * L2.count)
    return comb, deficit * cell / (q * q)


def check_area_superadditivity(L1: GridSet, L2: GridSet, t) -> CheckReport:
    """Area of the combination dominates the area mixture (exact counts)."""
    _require_level_pair(L1, L2)
    frac = InvalidParameter.weight(t)
    comb, margin = _area_margin(L1, L2, frac)
    witness = {
        "area_combined": comb.area(),
        "area_mixture": comb.area() - margin,
    }
    return _verdict("superadd", margin, 0.0, witness, _digest(L1, L2, frac))


def reproduce_remark2() -> CheckReport:
    """Run the known mismatched-box counterexample to area superadditivity.

    A full 3x3 block and its single center cell (boxes [-3,3]^2 vs
    [-1,1]^2) mixed at one half produce [-2,2]^2: area 16 against the
    mixture value 20.  The report must come back ``holds = False``; a pass
    here means the combination operator is broken.
    """
    geo = GridGeometry(Box(-3.0, 3.0, -3.0, 3.0), 3, 3)
    L1 = GridSet.full(geo)
    L2 = GridSet.from_cells(geo, [(1, 1)])
    frac = Fraction(1, 2)
    comb, margin = _area_margin(L1, L2, frac)
    witness = {
        "area_combined": comb.area(),
        "area_mixture": comb.area() - margin,
        "combined_bounding_box": list(comb.bounding_box().as_tuple()),
    }
    return _verdict("remark2", margin, 0.0, witness, _digest(L1, L2, frac))


# ---------------------------------------------------------------------------
# dilation area growth


def check_dilation_bound(L: GridSet, eps: float, refine: int = 8) -> CheckReport:
    """Growth of area under eps-dilation is at most twice perimeter times eps.

    The perimeter is that of L's own bounding box.  The dilated area is
    only known inside a raster bracket, so the measured excess enters at
    its upper end and the bracket width is reported.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise PreconditionViolated("eps must be finite and positive")
    if not (is_hv_convex(L) and is_connected(L)):
        raise PreconditionViolated("set must be hv-convex and connected")
    k = L.bounding_box().perimeter()
    inner, outer = dilate(L, eps, refine=refine)
    excess_up = outer.area() - L.area()
    excess_lo = max(0.0, inner.area() - L.area())
    be = excess_up - excess_lo
    margin = 2.0 * k * eps - excess_up
    witness = {
        "k": k,
        "eps": eps,
        "excess_bracket": [excess_lo, excess_up],
    }
    return _verdict("dilation", margin, be, witness, _digest(L, eps, refine))


# ---------------------------------------------------------------------------
# stability of the field under set perturbation


def check_stability_bound(K: GridSet, L: GridSet, subsamples: int = 4) -> CheckReport:
    """Sup distance of the two fields against the quadratic Hausdorff bound.

    measured is exact; the Hausdorff radius enters through its bracket's
    upper end, which can only enlarge the bound (reported as such, with
    zero residual slack on the comparison itself).
    """
    box = K.geometry.box
    if L.geometry.box != box:
        raise GeometryMismatch("operands must share the reference box")
    for S in (K, L):
        if not (is_hv_convex(S) and is_connected(S) and in_sublevel_set(S, box)):
            raise PreconditionViolated("sets must be hv-convex, connected, inside the box")
    k = box.perimeter()
    r = hausdorff(K, L, subsamples=subsamples).upper
    measured = sup_norm_diff(conic_of(K), conic_of(L), box)
    bound = (k / 2.0 + 2.0 * r) * 2.0 * k * r
    witness = {"k": k, "r_upper": r, "measured": measured, "bound": bound}
    return _verdict("stability", bound - measured, 0.0, witness, _digest(K, L, int(subsamples)))


# ---------------------------------------------------------------------------
# convergence of grid covers


def check_convergence(
    L: GridSet, resolutions, subsamples: int = 4
) -> CheckReport:
    """Minimal covers along a refining resolution ladder behave as promised.

    Per step n: the cover keeps hv-convexity and connectivity, the
    Hausdorff upper brackets never increase, and the exact sup distance of
    the fields stays inside the quadratic envelope driven by that upper
    bracket.  margin is the smallest slack over all step conditions (minus
    infinity if a cover loses a predicate, which no valid cover should).
    """
    if not (is_hv_convex(L) and is_connected(L)):
        raise PreconditionViolated("set must be hv-convex and connected")
    res = list(resolutions)
    if not res:
        raise PreconditionViolated("need at least one resolution")
    box = L.geometry.box
    prev = None
    for geo in res:
        if geo.box != box:
            raise GeometryMismatch("resolutions must share the reference box")
        if prev is not None:
            finer = geo.m % prev.m == 0 and geo.n % prev.n == 0
            if not finer or geo.m * geo.n <= prev.m * prev.n:
                raise PreconditionViolated("resolutions must be strictly refining")
        prev = geo

    k = box.perimeter()
    EL = conic_of(L)
    h_uppers, sups, envelopes, margins = [], [], [], []
    bad_predicate = None
    for idx, geo in enumerate(res):
        Ln = min_cover(L, geo)
        if not (is_hv_convex(Ln) and is_connected(Ln)):
            bad_predicate = idx
            break
        r = hausdorff(Ln, L, subsamples=subsamples).upper
        # covers with the same section measures a.e. have the same field,
        # decided in integer counts so representation noise cannot leak in
        sup = 0.0 if xrays_equal_ae(Ln, L) else sup_norm_diff(conic_of(Ln), EL, box)
        env = (k / 2.0 + 2.0 * r) * 2.0 * k * r
        h_uppers.append(r)
        sups.append(sup)
        envelopes.append(env)
        margins.append(env - sup)
    for a, b in zip(h_uppers, h_uppers[1:]):
        margins.append(a - b)

    witness = {
        "hausdorff_upper": h_uppers,
        "sup_norm": sups,
        "envelope": envelopes,
    }
    if bad_predicate is not None:
        witness["failed_predicate_at"] = bad_predicate
        margin = -math.inf
    else:
        margin = min(margins)
    return _verdict("convergence", margin, 0.0, witness,
                    _digest(L, [(g.m, g.n) for g in res], int(subsamples)))


# ---------------------------------------------------------------------------
# tube area of a polygonal chain


def check_polyline_bound(P: Polyline, eps: float, refine: int = 64) -> CheckReport:
    """Tube area against twice length times eps (plus a cap term when open).

    The tube area is known only inside a raster bracket; its upper end is
    compared and the bracket width reported.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise PreconditionViolated("eps must be finite and positive")
    tube = tube_area(P, eps, refine=refine)
    length = P.length
    bound = 2.0 * length * eps + (0.0 if P.closed else math.pi * eps * eps)
    margin = bound - tube.upper
    witness = {
        "length": length,
        "closed": P.closed,
        "bound": bound,
        "tube_bracket": [tube.lower, tube.upper],
    }
    return _verdict("polyline", margin, tube.width, witness, _digest(P, eps, refine))
