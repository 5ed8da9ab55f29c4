"""X-ray profiles, the conic distance field, norms and text exports.

The float evaluator is checked against two independent oracles: closed
forms for the unit cell worked out by hand, and an exact rational
evaluator that integrates |x - a| piecewise with Fractions.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hvconic as hv
from hvconic.conic import HORIZONTAL, VERTICAL, _FieldDiff, conic_value_exact
from hvconic.errors import (
    FormatError,
    GeometryMismatch,
    InvalidParameter,
    TooLarge,
    ZeroMass,
)

UNIT = hv.GridGeometry(hv.Box(0, 1, 0, 1), 1, 1)
GEO88 = hv.GridGeometry(hv.Box(0.0, 8.0, 0.0, 8.0), 8, 8)


def unit_field() -> hv.ConicEvaluator:
    return hv.conic_of(hv.GridSet.full(UNIT))


# ---------------------------------------------------------------------------
# profiles


def test_profile_validation():
    with pytest.raises(InvalidParameter):
        hv.XRayProfile("diagonal", [0, 1], [1.0])
    with pytest.raises(InvalidParameter):
        hv.XRayProfile(VERTICAL, [0, 0], [1.0])
    with pytest.raises(InvalidParameter):
        hv.XRayProfile(VERTICAL, [0, 1], [-0.5])
    with pytest.raises(InvalidParameter):
        hv.XRayProfile(VERTICAL, [0, 1, 2], [1.0])
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidParameter):
            hv.XRayProfile(VERTICAL, [0, 1], [bad])
        with pytest.raises(InvalidParameter):
            hv.XRayProfile(VERTICAL, [0, bad], [1.0])


def test_profile_mass_and_value_at():
    p = hv.XRayProfile(VERTICAL, [0.0, 1.0, 3.0], [2.0, 0.5])
    assert p.total_mass == pytest.approx(2.0 + 1.0)
    assert p.value_at(0.5) == 2.0
    assert p.value_at(2.0) == 0.5
    assert p.value_at(1.0) == 2.0  # max of the two adjacent plateaus
    assert p.value_at(0.0) == 2.0 and p.value_at(3.0) == 0.5
    assert p.value_at(-0.1) == 0.0 and p.value_at(3.1) == 0.0
    with pytest.raises(InvalidParameter):
        p.value_at(math.nan)
    assert p.scaled(2.0).total_mass == pytest.approx(6.0)


def test_profile_equality():
    p = hv.XRayProfile(VERTICAL, [0, 1, 2], [1.0, 2.0])
    q = hv.XRayProfile(VERTICAL, [0.0, 1.0, 2.0], [1.0, 2.0])
    assert p == q and hash(p) == hash(q)
    assert p != hv.XRayProfile(HORIZONTAL, [0, 1, 2], [1.0, 2.0])
    with pytest.raises(InvalidParameter):
        p.scaled(-1)


def test_profile_and_field_are_immutable_and_hashable():
    A = hv.conic_of(hv.sample_hv_convex(GEO88, 3))
    same = hv.conic_of(hv.sample_hv_convex(GEO88, 3))
    assert A == same and hash(A) == hash(same)
    assert A != hv.conic_of(hv.sample_hv_convex(GEO88, 4)) and A != A.yprofile
    for obj, name in ((A, "mass"), (A, "xprofile"), (A.yprofile, "values"), (A.yprofile, "axis")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)


def test_xray_of_grid_set():
    L = hv.GridSet.from_cells(GEO88, [(0, 0), (0, 1), (3, 2)])
    yp = hv.xray_v(L)
    xp = hv.xray_h(L)
    assert yp.axis == VERTICAL and xp.axis == HORIZONTAL
    assert yp.total_mass == pytest.approx(L.area())
    assert xp.total_mass == pytest.approx(L.area())
    assert list(yp.values[:4]) == [2.0, 0.0, 0.0, 1.0]


# ---------------------------------------------------------------------------
# field evaluation


def test_unit_cell_closed_forms():
    # f(x, y) = int_0^1 |x-a| da + int_0^1 |y-b| db, both terms elementary
    E = unit_field()
    assert E.evaluate(0.5, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert E.evaluate(2.0, 0.5) == pytest.approx(1.75, abs=1e-12)
    assert E.evaluate(0.0, 1.5) == pytest.approx(1.5, abs=1e-12)


def test_against_exact_rational_oracle():
    rng = np.random.default_rng(11)
    for seed in range(8):
        L = hv.sample_hv_convex(GEO88, [101, seed])
        E = hv.conic_of(L)
        for _ in range(12):
            x = Fraction(int(rng.integers(-40, 120)), 8)
            y = Fraction(int(rng.integers(-40, 120)), 8)
            exact = conic_value_exact(L, x, y)
            assert E.evaluate(float(x), float(y)) == pytest.approx(float(exact), rel=1e-12)


def test_evaluate_grid_matches_pointwise():
    E = hv.conic_of(hv.sample_hv_convex(GEO88, 3))
    xs = np.linspace(-1, 9, 7)
    ys = np.linspace(-1, 9, 5)
    grid = E.evaluate_grid(xs, ys)
    assert grid.shape == (7, 5)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert grid[i, j] == pytest.approx(E.evaluate(x, y), rel=1e-13)


def test_gradient_matches_central_differences():
    E = hv.conic_of(hv.sample_hv_convex(GEO88, 17))
    h = 1e-6
    for x, y in [(0.5, 0.5), (3.25, 4.75), (7.5, 1.5), (-2.0, 10.0)]:
        gx, gy = E.gradient(x, y)
        nx = (E.evaluate(x + h, y) - E.evaluate(x - h, y)) / (2 * h)
        ny = (E.evaluate(x, y + h) - E.evaluate(x, y - h)) / (2 * h)
        assert gx == pytest.approx(nx, abs=1e-5)
        assert gy == pytest.approx(ny, abs=1e-5)


def test_second_difference_recovers_section_measure():
    # the x part is smooth inside a cell with second derivative twice the
    # vertical section measure there
    L = hv.sample_hv_convex(GEO88, 23)
    E = hv.conic_of(L)
    h = 1e-4
    for i in range(8):
        x = 0.5 + float(i)
        dd = (E.evaluate(x + h, 0.5) - 2 * E.evaluate(x, 0.5) + E.evaluate(x - h, 0.5)) / h**2
        assert dd == pytest.approx(2.0 * E.yprofile.value_at(x), abs=1e-4)


def test_mass_agreement_enforced():
    yp = hv.XRayProfile(VERTICAL, [0, 1], [1.0])
    xp = hv.XRayProfile(HORIZONTAL, [0, 1], [2.0])
    with pytest.raises(InvalidParameter):
        hv.ConicEvaluator(yp, xp)
    with pytest.raises(InvalidParameter):
        hv.ConicEvaluator(xp, xp)
    with pytest.raises(ZeroMass):
        hv.ConicEvaluator(
            hv.XRayProfile(VERTICAL, [0, 1], [0.0]),
            hv.XRayProfile(HORIZONTAL, [0, 1], [0.0]),
        )


def test_weighted_divides_by_mass():
    L = hv.sample_hv_convex(GEO88, 29)
    E = hv.conic_of(L)
    W = E.weighted()
    assert W.mass == pytest.approx(1.0)
    assert W.evaluate(2.5, 3.5) == pytest.approx(E.evaluate(2.5, 3.5) / E.mass, rel=1e-12)


def test_xray_round_trip_through_field():
    for seed in range(6):
        L = hv.sample_hv_convex(GEO88, [37, seed])
        E = hv.conic_of(L)
        yp, xp = hv.xray_from_conic(E)
        assert np.allclose(yp.values, E.yprofile.values, rtol=1e-12, atol=1e-12)
        assert np.allclose(xp.values, E.xprofile.values, rtol=1e-12, atol=1e-12)
        assert yp.axis == VERTICAL and xp.axis == HORIZONTAL


# ---------------------------------------------------------------------------
# norms


def test_sup_norm_frozen_domino():
    geo = hv.GridGeometry(hv.Box(0, 2, 0, 1), 2, 1)
    domino = hv.GridSet.full(geo)
    cell = hv.GridSet.from_cells(geo, [(0, 0)])
    assert hv.sup_norm_diff(hv.conic_of(domino), hv.conic_of(cell), geo.box) == 2.0


def test_sup_norm_doubled_field():
    E = unit_field()
    D = hv.ConicEvaluator(E.yprofile.scaled(2.0), E.xprofile.scaled(2.0))
    # |f2 - f1| = f1, maximal at the box corners where f1 = 1
    assert hv.sup_norm_diff(D, E, UNIT.box) == pytest.approx(1.0, abs=1e-12)


def test_sup_norm_dominates_dense_lattice():
    A = hv.conic_of(hv.sample_hv_convex(GEO88, [43, 0]))
    B = hv.conic_of(hv.sample_hv_convex(GEO88, [43, 1]))
    sup = hv.sup_norm_diff(A, B, GEO88.box)
    xs = np.linspace(0, 8, 1001)
    ys = np.linspace(0, 8, 501)
    dense = float(np.abs(A.evaluate_grid(xs, ys) - B.evaluate_grid(xs, ys)).max())
    assert sup >= dense - 1e-12
    assert sup - dense < 0.05


def test_sup_norm_symmetry_and_zero():
    A = hv.conic_of(hv.sample_hv_convex(GEO88, 47))
    B = hv.conic_of(hv.sample_hv_convex(GEO88, 48))
    assert hv.sup_norm_diff(A, B, GEO88.box) == hv.sup_norm_diff(B, A, GEO88.box)
    assert hv.sup_norm_diff(A, A, GEO88.box) == 0.0


def test_l1_norm_contains_closed_form():
    # against the doubled field the difference is the field itself, whose
    # integral over the unit box is 2/3
    E = unit_field()
    D = hv.ConicEvaluator(E.yprofile.scaled(2.0), E.xprofile.scaled(2.0))
    for refine in (1, 2, 4, 8, 32):
        br = hv.l1_norm_diff(D, E, UNIT.box, refine=refine)
        assert br.contains(2.0 / 3.0)
    assert hv.l1_norm_diff(D, E, UNIT.box, refine=32).width < hv.l1_norm_diff(
        D, E, UNIT.box, refine=2
    ).width


def test_l1_norm_brackets_overlap_and_narrow():
    A = hv.conic_of(hv.sample_hv_convex(GEO88, [53, 0]))
    B = hv.conic_of(hv.sample_hv_convex(GEO88, [53, 1]))
    brackets = [hv.l1_norm_diff(A, B, GEO88.box, refine=r) for r in (2, 4, 8, 16)]
    for prev, cur in zip(brackets, brackets[1:]):
        assert cur.width <= prev.width
        assert cur.lower <= prev.upper and prev.lower <= cur.upper
    with pytest.raises(InvalidParameter):
        hv.l1_norm_diff(A, B, GEO88.box, refine=0)


def test_norms_refuse_overflow():
    # the l1 integral grows as side^5 and overflows from a side of about
    # 5.2e61; the sup norm of these 4x4 pairs overflows in its quadratics,
    # although every profile's mass and moment is finite
    for side, finite in ((1e60, True), (1e70, False)):
        geo = hv.GridGeometry(hv.Box(0, side, 0, side), 3, 3)
        A, B = (hv.conic_of(hv.sample_hv_convex(geo, s)) for s in (1, 2))
        if finite:
            assert math.isfinite(hv.l1_norm_diff(A, B, geo.box).upper)
        else:
            with pytest.raises(InvalidParameter, match="overflows"):
                hv.l1_norm_diff(A, B, geo.box)
    geo = hv.GridGeometry(hv.Box(-8e102, 8e102, 0, 8e102), 4, 4)
    A, B, C = (hv.conic_of(hv.sample_hv_convex(geo, s)) for s in (2, 3, 4))
    assert hv.sup_norm_diff(A, B, geo.box) == 1.52e308
    with pytest.raises(InvalidParameter, match="overflows"):
        hv.sup_norm_diff(A, C, geo.box)


def test_l1_quadrature_is_bounded():
    # on the unit box each axis has refine quadrature points: 4097**2 and
    # 600000**2 weights exceed 2**24, and so do 2**16 fields by 257 points
    E = unit_field()
    D = hv.ConicEvaluator(E.yprofile.scaled(2.0), E.xprofile.scaled(2.0))
    for refine in (4097, 200_000):
        with pytest.raises(TooLarge):
            hv.l1_norm_diff(D, E, UNIT.box, refine=refine)
    diff = _FieldDiff(UNIT.xlines(), UNIT.ylines(), E, UNIT.box)
    with pytest.raises(TooLarge):
        diff.l1_terms(0, diff.stack(0, np.ones((1 << 16, 1))), 257)
    w, terms, _ = diff.l1_terms(0, diff.stack(0, np.ones((4, 1))), 8)
    assert terms.shape == (4, 8) and w.sum() == 1.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_prop_norms_are_consistent(seed):
    A = hv.conic_of(hv.sample_hv_convex(GEO88, [59, seed, 0]))
    B = hv.conic_of(hv.sample_hv_convex(GEO88, [59, seed, 1]))
    sup = hv.sup_norm_diff(A, B, GEO88.box)
    l1 = hv.l1_norm_diff(A, B, GEO88.box)
    area = GEO88.box.width * GEO88.box.height
    assert l1.lower <= sup * area + 1e-9


def _sampled_field(box, m, n, seed, full=False):
    geo = hv.GridGeometry(hv.Box(*box), m, n)
    return hv.conic_of(hv.sample_hv_convex(geo, seed, require_full_box=full))


def _csv_field(vrows, hrows):
    def text(rows):
        return "t_lo,t_hi,value\n" + "".join(f"{a!r},{b!r},{v!r}\n" for a, b, v in rows)

    return hv.ConicEvaluator(hv.parse_profile_csv(text(vrows), VERTICAL),
                             hv.parse_profile_csv(text(hrows), HORIZONTAL))


# breakpoints off every grid; both profiles carry mass 0.82, and the
# horizontal one starts left of the unit box
OFF_GRID = ([(0.13, 0.23, 2.5), (0.23, 0.68, 0.6), (0.68, 0.98, 1.0)],
            [(-0.1, 0.3, 1.2), (0.3, 0.64, 1.0)])
UNIT_BOX = (0, 1, 0, 1)

# name -> (field 1, field 2, box)
NORM_PAIRS = {
    "same_grid": lambda: (_sampled_field((0, 4, 0, 4), 4, 4, 3),
                          _sampled_field((0, 4, 0, 4), 4, 4, 8), (0, 4, 0, 4)),
    "cross_res": lambda: (_sampled_field(UNIT_BOX, 5, 5, 11),
                          _sampled_field(UNIT_BOX, 7, 3, 12), UNIT_BOX),
    "weighted": lambda: (_sampled_field((0, 3, 0, 2), 6, 4, 21).weighted(),
                         _sampled_field((0, 3, 0, 2), 3, 8, 22, True).weighted(), (0, 3, 0, 2)),
    "csv_vs_grid": lambda: (_csv_field(*OFF_GRID), _sampled_field(UNIT_BOX, 4, 4, 5), UNIT_BOX),
    "csv_weighted": lambda: (_sampled_field(UNIT_BOX, 9, 6, 31).weighted(),
                             _csv_field(*OFF_GRID).weighted(), UNIT_BOX),
    "off_origin": lambda: (_sampled_field((-2.5, 1.5, 3, 4.25), 6, 5, 41),
                           _sampled_field((-2.5, 1.5, 3, 4.25), 4, 7, 42, True),
                           (-2.5, 1.5, 3, 4.25)),
    "box_0_9": lambda: (_sampled_field((0, 0.9, 0, 0.9), 7, 7, 51, True),
                        _sampled_field((0, 0.9, 0, 0.9), 3, 3, 52), (0, 0.9, 0, 0.9)),
    "aspect_100": lambda: (_sampled_field((0, 100, 0, 1), 10, 3, 61),
                           _sampled_field((0, 100, 0, 1), 7, 5, 62), (0, 100, 0, 1)),
    "identical": lambda: (_sampled_field((0, 2, 0, 2), 5, 5, 71),
                          _sampled_field((0, 2, 0, 2), 5, 5, 71), (0, 2, 0, 2)),
    "cell_vs_full": lambda: (
        hv.conic_of(hv.GridSet.from_cells(hv.GridGeometry(hv.Box(0, 3, 0, 3), 3, 3), [(1, 1)])),
        hv.conic_of(hv.GridSet.full(hv.GridGeometry(hv.Box(0, 3, 0, 3), 3, 3))), (0, 3, 0, 3)),
    "sub_box": lambda: (_sampled_field((0, 4, 0, 4), 8, 8, 81),
                        _sampled_field((0, 4, 0, 4), 5, 3, 82), (0.7, 3.1, 1.3, 2.2)),
    "wide_box": lambda: (_csv_field(*OFF_GRID), _sampled_field(UNIT_BOX, 3, 6, 91, True),
                         (-0.5, 1.5, -1.0, 2.0)),
}

# name -> (sup norm, l1 brackets (lower, upper) at refine 1, 4 and 7)
FROZEN_NORMS = {
    "same_grid": (1.0, [(6.0, 22.0), (11.375, 15.375), (12.204081632653061, 14.489795918367346)]),
    "cross_res": (0.14305668934240362, [(0.045826169960047534, 0.06571205701328153), (0.05339076861300077, 0.05836224037630928), (0.05445896302880317, 0.057299804036408025)]),
    "weighted": (0.843253968253968, [(1.9632936507936503, 3.8680555555555554), (2.6908724345858133, 3.1670629107762895), (2.793161269609884, 3.0652701131472995)]),
    "csv_vs_grid": (0.82785, [(0.3442571249999999, 0.4712731249999999), (0.39508113281249996, 0.4268351328124999), (0.4020289209183673, 0.42017406377551014)]),
    "csv_weighted": (0.4033047032083219, [(0.10357108191976987, 0.24129587967145105), (0.15480042020248763, 0.1892316196404079), (0.1621653469742811, 0.18184031808166412)]),
    "off_origin": (8.772463151927441, [(16.24679941421013, 20.95699202299968), (18.099514892762663, 19.27706304496005), (18.35572552028586, 19.028610178684367)]),
    "box_0_9": (0.2654344023323617, [(0.07024329446064148, 0.09930006247396925), (0.08146028477717626, 0.08872447678050821), (0.08303129622861233, 0.08718226308765914)]),
    "aspect_100": (441.2879818594109, [(17770.095238095262, 21163.921390778563), (19065.97637944069, 19914.432917611513), (19248.82996282416, 19733.662270350345)]),
    "identical": (0.0, [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0)]),
    "cell_vs_full": (24.0, [(108.0, 180.0), (138.75, 156.75), (142.77551020408163, 153.0612244897959)]),
    "sub_box": (7.381111111111111, [(4.225018055555557, 7.283790277777779), (5.416701504629629, 6.181394560185185), (5.582949112831074, 6.019916573148534)]),
    "wide_box": (1.0277574074074076, [(1.7645339160493825, 3.2789404049382718), (2.336138664197531, 2.7147402864197527), (2.4174338096245904, 2.6337775937515744)]),
}


@pytest.mark.parametrize("name", sorted(NORM_PAIRS))
def test_norms_frozen(name):
    E1, E2, box = NORM_PAIRS[name]()
    box = hv.Box(*box)
    sup, brackets = FROZEN_NORMS[name]
    assert repr(hv.sup_norm_diff(E1, E2, box)) == repr(sup)
    for refine, (lower, upper) in zip((1, 4, 7), brackets):
        br = hv.l1_norm_diff(E1, E2, box, refine=refine)
        assert (repr(br.lower), repr(br.upper)) == (repr(lower), repr(upper))


def test_field_values_frozen():
    # a lattice reaching past both ends of every profile, so the linear
    # tails are hit as well as the plateaus
    xs = np.linspace(-0.2, 1.2, 33)
    ys = np.linspace(-0.3, 1.1, 29)
    E1, E2, _ = NORM_PAIRS["csv_vs_grid"]()
    digests = []
    for E in (E1, E2):
        vals = np.concatenate([E.evaluate_grid(xs, ys).ravel(),
                               [E.evaluate(x, y) for x, y in zip(xs, ys)],
                               np.ravel([E.gradient(x, y) for x, y in zip(xs, ys)])])
        digests.append(hashlib.sha256(vals.tobytes()).hexdigest())
    assert digests == ["609d00b0e1cc86690612ca95944170dc3b70f51d8812f10b30c63669e9751b18",
                       "4f2fdd3c3b8149074264c9e51980a6c60adeceb3bc3be5944fcb29d369c0dfdc"]


# ---------------------------------------------------------------------------
# almost-everywhere X-ray equality


def test_xrays_equal_ae_cases():
    geo = hv.GridGeometry(hv.Box(0, 2, 0, 2), 2, 2)
    diag = hv.GridSet.from_cells(geo, [(0, 0), (1, 1)])
    anti = hv.GridSet.from_cells(geo, [(0, 1), (1, 0)])
    assert hv.xrays_equal_ae(diag, anti)
    assert not hv.xrays_equal_ae(diag, hv.GridSet.full(geo))
    assert hv.xrays_equal_ae(diag, diag.refined(3))
    other = hv.GridSet.full(hv.GridGeometry(hv.Box(0, 2, 0, 4), 2, 2))
    with pytest.raises(GeometryMismatch):
        hv.xrays_equal_ae(diag, other)


def test_xrays_equal_ae_cross_resolution():
    # same region encoded on 2x2 and on 6x6 grids over one box
    box = hv.Box(0, 2, 0, 2)
    coarse = hv.GridSet.from_cells(hv.GridGeometry(box, 2, 2), [(0, 0), (1, 0)])
    fine_cells = [(i, j) for i in range(6) for j in range(3)]
    fine = hv.GridSet.from_cells(hv.GridGeometry(box, 6, 6), fine_cells)
    assert hv.xrays_equal_ae(coarse, fine)
    fine_off = hv.GridSet.from_cells(hv.GridGeometry(box, 6, 6), fine_cells[:-1])
    assert not hv.xrays_equal_ae(coarse, fine_off)


# ---------------------------------------------------------------------------
# text exports


def test_profile_csv_round_trip():
    L = hv.sample_hv_convex(GEO88, 71)
    p = hv.xray_v(L)
    text = hv.profile_to_csv(p)
    assert text.splitlines()[0] == "t_lo,t_hi,value"
    assert "np.float64" not in text
    assert hv.parse_profile_csv(text, VERTICAL) == p


@pytest.mark.parametrize(
    "text,line",
    [
        ("t_lo,t_hi\n0,1,1\n", 1),
        ("t_lo,t_hi,value\n", 2),
        ("t_lo,t_hi,value\n0,1\n", 2),
        ("t_lo,t_hi,value\n0,1,1\n2,3,1\n", 3),  # gap between rows
        ("t_lo,t_hi,value\n0,one,1\n", 2),
    ],
)
def test_profile_csv_errors(text, line):
    with pytest.raises(FormatError) as err:
        hv.parse_profile_csv(text, VERTICAL)
    assert err.value.line == line


@pytest.mark.parametrize(
    "text",
    [
        "t_lo,t_hi,value\n0,1,inf\n",
        "t_lo,t_hi,value\n0,1,nan\n",
        "t_lo,t_hi,value\n0,1,1\n1,inf,1\n",
        "t_lo,t_hi,value\nnan,1,1\n",
        "t_lo,t_hi,value\n0,1e300,1e300\n",  # finite, but the mass overflows
    ],
)
def test_profile_csv_rejects_non_finite(text):
    with pytest.raises(FormatError):
        hv.parse_profile_csv(text, VERTICAL)


def test_field_csv():
    E = unit_field()
    text = hv.field_to_csv(E, UNIT.box, 3, 3)
    lines = text.splitlines()
    assert lines[0] == "x,y,f" and len(lines) == 10
    assert "np.float64" not in text
    x, y, f = (float(p) for p in lines[5].split(","))
    assert f == pytest.approx(E.evaluate(x, y), rel=1e-13)
    assert hv.field_to_csv(E, UNIT.box, 3.0, 3) == text
    assert hv.field_to_pgm(E, UNIT.box, 3.0, 3) == hv.field_to_pgm(E, UNIT.box, 3, 3)
    for px in (2.5, math.nan, math.inf):
        with pytest.raises(InvalidParameter):
            hv.field_to_csv(E, UNIT.box, px, 3)


# sha256 of the CSV and PGM exports, frozen from the per-sample writers
FROZEN_FIELD_SETS = {
    "sampled-8x8": lambda: hv.sample_hv_convex(GEO88, 5),
    "negative-5x4": lambda: hv.sample_hv_convex(
        hv.GridGeometry(hv.Box(-2.5, 1.0, -1.0, 0.9), 5, 4), 11),
    "one-cell": lambda: hv.GridSet.from_cells(
        hv.GridGeometry(hv.Box(1.5, 4.5, 0.0, 3.0), 3, 3), [(1, 2)]),
}
FROZEN_FIELD_EXPORTS = {
    ("sampled-8x8", 2, 5): ("b5bcd0e218fbe20a8b78febaf9da0bd0530f3769bfcd4b7f91af0ba90e1dd93c",
                            "67520a27c4701fcc7b5d69778dad43c7e05e87e444c8c87fb3cd77f53237bd1b"),
    ("sampled-8x8", 17, 9): ("3606b8a858460c463643b9ff148489d9c928c153102090ff5bc6fae64baec09b",
                             "9bd6fb87bfc2fd82fd657787aa8a30254af367c39b6d74b82b3f2510c4d18da5"),
    ("negative-5x4", 2, 5): ("cb4427f2d70c42c623b9839c6a1b11c50fa748e8c59bd0fed076b332bc1f4b3e",
                             "5b1691062c81ed8f785da171fbf5cd514e8b809ad63a66f0e7e9fefe31e8952a"),
    ("negative-5x4", 17, 9): ("e84f1754aa08f54c6da8e132fa0c5347c589dd37354074853cc962c7b028200a",
                              "67249d8af0d5d8bdd1547dee2b9556a8f683ea51c49a39b5656fe0880fc93e99"),
    ("one-cell", 2, 5): ("67af8f3c8ca412b61ad1bfae4c5e040d46737567d0bd7193f47df508c65d5960",
                         "20d7b6e7e4308b406c06c77106eb7d0c618d9a9c542bee5a97e85d8d7dcabc8e"),
    ("one-cell", 17, 9): ("cd545c59659d687f5e4fb97134e1713dc43615281917c53324778408b2a9ed81",
                          "fc517f4a6541cd9618d23815d66a6e382c1831ecd1d70d523af7e6f4568aaecd"),
}


@pytest.mark.parametrize("key", list(FROZEN_FIELD_EXPORTS), ids=lambda k: "-".join(map(str, k)))
def test_field_exports_frozen(key):
    name, px, py = key
    L = FROZEN_FIELD_SETS[name]()
    E = hv.conic_of(L)
    csv = hv.field_to_csv(E, L.geometry.box, px, py)
    pgm = hv.field_to_pgm(E, L.geometry.box, px, py)
    digests = tuple(hashlib.sha256(t.encode()).hexdigest() for t in (csv, pgm))
    assert digests == FROZEN_FIELD_EXPORTS[key]


def test_field_pgm():
    E = unit_field()
    text = hv.field_to_pgm(E, hv.Box(0, 1, 0, 2), 4, 5)
    lines = text.splitlines()
    assert lines[0] == "P2" and lines[1] == "4 5" and lines[2] == "65535"
    rows = [list(map(int, ln.split())) for ln in lines[3:]]
    assert len(rows) == 5 and all(len(r) == 4 for r in rows)
    flat = [v for r in rows for v in r]
    assert min(flat) == 0 and max(flat) == 65535
    # the box top (y = 2) is far from the unit mass, so the top-left entry
    # must be brighter than the bottom-left one
    assert rows[0][0] > rows[-1][0]
