"""X-ray profiles, the conic distance field, norms and text exports.

The float evaluator is checked against two independent oracles: closed
forms for the unit cell worked out by hand, and an exact rational
evaluator that integrates |x - a| piecewise with Fractions.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hvconic as hv
from hvconic.conic import HORIZONTAL, VERTICAL, conic_value_exact
from hvconic.errors import (
    FormatError,
    GeometryMismatch,
    InvalidParameter,
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
    assert p.scaled(2.0).total_mass == pytest.approx(6.0)


def test_profile_equality():
    p = hv.XRayProfile(VERTICAL, [0, 1, 2], [1.0, 2.0])
    q = hv.XRayProfile(VERTICAL, [0.0, 1.0, 2.0], [1.0, 2.0])
    assert p == q and hash(p) == hash(q)
    assert p != hv.XRayProfile(HORIZONTAL, [0, 1, 2], [1.0, 2.0])


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


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_prop_norms_are_consistent(seed):
    A = hv.conic_of(hv.sample_hv_convex(GEO88, [59, seed, 0]))
    B = hv.conic_of(hv.sample_hv_convex(GEO88, [59, seed, 1]))
    sup = hv.sup_norm_diff(A, B, GEO88.box)
    l1 = hv.l1_norm_diff(A, B, GEO88.box)
    area = GEO88.box.width * GEO88.box.height
    assert l1.lower <= sup * area + 1e-9


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
