"""Inequality checkers and their report contract."""

import json
import math

import pytest

import hvconic as hv
from hvconic import checks
from hvconic.errors import (
    GeometryMismatch,
    InvalidParameter,
    PreconditionViolated,
    TooLarge,
)

GEO44 = hv.GridGeometry(hv.Box(0.0, 4.0, 0.0, 4.0), 4, 4)
GEO88 = hv.GridGeometry(hv.Box(0.0, 8.0, 0.0, 8.0), 8, 8)


def level_pair(seed):
    L1 = hv.sample_hv_convex(GEO88, [201, seed, 0], require_full_box=True)
    L2 = hv.sample_hv_convex(GEO88, [201, seed, 1], require_full_box=True)
    return L1, L2


# ---------------------------------------------------------------------------
# report contract


def test_report_invariant_enforced():
    r = hv.CheckReport("demo", True, 0.5)
    assert r.holds and r.bracket_error == 0.0
    with pytest.raises(InvalidParameter):
        hv.CheckReport("demo", True, -1.0)
    with pytest.raises(InvalidParameter):
        hv.CheckReport("demo", False, 1.0)
    # a genuine violation deeper than the numeric slack must read False
    assert not hv.CheckReport("demo", False, -2.0, bracket_error=1.0).holds
    assert hv.CheckReport("demo", True, -0.5, bracket_error=1.0).holds


def test_report_serialization():
    r = hv.CheckReport("demo", True, 0.25, witness={"k": 1}, inputs_digest="abc")
    data = json.loads(r.to_json())
    assert data == {
        "name": "demo",
        "holds": True,
        "margin": 0.25,
        "bracket_error": 0.0,
        "witness": {"k": 1},
        "inputs_digest": "abc",
    }
    assert list(data) == sorted(data)


# ---------------------------------------------------------------------------
# concavity


def test_concavity_identical_sets_margin_zero():
    L = hv.sample_hv_convex(GEO88, 301, require_full_box=True)
    for t in ("1/2", "1/3", "3/4"):
        rep = hv.check_concavity(L, L, t)
        assert rep.holds and rep.margin == 0.0 and rep.bracket_error == 0.0


def test_concavity_endpoints():
    L1, L2 = level_pair(0)
    assert hv.check_concavity(L1, L2, 1).margin == 0.0
    assert hv.check_concavity(L1, L2, 0).margin == 0.0


def test_concavity_random_batch():
    for seed in range(30):
        L1, L2 = level_pair(seed)
        for t in ("1/2", "1/3", "2/3"):
            rep = hv.check_concavity(L1, L2, t)
            assert rep.holds, (seed, t, rep.margin)
            assert rep.margin >= 0.0
            assert rep.witness["t"] == t
            assert rep.witness["xray_margin"] >= 0.0
            assert rep.witness["f_margin"] >= 0.0
            assert len(rep.witness["worst_sample"]) == 2


def test_concavity_lattice_is_bounded():
    # at t = 1/2 an 8x8 pair has 16 refined lines a side: 2**20 + 1 samples
    # against them exceed 2**24 lattice points, refused before allocation
    L1, L2 = (hv.sample_hv_convex(GEO88, s, require_full_box=True) for s in (1, 2))
    for samples in ((2**20 + 1, 3), (3, 2**20 + 1), (2**60, 3)):
        with pytest.raises(TooLarge):
            hv.check_concavity(L1, L2, "1/2", samples=samples)


def test_concavity_preconditions():
    L1 = hv.sample_hv_convex(GEO88, 1, require_full_box=True)
    small = hv.GridSet.from_cells(GEO88, [(3, 3)])
    with pytest.raises(PreconditionViolated):
        hv.check_concavity(L1, small, "1/2")
    other = hv.GridSet.full(hv.GridGeometry(hv.Box(0, 8, 0, 9), 8, 8))
    with pytest.raises(GeometryMismatch):
        hv.check_concavity(L1, other, "1/2")
    L2 = hv.sample_hv_convex(GEO88, 2, require_full_box=True)
    assert hv.check_concavity(L1, L2, "1/2", samples=(3.0, 3)) == hv.check_concavity(
        L1, L2, "1/2", samples=(3, 3))
    for samples in ((1, 5), (2.5, 33), (33, math.nan), (math.inf, 33)):
        with pytest.raises(InvalidParameter):
            hv.check_concavity(L1, L1, "1/2", samples=samples)
    with pytest.raises(InvalidParameter):
        hv.check_concavity(L1, L1, "2/3000")  # denominator over the guard
    for t in ((1, 0), math.nan, "abc", ("a", 2), math.inf, (1.5, 2), (1, 2.5)):
        for check in (hv.check_concavity, hv.check_area_superadditivity):
            with pytest.raises(InvalidParameter):
                check(L1, L2, t)


# ---------------------------------------------------------------------------
# area superadditivity


def test_superadd_rectangle_with_itself_is_tight():
    # the half-half mixture of a rectangle with itself is that rectangle;
    # staircase shapes genuinely grow instead, so only margin >= 0 holds
    F = hv.GridSet.full(GEO88)
    rep = hv.check_area_superadditivity(F, F, "1/2")
    assert rep.holds and rep.margin == 0.0
    assert rep.witness["area_combined"] == pytest.approx(F.area())
    L = hv.sample_hv_convex(GEO88, 11, require_full_box=True)
    rep2 = hv.check_area_superadditivity(L, L, "1/2")
    assert rep2.holds and rep2.margin >= 0.0


def test_superadd_random_batch():
    for seed in range(30):
        L1, L2 = level_pair(seed)
        rep = hv.check_area_superadditivity(L1, L2, "1/2")
        assert rep.holds
        mix = 0.5 * L1.area() + 0.5 * L2.area()
        assert rep.witness["area_mixture"] == pytest.approx(mix)
        assert rep.witness["area_combined"] >= mix - 1e-9


def test_remark2_counterexample():
    rep = hv.reproduce_remark2()
    assert rep.name == "remark2"
    assert not rep.holds
    assert rep.margin == -4.0
    assert rep.bracket_error == 0.0
    assert rep.witness["area_combined"] == 16.0
    assert rep.witness["area_mixture"] == 20.0
    assert rep.witness["combined_bounding_box"] == [-2.0, 2.0, -2.0, 2.0]


# ---------------------------------------------------------------------------
# dilation


def test_dilation_bound_full_rectangle():
    # for the full box the excess is k*eps + pi*eps^2 < 2*k*eps exactly
    F = hv.GridSet.full(GEO44)
    margins = []
    for eps in (0.8, 0.4, 0.2):
        rep = hv.check_dilation_bound(F, eps, refine=8)
        assert rep.holds
        lo, up = rep.witness["excess_bracket"]
        assert lo <= 16.0 * eps + math.pi * eps * eps <= up
        margins.append(rep.margin)
    assert margins[0] > margins[1] > margins[2] > 0.0


def test_dilation_bound_random_batch():
    for seed in range(15):
        L = hv.sample_hv_convex(GEO88, [77, seed])
        rep = hv.check_dilation_bound(L, 0.5, refine=4)
        assert rep.holds
        assert rep.bracket_error >= 0.0


def test_dilation_bound_fails_outside_its_regime():
    # the area-growth bound needs pi*eps <= bounding-box perimeter; a lone
    # cell (perimeter 4) at eps = 2 genuinely exceeds it and the checker
    # must say so rather than mask it
    lone = hv.GridSet.from_cells(GEO88, [(3, 3)])
    rep = hv.check_dilation_bound(lone, 2.0, refine=8)
    assert not rep.holds
    assert rep.margin < -rep.bracket_error
    lo, _up = rep.witness["excess_bracket"]
    assert lo > 2.0 * 4.0 * 2.0  # even the certified lower end exceeds 2*k*eps


def test_dilation_preconditions():
    gap = hv.GridSet.from_cells(GEO44, [(1, 0), (1, 2)])
    with pytest.raises(PreconditionViolated):
        hv.check_dilation_bound(gap, 0.5)
    with pytest.raises(PreconditionViolated):
        hv.check_dilation_bound(hv.GridSet.full(GEO44), 0.0)


# ---------------------------------------------------------------------------
# stability


def test_stability_equal_sets_all_zero():
    L = hv.sample_hv_convex(GEO88, 5)
    rep = hv.check_stability_bound(L, L)
    assert rep.holds and rep.margin == 0.0
    assert rep.witness["r_upper"] == 0.0 and rep.witness["measured"] == 0.0


def test_stability_unit_cell_vs_full():
    geo = hv.GridGeometry(hv.Box(0, 2, 0, 2), 2, 2)
    K = hv.GridSet.full(geo)
    L = hv.GridSet.from_cells(geo, [(0, 0)])
    rep = hv.check_stability_bound(K, L)
    # field gap at the far corner: 8 - 3 = 5; the quadratic bound uses
    # k = 8 and r >= sqrt(2), far above it
    assert rep.witness["measured"] >= 5.0
    assert rep.witness["k"] == 8.0
    assert rep.witness["r_upper"] >= math.sqrt(2.0)
    assert rep.holds


def test_stability_random_batch():
    for seed in range(25):
        K = hv.sample_hv_convex(GEO88, [88, seed, 0])
        L = hv.sample_hv_convex(GEO88, [88, seed, 1])
        rep = hv.check_stability_bound(K, L)
        assert rep.holds
        assert rep.witness["bound"] - rep.witness["measured"] == pytest.approx(rep.margin)


def test_stability_preconditions():
    K = hv.GridSet.full(GEO88)
    other = hv.GridSet.full(hv.GridGeometry(hv.Box(0, 8, 0, 7), 8, 7))
    with pytest.raises(GeometryMismatch):
        hv.check_stability_bound(K, other)
    gap = hv.GridSet.from_cells(GEO88, [(0, 0), (0, 2)])
    with pytest.raises(PreconditionViolated):
        hv.check_stability_bound(K, gap)


# ---------------------------------------------------------------------------
# convergence


def test_convergence_own_grid_is_exact():
    L = hv.sample_hv_convex(GEO88, 21)
    rep = hv.check_convergence(L, [GEO88])
    assert rep.holds and rep.margin == 0.0
    assert rep.witness["hausdorff_upper"] == [0.0]
    assert rep.witness["sup_norm"] == [0.0]


def test_convergence_ladder():
    L = hv.sample_hv_convex(GEO88, 25)
    ladder = [hv.GridGeometry(GEO88.box, d, d) for d in (1, 2, 4, 8)]
    rep = hv.check_convergence(L, ladder)
    assert rep.holds
    hs = rep.witness["hausdorff_upper"]
    assert all(a >= b for a, b in zip(hs, hs[1:]))
    assert rep.witness["sup_norm"][-1] == 0.0
    for s, e in zip(rep.witness["sup_norm"], rep.witness["envelope"]):
        assert s <= e


def test_convergence_single_coarse_cell():
    L = hv.sample_hv_convex(GEO88, 31, require_full_box=True)
    rep = hv.check_convergence(L, [hv.GridGeometry(GEO88.box, 1, 1)])
    assert rep.holds


def test_convergence_lost_predicate_fails_with_minus_inf(monkeypatch):
    # no valid cover loses a predicate, so a stand-in min_cover returns a
    # disconnected one; the report names the first step that lost it
    L = hv.sample_hv_convex(GEO88, 25)
    coarse = hv.GridGeometry(GEO88.box, 4, 4)
    gap = hv.GridSet.from_cells(coarse, [(0, 0), (0, 2)])
    monkeypatch.setattr(checks, "min_cover", lambda L, geo: gap)
    rep = hv.check_convergence(L, [coarse, GEO88])
    assert rep.margin == -math.inf and rep.holds is False
    assert rep.witness["failed_predicate_at"] == 0


def test_convergence_preconditions():
    L = hv.sample_hv_convex(GEO88, 2)
    with pytest.raises(PreconditionViolated):
        hv.check_convergence(L, [])
    with pytest.raises(PreconditionViolated):
        hv.check_convergence(
            L, [hv.GridGeometry(GEO88.box, 4, 4), hv.GridGeometry(GEO88.box, 6, 6)]
        )
    with pytest.raises(PreconditionViolated):
        hv.check_convergence(
            L, [hv.GridGeometry(GEO88.box, 4, 4), hv.GridGeometry(GEO88.box, 4, 4)]
        )
    with pytest.raises(GeometryMismatch):
        hv.check_convergence(L, [hv.GridGeometry(hv.Box(0, 8, 0, 9), 4, 4)])
    gap = hv.GridSet.from_cells(GEO88, [(0, 0), (0, 2)])
    with pytest.raises(PreconditionViolated):
        hv.check_convergence(gap, [GEO88])


# ---------------------------------------------------------------------------
# polyline tube bound


def test_polyline_bound_segment():
    # stadium area 2*eps*len + pi*eps^2 meets the open-chain bound exactly,
    # so the margin sits inside the raster bracket error
    seg = hv.Polyline([(0, 0), (3, 0)])
    rep = hv.check_polyline_bound(seg, 0.5, refine=32)
    assert rep.holds
    assert abs(rep.margin) <= rep.bracket_error
    assert rep.witness["bound"] == pytest.approx(3.0 + math.pi * 0.25)


def test_polyline_bound_closed_square():
    sq = hv.Polyline([(0, 0), (1, 0), (1, 1), (0, 1)], closed=True)
    rep = hv.check_polyline_bound(sq, 0.1, refine=64)
    assert rep.holds
    assert rep.witness["bound"] == pytest.approx(0.8)
    # frozen raster bracket from the metrics suite
    assert rep.margin == pytest.approx(0.8 - 0.7977246093750, abs=1e-12)


def test_polyline_bound_zigzag():
    zig = hv.Polyline([(0, 0), (1, 1), (2, 0), (3, 1)])
    rep = hv.check_polyline_bound(zig, 0.25, refine=32)
    assert rep.holds
    assert rep.witness["length"] == pytest.approx(3 * math.sqrt(2.0))
    with pytest.raises(PreconditionViolated):
        hv.check_polyline_bound(zig, 0.0)


# ---------------------------------------------------------------------------
# digests


def test_digests_distinguish_inputs():
    L1, L2 = level_pair(3)
    a = hv.check_concavity(L1, L2, "1/2").inputs_digest
    b = hv.check_concavity(L1, L2, "1/3").inputs_digest
    c = hv.check_concavity(L2, L1, "1/2").inputs_digest
    assert a and len(a) == 12
    assert len({a, b, c}) == 3
    assert hv.check_concavity(L1, L2, "1/2").inputs_digest == a
