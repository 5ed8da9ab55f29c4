"""Grid-set construction, predicates, combination, dilation and covers.

Reference implementations used as oracles live at the top of the file and
are deliberately written in plain sets-and-loops style, independent of the
vectorized code under test.
"""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hvconic as hv
from hvconic.errors import (
    CoverageError,
    EmptySet,
    FormatError,
    GeometryMismatch,
    InvalidParameter,
    TooLarge,
)
from hvconic.grid import _family, _search


# ---------------------------------------------------------------------------
# oracles


def ref_hv_convex(occ: set, m: int, n: int) -> bool:
    """Row/column runs contiguous, runs of adjacent non-empty lines touch."""

    def line_runs(lines):
        prev = None
        for line in lines:
            if not line:
                prev = None
                continue
            lo, hi = min(line), max(line)
            if len(line) != hi - lo + 1:
                return False
            if prev is not None and (lo > prev[1] + 1 or prev[0] > hi + 1):
                return False
            prev = (lo, hi)
        return True

    cols = [sorted(j for i, j in occ if i == ii) for ii in range(m)]
    rows = [sorted(i for i, j in occ if j == jj) for jj in range(n)]
    return line_runs(cols) and line_runs(rows)


def ref_connected(occ: set) -> bool:
    if not occ:
        return False
    seen = {next(iter(occ))}
    frontier = list(seen)
    while frontier:
        i, j = frontier.pop()
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                nb = (i + di, j + dj)
                if nb in occ and nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
    return seen == occ


def ref_overlaps(m: int, p: int) -> np.ndarray:
    """``[i, k]``: cell ``i`` of a side cut into ``m`` and cell ``k`` of it
    cut into ``p`` overlap with positive length, on ``Fraction`` cell ends."""
    return np.array([[Fraction(i, m) < Fraction(k + 1, p) and Fraction(k, p) < Fraction(i + 1, m)
                      for k in range(p)] for i in range(m)])


def ref_steps_equal(c1, n1: int, c2, n2: int) -> bool:
    """Two piecewise-constant count functions on one side, walked along
    their merged cell ends: counts scaled by the other grid's cells across
    agree on every positively overlapping index pair."""
    m1, m2 = len(c1), len(c2)
    i1 = i2 = 0
    while i1 < m1 and i2 < m2:
        if int(c1[i1]) * n2 != int(c2[i2]) * n1:
            return False
        # advance the cell that ends first; ends at (i+1)/m in side units
        e1 = (i1 + 1) * m2
        e2 = (i2 + 1) * m1
        if e1 <= e2:
            i1 += 1
        if e2 <= e1:
            i2 += 1
    return True


def all_subsets_2x2():
    geo = hv.GridGeometry(hv.Box(0, 2, 0, 2), 2, 2)
    cells = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for r in range(1, 5):
        for combo in itertools.combinations(cells, r):
            yield hv.GridSet.from_cells(geo, combo)


GEO44 = hv.GridGeometry(hv.Box(0.0, 4.0, 0.0, 4.0), 4, 4)
GEO88 = hv.GridGeometry(hv.Box(0.0, 8.0, 0.0, 8.0), 8, 8)


# ---------------------------------------------------------------------------
# geometry basics


@pytest.mark.parametrize("sides", [(0.0, math.inf, 0.0, 1.0), (-math.inf, 1.0, 0.0, 1.0),
                                   (math.nan, 1.0, 0.0, 1.0), (0.0, 1.0, 0.0, math.nan)])
def test_box_rejects_non_finite_sides(sides):
    with pytest.raises(InvalidParameter):
        hv.Box(*sides)


def test_box_validation():
    with pytest.raises(InvalidParameter):
        hv.Box(1.0, 1.0, 0.0, 2.0)
    with pytest.raises(InvalidParameter):
        hv.Box(0.0, 1.0, 3.0, 2.0)
    b = hv.Box(-1.0, 3.0, 0.0, 1.0)
    assert b.width == 4.0 and b.height == 1.0 and b.perimeter() == 10.0
    assert b.contains_point(0.0, 0.5) and not b.contains_point(4.0, 0.5)
    assert b.contains_box(hv.Box(0.0, 1.0, 0.0, 1.0))


def test_geometry_lines_and_refinement():
    geo = hv.GridGeometry(hv.Box(0, 2, 0, 1), 2, 1)
    assert geo.cell_w == 1.0 and geo.cell_h == 1.0
    assert list(geo.xlines()) == [0.0, 1.0, 2.0]
    assert geo.refined(3).m == 6 and geo.refined(3).n == 3
    # an integral float is a whole number, stored and used as its int
    for floats, ints in ((hv.GridGeometry(GEO44.box, 4.0, 4), GEO44),
                         (geo.refined(2.0), geo.refined(2))):
        assert floats == ints and type(floats.m) is int and type(floats.n) is int
        assert hv.GridSet.full(floats) == hv.GridSet.full(ints)
    assert hv.count_hv_connected(hv.GridGeometry(GEO44.box, 4.0, 4)) == hv.count_hv_connected(GEO44)
    with pytest.raises(InvalidParameter):
        hv.GridGeometry(hv.Box(0, 1, 0, 1), 0, 3)
    for bad in (2.5, -1, math.nan, math.inf):
        with pytest.raises(InvalidParameter):
            hv.GridGeometry(hv.Box(0, 1, 0, 1), bad, 3)
        with pytest.raises(InvalidParameter):
            geo.refined(bad)
        # the factor is checked before any cell is repeated
        with pytest.raises(InvalidParameter):
            hv.GridSet.full(geo).refined(bad)
    full = hv.GridSet.full(geo)
    assert full.refined(3.0) == full.refined(3) == hv.GridSet.full(geo.refined(3))
    with pytest.raises(TooLarge):
        full.refined(10**30)
    # every mask constructor checks the grid's size before allocating
    huge = hv.GridGeometry(hv.Box(0, 1, 0, 1), 100000, 100000)
    for build in (hv.GridSet.full, lambda g: hv.GridSet.from_cells(g, [(0, 0)])):
        with pytest.raises(TooLarge):
            build(huge)


def test_grid_set_is_immutable_and_hashable():
    L = hv.GridSet.from_cells(GEO44, [(0, 0), (1, 0)])
    with pytest.raises(AttributeError):
        L.cells = None
    with pytest.raises(ValueError):
        L.cells[0, 0] = False
    same = hv.GridSet.from_cells(GEO44, [(1, 0), (0, 0)])
    assert L == same and hash(L) == hash(same)
    assert L != hv.GridSet.full(GEO44)


def test_counts_area_rects():
    L = hv.GridSet.from_cells(GEO44, [(0, 0), (0, 1), (1, 1)])
    assert L.count == 3 and L.area() == 3.0
    assert list(L.col_counts()) == [2, 1, 0, 0]
    assert list(L.row_counts()) == [1, 2, 0, 0]
    assert L.rects().shape == (3, 4)
    assert L.bounding_box() == hv.Box(0.0, 2.0, 0.0, 2.0)


def test_grid_set_rejects_bad_masks_and_cells():
    with pytest.raises(InvalidParameter, match="does not match"):
        hv.GridSet(GEO44, np.zeros((4, 3), dtype=bool))
    for cell in ((4, 0), (0, 4), (-1, 0)):
        with pytest.raises(InvalidParameter, match="outside grid"):
            hv.GridSet.from_cells(GEO44, [(0, 0), cell])


def test_empty_set_guards():
    L = hv.GridSet(GEO44, np.zeros((4, 4), dtype=bool))
    assert L.is_empty
    with pytest.raises(EmptySet):
        L.rects()
    with pytest.raises(EmptySet):
        L.bounding_box()


# ---------------------------------------------------------------------------
# predicates against the oracles


def test_all_2x2_subsets_feasible():
    # every non-empty subset of a 2x2 grid is hv-convex and connected
    # (corner contact counts as connected); frozen count 15
    sets = list(all_subsets_2x2())
    assert len(sets) == 15
    assert all(hv.is_hv_convex(L) and hv.is_connected(L) for L in sets)


@pytest.mark.parametrize("m,n", [(3, 3), (4, 3), (2, 5)])
def test_predicates_match_oracle_exhaustively(m, n):
    geo = hv.GridGeometry(hv.Box(0, m, 0, n), m, n)
    for mask in range(1, 1 << (m * n)):
        occ = {(i, j) for i in range(m) for j in range(n) if mask >> (i * n + j) & 1}
        cells = np.zeros((m, n), dtype=bool)
        for i, j in occ:
            cells[i, j] = True
        L = hv.GridSet(geo, cells)
        assert hv.is_hv_convex(L) == ref_hv_convex(occ, m, n)
        assert hv.is_connected(L) == ref_connected(occ)


def ref_contiguous_runs(cells) -> bool:
    """Every row and column of a cell mask is empty or one run."""
    for line in [*cells, *cells.T]:
        idx = [k for k, v in enumerate(line) if v]
        if idx and idx[-1] - idx[0] + 1 != len(idx):
            return False
    return True


LONG_SHAPES = [s for long in (9, 64, 65, 130) for k in (1, 3) for s in ((long, k), (k, long))]


@pytest.mark.parametrize("m,n", LONG_SHAPES)
def test_predicates_match_oracle_on_long_lines(m, n):
    # lines longer than one byte (and than 64 bits) of the packed run bits:
    # random masks, sampled sets, and sampled sets with one cell toggled,
    # some of them at the byte and word boundaries of the long axis
    geo = hv.GridGeometry(hv.Box(0, m, 0, n), m, n)
    rng = np.random.default_rng([m, n])
    masks = [rng.random((m, n)) < p for p in (0.05, 0.5, 0.95) for _ in range(5)]
    cuts = [k for k in (0, 7, 8, 63, 64, 65, 128) if k < max(m, n)]
    for seed in range(10):
        base = hv.sample_hv_convex(geo, seed, require_full_box=seed % 2 == 1).cells
        masks.append(base)
        for cell in [*rng.integers(0, m * n, size=4), *(k * n if m > n else k for k in cuts)]:
            toggled = base.copy()
            toggled.flat[cell] = not toggled.flat[cell]
            masks.append(toggled)
    verdicts = set()
    for cells in masks:
        if not cells.any():
            continue
        L = hv.GridSet(geo, cells)
        occ = {(int(i), int(j)) for i, j in np.argwhere(cells)}
        convex = hv.is_hv_convex(L)
        verdicts.add(convex)
        assert convex == ref_hv_convex(occ, m, n), cells
        assert hv.has_contiguous_runs(L) == ref_contiguous_runs(cells), cells
    assert verdicts == {False, True}


def test_projections_and_membership():
    L = hv.GridSet.from_cells(GEO44, [(1, 1), (1, 2), (2, 2)])
    xs, ys = hv.projections(L)
    assert xs == [(1.0, 3.0)] and ys == [(1.0, 3.0)]
    assert hv.in_sublevel_set(L, GEO44.box)
    assert not hv.in_level_set(L, GEO44.box)
    assert hv.in_level_set(hv.GridSet.full(GEO44), GEO44.box)


def test_level_set_on_a_box_that_rounds():
    # on [0, 0.9] the last grid line a + 3 * cell_w is 0.8999999999999999:
    # the set's own box is decided on indices, a foreign box on floats
    geo = hv.GridGeometry(hv.Box(0.0, 0.9, 0.0, 0.9), 3, 3)
    full = hv.GridSet.full(geo)
    assert geo.xline(3) < 0.9 and hv.in_level_set(full, geo.box)
    assert not hv.in_level_set(hv.GridSet.from_cells(geo, [(0, 0), (1, 1), (2, 1)]), geo.box)
    assert hv.in_level_set(full, hv.Box(0.0, geo.xline(3), 0.0, geo.yline(3)))
    assert not hv.in_level_set(full, hv.Box(0.0, 1.0, 0.0, 0.9))


def test_thin_contact_detection():
    geo = hv.GridGeometry(hv.Box(0, 2, 0, 2), 2, 2)
    diag = hv.GridSet.from_cells(geo, [(0, 0), (1, 1)])
    anti = hv.GridSet.from_cells(geo, [(0, 1), (1, 0)])
    solid = hv.GridSet.from_cells(geo, [(0, 0), (1, 0)])
    assert hv.thin_contact(diag) and hv.thin_contact(anti)
    assert not hv.thin_contact(solid) and not hv.thin_contact(hv.GridSet.full(geo))


def test_subset_of_empty_sets():
    L = hv.GridSet.from_cells(GEO44, [(1, 1)])
    for geo in (GEO44, GEO88):
        empty = hv.GridSet(geo, np.zeros((geo.m, geo.n), dtype=bool))
        assert hv.subset_of(empty, L) and hv.subset_of(empty, empty)
        assert not hv.subset_of(L, empty)


def test_subset_of_cross_geometry():
    L = hv.GridSet.from_cells(GEO44, [(1, 1), (2, 1)])
    fine = hv.GridGeometry(GEO44.box, 8, 8)
    refined = hv.GridSet(fine, np.repeat(np.repeat(L.cells, 2, 0), 2, 1))
    assert hv.subset_of(L, refined) and hv.subset_of(refined, L)
    bigger = hv.GridSet.from_cells(GEO44, [(1, 1), (2, 1), (2, 2)])
    assert hv.subset_of(L, bigger) and not hv.subset_of(bigger, L)
    # one point set, although 0 + 7 * (0.9 / 7) rounds past 0.9
    box = hv.Box(0, 0.9, 0, 0.9)
    F7, F1 = (hv.GridSet.full(hv.GridGeometry(box, d, d)) for d in (7, 1))
    assert hv.subset_of(F7, F1) and hv.subset_of(F1, F7)


# ---------------------------------------------------------------------------
# combination


def test_combine_identities_and_symmetry():
    geo = hv.GridGeometry(hv.Box(0, 2, 0, 2), 2, 2)
    full = hv.GridSet.full(geo)
    diag = hv.GridSet.from_cells(geo, [(0, 0), (1, 1)])
    assert hv.combine(full, diag, 1) == full
    assert hv.combine(full, diag, 0) == diag
    assert hv.combine(full, diag, Fraction(1, 2)) == hv.combine(diag, full, Fraction(1, 2))


def test_combine_mismatched_boxes_shrinks_area():
    """The cells-of-one-grid encoding of [-3,3]^2 and [-1,1]^2 mixed at 1/2
    lands exactly on [-2,2]^2, smaller than the area mixture."""
    geo = hv.GridGeometry(hv.Box(-3, 3, -3, 3), 3, 3)
    L1 = hv.GridSet.full(geo)
    L2 = hv.GridSet.from_cells(geo, [(1, 1)])
    comb = hv.combine(L1, L2, Fraction(1, 2))
    assert comb.geometry.m == 6 and comb.geometry.n == 6
    assert comb.count == 16 and comb.area() == 16.0
    assert comb.bounding_box() == hv.Box(-2.0, 2.0, -2.0, 2.0)


def test_combine_requires_shared_geometry():
    other = hv.GridGeometry(hv.Box(0, 4, 0, 4), 2, 2)
    with pytest.raises(GeometryMismatch):
        hv.combine(hv.GridSet.full(GEO44), hv.GridSet.full(other), Fraction(1, 2))
    with pytest.raises(InvalidParameter):
        hv.combine(hv.GridSet.full(GEO44), hv.GridSet.full(GEO44), Fraction(3, 2))
    for t in ((1, 0), (1.5, 2), (1, 2.5)):
        with pytest.raises(InvalidParameter):
            hv.combine(hv.GridSet.full(GEO44), hv.GridSet.full(GEO44), t)


def test_combine_preserves_predicates_on_level_pairs():
    for k in range(25):
        L1 = hv.sample_hv_convex(GEO88, [21, k, 0], require_full_box=True)
        L2 = hv.sample_hv_convex(GEO88, [21, k, 1], require_full_box=True)
        for t in (Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)):
            comb = hv.combine(L1, L2, t)
            assert hv.is_hv_convex(comb)
            assert hv.is_connected(comb)


def test_combine_area_oracle_brute_force():
    # midpoint rasterization of the Minkowski mixture on a fine lattice
    # must agree with the refined-grid construction
    geo = hv.GridGeometry(hv.Box(0, 3, 0, 3), 3, 3)
    L1 = hv.GridSet.from_cells(geo, [(0, 0), (1, 0), (1, 1), (2, 1)])
    L2 = hv.GridSet.from_cells(geo, [(0, 0), (0, 1), (0, 2), (1, 2)])
    t = Fraction(1, 3)
    comb = hv.combine(L1, L2, t)
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 3, size=(4000, 2))
    r1 = L1.rects()
    r2 = L2.rects()

    def member(rects, x, y):
        return np.any(
            (rects[:, 0] <= x) & (x <= rects[:, 1]) & (rects[:, 2] <= y) & (y <= rects[:, 3])
        )

    rc = comb.rects()
    for x2, y2 in pts[:300]:
        if not member(r2, x2, y2):
            continue
        for x1, y1 in pts[300:340]:
            if member(r1, x1, y1):
                x = float(t) * x1 + (1 - float(t)) * x2
                y = float(t) * y1 + (1 - float(t)) * y2
                assert member(rc, x, y)


# ---------------------------------------------------------------------------
# sampler


def test_sampler_always_feasible():
    geo = hv.GridGeometry(hv.Box(0, 8, 0, 8), 16, 16)
    for seed in range(1000):
        L = hv.sample_hv_convex(geo, seed)
        assert hv.is_hv_convex(L)
        assert hv.is_connected(L)


def test_sampler_full_box_mode():
    geo = hv.GridGeometry(hv.Box(0, 8, 0, 8), 16, 16)
    for seed in range(200):
        L = hv.sample_hv_convex(geo, seed, require_full_box=True)
        assert hv.in_level_set(L, geo.box)
        assert hv.is_hv_convex(L) and hv.is_connected(L)


def test_sampler_deterministic():
    assert hv.sample_hv_convex(GEO88, 123) == hv.sample_hv_convex(GEO88, 123)
    assert hv.sample_hv_convex(GEO88, 123) != hv.sample_hv_convex(GEO88, 124)


@pytest.mark.parametrize("seed", [-1, [-1, 0], [3, -2, 1], 2.5])
def test_sampler_rejects_negative_seed(seed):
    with pytest.raises(InvalidParameter):
        hv.sample_hv_convex(GEO88, seed)


# ---------------------------------------------------------------------------
# dilation


def test_dilate_brackets_steiner_rectangle():
    # one full rectangle: dilated area is area + perimeter*eps + pi*eps^2
    geo = hv.GridGeometry(hv.Box(0, 1, 0, 1), 1, 1)
    F = hv.GridSet.full(geo)
    for eps in (0.5, 0.25, 0.1):
        inner, outer = hv.dilate(F, eps, refine=16)
        truth = 1.0 + 4.0 * eps + math.pi * eps * eps
        assert inner.area() <= truth <= outer.area()


def test_dilate_bracket_invariants():
    for seed in range(10):
        L = hv.sample_hv_convex(GEO88, [31, seed])
        inner, outer = hv.dilate(L, 0.6, refine=4)
        floats = hv.dilate(L, 0.6, refine=4.0)
        assert floats == (inner, outer)
        # an integral float refine gives int dims, which the HVSET text keeps
        assert [hv.parse_hvset(hv.format_hvset(S)) for S in floats] == list(floats)
        assert hv.subset_of(L, outer)
        if not inner.is_empty:
            assert hv.subset_of(inner, outer)
        assert hv.has_contiguous_runs(outer)
        w4 = outer.area() - inner.area()
        i8, o8 = hv.dilate(L, 0.6, refine=8)
        assert o8.area() - i8.area() <= w4


def test_dilate_rejects_bad_eps():
    for eps in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidParameter):
            hv.dilate(hv.GridSet.full(GEO44), eps)
    for refine in (math.nan, math.inf):
        with pytest.raises(InvalidParameter):
            hv.dilate(hv.GridSet.full(GEO44), 0.5, refine=refine)
        with pytest.raises(InvalidParameter):
            hv.check_dilation_bound(hv.GridSet.full(GEO44), 0.5, refine=refine)


# ---------------------------------------------------------------------------
# minimal covers


def test_min_cover_own_geometry_is_identity():
    for seed in range(10):
        L = hv.sample_hv_convex(GEO88, [41, seed])
        assert hv.min_cover(L, GEO88) == L


def test_min_cover_contains_and_converges():
    for seed in range(10):
        L = hv.sample_hv_convex(GEO88, [43, seed])
        for d in (1, 2, 4, 8):
            coarse = hv.GridGeometry(GEO88.box, d, d)
            cover = hv.min_cover(L, coarse)
            assert hv.subset_of(L, cover)
            assert hv.is_hv_convex(cover) and hv.is_connected(cover)
            diag = math.hypot(coarse.cell_w, coarse.cell_h)
            assert hv.hausdorff(cover, L).lower <= diag


def test_min_cover_nested_in_refinement():
    L = hv.sample_hv_convex(GEO88, 99)
    prev = None
    for d in (1, 2, 4, 8):
        cover = hv.min_cover(L, hv.GridGeometry(GEO88.box, d, d))
        if prev is not None:
            assert hv.subset_of(cover, prev)
        prev = cover


@pytest.mark.parametrize("side", [(0.0, 0.9), (0.0, 0.7), (0.0, 0.6), (0.1, 0.3)])
def test_min_cover_decided_on_indices(side):
    # on these sides a fine line a + i * cell_w rounds an ulp past the
    # coarse line it should meet, which must not add a sliver column or row
    box = hv.Box(*side, *side)
    for fine, coarse in ((12, 4), (9, 3), (4, 3), (6, 4)):
        geo = hv.GridGeometry(box, fine, fine)
        ov = ref_overlaps(coarse, fine).astype(np.int64)
        for seed in range(20):
            L = hv.sample_hv_convex(geo, [seed, 0])
            if fine % coarse == 0:
                k = fine // coarse
                ref = L.cells.reshape(coarse, k, coarse, k).any(axis=(1, 3))
            else:
                ref = ov @ L.cells.astype(np.int64) @ ov.T > 0
            cover = hv.min_cover(L, hv.GridGeometry(box, coarse, coarse))
            assert np.array_equal(cover.cells, ref), (fine, coarse, seed)


def test_xrays_equal_ae_matches_the_walk():
    box = hv.Box(0, 12, 0, 12)
    families = [list(hv.enumerate_hv_connected(hv.GridGeometry(box, m, n)))
                for m, n in ((3, 3), (2, 4), (4, 2))]
    pool = [L for family in families for L in family]
    # equal X-rays occur among sets of one family with one area
    alike = [(A, B) for family in families for A in family for B in family
             if A.count == B.count]
    rng = np.random.default_rng(17)
    pairs = [alike[k] for k in rng.integers(0, len(alike), 1500)]
    pairs += [(pool[a], pool[b]) for a, b in rng.integers(0, len(pool), (500, 2))]
    outcomes = set()
    for A0, B0 in pairs:
        A, B = (L.refined(int(r)) for L, r in zip((A0, B0), rng.integers(1, 4, 2)))
        got = hv.grid.xrays_equal_ae(A, B)
        g1, g2 = A.geometry, B.geometry
        assert got == (ref_steps_equal(A.col_counts(), g1.n, B.col_counts(), g2.n)
                       and ref_steps_equal(A.row_counts(), g1.m, B.row_counts(), g2.m))
        outcomes.add((got, A0 == B0))
    # equal X-rays of two different sets among them
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_min_cover_requires_containment():
    L = hv.GridSet.full(GEO44)
    with pytest.raises(CoverageError):
        hv.min_cover(L, hv.GridGeometry(hv.Box(0, 2, 0, 2), 2, 2))


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_counts():
    assert sum(1 for _ in hv.enumerate_hv_connected(hv.GridGeometry(hv.Box(0, 1, 0, 2), 1, 2))) == 3
    geo22 = hv.GridGeometry(hv.Box(0, 2, 0, 2), 2, 2)
    assert sum(1 for _ in hv.enumerate_hv_connected(geo22)) == 15
    with pytest.raises(TooLarge):
        next(hv.enumerate_hv_connected(hv.GridGeometry(hv.Box(0, 7, 0, 3), 7, 3)))


def test_enumerate_matches_predicates():
    geo = hv.GridGeometry(hv.Box(0, 3, 0, 3), 3, 3)
    listed = {tuple(map(tuple, L.occupied())) for L in hv.enumerate_hv_connected(geo)}
    brute = set()
    for mask in range(1, 1 << 9):
        occ = {(i, j) for i in range(3) for j in range(3) if mask >> (i * 3 + j) & 1}
        if ref_hv_convex(occ, 3, 3) and ref_connected(occ):
            brute.add(tuple(sorted(occ)))
    assert listed == brute


def test_enumerate_full_box_subset():
    geo = hv.GridGeometry(hv.Box(0, 3, 0, 3), 3, 3)
    full = list(hv.enumerate_hv_connected(geo, require_full_box=True))
    assert all(hv.in_level_set(L, geo.box) for L in full)
    assert len(full) == 90  # frozen from the predicate-level brute force


SHAPES_UP_TO_12 = [(m, n) for m in range(1, 13) for n in range(1, 13) if m * n <= 12]


@pytest.mark.parametrize("m,n", SHAPES_UP_TO_12)
def test_family_matches_numpy_predicates(m, n):
    # every mask, in ascending bit-key order, through the GridSet predicates
    geo = hv.GridGeometry(hv.Box(0, m, 0, n), m, n)
    bits = np.arange(m * n)
    expect = {False: [], True: []}
    for mask in range(1, 1 << (m * n)):
        L = hv.GridSet(geo, ((mask >> bits) & 1).astype(bool).reshape(m, n))
        if hv.is_hv_convex(L) and hv.is_connected(L):
            expect[False].append(L)
            if hv.in_level_set(L, geo.box):
                expect[True].append(L)
    for full in (False, True):
        assert list(hv.enumerate_hv_connected(geo, require_full_box=full)) == expect[full]


@pytest.mark.parametrize("m,n", SHAPES_UP_TO_12)
def test_level_set_index_rule_equals_float_rule(m, n):
    # on boxes whose grid lines are exact, "every column and row occupied"
    # agrees with comparing the float projections to the box sides
    for box in (hv.Box(0, m, 0, n), hv.Box(-2.0, -2.0 + 0.5 * m, 1.0, 1.0 + 0.25 * n)):
        geo = hv.GridGeometry(box, m, n)
        for cells in _family(m, n, False):
            L = hv.GridSet(geo, cells)
            floats = hv.projections(L) == ([(box.a, box.b)], [(box.c, box.d)])
            assert hv.in_level_set(L, box) == floats


def test_family_cache_is_read_only():
    sets = list(hv.enumerate_hv_connected(hv.GridGeometry(hv.Box(0, 3, 0, 4), 3, 4)))
    fam = _family(3, 4, False)
    assert fam.shape == (len(sets), 3, 4) and fam is _family(3, 4, False)
    with pytest.raises(ValueError):
        fam[0, 0, 0] = not fam[0, 0, 0]
    # sets handed out own their cells, so the cache cannot leak through them
    assert not np.shares_memory(sets[0].cells, fam)


SHAPES_UP_TO_20 = [(m, n) for m in range(1, 21) for n in range(1, 21) if m * n <= 20]

# sha256 over every shape within the enumeration guard of "<m>x<n>:" and the
# family's bytes, frozen from the recursive search the column-run search
# replaced
FAMILY_DIGESTS = {
    False: "2bc8243ab5f11daf69a86b5f678e4ba979877d91a57331754393428817493c90",
    True: "2e9d60059e5c766a1e07820a0be447590f79080f53ba9e0146a9abec80edf0cf",
}


@pytest.mark.parametrize("full", [False, True])
def test_family_bytes_frozen(full):
    digest = hashlib.sha256()
    for m, n in SHAPES_UP_TO_20:
        digest.update(f"{m}x{n}:".encode())
        digest.update(_family(m, n, full).tobytes())
    assert digest.hexdigest() == FAMILY_DIGESTS[full]


def test_search_without_intervals_is_the_cached_family():
    found, capped = _search(3, 4, False)
    assert found is _family(3, 4, False) and not capped
    found, capped = _search(3, 4, True, [(0, 4)] * 3, [(0, 3)] * 4)
    assert found.tobytes() == _family(3, 4, True).tobytes() and not capped
    assert not found.flags.writeable


def _classes(family):
    # member indices by (column counts, row counts)
    classes = {}
    for k, cells in enumerate(family):
        key = (tuple(cells.sum(axis=1).tolist()), tuple(cells.sum(axis=0).tolist()))
        classes.setdefault(key, []).append(k)
    return classes


@pytest.mark.parametrize("full", [False, True])
def test_class_search_returns_the_family_grouped_by_counts(full):
    # every X-ray class of every shape up to 4x4, whole and first member;
    # up to 9 cells, every other pair of count vectors with equal totals
    # has an empty class
    seen = 0
    for m, n in itertools.product(range(1, 5), repeat=2):
        family = _family(m, n, full)
        classes = _classes(family)
        for (cols, rows), members in classes.items():
            cols, rows = [(c, c) for c in cols], [(r, r) for r in rows]
            found, capped = _search(m, n, full, cols, rows)
            assert found.tobytes() == family[members].tobytes() and not capped
            first, capped = _search(m, n, full, cols, rows, first=True)
            assert len(first) == 1 and not capped
            assert first[0].tobytes() in {family[k].tobytes() for k in members}
        seen += len(classes)
        if m * n > 9:
            continue
        for cols in itertools.product(range(n + 1), repeat=m):
            for rows in itertools.product(range(m + 1), repeat=n):
                if sum(cols) == sum(rows) and (cols, rows) not in classes:
                    found, capped = _search(m, n, full, [(c, c) for c in cols],
                                            [(r, r) for r in rows])
                    assert found.shape == (0, m, n) and not capped
    assert seen == (4399 if not full else 1722)


def test_interval_search_filters_the_family():
    # random count intervals, some rows left free, against the family
    # filtered by its counts
    rnd = random.Random(29)
    for _ in range(400):
        m, n, full = rnd.randint(1, 4), rnd.randint(1, 4), rnd.random() < 0.5
        cols = [tuple(sorted((rnd.randint(0, n), rnd.randint(0, n)))) for _ in range(m)]
        rows = [tuple(sorted((rnd.randint(0, m), rnd.randint(0, m)))) for _ in range(n)]
        if rnd.random() < 0.3:
            rows = [(0, m)] * n
        family = _family(m, n, full)
        ok = np.ones(len(family), dtype=bool)
        for counts, bounds in ((family.sum(axis=2), cols), (family.sum(axis=1), rows)):
            for k, (lo, hi) in enumerate(bounds):
                ok &= (counts[:, k] >= lo) & (counts[:, k] <= hi)
        found, capped = _search(m, n, full, cols, rows)
        assert found.tobytes() == family[ok].tobytes() and not capped
        assert len(_search(m, n, full, cols, rows, first=True)[0]) == min(1, ok.sum())


def test_class_search_stops_at_its_node_cap():
    # the all-ones class on 4x4 is the two diagonals, one run per column
    ones = [(1, 1)] * 4
    found, capped = _search(4, 4, False, ones, ones)
    assert len(found) == 2 and not capped
    assert _search(4, 4, False, ones, ones, cap=3)[0].shape == (0, 4, 4)
    assert _search(4, 4, False, ones, ones, cap=3)[1]
    first, capped = _search(4, 4, False, ones, ones, first=True, cap=4)
    assert len(first) == 1 and not capped


def test_class_search_on_a_large_grid():
    # a first member far past the recursion limit's depth, certified by
    # its X-rays
    geo = hv.GridGeometry(hv.Box(0, 1, 0, 1), 1500, 40)
    for full in (False, True):
        T = hv.sample_hv_convex(geo, 31, require_full_box=full)
        cols = [(c, c) for c in T.col_counts().tolist()]
        rows = [(r, r) for r in T.row_counts().tolist()]
        found, capped = _search(geo.m, geo.n, full, cols, rows, first=True, cap=200_000)
        assert len(found) == 1 and not capped
        assert hv.xrays_equal_ae(hv.GridSet(geo, found[0]), T)


# ---------------------------------------------------------------------------
# text format


# sha256 of four random masks per shape, formatted by the per-cell writer
# this was frozen from; the rows are listed top y first
FROZEN_HVSET = {
    "1x6": ((0.0, 1.0, 0.0, 6.0), 1, 6,
            "92090ee7d952a2d04d4d2c1955b8a5ee127f3f98c572fbb65655d1f0d8475b6d"),
    "6x1": ((0.0, 6.0, 0.0, 1.0), 6, 1,
            "059b77ab7aaf1b35b472b97796ce206aa1520ce9def63fde5b18ea23f313942e"),
    "1x1": ((0.0, 1.0, 0.0, 1.0), 1, 1,
            "e18e5ad3b88b3485c2ce2e3244e8d8541790bd5601acebe53a430f7d0d18a40a"),
    "off-origin-5x3": ((2.5, 7.5, 1.25, 4.0), 5, 3,
                       "829b9335010d6bbe579552aea40472485f56f71542fe51b4b18e47c8d7b0a8b0"),
    "negative-4x7": ((-1.5, 2.5, -3.0, -0.5), 4, 7,
                     "aad87f0592ece1af5e742cf9c5ba9f36d5a9d8df5e8c91b104fee98ff6249afc"),
    "tenths-3x3": ((0, 0.9, 0, 0.9), 3, 3,
                   "d6169faa5c2153fafb1a0b991df2c0bab12343eea4803c5cbd70adc6247f7eb2"),
    "16x16": ((0.0, 16.0, 0.0, 16.0), 16, 16,
              "d361c6bf470c2323c6bf30b624d1af01f60acb21269f9eba3055ddfa4d8c656e"),
}


@pytest.mark.parametrize("name", list(FROZEN_HVSET))
def test_hvset_format_frozen(name):
    box, m, n, digest = FROZEN_HVSET[name]
    geo = hv.GridGeometry(hv.Box(*box), m, n)
    texts = []
    for k in range(4):
        cells = np.random.default_rng([m, n, k]).random((m, n)) < 0.5
        cells[0, 0] = True
        texts.append(hv.format_hvset(hv.GridSet(geo, cells)))
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == digest


def test_hvset_round_trip():
    for seed in range(20):
        L = hv.sample_hv_convex(GEO88, [61, seed])
        assert hv.parse_hvset(hv.format_hvset(L)) == L


@pytest.mark.parametrize(
    "mutate,line",
    [
        (lambda t: t[:-1], None),  # drop trailing newline
        (lambda t: t.replace("HVSET v1", "HVSET v2"), 1),
        (lambda t: t.replace("box", "bax"), 2),
        (lambda t: t.replace("dims 4 4", "dims 4"), 3),
        (lambda t: t.replace("\n1", "\n2", 1), None),  # bad character somewhere below
    ],
)
def test_hvset_parse_errors(mutate, line):
    text = hv.format_hvset(hv.GridSet.full(GEO44))
    with pytest.raises(FormatError) as err:
        hv.parse_hvset(mutate(text))
    if line is not None:
        assert err.value.line == line


@pytest.mark.parametrize(
    "body,line,message",
    [
        ("dims 10000000000000 1\n0\n", 4, "expected 10000000000000 characters"),
        ("dims 3 2\n010\n01\n", 5, "expected 3 characters, found 2"),
        ("dims 3 2\n01x\n0a1\n", 4, "bad cell character 'x'"),
    ],
)
def test_hvset_rows_checked_before_allocation(body, line, message):
    # a dims line far beyond the data must fail on the rows, never on the
    # allocation of the (m, n) mask
    with pytest.raises(FormatError) as err:
        hv.parse_hvset("HVSET v1\nbox 0 1 0 1\n" + body)
    assert err.value.line == line and message in str(err.value)


def test_hvset_parse_orientation():
    text = "HVSET v1\nbox 0.0 3.0 0.0 2.0\ndims 3 2\n100\n011\n"
    L = hv.parse_hvset(text)
    assert sorted(map(tuple, L.occupied().tolist())) == [(0, 1), (1, 0), (2, 0)]
    assert L.cells.flags.c_contiguous and hv.format_hvset(L) == text


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=(1 << 12) - 1))
def test_prop_hvset_round_trip_any_mask(mask):
    geo = hv.GridGeometry(hv.Box(-1.5, 2.5, 0.25, 3.25), 4, 3)
    cells = np.array([[mask >> (i * 3 + j) & 1 for j in range(3)] for i in range(4)], dtype=bool)
    L = hv.GridSet(geo, cells)
    assert hv.parse_hvset(hv.format_hvset(L)) == L


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([1, 2, 3]))
def test_prop_combine_superadditive_on_level_pairs(seed, denom_step):
    t = Fraction(denom_step, 4)
    L1 = hv.sample_hv_convex(GEO44, [77, seed, 0], require_full_box=True)
    L2 = hv.sample_hv_convex(GEO44, [77, seed, 1], require_full_box=True)
    comb = hv.combine(L1, L2, t)
    mix = float(t) * L1.area() + (1 - float(t)) * L2.area()
    assert comb.area() >= mix - 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_prop_sampler_projections_are_intervals(seed):
    L = hv.sample_hv_convex(GEO88, seed)
    xs, ys = hv.projections(L)
    assert len(xs) == 1 and len(ys) == 1
