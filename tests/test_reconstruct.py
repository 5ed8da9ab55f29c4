"""Reconstruction engines: objective, exhaustive oracle, annealing, I/O."""

import hashlib
import json

import numpy as np
import pytest

import hvconic as hv
from hvconic import conic, reconstruct
from hvconic.conic import _FieldDiff
from hvconic.errors import FormatError, GeometryMismatch, InvalidParameter, TooLarge, ZeroMass
from hvconic.grid import _family, _Lines
from hvconic.reconstruct import _check_feasible, _class_counts, _family_counts, _search_score

GEO22 = hv.GridGeometry(hv.Box(0.0, 2.0, 0.0, 2.0), 2, 2)
GEO33 = hv.GridGeometry(hv.Box(0.0, 3.0, 0.0, 3.0), 3, 3)
GEO44 = hv.GridGeometry(hv.Box(0.0, 4.0, 0.0, 4.0), 4, 4)
# the last grid line of this box, 0.8999999999999999, falls short of 0.9
GEO33_SHORT = hv.GridGeometry(hv.Box(0.0, 0.9, 0.0, 0.9), 3, 3)


def problem_for(L, **kw):
    return hv.ReconstructionProblem(target=hv.conic_of(L), geometry=L.geometry, **kw)


# ---------------------------------------------------------------------------
# objective


def test_objective_frozen_and_invariance():
    geo = hv.GridGeometry(hv.Box(0, 2, 0, 1), 2, 1)
    domino = hv.GridSet.full(geo)
    cell = hv.GridSet.from_cells(geo, [(0, 0)])
    prob = problem_for(domino)
    assert hv.objective(domino, prob) == 0.0
    assert hv.objective(cell, prob) == 2.0
    # the anti-diagonal twin has the same section measures, so the same field
    diag = hv.GridSet.from_cells(GEO22, [(0, 0), (1, 1)])
    anti = hv.GridSet.from_cells(GEO22, [(0, 1), (1, 0)])
    assert hv.objective(anti, problem_for(diag)) == 0.0


def test_objective_requires_problem_geometry():
    prob = problem_for(hv.GridSet.full(GEO22))
    with pytest.raises(GeometryMismatch):
        hv.objective(hv.GridSet.full(GEO44), prob)


def test_objective_l1_is_upper_end():
    diag = hv.GridSet.from_cells(GEO22, [(0, 0), (1, 1)])
    cand = hv.GridSet.full(GEO22)
    prob = problem_for(diag, norm="l1", l1_refine=8)
    br = hv.l1_norm_diff(hv.conic_of(cand), prob.target, GEO22.box, refine=8)
    assert hv.objective(cand, prob) == br.upper


def test_problem_validation():
    with pytest.raises(InvalidParameter):
        problem_for(hv.GridSet.full(GEO22), norm="l7")
    with pytest.raises(InvalidParameter):
        problem_for(hv.GridSet.full(GEO22), feasibility="anything")
    with pytest.raises(InvalidParameter):
        hv.AnnealingParams(cooling=1.0)
    with pytest.raises(InvalidParameter):
        hv.AnnealingParams(steps=-1)
    with pytest.raises(InvalidParameter):
        hv.AnnealingParams(seed=-1)  # numpy generators take no negative seed
    for field in ("steps", "restarts", "seed"):
        for bad in (2.5, float("nan"), float("inf")):
            with pytest.raises(InvalidParameter):
                hv.AnnealingParams(**{field: bad})
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InvalidParameter):
            hv.AnnealingParams(initial_temperature=bad)
    hv.AnnealingParams(steps=0)  # explicitly allowed
    # a chain draws its proposals up front: a step budget past 2**22 is
    # refused before anything is drawn
    assert hv.AnnealingParams(steps=2**22).steps == 2**22
    for huge in (2**22 + 1, 1e12):
        with pytest.raises(TooLarge):
            hv.AnnealingParams(steps=huge)
    assert type(problem_for(hv.GridSet.full(GEO22), l1_refine=4.0).l1_refine) is int
    # integral floats are whole numbers, stored as ints: the same budget
    floats = hv.AnnealingParams(steps=10.0, restarts=1.0, seed=1.0)
    ints = hv.AnnealingParams(steps=10, restarts=1, seed=1)
    assert floats == ints and all(type(v) is int for v in (floats.steps, floats.restarts, floats.seed))
    prob = problem_for(hv.sample_hv_convex(GEO33, 4))
    a, b = hv.local_search(prob, floats), hv.local_search(prob, ints)
    assert (a.best, a.objective, a.trace, a.steps) == (b.best, b.objective, b.trace, b.steps)


# ---------------------------------------------------------------------------
# exhaustive oracle


def test_exhaustive_diag_target_two_optima():
    diag = hv.GridSet.from_cells(GEO22, [(0, 0), (1, 1)])
    res = hv.exhaustive(problem_for(diag))
    assert res.objective == 0.0
    assert res.optima is not None and len(res.optima) == 2
    anti = hv.GridSet.from_cells(GEO22, [(0, 1), (1, 0)])
    assert set(res.optima) == {diag, anti}
    assert res.thin_contact
    assert res.steps == 15  # all feasible 2x2 candidates scanned


def test_exhaustive_unique_target():
    corner = hv.GridSet.from_cells(GEO22, [(0, 0)])
    res = hv.exhaustive(problem_for(corner))
    assert res.objective == 0.0
    assert res.optima == [corner]
    assert not res.thin_contact


def test_exhaustive_full_box_constraint():
    corner = hv.GridSet.from_cells(GEO22, [(0, 0)])
    res = hv.exhaustive(problem_for(corner, feasibility="hv_connected_full_box"))
    # the corner cell itself is not admissible, so the optimum moves away
    assert res.objective > 0.0
    assert all(hv.in_level_set(L, GEO22.box) for L in res.optima)


def test_exhaustive_trace_monotone():
    L = hv.sample_hv_convex(GEO44, 5)
    res = hv.exhaustive(problem_for(L))
    vals = [v for _, v in res.trace]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert res.objective == vals[-1] == 0.0


def test_exhaustive_guard():
    geo = hv.GridGeometry(hv.Box(0, 5, 0, 4), 5, 4)
    with pytest.raises(TooLarge):
        hv.exhaustive(problem_for(hv.GridSet.full(geo)))


def test_exhaustive_l1_contains_sup_optima():
    diag = hv.GridSet.from_cells(GEO22, [(0, 0), (1, 1)])
    res = hv.exhaustive(problem_for(diag, norm="l1", l1_refine=2))
    masks = set(res.optima)
    anti = hv.GridSet.from_cells(GEO22, [(0, 1), (1, 0)])
    assert diag in masks and anti in masks


def test_exhaustive_matches_brute_force_3x3():
    # independent scan in the public objective only
    L = hv.sample_hv_convex(GEO33, 17)
    prob = problem_for(L)
    res = hv.exhaustive(prob)
    best = min(hv.objective(C, prob) for C in hv.enumerate_hv_connected(GEO33))
    assert res.objective == best == 0.0
    brute_optima = [
        C for C in hv.enumerate_hv_connected(GEO33) if hv.objective(C, prob) == best
    ]
    assert res.optima == brute_optima


def key(L):
    # the documented bit key: bit i*n + j for cell (i, j)
    return sum(1 << (int(i) * L.geometry.n + int(j)) for i, j in L.occupied())


DIAG = hv.GridSet.from_cells(GEO22, [(0, 0), (1, 1)])
CORNER = hv.GridSet.from_cells(GEO22, [(0, 0)])


@pytest.mark.parametrize(
    "prob,steps,trace,optima",
    [
        (problem_for(DIAG), 15, [(1, 3.0), (3, 1.0), (6, 0.0)], [6, 9]),
        (problem_for(CORNER, feasibility="hv_connected_full_box"), 7, [(1, 3.0)], [6, 9]),
        (problem_for(DIAG, norm="l1", l1_refine=2), 15, [(1, 6.25), (3, 3.75), (6, 0.0)], [6, 9]),
        (
            problem_for(hv.sample_hv_convex(GEO44, 5)),
            3411,
            [(1, 19.0), (2, 18.0), (3, 17.0), (5, 15.0), (6, 14.0), (9, 12.0), (10, 10.0),
             (17, 9.0), (27, 8.0), (67, 7.0), (91, 6.0), (154, 5.0), (225, 4.0), (481, 3.0),
             (632, 2.0), (966, 1.0), (1316, 0.0)],
            [11776],
        ),
        (
            hv.ReconstructionProblem(
                hv.conic_of(hv.sample_hv_convex(hv.GridGeometry(GEO44.box, 7, 7), 4)),
                GEO44,
                feasibility="hv_connected_full_box",
            ),
            1398,
            [(1, 28.32069970845481), (3, 21.32069970845481), (8, 20.32069970845481),
             (33, 14.32069970845481)],
            [4680, 33825],
        ),
    ],
)
def test_exhaustive_trace_and_optima_frozen(prob, steps, trace, optima):
    # frozen from the bitmask scan the family search replaced; repr also
    # pins the types and the sign of zero
    res = hv.exhaustive(prob)
    assert res.steps == steps
    assert repr(res.trace) == repr(trace)
    assert [key(L) for L in res.optima] == optima
    assert res.objective == trace[-1][1]


GEO34 = hv.GridGeometry(hv.Box(0.0, 3.0, 0.0, 4.0), 3, 4)


def l1_problem(T, geo, **kw):
    return hv.ReconstructionProblem(hv.conic_of(T), geo, norm="l1", **kw)


@pytest.mark.parametrize(
    "prob,steps,trace,optima,obj",
    [
        (
            l1_problem(hv.sample_hv_convex(GEO33, 7), GEO33),
            213,
            [(1, 14.79296875), (2, 12.65625), (7, 9.5625), (13, 8.15625), (76, 0.0)],
            [128],
            0.0,
        ),
        (
            l1_problem(hv.sample_hv_convex(GEO33, 8, require_full_box=True), GEO33,
                       feasibility="hv_connected_full_box", l1_refine=1),
            90,
            [(1, 15.0), (5, 12.0), (61, 0.0)],
            [114, 156, 177, 186, 282, 393],
            0.0,
        ),
        (
            l1_problem(hv.sample_hv_convex(GEO34, 11), GEO34, l1_refine=7),
            729,
            [(1, 55.214285714285715), (3, 33.24062890462307), (5, 33.17857142857142),
             (6, 22.86734693877551), (9, 0.0)],
            [14],
            0.0,
        ),
        (
            l1_problem(hv.sample_hv_convex(hv.GridGeometry(GEO34.box, 7, 9), 12,
                                           require_full_box=True),
                       GEO34, feasibility="hv_connected_full_box"),
            284,
            [(1, 33.87236307386711), (3, 30.056324286034226), (5, 26.73164960612405),
             (11, 21.036638580696838)],
            [376, 482, 632, 737, 872, 2161, 2162, 3122],
            21.036638580696838,
        ),
        (
            l1_problem(hv.sample_hv_convex(hv.GridGeometry(GEO33.box, 7, 7), 3), GEO33),
            213,
            [(1, 13.626820065672044), (2, 11.614214524640031), (7, 10.300278529779263),
             (13, 7.702385213378357)],
            [16],
            7.702385213378357,
        ),
    ],
)
def test_exhaustive_l1_trace_and_optima_frozen(prob, steps, trace, optima, obj):
    # frozen from the per-candidate l1_norm_diff scan; l1 ties are
    # brackets overlapping the best one, so optima may hold several sets
    res = hv.exhaustive(prob)
    assert res.steps == steps
    assert repr(res.trace) == repr(trace)
    assert [key(L) for L in res.optima] == optima
    assert repr(res.objective) == repr(obj)


@pytest.mark.parametrize("geo", [GEO33, GEO44, GEO33_SHORT])
@pytest.mark.parametrize("full", [False, True])
def test_batch_scorer_matches_scalar_bitwise(geo, full):
    family = list(hv.enumerate_hv_connected(geo, require_full_box=full))
    cols = np.array([L.col_counts() for L in family])
    rows = np.array([L.row_counts() for L in family])
    fine = hv.GridGeometry(geo.box, 2 * geo.m + 1, 2 * geo.n + 1)
    targets = [hv.sample_hv_convex(geo, [41, k]) for k in range(3)]
    targets += [hv.sample_hv_convex(fine, [43, k], require_full_box=True) for k in range(3)]
    for T in targets:
        target = hv.conic_of(T)
        scorer = _search_score(hv.ReconstructionProblem(target, geo))
        kernel = _FieldDiff(geo.xlines(), geo.ylines(), target, geo.box)
        for axk, counts, cell in ((0, cols, geo.cell_h), (1, rows, geo.cell_w)):
            lo, hi = kernel.extrema(axk, kernel.stack(axk, counts * cell))
            scalar = np.array([scorer._axis(c, axk) for c in counts])
            assert lo.tobytes() == scalar[:, 0].tobytes()
            assert hi.tobytes() == scalar[:, 1].tobytes()


@pytest.mark.parametrize("geo", [GEO33, GEO34, GEO44])
@pytest.mark.parametrize("full", [False, True])
def test_batch_l1_brackets_match_l1_norm_diff_bitwise(geo, full):
    family = list(hv.enumerate_hv_connected(geo, require_full_box=full))
    fields = [hv.conic_of(L) for L in family]
    xp, cinv, yp, rinv = _family_counts(geo, full)
    fine = hv.GridGeometry(geo.box, 2 * geo.m + 1, 2 * geo.n + 1)
    targets = [hv.sample_hv_convex(geo, [47, geo.n]),
               hv.sample_hv_convex(fine, [53, geo.n], require_full_box=True)]

    def kernel_stacks(target):
        kernel = _FieldDiff(geo.xlines(), geo.ylines(), target, geo.box)
        return kernel, xp, yp

    for T in targets:
        # the sup norm takes no refine, so once per target
        target = hv.conic_of(T)
        kernel, xp, yp = kernel_stacks(target)
        sup = kernel.sup(xp, yp, cinv, rinv)
        assert [repr(v) for v in sup.tolist()] == [
            repr(hv.sup_norm_diff(E, target, geo.box)) for E in fields]
    cases = [(hv.conic_of(T), refine) for T in targets for refine in (1, 4, 7)]
    if geo is GEO44:
        # the reference costs about 0.6 ms a member, so on the 3411-set
        # family each refine runs against one target: (grid, 1), (grid, 7),
        # (fine, 4)
        cases = cases[::2]
    for target, refine in cases:
        kernel, xp, yp = kernel_stacks(target)
        lower, upper = kernel.l1(xp, yp, refine, cinv, rinv)
        brackets = [hv.l1_norm_diff(E, target, geo.box, refine=refine) for E in fields]
        assert lower.tobytes() == np.array([b.lower for b in brackets]).tobytes()
        assert upper.tobytes() == np.array([b.upper for b in brackets]).tobytes()


def test_sup_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(conic, "_MEMO_CAP", 4)
    geo = hv.GridGeometry(hv.Box(0.0, 5.0, 0.0, 5.0), 5, 5)
    target = hv.conic_of(hv.sample_hv_convex(geo, 3))
    scorer = _search_score(hv.ReconstructionProblem(target, geo))
    for k in range(40):
        L = hv.sample_hv_convex(geo, [59, k % 23])
        cols, rows = L.col_counts().tolist(), L.row_counts().tolist()
        assert repr(scorer(cols, rows)) == repr(_search_score(hv.ReconstructionProblem(target, geo))(cols, rows))
        assert max(len(memo) for memo in scorer._memo) <= 4
    # a memo that keeps starting over leaves the annealer's run unchanged
    case = anneal_case((7, 7), (0, 7, 0, 7), 2, tdims=(11, 9))
    small = hv.local_search(*case)
    monkeypatch.setattr(conic, "_MEMO_CAP", 1 << 14)
    full = hv.local_search(*case)
    assert (small.best, repr(small.trace), small.steps) == (full.best, repr(full.trace), full.steps)


TOGGLE_SHAPES = sorted({(m, n) for m in range(1, 13) for n in range(1, 13) if m * n <= 12}
                       | {(1, 16), (16, 1)})


def sections_feasible(lines, full):
    # one axis of feasibility, from the cell array alone: line k is
    # ``lines[k]``; the set is non-empty, each line is one run, the closed
    # spans of adjacent lines meet, the non-empty lines form one range,
    # and for a full box none is empty
    spans = []
    for line in lines:
        idx = np.flatnonzero(line)
        if idx.size and idx[-1] - idx[0] + 1 != idx.size:
            return False
        spans.append((idx[0], idx[-1] + 1) if idx.size else None)
    occupied = [k for k, span in enumerate(spans) if span]
    if not occupied or occupied[-1] - occupied[0] + 1 != len(occupied):
        return False
    if full and len(occupied) != len(spans):
        return False
    run = spans[occupied[0]:occupied[-1] + 1]
    return all(a[0] <= b[1] and b[0] <= a[1] for a, b in zip(run, run[1:]))


@pytest.mark.parametrize("m,n", TOGGLE_SHAPES)
@pytest.mark.parametrize("full", [False, True])
def test_toggle_check_matches_public_predicates(m, n, full):
    # every single-cell toggle of every feasible set, judged by the
    # reference predicates on the toggled set (the empty set is infeasible);
    # bit j of column i's mask is the column half of that verdict and bit i
    # of row j's mask the row half
    geo = hv.GridGeometry(hv.Box(0, m, 0, n), m, n)
    verdict = {}
    for cells in _family(m, n, full):
        lines = _Lines(cells, full)
        cmask, rmask = lines.cmask, lines.rmask
        assert all(mask >> n == 0 for mask in cmask) and all(mask >> m == 0 for mask in rmask)
        for i in range(m):
            for j in range(n):
                toggled = cells.copy()
                toggled[i, j] = not toggled[i, j]
                key = toggled.tobytes()
                if key not in verdict:
                    L = hv.GridSet(geo, toggled)
                    ok = not L.is_empty and hv.is_hv_convex(L) and hv.is_connected(L)
                    verdict[key] = (ok and (not full or hv.in_level_set(L, geo.box)),
                                    sections_feasible(toggled, full),
                                    sections_feasible(toggled.T, full))
                whole, col_half, row_half = verdict[key]
                assert (cmask[i] >> j & 1, rmask[j] >> i & 1) == (col_half, row_half), (cells, i, j)
                assert whole == (col_half and row_half)


# 1x9 with a full box has one feasible set, the full column, and no move
@pytest.mark.parametrize("m,n,full", [(7, 7, False), (7, 7, True), (1, 9, False)])
def test_kept_masks_match_fresh_masks(m, n, full):
    # a seeded walk of feasible toggles through _Lines.toggle, as the
    # annealer takes them; after every move the kept bits and masks equal
    # those built fresh from the toggled set
    geo = hv.GridGeometry(hv.Box(0, m, 0, n), m, n)
    rng = np.random.default_rng([151, m, n, full])
    lines = _Lines(hv.sample_hv_convex(geo, rng, require_full_box=full).cells, full)
    moves = 0
    for _ in range(3000):
        i, j = divmod(int(rng.integers(m * n)), n)
        if not (lines.cmask[i] >> j & 1 and lines.rmask[j] >> i & 1):
            continue
        lines.toggle(i, j)
        moves += 1
        L = hv.GridSet.from_cells(geo, [(k, b) for k, c in enumerate(lines.cols)
                                        for b in range(n) if c >> b & 1])
        fresh = _Lines(L.cells, full)
        assert (lines.rows, lines.cmask, lines.rmask) == (fresh.rows, fresh.cmask, fresh.rmask), moves
        assert hv.is_hv_convex(L) and hv.is_connected(L)
        assert not full or hv.in_level_set(L, geo.box)
    assert moves >= 300


def test_infeasible_result_raises_not_asserts():
    # the engines' final check is an explicit raise, so it survives python -O
    gap = hv.GridSet.from_cells(GEO33, [(0, 0), (2, 2)])
    with pytest.raises(RuntimeError):
        _check_feasible(gap, problem_for(gap))
    _check_feasible(DIAG, problem_for(DIAG))


# ---------------------------------------------------------------------------
# annealing


def test_zero_step_budget_returns_initial_sample():
    L = hv.sample_hv_convex(GEO44, 3)
    prob = problem_for(L)
    params = hv.AnnealingParams(steps=0, restarts=0, seed=9)
    res = hv.local_search(prob, params)
    assert res.steps == 0
    assert res.objective == hv.objective(res.best, prob)
    # with no mutation budget the best is the seeded initial sample
    expect = hv.sample_hv_convex(GEO44, [9, 0])
    assert res.best == expect


def test_local_search_deterministic():
    L = hv.sample_hv_convex(GEO44, 31)
    prob = problem_for(L)
    params = hv.AnnealingParams(steps=2000, restarts=1, seed=4)
    a = hv.local_search(prob, params)
    b = hv.local_search(prob, params)
    assert a.best == b.best and a.objective == b.objective and a.trace == b.trace
    c = hv.local_search(prob, hv.AnnealingParams(steps=2000, restarts=1, seed=5))
    assert (c.best, c.trace) != (a.best, a.trace) or c.objective == a.objective


def test_local_search_trace_monotone_and_feasible():
    L = hv.sample_hv_convex(GEO44, 41)
    prob = problem_for(L)
    res = hv.local_search(prob, hv.AnnealingParams(steps=5000, seed=1))
    vals = [v for _, v in res.trace]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    steps = [s for s, _ in res.trace]
    assert steps == sorted(steps)
    assert hv.is_hv_convex(res.best) and hv.is_connected(res.best)


def test_local_search_reaches_oracle_optimum():
    hits = 0
    for seed in range(10):
        L = hv.sample_hv_convex(GEO33, [55, seed])
        prob = problem_for(L)
        oracle = hv.exhaustive(prob)
        res = hv.local_search(prob, hv.AnnealingParams(steps=4000, seed=seed))
        assert res.objective >= oracle.objective - 1e-12
        if res.objective == oracle.objective:
            assert any(hv.xrays_equal_ae(res.best, O) for O in oracle.optima)
            hits += 1
    assert hits >= 9


def test_local_search_full_box_feasibility():
    L = hv.sample_hv_convex(GEO44, 13, require_full_box=True)
    prob = problem_for(L, feasibility="hv_connected_full_box")
    res = hv.local_search(prob, hv.AnnealingParams(steps=3000, seed=2))
    assert hv.in_level_set(res.best, GEO44.box)


BOX_OFF = (-1.5, 2.0, 3.0, 7.5)


def anneal_case(dims, box, seed, *, tdims=None, full=False, norm="sup", steps=1000):
    # target drawn on ``tdims`` (default: the problem grid) of the same box
    geo = hv.GridGeometry(hv.Box(*box), *dims)
    T = hv.sample_hv_convex(hv.GridGeometry(geo.box, *(tdims or dims)), [61, seed],
                            require_full_box=full)
    feas = "hv_connected_full_box" if full else "hv_connected"
    prob = hv.ReconstructionProblem(hv.conic_of(T), geo, norm=norm, feasibility=feas)
    return prob, hv.AnnealingParams(steps=steps, restarts=1, seed=seed)


@pytest.mark.parametrize(
    "case,best,obj,steps,trace",
    [
        (anneal_case((7, 7), (0, 7, 0, 7), 1), 103349747712, 4.0, 2000,
         [(0, 48.0), (16, 36.0), (18, 25.0), (80, 15.0), (97, 6.0), (358, 4.0)]),
        (anneal_case((7, 7), (0, 7, 0, 7), 2, tdims=(11, 9)), 4501789474816,
         9.730231609019496, 2000,
         [(0, 60.6875828997041), (7, 54.52821140699928), (22, 47.52821140699928),
          (32, 40.52821140699928), (40, 35.52821140699928), (43, 30.110396898275674),
          (48, 27.110396898275674), (49, 23.110396898275674), (66, 22.110396898275674),
          (109, 19.416812910247213), (198, 18.351277930823375), (250, 15.351277930823375),
          (439, 13.351277930823375), (443, 12.3124171002959), (1265, 10.730231609019496),
          (1773, 9.730231609019496)]),
        (anneal_case((5, 8), (0, 5, 0, 8), 3, full=True), 962341897991, 12.0, 2000,
         [(0, 31.0), (32, 29.0), (61, 27.0), (285, 25.0), (297, 23.0), (807, 21.0),
          (870, 20.0), (1533, 17.0), (1756, 13.0), (1998, 12.0)]),
        (anneal_case((9, 4), BOX_OFF, 4, full=True), 4581302033, 1.020833333333333, 2000,
         [(0, 22.977864583333343), (7, 20.489583333333343), (14, 20.337673611111114),
          (33, 17.67925347222222), (45, 16.837673611111118), (97, 16.819444444444436),
          (104, 15.825954861111104), (276, 14.285590277777771), (278, 13.292100694444438),
          (290, 12.128472222222214), (343, 10.955729166666659), (466, 10.311631944444438),
          (624, 10.141493055555548), (657, 9.989583333333325), (660, 8.467447916666659),
          (694, 7.161024305555559), (701, 5.31684027777778), (1152, 5.03125),
          (1356, 4.815538194444451), (1363, 3.8038194444444446), (1666, 3.500000000000001),
          (1677, 2.506510416666666), (1696, 1.020833333333333)]),
        (anneal_case((1, 6), (0, 1, 0, 6), 5, steps=300), 60, 0.0, 12,
         [(0, 13.0), (4, 9.0), (7, 7.0), (11, 4.0), (12, 0.0)]),
        (anneal_case((6, 1), (0, 6, 0, 1), 6, steps=300), 1, 0.0, 150,
         [(0, 11.0), (2, 8.0), (3, 4.0), (100, 3.0), (133, 2.0), (146, 1.0), (150, 0.0)]),
        (anneal_case((2, 2), (0, 2, 0, 2), 7, tdims=(3, 3), steps=300), 1,
         0.5185185185185186, 600,
         [(0, 2.111111111111111), (13, 1.1111111111111112), (49, 0.5185185185185186)]),
        (anneal_case((4, 4), (0, 4, 0, 4), 10, tdims=(5, 4), norm="l1", steps=400), 1088,
         12.251656249999993, 800,
         [(0, 81.8793125), (3, 45.53465625), (17, 25.102109375000012),
          (64, 19.589562500000017), (636, 18.12399999999999), (645, 12.251656249999993)]),
        (anneal_case((3, 5), BOX_OFF, 9, tdims=(5, 7), full=True, norm="l1", steps=120), 17382,
         26.629538537946452, 240,
         [(0, 176.813005580357), (5, 133.1319040178569), (11, 84.64379665178568),
          (23, 40.580232806919696), (41, 26.629538537946452)]),
    ],
)
def test_local_search_trajectory_frozen(case, best, obj, steps, trace):
    # frozen from the annealer that rescanned the whole bitmask per proposal
    # and scored with numpy; repr pins the types and the sign of zero
    res = hv.local_search(*case)
    assert key(res.best) == best
    assert repr(res.objective) == repr(obj)
    assert res.steps == steps
    assert repr(res.trace) == repr(trace)


def _off_grid_csv_target(geo, seed):
    # a set on a finer grid of a shifted box, read back from X-ray CSV text:
    # no target breakpoint need fall on a problem grid line
    box = geo.box
    w, h = box.b - box.a, box.d - box.c
    shifted = hv.Box(box.a + 0.13 * w, box.b - 0.07 * w, box.c - 0.11 * h, box.d + 0.05 * h)
    T = hv.sample_hv_convex(hv.GridGeometry(shifted, geo.m + 3, geo.n + 2), [67, seed])
    return hv.ConicEvaluator(
        hv.parse_profile_csv(hv.profile_to_csv(hv.xray_v(T)), "vertical"),
        hv.parse_profile_csv(hv.profile_to_csv(hv.xray_h(T)), "horizontal"),
    )


@pytest.mark.parametrize(
    "dims,box,refine",
    [((5, 5), (0, 5, 0, 5), 4), ((6, 7), BOX_OFF, 1), ((8, 8), (0, 0.9, 0, 0.9), 3),
     ((7, 6), (-2.5, 1.25, 0.5, 4.0), 4)],
)
def test_l1_search_score_matches_objective(dims, box, refine):
    # the annealer scores a set from its count lists through one kernel;
    # the public path rebuilds the field: 3 targets x 17 sets per grid
    geo = hv.GridGeometry(hv.Box(*box), *dims)
    fine = hv.GridGeometry(geo.box, 2 * geo.m + 1, 2 * geo.n + 1)
    targets = [hv.conic_of(hv.sample_hv_convex(geo, [71, geo.m])),
               hv.conic_of(hv.sample_hv_convex(fine, [73, geo.n], require_full_box=True)),
               _off_grid_csv_target(geo, geo.m * geo.n)]
    for t, target in enumerate(targets):
        prob = hv.ReconstructionProblem(target, geo, norm="l1", l1_refine=refine)
        score = _search_score(prob)
        for k in range(17):
            L = hv.sample_hv_convex(geo, [79, t, k], require_full_box=k % 3 == 0)
            cols, rows = L.col_counts().tolist(), L.row_counts().tolist()
            assert repr(score(cols, rows)) == repr(hv.objective(L, prob))


@pytest.mark.parametrize(
    "dims,box",
    [((4, 4), (0, 4, 0, 4)), ((5, 3), BOX_OFF), ((6, 6), (0, 0.9, 0, 0.9)),
     ((3, 7), (-2.5, 1.25, 0.5, 4.0))],
)
def test_objective_matches_public_norms(dims, box):
    # objective scores the set's own X-rays on the problem's kernel; the
    # public path builds its field and a kernel of its own: on-grid,
    # finer-grid and off-grid CSV targets, sup and l1 at refines 1, 4, 7
    geo = hv.GridGeometry(hv.Box(*box), *dims)
    fine = hv.GridGeometry(geo.box, 2 * geo.m + 1, 2 * geo.n + 1)
    targets = [hv.conic_of(hv.sample_hv_convex(geo, [83, geo.m])),
               hv.conic_of(hv.sample_hv_convex(fine, [89, geo.n], require_full_box=True)),
               _off_grid_csv_target(geo, geo.m + geo.n)]
    for t, target in enumerate(targets):
        probs = [hv.ReconstructionProblem(target, geo)]
        probs += [hv.ReconstructionProblem(target, geo, norm="l1", l1_refine=r) for r in (1, 4, 7)]
        for k in range(9):
            L = hv.sample_hv_convex(geo, [97, t, k], require_full_box=k % 3 == 0)
            E = hv.conic_of(L)
            assert repr(hv.objective(L, probs[0])) == repr(hv.sup_norm_diff(E, target, geo.box))
            for prob in probs[1:]:
                br = hv.l1_norm_diff(E, target, geo.box, refine=prob.l1_refine)
                assert repr(hv.objective(L, prob)) == repr(br.upper)


@pytest.mark.parametrize("norm", ["sup", "l1"])
def test_objective_of_empty_set_is_zero_mass(norm):
    prob = problem_for(hv.GridSet.full(GEO22), norm=norm)
    with pytest.raises(ZeroMass):
        hv.objective(hv.GridSet(GEO22, np.zeros((2, 2), dtype=bool)), prob)


@pytest.mark.parametrize("refine", [2.5, 0, -1, 0.5, float("nan"), float("inf")])
def test_non_integer_l1_refine_is_invalid(refine):
    with pytest.raises(InvalidParameter):
        problem_for(hv.GridSet.full(GEO22), norm="l1", l1_refine=refine)
    with pytest.raises(InvalidParameter):
        hv.l1_norm_diff(hv.conic_of(hv.GridSet.full(GEO22)),
                        hv.conic_of(hv.GridSet.full(GEO22)), GEO22.box, refine=refine)


@pytest.mark.parametrize("full", [False, True])
def test_family_stacks_are_read_only(full):
    xp, cinv, yp, rinv = _family_counts(GEO33_SHORT, full)
    for arr in (*xp, cinv, *yp, rinv):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 0


@pytest.mark.parametrize("full", [False, True])
def test_family_counts_match_unique_rows(full):
    # the integer-coded 1-D unique against np.unique's row unique, on every
    # shape up to the oracle guard; unit cells make the stacks the counts
    for m, n in ((m, n) for m in range(1, 17) for n in range(1, 17 // m + 1) if m * n <= 16):
        geo = hv.GridGeometry(hv.Box(0, m, 0, n), m, n)
        family = _family(m, n, full)
        xp, cinv, yp, rinv = _family_counts(geo, full)
        for counts, p, inv in ((family.sum(axis=2), xp, cinv), (family.sum(axis=1), yp, rinv)):
            rows, inverse = np.unique(counts, axis=0, return_inverse=True)
            assert p.values.tobytes() == (rows * 1.0).tobytes()
            assert inv.tobytes() == inverse.reshape(-1).tobytes()


@pytest.mark.parametrize("norm,geo", [("sup", GEO44), ("sup", GEO33_SHORT), ("l1", GEO33)])
@pytest.mark.parametrize("full", [False, True])
def test_exhaustive_same_on_cold_and_warm_caches(norm, geo, full):
    feas = "hv_connected_full_box" if full else "hv_connected"
    T = hv.sample_hv_convex(hv.GridGeometry(geo.box, geo.m + 1, geo.n + 2), [101, geo.m])

    def problem():
        return hv.ReconstructionProblem(hv.conic_of(T), geo, norm=norm, feasibility=feas)

    def run(prob):
        res = hv.exhaustive(prob)
        return (res.best, repr(res.objective), repr(res.trace), res.steps, res.optima)

    _family.cache_clear()
    _family_counts.cache_clear()
    prob = problem()
    cold = run(prob)
    # the same problem (its kernel built) and a fresh one, on warm caches
    assert run(prob) == cold
    assert run(problem()) == cold


def _csv_round_trip(T):
    # a target as the CLI reads it: both X-rays through their CSV text
    return hv.ConicEvaluator(
        hv.parse_profile_csv(hv.profile_to_csv(hv.xray_v(T)), "vertical"),
        hv.parse_profile_csv(hv.profile_to_csv(hv.xray_h(T)), "horizontal"),
    )


def _digest_cases():
    # 40 sup problems: 5 grids x 2 boxes (off the origin, and 0,0.9 whose
    # last grid line rounds short) x on-grid and off-grid X-ray CSV targets
    # x both feasibility modes, 2 chains of 1000 steps each
    for k, dims in enumerate([(7, 7), (5, 6), (6, 8), (8, 5), (4, 7)]):
        for box in (BOX_OFF, (0, 0.9, 0, 0.9)):
            geo = hv.GridGeometry(hv.Box(*box), *dims)
            on_grid = _csv_round_trip(hv.sample_hv_convex(geo, [107, k]))
            for target in (on_grid, _off_grid_csv_target(geo, 109 + k)):
                for feas in ("hv_connected", "hv_connected_full_box"):
                    yield (hv.ReconstructionProblem(target, geo, feasibility=feas),
                           hv.AnnealingParams(steps=1000, restarts=1, seed=113 + k))


def test_local_search_digest_frozen():
    # frozen from the annealer that scored every feasible proposal
    runs = []
    for prob, params in _digest_cases():
        res = hv.local_search(prob, params)
        runs.append((res.best.cells.tobytes(), repr(res.objective), res.steps, repr(res.trace)))
    assert len(runs) == 40
    digest = hashlib.sha256(repr(runs).encode()).hexdigest()
    assert digest == "350f1d9c0e983f1081b246c5036d6a4fc914033e8903c1974a8b6d287e9f4b9d"


def _l1_digest_cases():
    # 8 l1 problems: 2 boxes (off the origin, and 0,0.9) x on-grid and
    # off-grid X-ray CSV targets x both feasibility modes, refines 1 and 4,
    # 2 chains of 300 steps each
    for k, (dims, box) in enumerate([((6, 5), BOX_OFF), ((5, 7), (0, 0.9, 0, 0.9))]):
        geo = hv.GridGeometry(hv.Box(*box), *dims)
        on_grid = _csv_round_trip(hv.sample_hv_convex(geo, [131, k]))
        for target in (on_grid, _off_grid_csv_target(geo, 137 + k)):
            for refine, feas in ((1, "hv_connected"), (4, "hv_connected_full_box")):
                yield (hv.ReconstructionProblem(target, geo, norm="l1", l1_refine=refine,
                                                feasibility=feas),
                       hv.AnnealingParams(steps=300, restarts=1, seed=139 + k))


def test_local_search_l1_digest_frozen():
    # frozen from the annealer that ran _toggle_ok on every proposal
    runs = []
    for prob, params in _l1_digest_cases():
        res = hv.local_search(prob, params)
        runs.append((res.best.cells.tobytes(), repr(res.objective), res.steps, repr(res.trace)))
    assert len(runs) == 8
    digest = hashlib.sha256(repr(runs).encode()).hexdigest()
    assert digest == "f2c8a59afe43c28bc7cc4927e73d717e80ff8da437b9146e2c42ef9a4dc6be40"


def _large_grid_digest_cases():
    # 8 problems on the largest grids, where an accepted toggle rebuilds
    # the most masks: 16x16 sup in both feasibility modes, 12x9 sup and
    # l1, each on on-grid and off-grid X-ray CSV targets, 2 chains each
    for k, (dims, box, norm, feas, steps, t0) in enumerate([
            ((16, 16), (0, 16, 0, 16), "sup", "hv_connected", 20000, 40.0),
            ((16, 16), BOX_OFF, "sup", "hv_connected_full_box", 20000, 4.0),
            ((12, 9), (0, 0.9, 0, 0.9), "sup", "hv_connected", 6000, 4.0),
            ((12, 9), BOX_OFF, "l1", "hv_connected", 600, 16.0)]):
        geo = hv.GridGeometry(hv.Box(*box), *dims)
        full = feas == "hv_connected_full_box"
        on_grid = _csv_round_trip(hv.sample_hv_convex(geo, [157, k], require_full_box=full))
        for target in (on_grid, _off_grid_csv_target(geo, 163 + k)):
            yield (hv.ReconstructionProblem(target, geo, norm=norm, feasibility=feas),
                   hv.AnnealingParams(initial_temperature=t0, steps=steps, restarts=1,
                                      seed=167 + k))


def test_local_search_large_grid_digest_frozen():
    # frozen from the annealer that rebuilt a stale mask when a proposal
    # next read it
    runs = []
    for prob, params in _large_grid_digest_cases():
        res = hv.local_search(prob, params)
        runs.append((res.best.cells.tobytes(), repr(res.objective), res.steps, repr(res.trace)))
    assert len(runs) == 8
    digest = hashlib.sha256(repr(runs).encode()).hexdigest()
    assert digest == "480a71f9f9dc3383e5ccb044350b62f9dec8076582383df1e0068a83d47ad52a"


def test_corner_bound_is_below_score():
    # the bound the annealer rejects moves on never exceeds the exact
    # score: 3 boxes (at 1e6, 0,0.9, off the origin) x 2 grids x targets on
    # the grid, on a finer grid, on a shifted grid and 1e5 outside the box;
    # the candidates are the on-grid target with 0-2 cells flipped and
    # random cell sets, whose bounds often meet the score at a corner
    checked = tight = 0
    for box in ((1e6, 1e6 + 7, -1e6, -1e6 + 5), (0, 0.9, 0, 0.9), BOX_OFF):
        for dims in ((7, 7), (5, 8)):
            geo = hv.GridGeometry(hv.Box(*box), *dims)
            rng = np.random.default_rng([127, *dims])
            T = hv.sample_hv_convex(geo, rng)
            B, (m, n) = geo.box, dims
            far = hv.Box(B.a + 1e5, B.b + 1e5, B.c - 1e5, B.d - 1e5)
            targets = [hv.conic_of(T),
                       hv.conic_of(hv.sample_hv_convex(hv.GridGeometry(B, 2 * m + 1, 2 * n + 1), rng)),
                       _off_grid_csv_target(geo, m * n),
                       hv.conic_of(hv.sample_hv_convex(hv.GridGeometry(far, m, n), rng))]
            for target in targets:
                scorer = _search_score(hv.ReconstructionProblem(target, geo))
                margin = scorer._corners[-1]
                for k in range(450):
                    if k % 2:
                        cells = rng.random((m, n)) < rng.random()
                    else:
                        cells = T.cells.copy()
                        cells.flat[rng.integers(0, m * n, size=k % 3)] ^= True
                    if not cells.any():
                        continue
                    cols, rows = cells.sum(axis=1), cells.sum(axis=0)
                    bound = scorer.corner_bound(int(cols.sum()), int(cols @ (2 * np.arange(m) + 1)),
                                                int(rows @ (2 * np.arange(n) + 1)))
                    score = scorer(cols.tolist(), rows.tolist())
                    assert bound <= score
                    checked += 1
                    tight += bound + margin > score
    assert checked >= 10_000
    # without its margin the bound would exceed the score somewhere
    assert tight > 0


def test_objective_zero_means_equal_xrays():
    L = hv.sample_hv_convex(GEO44, 19)
    prob = problem_for(L)
    res = hv.local_search(prob, hv.AnnealingParams(steps=20_000, restarts=2, seed=7))
    if res.objective == 0.0:
        assert hv.xrays_equal_ae(res.best, L)


# ---------------------------------------------------------------------------
# the default route: a target on the grid is answered from its X-ray class


def _target(geo, cols, rows):
    return hv.ConicEvaluator(hv.XRayProfile("vertical", geo.xlines(), cols),
                             hv.XRayProfile("horizontal", geo.ylines(), rows))


def test_class_counts_need_grid_lines_and_whole_cells():
    T = hv.sample_hv_convex(GEO44, 41)
    cols, rows = T.col_counts(), T.row_counts()
    assert _class_counts(problem_for(T)) == [[(c, c) for c in cols.tolist()],
                                             [(r, r) for r in rows.tolist()]]
    # half a cell more in one column and one row; a column of 5 cells out
    # of 4; a target drawn on a finer grid
    half, five = np.array([0.5, 0, 0, 0]), np.array([5.0, 0, 0, 0])
    for target in (_target(GEO44, cols + half, rows + half), _target(GEO44, five, five),
                   hv.conic_of(hv.sample_hv_convex(hv.GridGeometry(GEO44.box, 8, 8), 41))):
        assert _class_counts(hv.ReconstructionProblem(target, GEO44)) is None
    # a plateau whose count overflows a float, refused without a warning
    tiny = hv.GridGeometry(hv.Box(0, 4e-140, 0, 4e-160), 4, 4)
    huge = _target(tiny, [1e150, 0, 0, 0], [1e170, 0, 0, 0])
    assert _class_counts(hv.ReconstructionProblem(huge, tiny)) is None


def test_solve_answers_from_the_class_with_no_steps():
    T = hv.sample_hv_convex(GEO44, 43)
    res = hv.solve(problem_for(T), hv.AnnealingParams(seed=44))
    assert (res.objective, res.steps, res.trace, res.optima) == (0.0, 0, [(0, 0.0)], None)
    assert hv.xrays_equal_ae(res.best, T)


def test_class_answer_must_rescore_to_zero(monkeypatch):
    # a class member whose rescored objective is not exactly 0.0 is a bug
    monkeypatch.setattr(reconstruct, "objective", lambda L, problem: 5e-324)
    with pytest.raises(RuntimeError):
        hv.solve(problem_for(hv.sample_hv_convex(GEO44, 43)), hv.AnnealingParams())


# ---------------------------------------------------------------------------
# problem files


def write_problem(tmp_path, body):
    p = tmp_path / "problem.json"
    p.write_text(json.dumps(body), encoding="utf-8")
    return str(p)


def test_load_problem_hvset_target(tmp_path):
    L = hv.sample_hv_convex(GEO44, 23)
    gen = tmp_path / "gen.hvset"
    gen.write_text(hv.format_hvset(L), encoding="utf-8")
    path = write_problem(
        tmp_path,
        {
            "target": {"hvset": str(gen)},
            "box": [0, 4, 0, 4],
            "dims": [4, 4],
            "budget": {"steps": 50, "initial_temperature": 3.0},
            "seed": 6,
            "out_prefix": str(tmp_path / "rec"),
        },
    )
    prob, params, prefix = hv.load_problem(path)
    assert prob.geometry == GEO44 and prob.norm == "sup"
    assert params.steps == 50 and params.seed == 6
    assert params.initial_temperature == 3.0
    assert params.cooling == hv.AnnealingParams().cooling  # default fills gaps
    assert prefix.endswith("rec")
    assert hv.objective(L, prob) == 0.0


def test_load_problem_integral_floats(tmp_path):
    # an integral JSON float is its int; fractions and booleans are refused
    # (test_cli's ERROR_ROWS)
    L = hv.sample_hv_convex(GEO44, 31)
    vp, hp = tmp_path / "v.csv", tmp_path / "h.csv"
    vp.write_text(hv.profile_to_csv(hv.xray_v(L)), encoding="utf-8")
    hp.write_text(hv.profile_to_csv(hv.xray_h(L)), encoding="utf-8")
    path = write_problem(tmp_path, {
        "target": {"xray_csv": {"vertical": str(vp), "horizontal": str(hp)}},
        "box": [0, 4, 0, 4], "dims": [4.0, 4],
        "l1_refine": 4.0, "budget": {"steps": 50.0, "restarts": 1.0}, "seed": 6.0,
    })
    prob, params, _ = hv.load_problem(path)
    values = (prob.geometry.m, prob.l1_refine, params.steps, params.restarts, params.seed)
    assert values == (4, 4, 50, 1, 6)
    assert all(type(v) is int for v in values)


def test_load_problem_xray_target(tmp_path):
    L = hv.sample_hv_convex(GEO44, 29)
    vp = tmp_path / "v.csv"
    hp = tmp_path / "h.csv"
    vp.write_text(hv.profile_to_csv(hv.xray_v(L)), encoding="utf-8")
    hp.write_text(hv.profile_to_csv(hv.xray_h(L)), encoding="utf-8")
    path = write_problem(
        tmp_path,
        {
            "target": {"xray_csv": {"vertical": str(vp), "horizontal": str(hp)}},
            "box": [0, 4, 0, 4],
            "dims": [4, 4],
            "norm": "l1",
        },
    )
    prob, params, prefix = hv.load_problem(path)
    assert prob.norm == "l1"
    assert prefix == "reconstruction"
    assert hv.objective(L, prob) <= hv.l1_norm_diff(
        hv.conic_of(L), prob.target, GEO44.box
    ).upper + 1e-12


@pytest.mark.parametrize(
    "body",
    [
        {"box": [0, 4, 0, 4], "dims": [4, 4]},  # no target
        {"target": {}, "box": [0, 4, 0, 4], "dims": [4, 4]},
        {"target": {"xray_csv": {"vertical": "x"}}, "box": [0, 4, 0, 4], "dims": [4, 4]},
        {"target": {"hvset": "g"}, "dims": [4, 4]},  # no box
        {"target": {"hvset": "g"}, "box": [0, 4, 0, 4]},  # no dims
    ],
)
def test_load_problem_missing_fields(tmp_path, body):
    with pytest.raises(FormatError):
        hv.load_problem(write_problem(tmp_path, body))


def test_load_problem_malformed_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(FormatError):
        hv.load_problem(str(p))
    q = tmp_path / "badbudget.json"
    q.write_text(
        json.dumps(
            {
                "target": {"hvset": "missing"},
                "box": [0, 2, 0, 2],
                "dims": [2, 2],
                "budget": {"stepz": 5},
            }
        ),
        encoding="utf-8",
    )
    with pytest.raises((FormatError, FileNotFoundError)):
        hv.load_problem(str(q))


def test_write_result_files(tmp_path):
    L = hv.sample_hv_convex(GEO22, 2)
    res = hv.exhaustive(problem_for(L))
    prefix = str(tmp_path / "out")
    hv_path, js_path = hv.write_result(res, prefix)
    assert hv_path == prefix + ".hvset" and js_path == prefix + ".json"
    with open(hv_path, encoding="utf-8") as fh:
        assert hv.parse_hvset(fh.read()) == res.best
    with open(js_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["objective"] == res.objective
    assert summary["steps"] == res.steps
    assert summary["thin_contact"] == res.thin_contact
    assert summary["optima"] == len(res.optima)


def test_round_trip_problem_to_result(tmp_path):
    L = hv.sample_hv_convex(GEO44, 37)
    gen = tmp_path / "gen.hvset"
    gen.write_text(hv.format_hvset(L), encoding="utf-8")
    path = write_problem(
        tmp_path,
        {
            "target": {"hvset": str(gen)},
            "box": [0, 4, 0, 4],
            "dims": [4, 4],
            "budget": {"steps": 20000, "restarts": 1},
            "seed": 3,
            "out_prefix": str(tmp_path / "rec"),
        },
    )
    prob, params, prefix = hv.load_problem(path)
    res = hv.local_search(prob, params)
    hv.write_result(res, prefix)
    with open(prefix + ".json", encoding="utf-8") as fh:
        assert json.load(fh)["objective"] == res.objective
