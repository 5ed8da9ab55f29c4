"""Banded distance rasters against the full-raster references they replace.

``dilate`` and ``tube_area`` measure each primitive only on the raster
centres it can reach, and ``hausdorff`` measures to one rectangle per column
run.  The full-raster, per-cell versions are kept here as references; the
banded ones must agree with them cell for cell and ``repr`` for ``repr``.
The CLI outputs of the checkers built on them are frozen by digest.
"""

import hashlib
import math

import numpy as np
import pytest

import hvconic as hv
from hvconic.cli import run

# ---------------------------------------------------------------------------
# frozen CLI outputs: sha256 of stdout, taken before the rasters were banded

_SETS = {
    "a": ["--dims", "16x16", "--box", "0,16,0,16", "--seed", "31"],
    "b": ["--dims", "16x16", "--box", "0,16,0,16", "--seed", "32"],
    "c": ["--dims", "6x5", "--box=-1.5,2.25,0.3,1.1", "--seed", "4"],
    "d": ["--dims", "12x10", "--box=-1.5,2.25,0.3,1.1", "--seed", "9"],
    "e": ["--dims", "3x3", "--box", "0,0.9,0,0.9", "--seed", "4"],
    "f": ["--dims", "9x9", "--box", "0,0.9,0,0.9", "--seed", "5"],
}

_BENCH = ["--seed", "7", "--dims", "16x16", "--box", "0,16,0,16"]
_OFF = ["--dims", "6x5", "--box=-1.5,2.25,0.3,1.1"]
_ROUND = ["--dims", "3x3", "--box", "0,0.9,0,0.9"]

_CASES = {
    "dilation-bench": ["verify", "dilation", "--seeds", "3", *_BENCH, "--eps", "0.5", "--refine", "4"],
    "dilation-default": ["verify", "dilation", "--seeds", "2"],
    "dilation-off-origin": ["verify", "dilation", "--seeds", "3", *_OFF, "--eps", "0.05"],
    "dilation-rounding": ["verify", "dilation", "--seeds", "3", *_ROUND, "--eps", "0.3", "--refine", "16"],
    "dilation-thin-box": ["verify", "dilation", "--seeds", "2", "--dims", "10x2", "--box", "0,10,0,0.1",
                          "--eps", "0.02", "--refine", "4"],
    "dilation-wide-eps": ["verify", "dilation", "--seeds", "2", "--dims", "4x4", "--box", "0,1,0,1",
                          "--eps", "2.5", "--refine", "2"],
    "polyline-bench": ["verify", "polyline", "--seeds", "3", "--seed", "7", "--eps", "0.25",
                       "--segments", "6", "--refine", "16"],
    "polyline-default": ["verify", "polyline", "--seeds", "2", "--eps", "0.1"],
    "polyline-wide-eps": ["verify", "polyline", "--seeds", "2", "--eps", "1.5", "--segments", "2",
                          "--refine", "8"],
    "stability-bench": ["verify", "stability", "--seeds", "3", *_BENCH],
    "stability-off-origin": ["verify", "stability", "--seeds", "3", *_OFF, "--subsamples", "3"],
    "stability-rounding": ["verify", "stability", "--seeds", "3", *_ROUND],
    "convergence-bench": ["verify", "convergence", "--seeds", "3", *_BENCH],
    "convergence-off-origin": ["verify", "convergence", "--seeds", "2", "--dims", "8x4",
                               "--box=-1.5,2.25,0.3,1.1"],
    "convergence-rounding": ["verify", "convergence", "--seeds", "2", "--dims", "12x12",
                             "--box", "0,0.9,0,0.9", "--resolutions", "3x3,6x6,12x12"],
    "dist-bench": ["dist", "a", "b"],
    "dist-cross-grid": ["dist", "c", "d"],
    "dist-cross-grid-rev": ["dist", "d", "c", "--subsamples", "3"],
    "dist-rounding": ["dist", "e", "f"],
    "dist-foreign-boxes": ["dist", "a", "c"],
}

FROZEN = {
    "convergence-bench": "0 47bb6505063717a6fae5fd1e1049022eb289705f3af19b156c616feb5f70aed2",
    "convergence-off-origin": "0 15f43f3bb0df2f8a4046223b657570e16f2d06d407b7adcc467c5500cdcf766c",
    "convergence-rounding": "0 d0af5feddc67e8c0db3fb3583460d326147bb43b39aaa2197a7231cfc51eb21c",
    "dilation-bench": "0 7b9a0aae4546a12a498cc34ed49eca88bd7308ca35d9ba655a9299fed61fbaab",
    "dilation-default": "0 f794cb4dc833606d566f866489e700240e3e0a55eaf8fe8a05833cc66d36a376",
    "dilation-off-origin": "0 f74c3c89267787187b367e5150cbf3e58d2522396eb66c983f69347d2e65c7df",
    "dilation-rounding": "0 a33d6e943cb8016e812383308256d2ead527133d35de3f42f39595e385dec3ff",
    "dilation-thin-box": "0 4086c13a8a0a9521724c3a89c92f56a1e8905961523a0e2c5152c31264b8d59d",
    "dilation-wide-eps": "1 f0b054de78f5441144afb8ef71e3e6321e7a9f8deb78ee25f1edc3d820d6a9d2",
    "dist-bench": "0 4f05cb5ba6b3a6719d08b3fd294a18dbcd81e88d43a76333cc16548128e5f011",
    "dist-cross-grid": "0 ba8aeda6635d1f8c8d64051d01c331a52b676238e5ae55d32cde212692ac7013",
    "dist-cross-grid-rev": "0 de8a35d11b0b0be418ce65c94b05f271611b75b7b384298107cd70630c6c2ba8",
    "dist-foreign-boxes": "0 8bf74d579c9c88f64ed31c7a404b7a9cc72a0e3185c432e08c9743799c4c6217",
    "dist-rounding": "0 fe3ac7b941b8dc11a266e5a8e1c1149fd224f36bc5a4c257078c4581e81c8c93",
    "polyline-bench": "0 07064abb5df100b77e8554d2a220926be5d65d55d52df3754df43cb0d82501f8",
    "polyline-default": "0 5b9fc1b6c68e822a03f20a3984c6796b1c6a11c1a32c9849404d2b50489a22e1",
    "polyline-wide-eps": "0 f19aad69d160ae78a3bfcac020c8df98728405d0e97686d1f205d0e6d883e288",
    "stability-bench": "0 2476e5fe2b82d54577e875e875b5f172cfe90fa8b36b8daa590003d2e23e5d46",
    "stability-off-origin": "0 833496e8f6dd6d55e50cdd36bf6cb2f877fff80e421a31b2052b6f0138ae79d7",
    "stability-rounding": "0 60f2d16ac7e38bb7e4b8c3190429b963c49bb833cdb0371ba239bff9b8c654a8",
}


def _case_stdout(name, directory, capsys):
    """Exit code and stdout of one frozen case, its input sets written to ``directory``."""
    argv = list(_CASES[name])
    if argv[0] == "dist":
        for k in (1, 2):
            path = f"{directory}/{argv[k]}.hvset"
            assert run(["gen", *_SETS[argv[k]], "--out", path]) == 0
            argv[k] = path
    code = run(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(_CASES))
def test_cli_bytes_frozen(name, tmp_path, capsys):
    code, out = _case_stdout(name, tmp_path, capsys)
    assert f"{code} {hashlib.sha256(out.encode()).hexdigest()}" == FROZEN[name]


# ---------------------------------------------------------------------------
# full-raster references: every raster centre against every occupied cell
# or segment, and Hausdorff lattices against every occupied cell


def _ref_min_dist(points, rects):
    px = points[:, 0][:, None]
    py = points[:, 1][:, None]
    dx = np.maximum(np.maximum(rects[:, 0][None, :] - px, px - rects[:, 1][None, :]), 0.0)
    dy = np.maximum(np.maximum(rects[:, 2][None, :] - py, py - rects[:, 3][None, :]), 0.0)
    return np.hypot(dx, dy).min(axis=1)


def ref_dilate(L, eps, refine):
    g = L.geometry
    wr = g.cell_w / refine
    hr = g.cell_h / refine
    delta = 0.5 * math.hypot(wr, hr)
    kx = math.ceil((eps + delta) / wr) + 1
    ky = math.ceil((eps + delta) / hr) + 1
    mm = g.m * refine + 2 * kx
    nn = g.n * refine + 2 * ky
    cx = g.box.a + (np.arange(mm) - kx + 0.5) * wr
    cy = g.box.c + (np.arange(nn) - ky + 0.5) * hr
    pts = np.column_stack([np.repeat(cx, nn), np.tile(cy, mm)])
    dist = _ref_min_dist(pts, L.rects()).reshape(mm, nn)
    return dist <= eps - delta, dist <= eps + delta


def ref_tube_area(P, eps, refine):
    segs = P.segments()
    c = eps / refine
    delta = 0.5 * math.sqrt(2.0) * c
    xs = np.array([v[0] for v in P.vertices])
    ys = np.array([v[1] for v in P.vertices])
    margin = eps + delta + 2 * c
    x0 = xs.min() - margin
    y0 = ys.min() - margin
    mm = int(math.ceil((xs.max() + margin - x0) / c)) + 1
    nn = int(math.ceil((ys.max() + margin - y0) / c)) + 1
    cx = x0 + (np.arange(mm) + 0.5) * c
    cy = y0 + (np.arange(nn) + 0.5) * c
    px = np.repeat(cx, nn)[:, None]
    py = np.tile(cy, mm)[:, None]
    ax, ay, bx, by = segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3]
    ux = bx - ax
    uy = by - ay
    uu = ux * ux + uy * uy
    t = np.clip(((px - ax) * ux + (py - ay) * uy) / uu, 0.0, 1.0)
    dist = np.hypot(px - (ax + t * ux), py - (ay + t * uy)).min(axis=1)
    n_in = int((dist <= eps - delta).sum())
    n_out = int((dist <= eps + delta).sum())
    return hv.Bracket(n_in * c * c, n_out * c * c)


def ref_directed(K, L, s):
    if hv.subset_of(K, L):
        return hv.Bracket(0.0, 0.0)
    g = K.geometry
    frac = np.arange(s) / (s - 1)
    rects = K.rects()
    xs = rects[:, 0][:, None] + frac[None, :] * g.cell_w
    ys = rects[:, 2][:, None] + frac[None, :] * g.cell_h
    pts = np.column_stack([np.repeat(xs, s, axis=1).ravel(), np.tile(ys, (1, s)).ravel()])
    worst = float(_ref_min_dist(pts, L.rects()).max())
    halfdiag = 0.5 * math.hypot(g.cell_w / (s - 1), g.cell_h / (s - 1))
    return hv.Bracket(worst, worst + halfdiag)


def ref_hausdorff(K, L, s=4):
    d1 = ref_directed(K, L, s)
    d2 = ref_directed(L, K, s)
    return hv.Bracket(max(d1.lower, d2.lower), max(d1.upper, d2.upper))


# boxes off the origin, boxes whose last grid line rounds short of the
# side, and extreme aspect ratios
_GEOMETRIES = [
    hv.GridGeometry(hv.Box(0.0, 8.0, 0.0, 8.0), 8, 8),
    hv.GridGeometry(hv.Box(-1.5, 2.25, 0.3, 1.1), 6, 5),
    hv.GridGeometry(hv.Box(0.0, 0.9, 0.0, 0.9), 3, 3),
    hv.GridGeometry(hv.Box(0.1, 0.7, -0.3, 0.4), 7, 9),
    hv.GridGeometry(hv.Box(0.0, 10.0, 0.0, 0.1), 10, 2),
    hv.GridGeometry(hv.Box(-3.0, -2.99, 5.0, 13.0), 2, 8),
]


def _sets(geo, seed):
    """Sampled hv-convex sets and a random mask with gaps inside columns."""
    rng = np.random.default_rng([seed, geo.m, geo.n])
    out = [hv.sample_hv_convex(geo, [seed, k]) for k in range(2)]
    mask = rng.random((geo.m, geo.n)) < 0.4
    mask[0, 0] = True
    out.append(hv.GridSet(geo, mask))
    return out


@pytest.mark.parametrize("gi", range(len(_GEOMETRIES)))
def test_dilate_equals_full_raster(gi):
    geo = _GEOMETRIES[gi]
    cell = min(geo.cell_w, geo.cell_h)
    span = max(geo.box.width, geo.box.height)
    cases = [(0.1 * cell, 1), (0.1 * cell, 32), (0.5 * cell, 4), (1.3 * cell, 3),
             (2.0 * cell, 8), (0.25 * span, 2), (1.5 * span, 1)]
    for k, (eps, refine) in enumerate(cases):
        for L in _sets(geo, 40 + k):
            inner, outer = hv.dilate(L, eps, refine=refine)
            ref_in, ref_out = ref_dilate(L, eps, refine)
            assert np.array_equal(inner.cells, ref_in)
            assert np.array_equal(outer.cells, ref_out)


def _chains():
    rng = np.random.default_rng(5)
    out = [
        hv.Polyline([(0.0, 0.0), (3.0, 0.0)]),
        hv.Polyline([(0.2, -1.0), (0.2, 1.5)]),  # vertical
        hv.Polyline([(-4.0, -4.0), (1.0, 1.0), (1.5, -2.0)]),
        hv.Polyline([(0, 0), (1, 0), (1, 1), (0, 1)], closed=True),
        hv.Polyline([(10.0, 20.0), (10.3, 20.05), (10.35, 21.0), (9.7, 20.6)], closed=True),
    ]
    for k in range(4):
        xs = np.cumsum(rng.uniform(0.05, 1.0, 5)) - 7.0
        out.append(hv.Polyline(zip(xs, rng.uniform(-3.0, 2.0, 5))))
    for gi in (1, 2, 3):
        out += hv.boundary_chains(hv.sample_hv_convex(_GEOMETRIES[gi], [3, gi]))
    return out


@pytest.mark.parametrize("ci", range(len(_chains())))
def test_tube_area_equals_full_raster(ci):
    P = _chains()[ci]
    for eps, refine in [(0.02, 4), (0.1, 1), (0.25, 16), (0.3, 32), (1.7, 8), (6.0, 2)]:
        assert repr(hv.tube_area(P, eps, refine=refine)) == repr(ref_tube_area(P, eps, refine))


def test_hausdorff_equals_per_cell_reference():
    pairs = []
    for gi, geo in enumerate(_GEOMETRIES):
        A, B, C = _sets(geo, 70 + gi)
        fine = geo.refined(2)
        pairs += [(A, B), (A, C), (C, B), (hv.min_cover(A, fine), B), (A, hv.min_cover(C, fine))]
        coarse = hv.GridGeometry(geo.box, 1, 1)
        pairs.append((hv.min_cover(B, coarse), A))
    pairs.append((_sets(_GEOMETRIES[0], 1)[0], _sets(_GEOMETRIES[1], 1)[0]))  # foreign boxes
    for K, L in pairs:
        for s in (2, 3, 4, 5):
            assert repr(hv.hausdorff(K, L, subsamples=s)) == repr(ref_hausdorff(K, L, s))
