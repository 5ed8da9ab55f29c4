"""Command line front end, exercised in-process through ``run``."""

import importlib
import inspect
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import hvconic as hv
from hvconic import reconstruct
from hvconic.cli import _build_parser, run
from hvconic.grid import _search
from hvconic.reconstruct import _write_text


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# happy paths


def test_enum_counts(capsys):
    code, out, err = invoke(capsys, "enum", "--dims", "1x2")
    assert code == 0 and out.strip() == "3" and err == ""
    code, out, _ = invoke(capsys, "enum", "--dims", "2x2", "--full-box")
    assert code == 0 and out.strip() == "7"


def test_enum_dump(tmp_path, capsys):
    code, out, _ = invoke(
        capsys, "enum", "--dims", "1x2", "--dump", str(tmp_path / "sets")
    )
    assert code == 0
    files = sorted((tmp_path / "sets").iterdir())
    assert [f.name for f in files] == ["set000000.hvset", "set000001.hvset", "set000002.hvset"]
    parsed = [hv.parse_hvset(f.read_text(encoding="utf-8")) for f in files]
    assert len(set(parsed)) == 3


@pytest.mark.parametrize("full_box", [False, True])
def test_enum_count_matches_enumeration(tmp_path, capsys, full_box):
    shapes = [(m, n) for m in range(1, 13) for n in range(1, 13) if m * n <= 12]
    flag = ["--full-box"] if full_box else []
    for m, n in shapes + [(4, 4), (4, 5)]:
        geo = hv.GridGeometry(hv.Box(0.0, float(m), 0.0, float(n)), m, n)
        members = list(hv.enumerate_hv_connected(geo, require_full_box=full_box))
        code, out, err = invoke(capsys, "enum", "--dims", f"{m}x{n}", *flag)
        assert (code, out, err) == (0, f"{len(members)}\n", "")
        assert hv.count_hv_connected(geo, require_full_box=full_box) == len(members)
        if m * n > 12:
            continue
        dump = tmp_path / f"{m}x{n}"
        code, out, _ = invoke(capsys, "enum", "--dims", f"{m}x{n}", *flag, "--dump", str(dump))
        assert (code, out) == (0, f"{len(members)}\n")
        files = sorted(dump.iterdir())
        assert [f.name for f in files] == [f"set{k:06d}.hvset" for k in range(len(members))]
        assert [f.read_text(encoding="utf-8") for f in files] == [hv.format_hvset(L) for L in members]


def test_gen_round_trip(tmp_path, capsys):
    out_file = tmp_path / "L.hvset"
    code, _, _ = invoke(
        capsys, "gen", "--dims", "6x5", "--box", "0,3,0,2.5", "--seed", "11",
        "--out", str(out_file),
    )
    assert code == 0
    L = hv.parse_hvset(out_file.read_text(encoding="utf-8"))
    assert L.geometry.m == 6 and L.geometry.n == 5
    assert L.geometry.box == hv.Box(0.0, 3.0, 0.0, 2.5)
    assert hv.is_hv_convex(L) and hv.is_connected(L)
    # same seed, same set
    again = tmp_path / "M.hvset"
    invoke(capsys, "gen", "--dims", "6x5", "--box", "0,3,0,2.5", "--seed", "11",
           "--out", str(again))
    assert again.read_text(encoding="utf-8") == out_file.read_text(encoding="utf-8")


def test_gen_full_box_to_stdout(capsys):
    code, out, _ = invoke(
        capsys, "gen", "--dims", "4x4", "--box", "0,4,0,4", "--full-box"
    )
    assert code == 0
    L = hv.parse_hvset(out)
    assert hv.in_level_set(L, hv.Box(0, 4, 0, 4))


def test_negative_box_in_equals_form(capsys):
    # "--box -1.5,..." reads as an option to argparse; the "=" form works
    code, out, _ = invoke(capsys, "gen", "--dims", "3x3", "--box=-1.5,2,3,7.5")
    assert code == 0 and out.splitlines()[1] == "box -1.5 2.0 3.0 7.5"
    code, _, _ = invoke(capsys, "verify", "stability", "--seeds", "1", "--dims", "3x3",
                        "--box=-1.5,2,3,7.5")
    assert code == 0
    code, out, _ = invoke(capsys, "enum", "--dims", "2x2", "--box=-1.5,2,3,7.5")
    assert code == 0 and out.strip() == "15"
    for sub in ("gen", "xray", "conic", "dist", "verify", "reconstruct", "enum"):
        code, out, _ = invoke(capsys, sub, "--help")
        assert code == 0 and out.startswith(f"usage: hvconic {sub}")
    code, out, _ = invoke(capsys, "--help")
    assert code == 0 and out.startswith("usage: hvconic")


def test_xray_writes_profiles(tmp_path, capsys):
    src = tmp_path / "L.hvset"
    invoke(capsys, "gen", "--dims", "4x4", "--box", "0,4,0,4", "--out", str(src))
    capsys.readouterr()
    code, out, _ = invoke(capsys, "xray", str(src))
    assert code == 0
    vpath, hpath = out.strip().splitlines()
    assert vpath.endswith("L_vertical.csv") and hpath.endswith("L_horizontal.csv")
    L = hv.parse_hvset(src.read_text(encoding="utf-8"))
    with open(vpath, encoding="utf-8") as fh:
        assert hv.parse_profile_csv(fh.read(), "vertical") == hv.xray_v(L)
    with open(hpath, encoding="utf-8") as fh:
        assert hv.parse_profile_csv(fh.read(), "horizontal") == hv.xray_h(L)


def test_conic_csv_and_pgm(tmp_path, capsys):
    src = tmp_path / "L.hvset"
    invoke(capsys, "gen", "--dims", "3x3", "--box", "0,3,0,3", "--out", str(src))
    csv_path = tmp_path / "f.csv"
    pgm_path = tmp_path / "f.pgm"
    code, _, _ = invoke(
        capsys, "conic", str(src), "--samples", "9x7",
        "--out", str(csv_path), "--pgm", str(pgm_path),
    )
    assert code == 0
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x,y,f" and len(lines) == 1 + 9 * 7
    pgm = pgm_path.read_text(encoding="utf-8").splitlines()
    assert pgm[0] == "P2" and pgm[1] == "9 7" and pgm[2] == "65535"
    # the full 2x2 set's field is flat at the four cell centres: all levels 0
    full = tmp_path / "full.hvset"
    full.write_text(hv.format_hvset(hv.GridSet.full(hv.GridGeometry(hv.Box(0, 2, 0, 2), 2, 2))),
                    encoding="utf-8")
    code, _, _ = invoke(capsys, "conic", str(full), "--samples", "2x2",
                        "--out", str(csv_path), "--pgm", str(pgm_path))
    assert code == 0
    assert pgm_path.read_text(encoding="utf-8") == "P2\n2 2\n65535\n0 0\n0 0\n"


def test_dist_equal_sets(tmp_path, capsys):
    src = tmp_path / "L.hvset"
    invoke(capsys, "gen", "--dims", "4x4", "--box", "0,4,0,4", "--out", str(src))
    code, out, _ = invoke(capsys, "dist", str(src), str(src))
    assert code == 0 and out.strip() == "0.0 0.0"
    # full 7x7 and 1x1 sets on a box whose 7x7 lines round past 0.9
    paths = []
    for d in (7, 1):
        paths.append(tmp_path / f"full{d}.hvset")
        full = hv.GridSet.full(hv.GridGeometry(hv.Box(0, 0.9, 0, 0.9), d, d))
        paths[-1].write_text(hv.format_hvset(full), encoding="utf-8")
    code, out, _ = invoke(capsys, "dist", *map(str, paths))
    assert code == 0 and out == "0.0 0.0\n"


def test_dist_known_pair(tmp_path, capsys):
    a = tmp_path / "a.hvset"
    b = tmp_path / "b.hvset"
    geo = hv.GridGeometry(hv.Box(0, 2, 0, 2), 2, 2)
    a.write_text(hv.format_hvset(hv.GridSet.from_cells(geo, [(0, 0), (1, 1)])), "utf-8")
    b.write_text(hv.format_hvset(hv.GridSet.from_cells(geo, [(0, 1), (1, 0)])), "utf-8")
    code, out, _ = invoke(capsys, "dist", str(a), str(b), "--subsamples", "6")
    assert code == 0
    lower, upper = (float(v) for v in out.split())
    assert lower <= 1.0 <= upper


# ---------------------------------------------------------------------------
# verify batches


def test_verify_remark2(tmp_path, capsys):
    out_file = tmp_path / "r.jsonl"
    code, _, _ = invoke(capsys, "verify", "remark2", "--out", str(out_file))
    assert code == 0  # failing counterexample is the expected outcome
    rec = json.loads(out_file.read_text(encoding="utf-8"))
    assert rec["name"] == "remark2" and rec["holds"] is False


@pytest.mark.parametrize(
    "mode,extra",
    [
        ("concavity", ["--seeds", "3"]),
        ("superadd", ["--seeds", "5"]),
        ("dilation", ["--seeds", "3", "--eps", "0.5", "--refine", "4"]),
        ("stability", ["--seeds", "3"]),
        ("convergence", ["--seeds", "2"]),
        ("convergence", ["--seeds", "2", "--resolutions", "2x2,4x4,8x8"]),
        ("polyline", ["--seeds", "4", "--eps", "0.3", "--segments", "4"]),
        # on 0,0.9 the last of 7 grid lines, 0.9000000000000001, lies past
        # the side: a set still lies inside its own box
        ("stability", ["--seeds", "20", "--box", "0,0.9,0,0.9", "--dims", "7x7"]),
        ("convergence", ["--seeds", "20", "--box", "0,0.9,0,0.9", "--dims", "7x7"]),
    ],
)
def test_verify_batches_pass(mode, extra, capsys):
    code, out, err = invoke(capsys, "verify", mode, *extra)
    assert code == 0, (mode, err)
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert reports and all(r["holds"] for r in reports)
    assert all(r["name"] for r in reports)


@pytest.mark.parametrize(
    "argv,func,name",
    [
        (["verify", "concavity", "--seeds", "2"], hv.check_concavity, "samples"),
        (["verify", "dilation", "--seeds", "2"], hv.check_dilation_bound, "refine"),
        (["verify", "stability", "--seeds", "2"], hv.check_stability_bound, "subsamples"),
        (["verify", "convergence", "--seeds", "2"], hv.check_convergence, "subsamples"),
        (["verify", "polyline", "--seeds", "2"], hv.check_polyline_bound, "refine"),
        (["dist", "a.hvset", "b.hvset"], hv.hausdorff, "subsamples"),
    ],
)
def test_left_out_option_takes_the_library_default(tmp_path, capsys, monkeypatch, argv, func,
                                                   name):
    monkeypatch.chdir(tmp_path)
    geo = hv.GridGeometry(hv.Box(0, 6, 0, 6), 6, 6)
    for k, path in enumerate(("a.hvset", "b.hvset")):
        (tmp_path / path).write_text(hv.format_hvset(hv.sample_hv_convex(geo, k)), "utf-8")
    default = inspect.signature(func).parameters[name].default
    value = "x".join(map(str, default)) if isinstance(default, tuple) else str(default)
    left_out = invoke(capsys, *argv)
    assert left_out[0] == 0 and left_out[1]
    assert invoke(capsys, *argv, f"--{name}", value) == left_out


def test_verify_convergence_block_covers_on_inexact_lines(capsys):
    # on 0,0.9 the 4x4 cover of a 12x12 set is its 3x3 block cover, though
    # the fine lines round an ulp past the coarse ones they meet
    box = hv.Box(0, 0.9, 0, 0.9)
    geo, coarse = hv.GridGeometry(box, 12, 12), hv.GridGeometry(box, 4, 4)
    code, out, _ = invoke(capsys, "verify", "convergence", "--box", "0,0.9,0,0.9",
                          "--dims", "12x12", "--resolutions", "4x4,12x12", "--seeds", "4")
    assert code == 0
    for k, line in enumerate(out.splitlines()):
        L = hv.sample_hv_convex(geo, [0, k])
        block = hv.GridSet(coarse, L.cells.reshape(4, 3, 4, 3).any(axis=(1, 3)))
        upper = json.loads(line)["witness"]["hausdorff_upper"][0]
        assert upper == hv.hausdorff(block, L).upper, k


def test_verify_writes_jsonl(tmp_path, capsys):
    out_file = tmp_path / "batch.jsonl"
    code, out, _ = invoke(
        capsys, "verify", "concavity", "--seeds", "2", "--t", "1/3",
        "--out", str(out_file),
    )
    assert code == 0 and out == ""
    lines = out_file.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 2
    assert all(json.loads(ln)["witness"]["t"] == "1/3" for ln in lines)


# ---------------------------------------------------------------------------
# reconstruct


def test_reconstruct_end_to_end(tmp_path, capsys):
    gen = tmp_path / "gen.hvset"
    invoke(capsys, "gen", "--dims", "4x4", "--box", "0,4,0,4", "--seed", "8",
           "--out", str(gen))
    problem = tmp_path / "problem.json"
    problem.write_text(
        json.dumps(
            {
                "target": {"hvset": str(gen)},
                "box": [0, 4, 0, 4],
                "dims": [4, 4],
                "budget": {"steps": 20000, "restarts": 2,
                           "initial_temperature": 4.0, "cooling": 0.9997},
                "seed": 1,
                "out_prefix": str(tmp_path / "rec"),
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = invoke(capsys, "reconstruct", str(problem))
    assert code == 0
    summary = json.loads(out)
    assert summary["objective"] == 0.0
    best = hv.parse_hvset((tmp_path / "rec.hvset").read_text(encoding="utf-8"))
    L = hv.parse_hvset(gen.read_text(encoding="utf-8"))
    assert hv.xrays_equal_ae(best, L)


def test_reconstruct_oracle_reports_optima(tmp_path, capsys):
    geo = hv.GridGeometry(hv.Box(0, 2, 0, 2), 2, 2)
    gen = tmp_path / "diag.hvset"
    gen.write_text(hv.format_hvset(hv.GridSet.from_cells(geo, [(0, 0), (1, 1)])), "utf-8")
    problem = tmp_path / "problem.json"
    problem.write_text(
        json.dumps(
            {
                "target": {"hvset": str(gen)},
                "box": [0, 2, 0, 2],
                "dims": [2, 2],
                "out_prefix": str(tmp_path / "rec"),
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = invoke(capsys, "reconstruct", str(problem), "--oracle")
    assert code == 0
    summary = json.loads(out)
    assert summary["objective"] == 0.0 and summary["optima"] == 2
    assert summary["thin_contact"] is True


def test_reconstruct_oracle_l1_bytes_frozen(tmp_path, capsys, monkeypatch):
    # outputs frozen from the per-candidate l1 scan: an X-ray target on a
    # finer grid, so the optimum is a non-zero bracket end with ties
    monkeypatch.chdir(tmp_path)
    invoke(capsys, "gen", "--dims", "7x9", "--box", "0,3,0,4", "--seed", "5",
           "--out", "gen.hvset")
    invoke(capsys, "xray", "gen.hvset", "--out-prefix", "t")
    (tmp_path / "p.json").write_text(
        json.dumps(
            {
                "target": {"xray_csv": {"vertical": "t_vertical.csv",
                                        "horizontal": "t_horizontal.csv"}},
                "box": [0, 3, 0, 4],
                "dims": [3, 4],
                "norm": "l1",
                "l1_refine": 3,
                "out_prefix": "rec",
            }
        ),
        encoding="utf-8",
    )
    code, out, err = invoke(capsys, "reconstruct", "p.json", "--oracle")
    assert (code, err) == (0, "")
    assert out == (
        '{"objective": 9.62750311583397, "optima": 3, "steps": 729, '
        '"thin_contact": false}\n'
    )
    assert (tmp_path / "rec.hvset").read_bytes() == (
        b"HVSET v1\nbox 0.0 3.0 0.0 4.0\ndims 3 4\n000\n000\n001\n001\n"
    )


def test_reconstruct_box_past_last_grid_line(tmp_path, capsys, monkeypatch):
    # on 0,0.9 the last grid line is 0.8999999999999999, so one merged
    # interval lies on the candidates' linear tail
    monkeypatch.chdir(tmp_path)
    invoke(capsys, "gen", "--dims", "3x3", "--box", "0,0.9,0,0.9", "--seed", "2",
           "--out", "gen.hvset")
    (tmp_path / "p.json").write_text(
        json.dumps({"target": {"hvset": "gen.hvset"}, "box": [0, 0.9, 0, 0.9],
                    "dims": [3, 3], "budget": {"steps": 500}, "out_prefix": "rec"}),
        encoding="utf-8",
    )
    code, out, err = invoke(capsys, "reconstruct", "p.json")
    assert (code, err) == (0, "")
    assert out.count("\n") == 1 and "objective" in json.loads(out)


def test_full_box_on_box_past_last_grid_line(tmp_path, capsys, monkeypatch):
    # full-box membership on 0,0.9 is decided on indices, so neither engine
    # rejects its own result and the checkers accept full-box pairs
    monkeypatch.chdir(tmp_path)
    invoke(capsys, "gen", "--dims", "3x3", "--box", "0,0.9,0,0.9", "--full-box", "--seed", "4",
           "--out", "gen.hvset")
    (tmp_path / "p.json").write_text(
        json.dumps({"target": {"hvset": "gen.hvset"}, "box": [0, 0.9, 0, 0.9], "dims": [3, 3],
                    "feasibility": "hv_connected_full_box", "seed": 11,
                    "budget": {"steps": 2000}, "out_prefix": "rec"}),
        encoding="utf-8",
    )
    for extra in ([], ["--oracle"]):
        code, out, err = invoke(capsys, "reconstruct", "p.json", *extra)
        assert (code, err) == (0, "") and json.loads(out)["objective"] == 0.0
        best = hv.parse_hvset((tmp_path / "rec.hvset").read_text(encoding="utf-8"))
        assert hv.in_level_set(best, best.geometry.box)
    for mode in ("concavity", "superadd"):
        code, out, err = invoke(capsys, "verify", mode, "--box", "0,0.9,0,0.9", "--dims", "3x3",
                                "--seeds", "3")
        assert (code, err) == (0, "") and out.count("\n") == 3


# ---------------------------------------------------------------------------
# default reconstruct: a target on the problem grid is answered from its
# X-ray class, every other one is annealed


@pytest.mark.parametrize("feasibility", ["hv_connected", "hv_connected_full_box"])
@pytest.mark.parametrize("norm", ["sup", "l1"])
@pytest.mark.parametrize("kind", ["hvset", "xray_csv"])
def test_on_grid_target_answered_from_its_class(tmp_path, capsys, monkeypatch, kind, norm,
                                                feasibility):
    # a box off the origin whose last grid lines round short of its sides
    monkeypatch.chdir(tmp_path)
    box = [-1.5, 0.9, 0.0, 0.9]
    geo = hv.GridGeometry(hv.Box(*box), 7, 9)
    full = feasibility == "hv_connected_full_box"
    T = hv.sample_hv_convex(geo, 37, require_full_box=full)
    (tmp_path / "t.hvset").write_text(hv.format_hvset(T), encoding="utf-8")
    assert invoke(capsys, "xray", "t.hvset", "--out-prefix", "t")[0] == 0
    target = {"hvset": "t.hvset"} if kind == "hvset" else {
        "xray_csv": {"vertical": "t_vertical.csv", "horizontal": "t_horizontal.csv"}}
    (tmp_path / "p.json").write_text(json.dumps({
        "target": target, "box": box, "dims": [7, 9], "norm": norm, "feasibility": feasibility,
        "budget": {"steps": 50}, "seed": 38, "out_prefix": "rec"}), encoding="utf-8")
    code, out, err = invoke(capsys, "reconstruct", "p.json")
    assert (code, err) == (0, "")
    summary = json.loads(out)
    assert summary["objective"] == 0.0 and summary["steps"] == 0
    best = hv.parse_hvset((tmp_path / "rec.hvset").read_text(encoding="utf-8"))
    assert hv.xrays_equal_ae(best, T)
    assert hv.in_level_set(best, geo.box) or not full


def _fallback_problem(kind):
    # p.json, in the working directory, for each way a default reconstruct
    # still anneals: a target drawn on a finer grid, a target whose X-rays
    # lie on the grid but fit no feasible set, and an on-grid target whose
    # class search reaches its node cap
    if kind == "off-grid":
        fine = hv.GridGeometry(hv.Box(0, 4, 0, 4), 8, 8)
        pathlib.Path("t.hvset").write_text(hv.format_hvset(hv.sample_hv_convex(fine, 21)),
                                           encoding="utf-8")
        target, dims = {"hvset": "t.hvset"}, [4, 4]
    else:
        geo = hv.GridGeometry(hv.Box(0, 5, 0, 5), 5, 5)
        T = hv.sample_hv_convex(geo, 23)
        rows = T.row_counts() * geo.cell_w
        if kind == "empty-class":
            # one unit moved from the fullest row to an empty one
            rows[rows.argmax()] -= geo.cell_w
            rows[rows.argmin()] += geo.cell_w
            found, capped = _search(5, 5, False, [(c, c) for c in T.col_counts().tolist()],
                                    [(int(r), int(r)) for r in rows])
            assert found.shape == (0, 5, 5) and not capped
        pathlib.Path("v.csv").write_text(hv.profile_to_csv(hv.xray_v(T)), encoding="utf-8")
        pathlib.Path("h.csv").write_text(
            hv.profile_to_csv(hv.XRayProfile("horizontal", geo.ylines(), rows)), encoding="utf-8")
        target, dims = {"xray_csv": {"vertical": "v.csv", "horizontal": "h.csv"}}, [5, 5]
    pathlib.Path("p.json").write_text(json.dumps({
        "target": target, "box": [0, dims[0], 0, dims[1]], "dims": dims,
        "budget": {"steps": 300, "restarts": 1}, "seed": 3, "out_prefix": "rec"}),
        encoding="utf-8")


# stdout (also the .json file) and the .hvset file, frozen from the
# annealer before default reconstruct answered on-grid targets
ANNEALED = {
    "off-grid": ('{"objective": 2.375, "steps": 600, "thin_contact": false}\n',
                 "HVSET v1\nbox 0.0 4.0 0.0 4.0\ndims 4 4\n0000\n0000\n0010\n0110\n"),
    "empty-class": ('{"objective": 4.0, "steps": 600, "thin_contact": false}\n',
                    "HVSET v1\nbox 0.0 5.0 0.0 5.0\ndims 5 5\n"
                    "00000\n01100\n01100\n11000\n11000\n"),
    "node-cap": ('{"objective": 8.0, "steps": 600, "thin_contact": false}\n',
                 "HVSET v1\nbox 0.0 5.0 0.0 5.0\ndims 5 5\n00100\n01100\n01000\n11000\n11000\n"),
}


@pytest.mark.parametrize("kind", list(ANNEALED))
def test_other_targets_are_annealed_as_before(tmp_path, capsys, monkeypatch, kind):
    monkeypatch.chdir(tmp_path)
    # the node-cap target occupies 4 columns, so its class search needs 4
    # column runs and stops at 3
    monkeypatch.setattr(reconstruct, "_CLASS_NODE_CAP", 3 if kind == "node-cap" else 200_000)
    _fallback_problem(kind)
    code, out, err = invoke(capsys, "reconstruct", "p.json")
    assert (code, err) == (0, "")
    assert (out, (tmp_path / "rec.hvset").read_text(encoding="utf-8")) == ANNEALED[kind]
    assert (tmp_path / "rec.json").read_text(encoding="utf-8") == out


# ---------------------------------------------------------------------------
# failure modes


def test_missing_file_is_io_error(capsys):
    code, out, err = invoke(capsys, "xray", "absent.hvset")
    assert code == 1
    assert err.startswith("ERROR IOError:")


# ---------------------------------------------------------------------------
# output files: overwritten in place, then cut to the written length


@pytest.mark.parametrize("old", [b"", b"HV", b"x" * 5000], ids=["empty", "short", "long"])
def test_gen_out_rewrites_file_exactly(tmp_path, capsys, old):
    argv = ["gen", "--dims", "8x8", "--box", "0,8,0,8", "--seed", "7"]
    _, text, _ = invoke(capsys, *argv)
    path = tmp_path / "L.hvset"
    path.write_bytes(old)
    assert invoke(capsys, *argv, "--out", str(path)) == (0, "", "")
    assert path.read_bytes() == text.encode("utf-8")


def test_gen_out_dev_null(capsys):
    # a device is written as it is: ftruncate fails on /dev/null
    assert invoke(capsys, "gen", "--dims", "4x4", "--box", "0,4,0,4", "--out", os.devnull) == (
        0, "", "")


def test_write_text_to_pipe():
    # ftruncate fails on a pipe as well
    if not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd")
    r, w = os.pipe()
    try:
        _write_text(f"/dev/fd/{w}", "HVSET\n")
        assert os.read(r, 100) == b"HVSET\n"
    finally:
        os.close(r)
        os.close(w)


def test_gen_out_directory_is_io_error(tmp_path, capsys):
    code, out, err = invoke(capsys, "gen", "--dims", "4x4", "--box", "0,4,0,4",
                            "--out", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("ERROR IOError:") and err.count("\n") == 1


def test_failed_write_leaves_file_empty(tmp_path):
    path = tmp_path / "old.txt"
    path.write_text("old bytes\n", encoding="utf-8")
    with pytest.raises(UnicodeEncodeError):
        _write_text(str(path), "\ud800")
    assert path.read_bytes() == b""


def test_new_file_mode_follows_umask(tmp_path):
    umask = os.umask(0o027)
    try:
        _write_text(str(tmp_path / "new.txt"), "text\n")
        with open(tmp_path / "reference.txt", "w", encoding="utf-8") as fh:
            fh.write("text\n")
    finally:
        os.umask(umask)
    modes = {(tmp_path / name).stat().st_mode & 0o777 for name in ("new.txt", "reference.txt")}
    assert modes == {0o640}


EMPTY_HVSET = "HVSET v1\nbox 0.0 2.0 0.0 2.0\ndims 2 2\n00\n00\n"
# UTF-16 text opens with the bytes ff fe, which are not UTF-8
FULL_HVSET_UTF16 = "HVSET v1\nbox 0.0 2.0 0.0 2.0\ndims 2 2\n11\n11\n".encode("utf-16")

# id -> (argv, error class); the files are written by the test
# an integer beyond float range
HUGE = "9" * 400

# problem files whose numeric fields hold a string or a boolean, or whose
# integer fields hold a fraction, which load_problem refuses rather than
# reads or truncates: name -> fields
NOT_A_NUMBER = {
    "fractional-refine": {"l1_refine": 2.5},
    "boolean-refine": {"l1_refine": True},
    "fractional-steps": {"budget": {"steps": 2.9}},
    "boolean-steps": {"budget": {"steps": True}},
    "fractional-restarts": {"budget": {"restarts": 1.5}},
    "fractional-seed": {"seed": 3.7},
    "boolean-seed": {"seed": True},
    "fractional-dims": {"dims": [2.5, 2]},
    "string-box": {"box": ["0", "2", 0, 2]},
    "boolean-box": {"box": [False, True, 0, 2]},
    "string-dims": {"dims": ["2", 2]},
    "string-refine": {"l1_refine": "4"},
    "string-steps": {"budget": {"steps": "200"}},
    "string-cooling": {"budget": {"cooling": "0.99"}},
    "boolean-temperature": {"budget": {"initial_temperature": True}},
    "string-seed": {"seed": "7"},
}

ERROR_ROWS = {
    "bad-header": (["xray", "bad.hvset"], "FormatError"),
    "small-lattice": (["conic", "good.hvset", "--samples", "1x5"], "InvalidParameter"),
    "huge-lattice": (["conic", "good.hvset", "--samples", "1000000x1000000"], "TooLarge"),
    "huge-subsamples": (["dist", "good.hvset", "corner.hvset", "--subsamples", "1000000"],
                        "TooLarge"),
    "empty-dist": (["dist", "empty.hvset", "good.hvset"], "EmptySet"),
    "empty-conic": (["conic", "empty.hvset", "--samples", "3x3"], "ZeroMass"),
    "empty-target": (["reconstruct", "empty.json"], "ZeroMass"),
    "enum-5x5": (["enum", "--dims", "5x5"], "TooLarge"),
    "oracle-5x4": (["reconstruct", "big.json", "--oracle"], "TooLarge"),
    "ladder-not-nested": (["verify", "convergence", "--resolutions", "3x3,4x4"],
                          "PreconditionViolated"),
    "nan-temperature": (["reconstruct", "nan.json"], "InvalidParameter"),
    "inf-temperature": (["reconstruct", "inf.json"], "InvalidParameter"),
    "zero-seeds": (["verify", "stability", "--seeds", "0"], "InvalidParameter"),
    "negative-seeds": (["verify", "remark2", "--seeds", "-3"], "InvalidParameter"),
    "zero-refine-dilation": (["verify", "dilation", "--seeds", "1", "--refine", "0"],
                             "InvalidParameter"),
    "zero-refine-polyline": (["verify", "polyline", "--seeds", "1", "--refine", "0"],
                             "InvalidParameter"),
    "negative-segments": (["verify", "polyline", "--seeds", "1", "--segments", "-5"],
                          "InvalidParameter"),
    "overflow-lattice": (["conic", "good.hvset", "--samples", f"{HUGE}x3"], "TooLarge"),
    "overflow-subsamples": (["dist", "good.hvset", "corner.hvset", "--subsamples", HUGE],
                            "TooLarge"),
    "overflow-subsamples-stability": (["verify", "stability", "--seeds", "1",
                                       "--subsamples", HUGE], "TooLarge"),
    "overflow-subsamples-convergence": (["verify", "convergence", "--seeds", "1",
                                         "--subsamples", HUGE], "TooLarge"),
    "overflow-refine-dilation": (["verify", "dilation", "--seeds", "1", "--refine", HUGE],
                                 "TooLarge"),
    "overflow-refine-polyline": (["verify", "polyline", "--seeds", "1", "--refine", HUGE],
                                 "TooLarge"),
    **{name: (["reconstruct", f"{name}.json"], "FormatError") for name in NOT_A_NUMBER},
    # grids past 2**24 cells are refused before their cell mask is allocated
    "huge-gen": (["gen", "--dims", "100000x100000", "--box", "0,1,0,1"], "TooLarge"),
    "huge-stability": (["verify", "stability", "--seeds", "1", "--dims", "100000x100000"],
                       "TooLarge"),
    "huge-convergence": (["verify", "convergence", "--seeds", "1", "--dims", "8x8",
                          "--resolutions", "100000x100000"], "TooLarge"),
    "huge-superadd": (["verify", "superadd", "--seeds", "1", "--dims", "200x200",
                       "--t", "1/1000"], "TooLarge"),
    "huge-reconstruct": (["reconstruct", "huge.json"], "TooLarge"),
    # a chain draws every proposal up front, so its steps are capped
    "huge-steps": (["reconstruct", "huge-steps.json"], "TooLarge"),
    # every text input is read as UTF-8
    "utf16-dist": (["dist", "good.hvset", "utf16.hvset"], "FormatError"),
    "utf16-xray": (["xray", "utf16.hvset"], "FormatError"),
    "utf16-conic": (["conic", "utf16.hvset", "--samples", "3x3"], "FormatError"),
    "utf16-problem": (["reconstruct", "utf16.json"], "FormatError"),
    "utf16-target": (["reconstruct", "utf16-target.json"], "FormatError"),
    "utf16-target-csv": (["reconstruct", "utf16-csv.json"], "FormatError"),
    # the l1 integral over a box of side 1e70 overflows, for both engines;
    # the target is drawn on 6x6, so it is off the 3x3 grid and no X-ray
    # class answers it
    "overflow-l1": (["reconstruct", "far-l1.json"], "InvalidParameter"),
    "overflow-l1-oracle": (["reconstruct", "far-l1.json", "--oracle"], "InvalidParameter"),
    # a coordinate of 1e160 squares past float range in the sup annealer
    "overflow-sup": (["reconstruct", "far-sup.json"], "InvalidParameter"),
}


@pytest.mark.parametrize("argv,cls", list(ERROR_ROWS.values()), ids=list(ERROR_ROWS))
def test_domain_error_reports_class(tmp_path, capsys, monkeypatch, argv, cls):
    monkeypatch.chdir(tmp_path)
    geo = hv.GridGeometry(hv.Box(0, 2, 0, 2), 2, 2)
    (tmp_path / "bad.hvset").write_text("HVSET v9\n", encoding="utf-8")
    (tmp_path / "good.hvset").write_text(hv.format_hvset(hv.GridSet.full(geo)), encoding="utf-8")
    (tmp_path / "empty.hvset").write_text(EMPTY_HVSET, encoding="utf-8")
    (tmp_path / "corner.hvset").write_text(
        hv.format_hvset(hv.GridSet.from_cells(geo, [(0, 0)])), encoding="utf-8")
    (tmp_path / "utf16.hvset").write_bytes(FULL_HVSET_UTF16)
    (tmp_path / "utf16.json").write_bytes(
        json.dumps({"target": {"hvset": "good.hvset"}}).encode("utf-16"))
    (tmp_path / "good.csv").write_text(hv.profile_to_csv(hv.xray_h(hv.GridSet.full(geo))),
                                       encoding="utf-8")
    (tmp_path / "utf16.csv").write_bytes(hv.profile_to_csv(hv.xray_v(hv.GridSet.full(geo)))
                                         .encode("utf-16"))
    for name, target in (("utf16-target", {"hvset": "utf16.hvset"}),
                         ("utf16-csv", {"xray_csv": {"vertical": "utf16.csv",
                                                     "horizontal": "good.csv"}})):
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"target": target, "box": [0, 2, 0, 2], "dims": [2, 2]}), encoding="utf-8")
    for name, target, dims, budget in (
        ("empty", "empty.hvset", [2, 2], {}),
        ("big", "good.hvset", [5, 4], {}),
        ("nan", "good.hvset", [2, 2], {"initial_temperature": float("nan")}),
        ("inf", "good.hvset", [2, 2], {"initial_temperature": float("inf")}),
        ("huge", "good.hvset", [100000, 100000], {}),
        ("huge-steps", "good.hvset", [2, 2], {"steps": 1e12}),
    ):
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"target": {"hvset": target}, "box": [0, 2, 0, 2], "dims": dims,
                        "budget": budget, "out_prefix": name}),
            encoding="utf-8",
        )
    for name, box, norm in (("far-l1", [0, 1e70, 0, 1e70], "l1"),
                            ("far-sup", [0, 1e160, 0, 1e-150], "sup")):
        far = hv.GridGeometry(hv.Box(*box), 6, 6)
        (tmp_path / f"{name}.hvset").write_text(hv.format_hvset(hv.sample_hv_convex(far, 5)),
                                                encoding="utf-8")
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"target": {"hvset": f"{name}.hvset"}, "box": box, "dims": [3, 3],
                        "norm": norm, "out_prefix": name}), encoding="utf-8")
    for name, fields in NOT_A_NUMBER.items():
        spec = {"target": {"hvset": "good.hvset"}, "box": [0, 2, 0, 2], "dims": [2, 2],
                "out_prefix": name}
        (tmp_path / f"{name}.json").write_text(json.dumps(spec | fields), encoding="utf-8")
    code, _, err = invoke(capsys, *argv)
    assert code == 1
    assert err.startswith(f"ERROR {cls}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_failure_exits_one(tmp_path, capsys):
    # an eps far above the dilation slack makes the bound fail honestly:
    # no such eps exists (the bound scales with eps), so force a failing
    # batch through a precondition instead
    code, _, err = invoke(capsys, "verify", "dilation", "--eps", "-1")
    assert code == 1
    assert err.startswith("ERROR PreconditionViolated:")


def test_usage_errors_exit_two(capsys):
    assert invoke(capsys, "gen", "--dims", "4x4")[0] == 2  # missing --box
    assert invoke(capsys, "gen", "--dims", "axb", "--box", "0,1,0,1")[0] == 2
    assert invoke(capsys, "nosuchcommand")[0] == 2
    assert invoke(capsys, "verify", "nosuchmode")[0] == 2
    assert invoke(capsys)[0] == 2
    assert invoke(capsys, "gen", "--dims", "0x4", "--box", "0,1,0,1")[0] == 2
    # --resolutions is parsed by the command, not by argparse
    for ladder in ("0x2", "2x2,bad"):
        code, out, err = invoke(capsys, "verify", "convergence", "--seeds", "1",
                                "--resolutions", ladder)
        assert code == 2 and out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["gen", "--dims", "3x3", "--box", "1,0,0,1"],
                                  ["verify", "concavity", "--t", "1/0"]])
def test_bad_option_value_is_one_usage_error(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"usage: hvconic {argv[0]}")
    assert [line for line in err.splitlines() if ": error: " in line] == [
        err.splitlines()[-1]]


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--dims", "4x4", "--box", "0,4,0,4", "--seed", "-1"],
        ["verify", "concavity", "--seeds", "1", "--seed", "-1"],
        ["verify", "polyline", "--seeds", "1", "--seed", "-1"],
    ],
)
def test_negative_seed_is_invalid_parameter(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("ERROR InvalidParameter:") and err.count("\n") == 1


@pytest.mark.parametrize("mode", ["dilation", "polyline"])
@pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
def test_non_finite_eps_is_one_error_line(capsys, mode, eps):
    code, out, err = invoke(capsys, "verify", mode, "--seeds", "1", f"--eps={eps}")
    assert code == 1 and out == ""
    assert err.startswith("ERROR PreconditionViolated:") and err.count("\n") == 1


@pytest.mark.parametrize("mode,eps", [("dilation", "1e308"), ("polyline", "1e308"),
                                      ("polyline", "1e-9")])
def test_oversized_raster_is_one_error_line(capsys, mode, eps):
    # the raster size is checked before it is rounded or allocated: 1e308
    # overflows it to inf, 1e-9 asks for about 2e21 tube cells
    code, out, err = invoke(capsys, "verify", mode, "--seeds", "1", f"--eps={eps}")
    assert code == 1 and out == ""
    assert err.startswith("ERROR TooLarge:") and err.count("\n") == 1


def test_huge_dims_hvset_is_format_error(tmp_path, capsys):
    bad = tmp_path / "huge.hvset"
    bad.write_text("HVSET v1\nbox 0 1 0 1\ndims 10000000000000 1\n0\n", encoding="utf-8")
    code, out, err = invoke(capsys, "xray", str(bad))
    assert code == 1 and out == ""
    assert err.startswith("ERROR FormatError:") and err.count("\n") == 1


# a child process whose address space is capped at 2 GiB: a missing size
# guard fails there at once as a MemoryError instead of exhausting the machine
LIMITED_RUN = ("import resource, sys\n"
               "resource.setrlimit(resource.RLIMIT_AS,"
               " (2 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
               "from hvconic.cli import run\nsys.exit(run(sys.argv[1:]))\n")
# argv -> exit code; each oversized lattice is refused before it is built
LIMITED = {
    "concavity": (["verify", "concavity", "--seeds", "1"], 0),
    "concavity-lattice": (["verify", "concavity", "--seeds", "1", "--dims", "16x16",
                           "--box", "0,16,0,16", "--samples", "16777217x2"], 1),
    # an on-grid target: the class route's rescore builds the quadrature
    "l1-quadrature": (["reconstruct", "p.json"], 1),
    "l1-quadrature-oracle": (["reconstruct", "p.json", "--oracle"], 1),
}


@pytest.mark.parametrize("argv,code", list(LIMITED.values()), ids=list(LIMITED))
def test_size_guards_under_a_memory_limit(tmp_path, argv, code):
    pytest.importorskip("resource")
    geo = hv.GridGeometry(hv.Box(0, 3, 0, 3), 3, 3)
    (tmp_path / "t.hvset").write_text(hv.format_hvset(hv.sample_hv_convex(geo, 5)),
                                      encoding="utf-8")
    (tmp_path / "p.json").write_text(json.dumps({
        "target": {"hvset": str(tmp_path / "t.hvset")}, "box": [0, 3, 0, 3], "dims": [3, 3],
        "norm": "l1", "l1_refine": 200_000, "out_prefix": str(tmp_path / "rec")}),
        encoding="utf-8")
    argv = [str(tmp_path / a) if a == "p.json" else a for a in argv]
    proc = subprocess.run([sys.executable, "-c", LIMITED_RUN, *argv], capture_output=True,
                          text=True, encoding="utf-8", timeout=120,
                          env=os.environ | {"OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stdout == ""
        assert proc.stderr.startswith("ERROR TooLarge: ") and proc.stderr.count("\n") == 1
    else:
        assert proc.stderr == ""


def _problem(tmp_path, **fields):
    geo = hv.GridGeometry(hv.Box(0, 2, 0, 2), 2, 2)
    gen = tmp_path / "gen.hvset"
    gen.write_text(hv.format_hvset(hv.GridSet.full(geo)), "utf-8")
    body = {"target": {"hvset": str(gen)}, "box": [0, 2, 0, 2], "dims": [2, 2],
            "out_prefix": str(tmp_path / "rec")}
    body.update(fields)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(body), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "fields",
    [
        {"box": [0, 4, 0]},
        {"dims": ["a", 4]},
        {"target": 5},
        {"budget": {"steps": "x"}},
        {"budget": 5},
        {"dims": [2]},
        {"dims": [float("inf"), 2]},
        {"seed": "x"},
        {"budget": {"seed": 2}},
        {"l1_refine": None},
        {"target": {"hvset": 5}},
        {"target": {"xray_csv": ["v.csv", "h.csv"]}},
        {"budget": {"foo": 1}},
        {"out_prefix": None},
        {"out_prefix": ["a", "b"]},
        {"out_prefix": 5},
    ],
)
def test_bad_problem_field_is_format_error(tmp_path, capsys, fields):
    for extra in ([], ["--oracle"]):
        code, out, err = invoke(capsys, "reconstruct", _problem(tmp_path, **fields), *extra)
        assert code == 1 and out == ""
        assert err.startswith("ERROR FormatError:") and err.count("\n") == 1


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_non_finite_profile_is_format_error(tmp_path, capsys, bad):
    rows = "t_lo,t_hi,value\n0.0,1.0,1.0\n1.0,2.0,{}\n".format(bad)
    (tmp_path / "v.csv").write_text(rows, encoding="utf-8")
    (tmp_path / "h.csv").write_text(rows, encoding="utf-8")
    target = {"xray_csv": {"vertical": str(tmp_path / "v.csv"),
                           "horizontal": str(tmp_path / "h.csv")}}
    for extra in ([], ["--oracle"]):
        code, out, err = invoke(capsys, "reconstruct", _problem(tmp_path, target=target), *extra)
        assert code == 1 and out == ""
        assert err.startswith("ERROR FormatError:") and err.count("\n") == 1


def test_parser_built_once_and_output_unchanged(capsys):
    assert _build_parser() is _build_parser()
    # argparse resolves sys.stderr when it prints, so a cached parser still
    # writes to the stream captured for each call
    first = invoke(capsys, "gen", "--dims", "4x4")
    second = invoke(capsys, "gen", "--dims", "4x4")
    assert first == second and first[0] == 2 and "--box" in first[2]
    assert invoke(capsys, "enum", "--dims", "2x2") == (0, "15\n", "")


def test_readme_commands_run(tmp_path, capsys, monkeypatch):
    # every hvconic line of the README's CLI block, in a directory holding
    # the files those lines read: M.hvset, and problem.json from the
    # README's problem-file block with its target made by gen
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    cli = readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    commands = re.search(r"```sh\n(.*?)```", cli, re.S).group(1)
    problem = re.search(r"```json\n(.*?)```", cli, re.S).group(1)
    lines = [line for line in commands.splitlines() if line.startswith("hvconic ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    spec = json.loads(problem)
    (tmp_path / "problem.json").write_text(problem, encoding="utf-8")
    # the target's seed differs from the problem's, so chain 0 does not
    # start on the target
    for dims, box, seed, out in (("8x8", "0,8,0,8", 8, "M.hvset"),
                                 ("{}x{}".format(*spec["dims"]), ",".join(map(str, spec["box"])),
                                  spec["seed"] + 1, spec["target"]["hvset"])):
        assert invoke(capsys, "gen", "--dims", dims, "--box", box, "--seed", str(seed),
                      "--out", out)[0] == 0
    for line in lines:
        code, _, err = invoke(capsys, *shlex.split(line, comments=True)[1:])
        assert code == 0, (line, err)


def test_console_entry_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hvconic.cli", "enum", "--dims", "1x2"],
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"


def test_console_script_runs(capsys, monkeypatch):
    # the `hvconic` command that pyproject.toml installs, as installers call it
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["hvconic"]
    module, _, name = target.partition(":")
    main = getattr(importlib.import_module(module), name)
    monkeypatch.setattr(sys, "argv", ["hvconic", "enum", "--dims", "2x2"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0 and capsys.readouterr().out == "15\n"


def test_one_shot_commands_do_not_import_numpy_ma(tmp_path):
    # importing numpy.ma costs about 17 ms, which a one-shot reconstruct or
    # verify process need not pay (np.unique's plain call imports it)
    geo = hv.GridGeometry(hv.Box(0, 4, 0, 4), 4, 4)
    target = tmp_path / "target.hvset"
    target.write_text(hv.format_hvset(hv.sample_hv_convex(geo, 3)), encoding="utf-8")
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "target": {"hvset": str(target)}, "box": [0, 4, 0, 4], "dims": [4, 4],
        "budget": {"steps": 200}, "out_prefix": str(tmp_path / "result")}), encoding="utf-8")
    script = ("import contextlib, io, sys\nfrom hvconic.cli import run\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n    code = run(sys.argv[1:])\n"
              "print(code, 'numpy.ma' in sys.modules)\n")
    for argv in (["reconstruct", str(problem)], ["reconstruct", str(problem), "--oracle"],
                 ["verify", "stability", "--seeds", "1"],
                 ["verify", "convergence", "--seeds", "1"]):
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                              text=True, encoding="utf-8", timeout=120)
        assert (proc.stdout, proc.stderr) == ("0 False\n", ""), argv
