"""The three workloads: their inputs, their operations and the checks on
every output.

A workload's ``build`` writes its input files through the CLI into a
directory and returns the operations of one round.  An operation is one
or more ``hvconic`` command lines plus the files they write; its check
compares those outputs with the reference computations in
``reference.py`` and returns ``(problems, facts)``: a list of what is
wrong (empty when the outputs are correct) and facts the run reports.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from reference import (
    Cells,
    ExactField,
    Family,
    enumerate_family,
    field_scale,
    has_full_projections,
    is_connected8,
    is_hv_convex,
    max_node_difference,
    parse_hvset,
    report_digest,
)


@dataclass
class Op:
    key: str
    calls: list[list[str]]
    files: list[str]
    check: Callable[[list[str], dict[str, str]], tuple[list[str], dict]]
    grid: tuple  # (m, n, full_box) of the feasible family the operation works on


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _same_xrays(a: Cells, b: Cells) -> bool:
    return a.col_counts() == b.col_counts() and a.row_counts() == b.row_counts()


def _check_best_set(best: Cells, target: Cells) -> list[str]:
    problems = []
    if (best.box, best.m, best.n) != (target.box, target.m, target.n):
        problems.append("result set is not on the problem grid")
    elif not (is_hv_convex(best) and is_connected8(best)):
        problems.append("result set is not hv-convex and connected")
    return problems


def _xray_target(call, target: str) -> dict:
    """Write both X-ray CSVs of a set file; returns the problem's target entry."""
    call(["xray", target])
    stem = target[: -len(".hvset")]
    return {"xray_csv": {"vertical": stem + "_vertical.csv", "horizontal": stem + "_horizontal.csv"}}


def _check_summary(stdout: str, files: dict[str, str], prefix: str) -> tuple[list[str], dict]:
    problems = []
    summary = json.loads(stdout)
    if stdout != files[prefix + ".json"]:
        problems.append("stdout summary differs from the result JSON file")
    return problems, summary


# ---------------------------------------------------------------------------
# anneal


class Anneal:
    """Sup-norm reconstruction by annealing, targets given as X-ray CSVs.

    On a 7x7 grid with 2 chains of 1000 steps today's annealer recovers
    about one target in ten exactly and runs the whole budget on the
    rest, so time to a solution and search quality both show.  With the
    recovered share well below a half, the median operation is one that
    ran the whole budget, not one on the edge between the two groups.  A
    round of 80 targets takes about 4 s, so a run repeats every operation
    seven to nine times.

    An annealer step costs more on a larger set, and the cell counts of
    ``gen``'s 7x7 draws have a long tail (median 4, 90th percentile 10, up
    to 26), so freely drawn targets would let a seed's few largest draws
    set the round's work and its p90.  Every round holds the same size mix
    instead: the set-up draws 240 candidates (more only if a class is still
    short, which is rare) and keeps them in draw order while their
    cell-count class has room.  The quotas are each class's share of 4000
    draws.  A fixed number of draws keeps the set-up's work the same for
    every seed.
    """

    name = "anneal"
    DIMS = 7
    STEPS = 1000
    RESTARTS = 1
    # (fewest cells, most cells, targets of a round in that class)
    SIZE_QUOTAS = ((1, 2, 21), (3, 4, 19), (5, 6, 16), (7, 9, 13),
                   (10, 11, 5), (12, 13, 3), (14, 49, 3))
    TARGETS = sum(q for _, _, q in SIZE_QUOTAS)
    DRAWS = 240

    def reference(self) -> None:
        return None

    def build(self, call, d: str, seed: int, hv, ref) -> list[Op]:
        rnd = random.Random(seed)
        m = self.DIMS
        room = {(lo, hi): quota for lo, hi, quota in self.SIZE_QUOTAS}

        def draw(i: int) -> str:
            path = os.path.join(d, f"draw{i}.hvset")
            call(["gen", "--dims", f"{m}x{m}", "--box", f"0,{m},0,{m}",
                  "--seed", str(rnd.randrange(2**31)), "--out", path])
            return path

        candidates = [draw(i) for i in range(self.DRAWS)]
        ops = []
        i = 0
        while len(ops) < self.TARGETS:
            path = candidates[i] if i < len(candidates) else draw(i)
            i += 1
            size = len(parse_hvset(_read(path)).cells)
            cls = next(c for c in room if c[0] <= size <= c[1])
            if not room[cls]:
                continue
            room[cls] -= 1
            k = len(ops)
            target = os.path.join(d, f"target{k}.hvset")
            os.replace(path, target)
            problem = os.path.join(d, f"problem{k}.json")
            prefix = os.path.join(d, f"result{k}")
            _write_json(problem, {
                "target": _xray_target(call, target),
                "box": [0, m, 0, m],
                "dims": [m, m],
                "norm": "sup",
                "budget": {"steps": self.STEPS, "restarts": self.RESTARTS},
                "seed": rnd.randrange(2**31),
                "out_prefix": prefix,
            })
            ops.append(Op(f"anneal/{k}", [["reconstruct", problem]],
                          [prefix + ".hvset", prefix + ".json"],
                          _anneal_check(target, prefix, self.STEPS * (self.RESTARTS + 1)),
                          (m, m, False)))
        return ops


def _anneal_check(target_path: str, prefix: str, max_steps: int):
    def check(stdouts, files):
        problems, summary = _check_summary(stdouts[0], files, prefix)
        target = parse_hvset(_read(target_path))
        best = parse_hvset(files[prefix + ".hvset"])
        problems += _check_best_set(best, target)
        if problems:
            return problems, {}
        objective = summary["objective"]
        exact = max_node_difference(best, target)
        if objective < float(exact) - 1e-9 * field_scale(target):
            problems.append(f"objective {objective!r} below the exact node difference {float(exact)!r}")
        same = _same_xrays(best, target)
        if (objective == 0.0) != same:
            problems.append(f"objective {objective!r} but X-rays equal: {same}")
        if not 0 <= summary["steps"] <= max_steps:
            problems.append(f"steps {summary['steps']} outside the budget {max_steps}")
        return problems, {"exact": same}

    return check


# ---------------------------------------------------------------------------
# oracle


class Oracle:
    """Exhaustive reconstruction with all tied optima, plus enumeration counts.

    Every round holds the same mix: sup problems at 4x4 in both
    feasibility modes (full-box targets given as X-ray CSVs, the others as
    HVSET files), L1 problems at 3x3, and four ``enum`` counts.  All
    operations of a kind share one grid, so nearly every operation lands on
    a feasible family the run has already scanned.  Each 4x4 scan costs
    about 0.2 s, so a round holds 22 operations (about 4.5 s) and a run
    repeats each of them seven to nine times.
    """

    name = "oracle"
    SUP_HV = 6
    SUP_FULL = 6
    L1 = 6
    ENUMS = (("4x4", False), ("4x4", True), ("3x4", False), ("3x3", True))

    def reference(self) -> dict[tuple[int, int], Family]:
        return {(m, n): enumerate_family(m, n) for m, n in ((4, 4), (3, 3), (3, 4))}

    def build(self, call, d: str, seed: int, hv, families) -> list[Op]:
        rnd = random.Random(seed)
        kinds = (["sup-hv"] * self.SUP_HV + ["sup-full"] * self.SUP_FULL + ["l1"] * self.L1)
        ops = []
        for k, kind in enumerate(kinds):
            m = 3 if kind == "l1" else 4
            full = kind == "sup-full"
            target = os.path.join(d, f"target{k}.hvset")
            call(["gen", "--dims", f"{m}x{m}", "--box", f"0,{m},0,{m}",
                  "--seed", str(rnd.randrange(2**31))]
                 + (["--full-box"] if full else []) + ["--out", target])
            problem = os.path.join(d, f"problem{k}.json")
            prefix = os.path.join(d, f"result{k}")
            _write_json(problem, {
                "target": _xray_target(call, target) if full else {"hvset": target},
                "box": [0, m, 0, m],
                "dims": [m, m],
                "norm": "l1" if kind == "l1" else "sup",
                "feasibility": "hv_connected_full_box" if full else "hv_connected",
                "seed": rnd.randrange(2**31),
                "out_prefix": prefix,
            })
            ops.append(Op(f"{kind}/{k}", [["reconstruct", "--oracle", problem]],
                          [prefix + ".hvset", prefix + ".json"],
                          _oracle_check(target, prefix, families[m, m], full, kind == "l1"),
                          (m, m, full)))
        for dims, full in self.ENUMS:
            m, n = (int(v) for v in dims.split("x"))
            fam = families[m, n]
            ops.append(Op(f"enum/{dims}{'/full' if full else ''}",
                          [["enum", "--dims", dims] + (["--full-box"] if full else [])],
                          [], _enum_check(fam.size_full if full else fam.size), (m, n, full)))
        rnd.shuffle(ops)
        return ops


def _oracle_check(target_path: str, prefix: str, fam: Family, full: bool, l1: bool):
    def check(stdouts, files):
        problems, summary = _check_summary(stdouts[0], files, prefix)
        target = parse_hvset(_read(target_path))
        best = parse_hvset(files[prefix + ".hvset"])
        problems += _check_best_set(best, target)
        size = fam.size_full if full else fam.size
        if summary["steps"] != size:
            problems.append(f"scanned {summary['steps']} sets, the family has {size}")
        if summary["objective"] != 0.0:
            problems.append(f"target not recovered: objective {summary['objective']!r}")
        if not _same_xrays(best, target):
            problems.append("best set has other X-rays than the target")
        if full and not has_full_projections(best):
            problems.append("full-box result without full projections")
        sharing = (fam.by_xrays_full if full else fam.by_xrays)[target.col_counts(), target.row_counts()]
        optima = summary.get("optima")
        # sup ties are exact; an L1 tie is an overlapping bracket, so more
        # sets than those sharing the X-rays may tie
        if (optima != sharing) if not l1 else not (sharing <= optima <= size):
            problems.append(f"optima {optima}, {sharing} feasible sets share the target's X-rays")
        return problems, {}

    return check


def _enum_check(expected: int):
    def check(stdouts, files):
        if stdouts[0] != f"{expected}\n":
            return [f"enum printed {stdouts[0]!r}, expected {expected}"], {}
        return [], {}

    return check


# ---------------------------------------------------------------------------
# verify


class Verify:
    """One operation is one seed through every checker mode but remark2, plus
    ``conic`` with a field CSV and PGM and ``dist`` on that seed's two sets.

    On a 16x16 grid with coarse raster settings (dilation refine 4, tube
    refine 16) the norms, Hausdorff and cover layers keep a visible share
    beside the dilation and tube raster loops.  A round holds 80
    operations (about 4.5 s), so a run repeats each of them six to eight
    times.
    """

    name = "verify"
    DIMS = 16
    SAMPLES = "33x33"
    OPS = 80
    MODES = {
        "concavity": [],
        "superadd": [],
        "stability": [],
        "convergence": [],
        "dilation": ["--eps", "0.5", "--refine", "4"],
        "polyline": ["--eps", "0.25", "--segments", "6", "--refine", "16"],
    }

    def reference(self) -> None:
        return None

    def build(self, call, d: str, seed: int, hv, ref) -> list[Op]:
        rnd = random.Random(seed)
        m = self.DIMS
        box = f"0,{m},0,{m}"
        sample = _program_sampler(hv, m)
        ops = []
        for k in range(self.OPS):
            vseed = rnd.randrange(2**31)
            sets = []
            for which in "LM":
                path = os.path.join(d, f"{which}{k}.hvset")
                call(["gen", "--dims", f"{m}x{m}", "--box", box,
                      "--seed", str(rnd.randrange(2**31)), "--out", path])
                sets.append(path)
            reports = {mode: os.path.join(d, f"{mode}{k}.jsonl") for mode in self.MODES}
            csv, pgm = os.path.join(d, f"field{k}.csv"), os.path.join(d, f"field{k}.pgm")
            calls = [["verify", mode, "--seeds", "1", "--seed", str(vseed), "--dims", f"{m}x{m}",
                      "--box", box, "--out", reports[mode]] + extra
                     for mode, extra in self.MODES.items()]
            calls.append(["conic", sets[0], "--samples", self.SAMPLES, "--out", csv, "--pgm", pgm])
            calls.append(["dist", sets[0], sets[1]])
            ops.append(Op(f"verify/{k}", calls, list(reports.values()) + [csv, pgm],
                          _verify_check(reports, csv, pgm, sets[0], vseed, sample),
                          (m, m, False)))
        return ops


def _program_sampler(hv, m: int):
    """The sets a checker batch draws for ``--seed s`` (first item of the
    batch), taken from the program's own sampler.  The check ties them to
    the report through its inputs digest, recomputed with the benchmark's
    own HVSET writer."""

    def sample(seed_parts) -> Cells:
        geo = hv.grid.GridGeometry(hv.grid.Box(0.0, float(m), 0.0, float(m)), m, m)
        L = hv.grid.sample_hv_convex(geo, seed_parts)
        cells = frozenset((int(i), int(j)) for i, j in L.occupied())
        return Cells((0.0, float(m), 0.0, float(m)), m, m, cells)

    return sample


def _verify_check(reports, csv, pgm, set_path, vseed, sample):
    def check(stdouts, files):
        problems = []
        for mode, path in reports.items():
            lines = files[path].splitlines()
            if len(lines) != 1:
                problems.append(f"{mode}: expected one report line, got {len(lines)}")
                continue
            rep = json.loads(lines[0])
            if rep["name"] != mode or rep["holds"] is not True:
                problems.append(f"{mode}: report {rep['name']!r} does not hold")
            if rep["holds"] != (rep["margin"] >= -rep["bracket_error"]):
                problems.append(f"{mode}: holds disagrees with margin and bracket_error")
            if mode == "stability":
                problems += _stability_problems(rep, vseed, sample)
        problems += _field_problems(files[csv], files[pgm], parse_hvset(_read(set_path)))
        try:
            lower, upper = (float(v) for v in stdouts[-1].split())
        except ValueError:
            return problems + [f"dist printed {stdouts[-1]!r}"], {}
        if not 0.0 <= lower <= upper:
            problems.append(f"dist bracket [{lower}, {upper}] is not ordered")
        return problems, {}

    return check


def _stability_problems(rep: dict, vseed: int, sample) -> list[str]:
    K, L = sample([vseed, 0, 0]), sample([vseed, 0, 1])
    if report_digest(K, L, 4) != rep["inputs_digest"]:
        return ["stability: the report was made from other sets than the seed gives"]
    measured = rep["witness"]["measured"]
    exact = max_node_difference(K, L)
    tol = 1e-9 * max(field_scale(K), field_scale(L))
    if measured < float(exact) - tol:
        return [f"stability: measured {measured!r} below the exact node difference {float(exact)!r}"]
    return []


def _field_problems(csv_text: str, pgm_text: str, s: Cells) -> list[str]:
    rows = csv_text.splitlines()
    if not rows or rows[0] != "x,y,f":
        return ["field CSV header"]
    pts = [tuple(float(v) for v in r.split(",")) for r in rows[1:]]
    xs = sorted({p[0] for p in pts})
    ys = sorted({p[1] for p in pts})
    a, b, c, d = s.box
    if len(pts) != len(xs) * len(ys) or (xs[0], xs[-1], ys[0], ys[-1]) != (a, b, c, d):
        return ["field CSV is not a lattice spanning the box"]
    exact = ExactField(s)
    u = {x: exact.u(x) for x in xs}
    v = {y: exact.v(y) for y in ys}
    tol = 1e-9 * field_scale(s)
    bad = [(x, y) for x, y, f in pts if abs(f - float(u[x] + v[y])) > tol]
    if bad:
        return [f"field CSV differs from the exact field at {len(bad)} points, first {bad[0]}"]
    # PGM: P2, width height, 65535, rows from the top, min-max normalized levels
    lines = pgm_text.splitlines()
    px, py = len(xs), len(ys)
    if lines[:3] != ["P2", f"{px} {py}", "65535"] or len(lines) != 3 + py:
        return ["PGM header or row count"]
    fvals = {(x, y): f for x, y, f in pts}
    lo, hi = min(fvals.values()), max(fvals.values())
    for r, line in enumerate(lines[3:]):
        y = ys[py - 1 - r]
        levels = [int(t) for t in line.split()]
        want = [round((fvals[x, y] - lo) / (hi - lo) * 65535) for x in xs]
        if len(levels) != px or any(abs(p - q) > 1 for p, q in zip(levels, want)):
            return [f"PGM row {r} does not match the field CSV"]
    return []


WORKLOADS = {w.name: w for w in (Anneal(), Oracle(), Verify())}
