"""Self-test of the benchmark's checks: each must pass a real output and
reject the same output with a planted fault.

    python3 bench/selftest.py

Runs from the root of a source checkout, builds a small set of inputs for
each workload through the CLI, runs one operation of every kind, and
exits 0 only if every check accepts the real outputs and rejects every
planted wrong one.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from fractions import Fraction

import run
from reference import Cells, ExactField, enumerate_family, format_hvset, is_connected8, is_hv_convex
from workloads import WORKLOADS

FAILURES: list[str] = []


def expect(name: str, ok: bool) -> None:
    print(f"selftest: {name}: {'ok' if ok else 'FAILED'}")
    if not ok:
        FAILURES.append(name)


def verdict(op, stdouts, files) -> list[str]:
    try:
        return op.check(stdouts, files)[0]
    except Exception as exc:  # the run counts a check that raises as a rejection
        return [repr(exc)]


def outputs(cli, op):
    stdouts = []
    for argv in op.calls:
        _, rc, out, err = run._invoke(cli, argv)
        assert rc == 0, (argv, err)
        stdouts.append(out)
    files = {}
    for path in op.files:
        with open(path, encoding="utf-8") as fh:
            files[path] = fh.read()
    return stdouts, files


def planted(op, stdouts, files, name, edit) -> None:
    """Apply ``edit`` to copies of the outputs; the check must reject them."""
    s2, f2 = list(stdouts), dict(files)
    edit(s2, f2)
    expect(f"{op.key} rejects {name}", bool(verdict(op, s2, f2)))


def _edit_summary(prefix, **changes):
    def edit(stdouts, files):
        doc = json.loads(stdouts[0])
        doc.update(changes)
        text = json.dumps(doc, sort_keys=True) + "\n"
        stdouts[0] = files[prefix + ".json"] = text
    return edit


def reference_tests() -> None:
    expect("4x4 family has 3411 sets", enumerate_family(4, 4).size == 3411)
    box = (0.0, 3.0, 0.0, 3.0)
    ell = Cells(box, 3, 3, frozenset({(0, 0), (1, 0), (0, 1)}))
    gap = Cells(box, 3, 3, frozenset({(0, 0), (2, 0)}))
    diagonal = Cells(box, 3, 3, frozenset({(0, 0), (1, 1)}))
    hole = Cells(box, 3, 3, frozenset((i, j) for i in range(3) for j in range(3)) - {(1, 1)})
    expect("predicates accept an L", is_hv_convex(ell) and is_connected8(ell))
    expect("predicates accept corner contact", is_hv_convex(diagonal) and is_connected8(diagonal))
    expect("hv-convexity rejects a gap in a row", not is_hv_convex(gap))
    expect("hv-convexity rejects a hole", not is_hv_convex(hole))
    expect("connectivity rejects two cells apart", not is_connected8(gap))
    unit = Cells((0.0, 1.0, 0.0, 1.0), 1, 1, frozenset({(0, 0)}))
    field = ExactField(unit)
    # f(0, 0) = integral over the unit square of (a + b) = 1
    expect("exact field of a unit cell", field.u(0) + field.v(0) == 1)
    expect("exact field at the centre", field.u(0.5) + field.v(0.5) == Fraction(1, 2))


def workload_tests(hv, cli, work: str) -> None:
    def call(argv):
        _, rc, _, err = run._invoke(cli, argv)
        assert rc == 0, (argv, err)

    ops = {}
    for name, workload in WORKLOADS.items():
        d = os.path.join(work, name)
        os.mkdir(d)
        ops[name] = workload.build(call, d, 1, hv, workload.reference())

    # anneal: a result set with other X-rays reported at objective 0
    op = ops["anneal"][0]
    stdouts, files = outputs(cli, op)
    prefix = op.files[0][: -len(".hvset")]
    expect(f"{op.key} accepts the real output", not verdict(op, stdouts, files))
    full = Cells((0.0, 6.0, 0.0, 6.0), 6, 6, frozenset((i, j) for i in range(6) for j in range(6)))
    planted(op, stdouts, files, "other X-rays at objective 0", lambda s, f: (
        f.__setitem__(prefix + ".hvset", format_hvset(full)),
        _edit_summary(prefix, objective=0.0)(s, f)))
    planted(op, stdouts, files, "an objective below the exact difference",
            _edit_summary(prefix, objective=-1.0))
    planted(op, stdouts, files, "a set with a hole", lambda s, f: f.__setitem__(
        prefix + ".hvset", format_hvset(Cells(full.box, 6, 6, full.cells - {(2, 2)}))))

    # oracle: one operation of each kind
    seen = set()
    for op in ops["oracle"]:
        kind = op.key.split("/")[0]
        if kind in seen:
            continue
        seen.add(kind)
        stdouts, files = outputs(cli, op)
        expect(f"{op.key} accepts the real output", not verdict(op, stdouts, files))
        if kind == "enum":
            planted(op, stdouts, files, "a count off by one",
                    lambda s, f: s.__setitem__(0, f"{int(s[0]) + 1}\n"))
            continue
        prefix = op.files[0][: -len(".hvset")]
        optima = json.loads(stdouts[0])["optima"]
        if kind == "l1":  # L1 ties may exceed the sets sharing the X-rays, never fall short
            planted(op, stdouts, files, "fewer optima than sets sharing the X-rays",
                    _edit_summary(prefix, optima=0))
        else:
            planted(op, stdouts, files, "an optima count one too high",
                    _edit_summary(prefix, optima=optima + 1))
            planted(op, stdouts, files, "an optima count one too low",
                    _edit_summary(prefix, optima=optima - 1))
        planted(op, stdouts, files, "a scan of the wrong family size",
                _edit_summary(prefix, steps=json.loads(stdouts[0])["steps"] - 1))

    # verify: field CSV, PGM, reports and dist
    op = ops["verify"][0]
    stdouts, files = outputs(cli, op)
    expect(f"{op.key} accepts the real output", not verdict(op, stdouts, files))
    csv = next(p for p in op.files if p.endswith(".csv"))
    pgm = next(p for p in op.files if p.endswith(".pgm"))
    stab = next(p for p in op.files if os.path.basename(p).startswith("stability"))

    def perturb_csv(s, f):
        rows = f[csv].split("\n")
        x, y, v = rows[100].split(",")
        rows[100] = f"{x},{y},{float(v) * (1 + 1e-6)!r}"
        f[csv] = "\n".join(rows)

    def perturb_pgm(s, f):
        rows = f[pgm].split("\n")
        vals = rows[10].split()
        vals[5] = str((int(vals[5]) + 100) % 65536)
        rows[10] = " ".join(vals)
        f[pgm] = "\n".join(rows)

    def edit_report(**changes):
        def edit(s, f):
            rep = json.loads(f[stab])
            for k, v in changes.items():
                if k == "measured":
                    rep["witness"]["measured"] = v
                else:
                    rep[k] = v
            f[stab] = json.dumps(rep, sort_keys=True) + "\n"
        return edit

    planted(op, stdouts, files, "a perturbed field CSV value", perturb_csv)
    planted(op, stdouts, files, "a perturbed PGM level", perturb_pgm)
    planted(op, stdouts, files, "a report that fails", edit_report(holds=False, margin=-1.0))
    planted(op, stdouts, files, "holds disagreeing with its margin", edit_report(margin=-1.0))
    planted(op, stdouts, files, "a stability measure below the exact difference",
            edit_report(measured=0.0))
    planted(op, stdouts, files, "a stability report of other sets", edit_report(inputs_digest="0" * 12))

    def unorder_dist(s, f):
        upper = float(s[-1].split()[1])
        s[-1] = f"{upper + 1.0!r} {upper!r}\n"

    planted(op, stdouts, files, "an unordered dist bracket", unorder_dist)


def main() -> int:
    os.environ.update({var: "1" for var in run.BLAS_THREAD_VARS})
    reference_tests()
    hv, cli, _ = run._import_program()
    os.makedirs(run.RUNS, exist_ok=True)
    work = tempfile.mkdtemp(prefix="tmp-selftest-", dir=run.RUNS)
    try:
        workload_tests(hv, cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"selftest: {len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
