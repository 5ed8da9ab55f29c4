"""Command-line entry point.

Exit codes: 0 on success, 1 on a domain error (one machine-readable
stderr line ``ERROR <code>: <message>``) or a failed verification batch,
2 on usage errors.  All randomized subcommands are reproducible from
``--seed`` alone; all paths are taken relative to the working directory.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

import numpy as np

from . import checks
from .conic import conic_of, field_to_csv, field_to_pgm, profile_to_csv, xray_h, xray_v
from .errors import ConicError, InvalidParameter
from .grid import (
    Box,
    GridGeometry,
    count_hv_connected,
    enumerate_hv_connected,
    format_hvset,
    parse_hvset,
    sample_hv_convex,
)
from .metrics import Polyline, hausdorff
from .reconstruct import _read_text, exhaustive, load_problem, solve, write_result
from .reconstruct import _write_text as _write_file

__all__ = ["run", "main"]


def _dims(text: str) -> tuple[int, int]:
    try:
        m, n = text.lower().split("x")
        m, n = int(m), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected MxN, got {text!r}") from None
    if m < 1 or n < 1:
        raise argparse.ArgumentTypeError("dims must be positive")
    return m, n


def _box(text: str) -> Box:
    try:
        a, b, c, d = (float(v) for v in text.split(","))
        return Box(a, b, c, d)
    except (ValueError, ConicError):
        raise argparse.ArgumentTypeError(f"expected a,b,c,d with a<b and c<d, got {text!r}") from None


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational like 1/2, got {text!r}") from None


def _read_set(path: str):
    return parse_hvset(_read_text(path))


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        _write_file(path, text)


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process; parsing leaves the parser unchanged and
    # argparse looks up sys.stdout/sys.stderr only when it prints
    ap = argparse.ArgumentParser(prog="hvconic", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    # argparse reads "--box -1,2,3,4" as two options, hence the "=" form
    box_help = "reference box; write --box=a,b,c,d when a is negative"

    p = sub.add_parser("gen", help="sample a random hv-convex connected set")
    p.add_argument("--dims", type=_dims, required=True, metavar="MxN")
    p.add_argument("--box", type=_box, required=True, metavar="a,b,c,d", help=box_help)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--full-box", action="store_true", help="force full-box projections")
    p.add_argument("--out", default=None, metavar="FILE")

    p = sub.add_parser("xray", help="write both X-ray profiles of a set as CSV")
    p.add_argument("file")
    p.add_argument("--out-prefix", default=None)

    p = sub.add_parser("conic", help="sample the conic field on a lattice")
    p.add_argument("file")
    p.add_argument("--samples", type=_dims, required=True, metavar="PxQ")
    p.add_argument("--out", default=None, metavar="FILE")
    p.add_argument("--pgm", default=None, metavar="PATH")

    p = sub.add_parser("dist", help="Hausdorff bracket between two sets")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--subsamples", type=int, default=None)

    p = sub.add_parser("verify", help="run an inequality checker batch")
    p.add_argument(
        "mode",
        choices=[
            "concavity",
            "superadd",
            "dilation",
            "stability",
            "convergence",
            "polyline",
            "remark2",
        ],
    )
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--seed", type=int, default=0, help="base seed of the batch")
    p.add_argument("--dims", type=_dims, default=(8, 8), metavar="MxN")
    p.add_argument("--box", type=_box, default=Box(0.0, 8.0, 0.0, 8.0), metavar="a,b,c,d",
                   help=box_help)
    p.add_argument("--t", type=_rational, default=Fraction(1, 2))
    p.add_argument("--samples", type=_dims, default=None, metavar="PxQ")
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--refine", type=int, default=None)
    p.add_argument("--subsamples", type=int, default=None)
    p.add_argument("--resolutions", default=None, help="comma list like 2x2,4x4,8x8")
    p.add_argument("--segments", type=int, default=3)
    p.add_argument("--out", default=None, metavar="FILE")

    p = sub.add_parser("reconstruct", help="solve a reconstruction problem file")
    p.add_argument("problem")
    p.add_argument("--oracle", action="store_true", help="force the exhaustive engine")

    p = sub.add_parser("enum", help="count (or dump) all hv-convex connected sets")
    p.add_argument("--dims", type=_dims, required=True, metavar="MxN")
    p.add_argument("--box", type=_box, default=None, metavar="a,b,c,d", help=box_help)
    p.add_argument("--full-box", action="store_true")
    p.add_argument("--dump", default=None, metavar="DIR")

    return ap


def _cmd_gen(args) -> int:
    m, n = args.dims
    geo = GridGeometry(args.box, m, n)
    L = sample_hv_convex(geo, args.seed, require_full_box=args.full_box)
    _write_text(args.out, format_hvset(L))
    return 0


def _cmd_xray(args) -> int:
    L = _read_set(args.file)
    prefix = args.out_prefix or os.path.splitext(args.file)[0]
    paths = (prefix + "_vertical.csv", prefix + "_horizontal.csv")
    _write_text(paths[0], profile_to_csv(xray_v(L)))
    _write_text(paths[1], profile_to_csv(xray_h(L)))
    print(paths[0])
    print(paths[1])
    return 0


def _cmd_conic(args) -> int:
    L = _read_set(args.file)
    E = conic_of(L)
    px, py = args.samples
    box = L.geometry.box
    _write_text(args.out, field_to_csv(E, box, px, py))
    if args.pgm is not None:
        _write_text(args.pgm, field_to_pgm(E, box, px, py))
    return 0


def _given(**options) -> dict:
    """The options the user gave: one left out (``None``) takes the
    library's default."""
    return {key: value for key, value in options.items() if value is not None}


def _cmd_dist(args) -> int:
    br = hausdorff(_read_set(args.file1), _read_set(args.file2),
                   **_given(subsamples=args.subsamples))
    print(f"{br.lower!r} {br.upper!r}")
    return 0


def _pair(geo, base, k, full_box):
    L1 = sample_hv_convex(geo, [base, k, 0], require_full_box=full_box)
    L2 = sample_hv_convex(geo, [base, k, 1], require_full_box=full_box)
    return L1, L2


def _verify_reports(args):
    m, n = args.dims
    geo = GridGeometry(args.box, m, n)
    base = args.seed
    if args.seeds < 1:
        raise InvalidParameter(f"seeds must be a positive integer, got {args.seeds}")
    if args.mode == "polyline" and args.segments < 1:
        raise InvalidParameter(f"segments must be a positive integer, got {args.segments}")
    if args.mode == "remark2":
        yield checks.reproduce_remark2()
        return
    if base < 0:
        raise InvalidParameter(f"seed must be a non-negative integer, got {base}")
    for k in range(args.seeds):
        if args.mode == "concavity":
            L1, L2 = _pair(geo, base, k, True)
            yield checks.check_concavity(L1, L2, args.t, **_given(samples=args.samples))
        elif args.mode == "superadd":
            L1, L2 = _pair(geo, base, k, True)
            yield checks.check_area_superadditivity(L1, L2, args.t)
        elif args.mode == "dilation":
            L = sample_hv_convex(geo, [base, k])
            yield checks.check_dilation_bound(L, args.eps, **_given(refine=args.refine))
        elif args.mode == "stability":
            L1, L2 = _pair(geo, base, k, False)
            yield checks.check_stability_bound(L1, L2, **_given(subsamples=args.subsamples))
        elif args.mode == "convergence":
            L = sample_hv_convex(geo, [base, k])
            if args.resolutions is None:
                # halve the native dims while they stay integral
                ladder = [(m, n)]
                while ladder[0][0] % 2 == 0 and ladder[0][1] % 2 == 0 and min(ladder[0]) > 2:
                    ladder.insert(0, (ladder[0][0] // 2, ladder[0][1] // 2))
                res = [GridGeometry(args.box, mm, nn) for mm, nn in ladder]
            else:
                res = [GridGeometry(args.box, *_dims(d)) for d in args.resolutions.split(",")]
            yield checks.check_convergence(L, res, **_given(subsamples=args.subsamples))
        elif args.mode == "polyline":
            rng = np.random.default_rng([base, k])
            xs = np.cumsum(rng.uniform(0.2, 1.0, args.segments + 1))
            ys = rng.uniform(0.0, 2.0, args.segments + 1)
            P = Polyline(zip(xs, ys))  # x-monotone, hence simple
            yield checks.check_polyline_bound(P, args.eps, **_given(refine=args.refine))


def _cmd_verify(args) -> int:
    lines = []
    ok = True
    for report in _verify_reports(args):
        lines.append(report.to_json())
        holds = report.holds
        if args.mode == "remark2":
            holds = not holds  # the counterexample is the expected outcome
        ok = ok and holds
    text = "\n".join(lines) + "\n"
    _write_text(args.out, text)
    return 0 if ok else 1


def _cmd_reconstruct(args) -> int:
    problem, params, out_prefix = load_problem(args.problem)
    result = exhaustive(problem) if args.oracle else solve(problem, params)
    write_result(result, out_prefix)
    # the .json file's exact text
    sys.stdout.write(result._summary())
    return 0


def _cmd_enum(args) -> int:
    m, n = args.dims
    box = args.box or Box(0.0, float(m), 0.0, float(n))
    geo = GridGeometry(box, m, n)
    count = count_hv_connected(geo, require_full_box=args.full_box)
    if args.dump is not None:
        os.makedirs(args.dump, exist_ok=True)
        for k, L in enumerate(enumerate_hv_connected(geo, require_full_box=args.full_box)):
            _write_text(os.path.join(args.dump, f"set{k:06d}.hvset"), format_hvset(L))
    print(count)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "xray": _cmd_xray,
    "conic": _cmd_conic,
    "dist": _cmd_dist,
    "verify": _cmd_verify,
    "reconstruct": _cmd_reconstruct,
    "enum": _cmd_enum,
}


def run(argv) -> int:
    """Parse and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse signals usage problems this way
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except argparse.ArgumentTypeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ConicError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ERROR IOError: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
