"""Reconstruction of a grid set from its conic distance field.

Minimizes the norm distance between a candidate's field and a target
field over the feasible family (hv-convex connected cell unions on a
fixed partition, optionally with full-box projections).  Two engines: an
exhaustive oracle for small grids that returns every global optimum, and
seeded simulated annealing for larger ones.  Each problem builds one conic
kernel, on first use, and the engines and :func:`objective` share it.
Both engines report a best set whose objective is recomputed at the end
from the set's own X-rays, with the arrays and kernel methods of the
public norms, so a bug in the family or incremental scoring cannot leak
into results.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import os
import stat
from dataclasses import dataclass

import numpy as np

from .conic import ConicEvaluator, _FieldDiff, conic_of, parse_profile_csv
from .errors import ConicError, FormatError, GeometryMismatch, InvalidParameter, TooLarge, ZeroMass
from .grid import (
    Box,
    GridGeometry,
    GridSet,
    _Lines,
    _family,
    format_hvset,
    in_level_set,
    is_connected,
    is_hv_convex,
    parse_hvset,
    sample_hv_convex,
    thin_contact,
)

__all__ = [
    "ReconstructionProblem",
    "AnnealingParams",
    "ReconstructionResult",
    "objective",
    "exhaustive",
    "local_search",
    "load_problem",
    "write_result",
]

NORM_SUP = "sup"
NORM_L1 = "l1"
FEAS_HV = "hv_connected"
FEAS_FULL = "hv_connected_full_box"


@dataclass(frozen=True)
class ReconstructionProblem:
    target: ConicEvaluator
    geometry: GridGeometry
    norm: str = NORM_SUP
    feasibility: str = FEAS_HV
    l1_refine: int = 4

    def __post_init__(self):
        if self.norm not in (NORM_SUP, NORM_L1):
            raise InvalidParameter(f"unknown norm {self.norm!r}")
        if self.feasibility not in (FEAS_HV, FEAS_FULL):
            raise InvalidParameter(f"unknown feasibility {self.feasibility!r}")
        # the rule of l1_norm_diff's refine
        object.__setattr__(self, "l1_refine", InvalidParameter.whole(
            self.l1_refine, 1, "l1_refine must be a positive integer"))

    @functools.cached_property
    def _kernel(self) -> _FieldDiff:
        """The conic kernel of the grid lines against the target, built on
        first use and shared by both engines and :func:`objective`."""
        return _FieldDiff(*_grid_lines(self.geometry), self.target, self.geometry.box)

    def _brackets(self, xp, yp, cinv, rinv):
        """Objective brackets ``(lower, upper)`` of the sets whose X-rays
        are rows ``cinv[k]`` of the column stack ``xp`` and ``rinv[k]`` of
        the row stack ``yp``: the kernel's sup norm, exact, so both ends
        are one array, or its l1 bracket."""
        if self.norm == NORM_SUP:
            upper = self._kernel.sup(xp, yp, cinv, rinv)
            return upper, upper
        return self._kernel.l1(xp, yp, self.l1_refine, cinv, rinv)

    def _score(self, col_counts, row_counts) -> float:
        """The objective of one set given by its column and row counts: the
        upper end of its bracket, from the arrays ``conic_of`` builds."""
        g, kernel = self.geometry, self._kernel
        xp = kernel.stack(0, np.array([col_counts]) * g.cell_h)
        yp = kernel.stack(1, np.array([row_counts]) * g.cell_w)
        one = np.zeros(1, dtype=np.intp)
        return float(self._brackets(xp, yp, one, one)[1][0])


@functools.lru_cache(maxsize=8)
def _grid_lines(geometry: GridGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Read-only x and y grid lines, taken from the full set's field once
    per geometry: its profiles pass the public checks (finite, increasing
    lines; a mass that neither overflows nor vanishes), which the kernel
    does not repeat for the sets it scores."""
    E = conic_of(GridSet.full(geometry))
    return E.yprofile.breakpoints, E.xprofile.breakpoints


@dataclass(frozen=True)
class AnnealingParams:
    initial_temperature: float = 4.0
    cooling: float = 0.9997
    steps: int = 10_000
    restarts: int = 0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.initial_temperature) and self.initial_temperature > 0):
            raise InvalidParameter("initial_temperature must be positive and finite")
        if not 0.0 < self.cooling < 1.0:
            raise InvalidParameter("cooling must lie strictly between 0 and 1")
        # zero steps allowed: the run then reports the initial sample
        message = "steps, restarts and seed must be non-negative integers"
        for name in ("steps", "restarts", "seed"):
            object.__setattr__(self, name, InvalidParameter.whole(getattr(self, name), 0, message))
        # a chain draws all its proposals up front, about 64 bytes a step
        if self.steps > 2**22:
            raise TooLarge(f"steps {self.steps} exceed the cap of 2**22 per chain")


@dataclass(frozen=True)
class ReconstructionResult:
    best: GridSet
    objective: float
    trace: list
    thin_contact: bool
    steps: int
    optima: list | None = None

    def _summary(self) -> str:
        """The text of the ``.json`` summary :func:`write_result` writes."""
        summary = {"objective": self.objective, "steps": self.steps,
                   "thin_contact": self.thin_contact}
        if self.optima is not None:
            summary["optima"] = len(self.optima)
        return json.dumps(summary, sort_keys=True) + "\n"


def _check_feasible(L: GridSet, problem: ReconstructionProblem) -> None:
    # an engine returning a set outside the family is a bug, caught here
    # through the reference predicates rather than the engines' own
    ok = is_hv_convex(L) and is_connected(L)
    if ok and problem.feasibility == FEAS_FULL:
        ok = in_level_set(L, problem.geometry.box)
    if not ok:
        raise RuntimeError(f"reconstruction returned an infeasible set: {L!r}")


def _finish(best: GridSet, problem: ReconstructionProblem, trace: list, steps: int,
            optima: list | None = None) -> ReconstructionResult:
    # both engines end here: the returned set is checked against the
    # family and rescored from its own X-rays
    _check_feasible(best, problem)
    return ReconstructionResult(best, objective(best, problem), trace, thin_contact(best), steps,
                                optima)


def objective(L: GridSet, problem: ReconstructionProblem) -> float:
    """Norm distance of L's field to the target over the reference box.

    Exact for the sup norm; the certified upper end of the quadrature
    bracket for l1 (consistently pessimistic).
    """
    if L.geometry != problem.geometry:
        raise GeometryMismatch("candidate must live on the problem geometry")
    if L.is_empty:
        raise ZeroMass("profiles must carry positive mass")
    return problem._score(L.col_counts(), L.row_counts())


def _search_score(problem: ReconstructionProblem):
    """The annealer's objective of a set given by its column and row
    counts, bit-identical to ``objective``: the kernel's scalar sup scorer,
    or for l1 the problem's own one-set score."""
    if problem.norm == NORM_SUP:
        g = problem.geometry
        return problem._kernel.sup_scorer(g.cell_h, g.cell_w)
    return problem._score


def _distinct_rows(counts: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(counts, axis=0, return_inverse=True)`` for count rows
    whose entries lie below ``base``: each row is read as one integer in
    that base, most significant digit first, so a 1-D ``np.unique`` keeps
    the lexicographic row order at a fraction of the cost."""
    weights = base ** np.arange(counts.shape[1] - 1, -1, -1, dtype=np.int64)
    _, first, inverse = np.unique(counts @ weights, return_index=True, return_inverse=True)
    return counts[first], inverse


@functools.lru_cache(maxsize=8)
def _family_counts(geometry: GridGeometry, full_box: bool):
    """The feasible family's distinct column and row X-rays as read-only
    kernel stacks ``(xp, cinv, yp, rinv)``: member ``k``'s column X-ray is
    row ``cinv[k]`` of ``xp`` (an ``np.unique`` inverse), its row X-ray
    row ``rinv[k]`` of ``yp``.  Built once per geometry, like the family."""
    g = geometry
    family = _family(g.m, g.n, full_box)
    ucols, cinv = _distinct_rows(family.sum(axis=2), g.n + 1)
    urows, rinv = _distinct_rows(family.sum(axis=1), g.m + 1)
    xlines, ylines = _grid_lines(g)
    xp = _FieldDiff.profiles(xlines, ucols * g.cell_h)
    yp = _FieldDiff.profiles(ylines, urows * g.cell_w)
    out = (xp, cinv, yp, rinv)
    for arr in (*xp, *yp, out[1], out[3]):
        arr.setflags(write=False)
    return out


def exhaustive(problem: ReconstructionProblem) -> ReconstructionResult:
    """Score every feasible set; return the best plus all global optima.

    The feasible family comes from the per-grid cache behind
    ``enumerate_hv_connected`` (a search over column runs, built once per
    grid shape), in ascending order of the bit-encoded cell indicator
    (bit ``i*n + j``), which fixes the reported order of tied optima.  The
    whole family is scored in one vectorized pass of the problem's kernel
    over its distinct column and row X-rays (stacks cached per geometry),
    for either norm: every member's breakpoints are the grid lines, so the
    partition is shared.
    For l1 "tied" means the objective brackets overlap the best one; for
    sup ties are exact.
    """
    g = problem.geometry
    m, n = g.m, g.n
    if m * n > 16:
        raise TooLarge(f"{m}x{n} exceeds the exhaustive guard of 16 cells")
    full_box = problem.feasibility == FEAS_FULL
    family = _family(m, n, full_box)
    xp, cinv, yp, rinv = _family_counts(g, full_box)
    lower, upper = problem._brackets(xp, yp, cinv, rinv)
    # a candidate enters the trace when it beats every earlier one
    before = np.minimum.accumulate(np.concatenate([[math.inf], upper[:-1]]))
    records = np.flatnonzero(upper < before)
    if records.size == 0:
        raise InvalidParameter("no feasible candidate has a finite objective")
    trace = [(int(k) + 1, float(upper[k])) for k in records]
    best_val = float(upper[records[-1]])
    optima = [GridSet(g, family[k]) for k in np.flatnonzero(lower <= best_val)]
    return _finish(GridSet(g, family[records[-1]]), problem, trace, len(family), optima)


# math.exp is within an ulp of exp, so a coin at or above exp(x) times this
# factor is also at or above the computed exp(y) of any y <= x
_EXP_SLACK = 1.0 + 2.0**-40


def local_search(problem: ReconstructionProblem, params: AnnealingParams) -> ReconstructionResult:
    """Simulated annealing over feasible sets with single-cell toggles.

    Proposals toggling a uniformly random cell are rejected outright when
    the toggled set leaves the feasible family: each column and each row
    keeps the mask of positions whose toggle it allows, and a proposal is
    feasible when both its bits are set.  Each chain keeps its set's line
    bits and masks in one ``grid._Lines``, toggled on accept only, which
    keeps every mask a proposal reads fresh.
    Otherwise improving moves are always taken and worsening ones with the
    Metropolis probability at the geometrically cooled temperature.  For
    the sup norm a proposal whose corner bound (the sup scorer's
    ``corner_bound``, kept in O(1) per accepted toggle from the cell count
    and the two count moments) already fails the Metropolis test is
    rejected unscored: the bound never exceeds the score, so the test would
    fail on the score too, and every decision is the one the score would
    make.  One generator stream per chain (``restarts + 1`` chains), all
    derived from the seed, so runs are reproducible.  Stops early once the
    best objective reaches exact zero, which no feasible set can beat.
    """
    g = problem.geometry
    m, n = g.m, g.n
    full_box = problem.feasibility == FEAS_FULL
    score = _search_score(problem)
    bound = score.corner_bound if problem.norm == NORM_SUP else lambda *moments: -math.inf

    best_cols = None
    best_val = math.inf
    trace = []
    total_steps = 0
    chains = params.restarts + 1
    for chain in range(chains):
        rng = np.random.default_rng([params.seed, chain])
        lines = _Lines(sample_hv_convex(g, rng, full_box).cells, full_box)
        # read, not copied: the step loop reads these lists, toggle updates them
        cols, cmask, rmask = lines.cols, lines.cmask, lines.rmask
        ccounts = [c.bit_count() for c in cols]
        rcounts = [r.bit_count() for r in lines.rows]
        cells = sum(ccounts)
        s_c = sum(c * (2 * i + 1) for i, c in enumerate(ccounts))
        s_r = sum(r * (2 * j + 1) for j, r in enumerate(rcounts))
        cur = score(ccounts, rcounts)
        if cur < best_val:
            best_val = cur
            best_cols = list(cols)
            trace.append((total_steps, cur))
        if best_val == 0.0:
            break

        t_i, t_j = (t.tolist() for t in np.divmod(rng.integers(0, m * n, size=params.steps), n))
        coins = rng.random(params.steps).tolist()
        # T0, T0*c, (T0*c)*c, ...: multiplied step by step, not T0 * c**k,
        # whose floats differ
        temps = itertools.accumulate(itertools.repeat(params.cooling, params.steps), operator.mul,
                                     initial=params.initial_temperature)
        for i, j, coin, T in zip(t_i, t_j, coins, temps):
            total_steps += 1
            if not (cmask[i] >> j & 1 and rmask[j] >> i & 1):
                continue
            delta = -1 if (cols[i] >> j) & 1 else 1
            di, dj = delta * (2 * i + 1), delta * (2 * j + 1)
            lb = bound(cells + delta, s_c + di, s_r + dj)
            if lb > cur and (T == 0.0 or coin >= math.exp((cur - lb) / T) * _EXP_SLACK):
                continue
            ccounts[i] += delta
            rcounts[j] += delta
            val = score(ccounts, rcounts)
            if not (val <= cur or (T > 0.0 and coin < math.exp((cur - val) / T))):
                ccounts[i] -= delta
                rcounts[j] -= delta
                continue
            lines.toggle(i, j)
            cells += delta
            s_c += di
            s_r += dj
            cur = val
            if cur < best_val:
                best_val = cur
                best_cols = list(cols)
                trace.append((total_steps, cur))
                if best_val == 0.0:
                    break
        if best_val == 0.0:
            break

    if best_cols is None:
        raise InvalidParameter("no sampled candidate has a finite objective")
    best = [(i, j) for i, c in enumerate(best_cols) for j in range(n) if c >> j & 1]
    return _finish(GridSet.from_cells(g, best), problem, trace, total_steps)


# ---------------------------------------------------------------------------
# problem files


def _require(spec, key: str):
    if not isinstance(spec, dict):
        raise FormatError(f"expected a JSON object holding {key!r}, got {spec!r}")
    if key not in spec:
        raise FormatError(f"problem spec missing {key!r}")
    return spec[key]


def _convert(key: str, value, convert):
    """``convert(value)``, reporting a malformed field as a FormatError."""
    try:
        return convert(value)
    except ConicError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad {key!r} field {value!r}: {exc}") from None


def _path(spec, key: str) -> str:
    value = _require(spec, key)
    if not isinstance(value, str):
        raise FormatError(f"{key!r} must be a file path, got {value!r}")
    return value


def _real(value) -> float:
    """``float(value)`` of a JSON number, refusing a string or a boolean
    that ``float`` would read."""
    if isinstance(value, (str, bool)):
        raise ValueError("expected a number")
    return float(value)


def _integer(value) -> int:
    """``int(value)`` of a whole JSON number such as ``4.0``; a string, a boolean
    or a fraction is a ValueError for _convert to report, ranges are checked later."""
    if isinstance(value, (str, bool)):
        raise ValueError("expected an integer")
    try:
        return InvalidParameter.whole(value, -math.inf, "expected an integer")
    except InvalidParameter as exc:
        raise ValueError(str(exc)) from None


def _int_pair(value) -> tuple[int, int]:
    m, n = value
    return _integer(m), _integer(n)


_BUDGET_FIELDS = {"initial_temperature": _real, "cooling": _real, "steps": _integer,
                  "restarts": _integer}


def load_problem(path: str) -> tuple[ReconstructionProblem, AnnealingParams, str]:
    """Read a problem JSON file; relative paths resolve against the cwd.

    Layout: ``target`` is either ``{"hvset": FILE}`` or ``{"xray_csv":
    {"vertical": FILE, "horizontal": FILE}}``; plus ``box`` [a,b,c,d],
    ``dims`` [m,n], optional ``norm``/``l1_refine``/``feasibility``,
    ``budget`` (annealing fields, not ``seed``), ``seed`` and
    ``out_prefix`` (a path string, default ``reconstruction``); a field
    left out takes the dataclass default.  A field of the wrong type or
    shape raises :class:`FormatError`, and so does a string or a boolean in
    a numeric field (``box``, ``dims``, ``l1_refine``, the budget's
    numbers, ``seed``) and a fractional number in an integer field
    (``dims``, ``l1_refine``, ``steps``, ``restarts``, ``seed``).
    """
    try:
        spec = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed problem JSON: {exc}") from None

    box = _convert("box", _require(spec, "box"), lambda v: Box(*map(_real, v)))
    m, n = _convert("dims", _require(spec, "dims"), _int_pair)
    geometry = GridGeometry(box, m, n)

    tgt = _require(spec, "target")
    if isinstance(tgt, dict) and "hvset" in tgt:
        target = conic_of(parse_hvset(_read_text(_path(tgt, "hvset"))))
    elif isinstance(tgt, dict) and "xray_csv" in tgt:
        paths = tgt["xray_csv"]
        vpath, hpath = _path(paths, "vertical"), _path(paths, "horizontal")
        target = ConicEvaluator(parse_profile_csv(_read_text(vpath), "vertical"),
                                parse_profile_csv(_read_text(hpath), "horizontal"))
    else:
        raise FormatError("target must provide 'hvset' or 'xray_csv'")

    options = {key: _convert(key, spec[key], _integer) if key == "l1_refine" else spec[key]
               for key in ("norm", "feasibility", "l1_refine") if key in spec}
    problem = ReconstructionProblem(target=target, geometry=geometry, **options)
    budget = spec.get("budget", {})
    if not isinstance(budget, dict):
        raise FormatError(f"'budget' must be a JSON object, got {budget!r}")
    fields = {
        key: _convert(key, value, _BUDGET_FIELDS[key]) if key in _BUDGET_FIELDS else value
        for key, value in budget.items()
    }
    if "seed" in fields:
        raise FormatError("bad budget field: 'seed' belongs at the top level")
    if "seed" in spec:
        fields["seed"] = _convert("seed", spec["seed"], _integer)
    try:
        params = AnnealingParams(**fields)
    except TypeError as exc:
        raise FormatError(f"bad budget field: {exc}") from None
    return problem, params, _path(spec, "out_prefix") if "out_prefix" in spec else "reconstruction"


def write_result(result: ReconstructionResult, out_prefix: str) -> tuple[str, str]:
    """Write ``<prefix>.hvset`` (best set) and ``<prefix>.json`` (summary)."""
    hvset_path = out_prefix + ".hvset"
    json_path = out_prefix + ".json"
    _write_text(hvset_path, format_hvset(result.best))
    _write_text(json_path, result._summary())
    return hvset_path, json_path


def _read_text(path: str) -> str:
    """The text of a UTF-8 file; undecodable bytes raise :class:`FormatError`."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path!r} is not UTF-8 text: {exc}") from None


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8: the one way the package writes a file.

    An existing file is overwritten in place, then cut to the written
    length: truncating it first costs far more on ext4, which flushes a
    file truncated to zero when it is closed.  A write that raises leaves
    the file empty.  Only a regular file is cut, as ``ftruncate`` fails on
    ``/dev/null`` and on a pipe.  Nothing calls ``fsync``.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            # the wrapper is closed, its buffer flushed or dropped, before any cut
            with open(fd, "w", encoding="utf-8", closefd=False) as fh:
                fh.write(text)
            if regular:
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)
