"""Fuzzing the text parsers and the problem loader: whatever the input,
only ``ConicError`` escapes.

Inputs are assembled from the formats' own line shapes with tokens drawn
from a pool of valid, malformed, non-finite and out-of-range values, plus
free text, so most examples get past the header checks.
"""

import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

import hvconic as hv
from hvconic import reconstruct
from hvconic.errors import ConicError

NUMBERS = st.sampled_from(
    ["0", "1", "-1", "0.5", "2.25", "-3e2", "1e308", "-1e308", "1e400", "5e-324",
     "nan", "inf", "-inf", "x", "", "0x10", "1_0", "99999999999999999999"]
)
TOKEN = st.one_of(NUMBERS, NUMBERS, NUMBERS, st.text(max_size=4))


def _mostly(valid, *bad):
    """``valid`` ten times in eleven, else one of ``bad``."""
    return st.sampled_from([valid] * 10 * len(bad) + list(bad))


def _or_token(valid):
    """A valid token nine times in ten, else any token."""
    return st.tuples(st.integers(0, 9), TOKEN).map(lambda t: valid if t[0] < 9 else t[1])


def _text(draw, lines):
    return "\n".join(lines) + draw(_mostly("\n", ""))


@st.composite
def hvset_texts(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    box = [draw(_mostly("box", "dims"))] + [draw(_or_token(v)) for v in ("-1", "2.5", "0", "1e-3")]
    dims = ["dims", draw(_mostly(str(m), "0", "-1", "x", "1e3")), draw(_mostly(str(n), "0", "7"))]
    k = draw(_mostly(n, n - 1, n + 1))
    rows = draw(st.lists(st.text("01", min_size=m, max_size=m).flatmap(_or_token),
                         min_size=k, max_size=k))
    return _text(draw, [draw(_mostly("HVSET v1", "HVSET v2")), " ".join(box), " ".join(dims)] + rows)


@st.composite
def profile_texts(draw):
    bps = sorted(draw(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=6)))
    rows = []
    for lo, hi in zip(bps, bps[1:]):
        value = repr(draw(st.floats(0, 1e3)))
        rows.append(",".join(draw(_or_token(v)) for v in (repr(lo), repr(hi), value)))
    return _text(draw, [draw(_mostly("t_lo,t_hi,value", "t_lo,t_hi"))] + rows)


@st.composite
def polyline_texts(draw):
    closed = draw(st.one_of(_mostly("closed 0", "closed 1", "closed 2"), _mostly("closed 1", "")))
    coords = st.floats(-1e3, 1e3).map(repr).flatmap(_or_token)
    rows = draw(st.lists(st.builds(lambda *t: " ".join(t), coords, coords).flatmap(_or_token),
                         min_size=1, max_size=6))
    return _text(draw, [draw(_mostly("POLYLINE v1", "POLYLINE")), closed] + rows)


def _only_conic_errors(parse, text):
    try:
        parse(text)
    except ConicError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.one_of(hvset_texts(), st.text(max_size=40)))
def test_fuzz_parse_hvset(text):
    _only_conic_errors(hv.parse_hvset, text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(profile_texts(), st.text(max_size=40)), st.sampled_from(["vertical", "horizontal"]))
def test_fuzz_parse_profile_csv(text, axis):
    _only_conic_errors(lambda t: hv.parse_profile_csv(t, axis), text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(polyline_texts(), st.text(max_size=40)))
def test_fuzz_parse_polyline(text):
    _only_conic_errors(hv.parse_polyline, text)


# ---------------------------------------------------------------------------
# problem files: a JSON spec plus the set or profile files it names

JSON_LEAF = st.one_of(st.none(), st.booleans(), st.integers(-3, 10**20), st.floats(),
                      st.text(max_size=4))
JSON_ANY = st.recursive(JSON_LEAF, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


def _or_json(valid):
    """A valid field ten times in eleven, else any JSON value."""
    return _mostly(True, False).flatmap(lambda ok: st.just(valid) if ok else JSON_ANY)


@st.composite
def set_and_profiles(draw):
    """A sampled set's HVSET text and profile CSVs, or fuzzed texts."""
    m, n = draw(_mostly(3, 1, 4)), draw(_mostly(2, 1, 4))
    L = hv.sample_hv_convex(hv.GridGeometry(hv.Box(0, 2, 0, 3), m, n), draw(st.integers(0, 99)))
    if draw(_mostly(True, False)):
        return hv.format_hvset(L), hv.profile_to_csv(hv.xray_v(L)), hv.profile_to_csv(hv.xray_h(L))
    return draw(hvset_texts()), draw(profile_texts()), draw(profile_texts())


@st.composite
def problem_specs(draw, paths):
    hvset, vcsv, hcsv = paths
    target = draw(_mostly({"hvset": hvset}, {"xray_csv": {"vertical": vcsv, "horizontal": hcsv}},
                          {"xray_csv": {"vertical": vcsv}}, {"file": hvset}))
    fields = {
        "box": _or_json(draw(_mostly([0, 2, 0, 3], [0, 2, 0], [1, 1, 0, 3], [0, 2, 0, "3"]))),
        "dims": _or_json(draw(_mostly([3, 2], [0, 2], [2, 1e400], ["a", 2], [3]))),
        "target": _or_json(target),
        "norm": _or_json(draw(_mostly("sup", "l1", "max"))),
        "feasibility": _or_json(draw(_mostly("hv_connected", "hv_connected_full_box", "any"))),
        "l1_refine": _or_json(draw(_mostly(4, 0, -1, 2.5, "4"))),
        "budget": _or_json(draw(st.dictionaries(
            st.sampled_from(["initial_temperature", "cooling", "steps", "restarts", "seed"]),
            st.one_of(st.integers(-2, 10**4), st.floats(-2, 5)), max_size=3))),
        "seed": _or_json(draw(_mostly(7, -1, 10**30))),
        "out_prefix": _or_json("rec"),
    }
    return {key: draw(value) for key, value in fields.items() if draw(_mostly(True, False))}


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_fuzz_load_problem(tmp_path, data):
    with tempfile.TemporaryDirectory(dir=tmp_path) as d:
        paths = [os.path.join(d, name) for name in ("t.hvset", "v.csv", "h.csv")]
        for path, text in zip(paths, data.draw(set_and_profiles())):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        problem = os.path.join(d, "p.json")
        with open(problem, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(data.draw(problem_specs(paths))))
        _only_conic_errors(reconstruct.load_problem, problem)
