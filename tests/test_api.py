"""The public surface of ``import hvconic`` and its module boundaries,
frozen.

Each module's ``__all__`` is its public API and the package re-exports
exactly the union of those lists, so a name added to or dropped from a
module shows here.  So does a private name newly imported from a sibling
module, an import nothing uses, a second copy of the whole-number or raster
rule, a file opened for writing outside the one text writer, an ``assert``
in the package and a traced function the benchmark's tracer would no
longer find.
"""

import ast
import importlib
import pathlib

import pytest

import hvconic

MODULES = ("grid", "metrics", "conic", "checks", "reconstruct", "errors")

PUBLIC = {
    # grid
    "Box", "GridGeometry", "GridSet", "projections", "in_level_set", "in_sublevel_set",
    "is_hv_convex", "is_connected", "has_contiguous_runs", "thin_contact", "subset_of",
    "combine", "dilate", "min_cover", "xrays_equal_ae", "sample_hv_convex",
    "count_hv_connected", "enumerate_hv_connected", "parse_hvset", "format_hvset",
    # metrics
    "Bracket", "Polyline", "dist_p", "hausdorff", "tube_area", "boundary_chains",
    "format_polyline", "parse_polyline",
    # conic
    "XRayProfile", "ConicEvaluator", "xray_v", "xray_h", "conic_of", "xray_from_conic",
    "sup_norm_diff", "l1_norm_diff", "conic_value_exact",
    "profile_to_csv", "parse_profile_csv", "field_to_csv", "field_to_pgm",
    # checks
    "CheckReport", "check_concavity", "check_area_superadditivity", "reproduce_remark2",
    "check_dilation_bound", "check_stability_bound", "check_convergence",
    "check_polyline_bound",
    # reconstruct
    "ReconstructionProblem", "AnnealingParams", "ReconstructionResult", "objective",
    "exhaustive", "local_search", "load_problem", "write_result",
    # errors
    "ConicError", "InvalidParameter", "GeometryMismatch", "EmptySet", "CoverageError",
    "TooLarge", "ZeroMass", "PreconditionViolated", "NonSimpleChain", "FormatError",
    "__version__",
}


# (importer, sibling, name) for each private name a module imports from a
# sibling module
PRIVATE_IMPORTS = {
    ("cli", "reconstruct", "_read_text"),
    ("cli", "reconstruct", "_write_text"),
    ("metrics", "grid", "_band_raster"),
    ("metrics", "grid", "_min_dist_to_rects"),
    ("reconstruct", "conic", "_FieldDiff"),
    ("reconstruct", "grid", "_Lines"),
    ("reconstruct", "grid", "_family"),
}


def _sources() -> dict:
    src = pathlib.Path(hvconic.__file__).parent
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(src.glob("*.py"))}


def test_private_cross_imports_frozen():
    found = {(mod, node.module, alias.name)
             for mod, tree in _sources().items() for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names if alias.name.startswith("_")}
    assert found == PRIVATE_IMPORTS


def test_every_imported_name_is_used():
    for mod, tree in _sources().items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    assert name == "*" or name in used, f"{mod} imports {name!r} unused"


def _is_whole_number_test(node) -> bool:
    # ``value % 1 == 0``
    return (isinstance(node, ast.Compare) and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.Mod)
            and isinstance(node.left.right, ast.Constant) and node.left.right.value == 1
            and len(node.ops) == 1 and isinstance(node.ops[0], ast.Eq)
            and isinstance(node.comparators[0], ast.Constant) and node.comparators[0].value == 0)


def test_whole_number_rule_written_once():
    # every integer parameter goes through InvalidParameter.whole
    found = [mod for mod, tree in _sources().items()
             for node in ast.walk(tree) if _is_whole_number_test(node)]
    assert found == ["errors"]


def test_raster_rule_written_once():
    # every raster size goes through TooLarge.raster
    found = [mod for mod, tree in _sources().items() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "float_info"
             and isinstance(node.value, ast.Name) and node.value.id == "sys"]
    assert found == ["errors"]


def _write_opens(tree) -> list:
    """The ``open`` and ``os.open`` calls under ``tree`` that may write: a
    mode holding ``w``, ``a``, ``x`` or ``+``, or one not spelled as a
    string (``os.open``'s flags)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id",
                                                  getattr(node.func, "attr", None)) == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg in ("mode", "flags")), None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and set(str(mode.value)).isdisjoint("wax+")):
                found.append(node.lineno)
    return found


def test_one_text_writer():
    # every file the package writes goes through reconstruct._write_text
    sources = _sources()
    writer = next(node for node in sources["reconstruct"].body
                  if isinstance(node, ast.FunctionDef) and node.name == "_write_text")
    found = sorted((mod, line) for mod, tree in sources.items() for line in _write_opens(tree))
    assert _write_opens(writer)
    assert found == sorted(("reconstruct", line) for line in _write_opens(writer))


def test_benchmark_traced_functions_exist():
    # bench/spans.py names each traced function "<module>.<function>" after
    # its defining module; read its TRACED tuple without importing bench
    spans = pathlib.Path(__file__).parents[1] / "bench" / "spans.py"
    tree = ast.parse(spans.read_text(encoding="utf-8"))
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])
    defined = {f"{mod}.{node.name}" for mod, tree in _sources().items()
               for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert traced and [name for name in traced if name not in defined] == []


def test_package_has_no_assert():
    # ``python -O`` strips asserts, so invariants are raised as errors
    found = [(mod, node.lineno) for mod, tree in _sources().items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_package_exports_the_frozen_names():
    assert len(PUBLIC) == 68
    assert len(hvconic.__all__) == len(set(hvconic.__all__))
    assert set(hvconic.__all__) == PUBLIC


@pytest.mark.parametrize("mod", MODULES)
def test_module_all_names_exist(mod):
    module = importlib.import_module(f"hvconic.{mod}")
    for name in module.__all__:
        assert hasattr(module, name), f"hvconic.{mod}.__all__ names missing {name!r}"


def test_each_export_is_its_defining_module_object():
    homes = {f"hvconic.{mod}" for mod in MODULES}
    for name in PUBLIC - {"__version__"}:
        obj = getattr(hvconic, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__ in homes, name
        assert getattr(home, name) is obj, name
        assert name in home.__all__, name
