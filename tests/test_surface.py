"""The package surface: what is exported, and where the second routes live."""

import ast
import inspect
import math
import pathlib

import numpy as np
import pytest

import lineplace

SRC = pathlib.Path(lineplace.__file__).parent
ROOT = pathlib.Path(__file__).parent.parent
PYPROJECT = ROOT / "pyproject.toml"

# independent second routes and the entry points only the tests call:
# every function that lineplace._reference defines
REFERENCE_ROUTES = {node.name for node in ast.parse((SRC / "_reference.py").read_text()).body
                    if isinstance(node, ast.FunctionDef)}

# names that live on in their modules (lineplace.verify, _reference,
# errors) but that no caller outside the tests and the CLI's
# cross-checks needs, so the package does not export them
UNEXPORTED = {
    "GridSpec",
    "grid_one_center",
    "grid_obnoxious_center",
    "segment_distances",
    "set_partition_oracle",
    "enumerate_partitions",
    "OraclePartition",
    "certify_run_table",
    "NoBisectorRoot",
    "TooLarge",
}


def _solver_modules():
    return sorted(path for path in SRC.glob("*.py") if path.name != "_reference.py")


@pytest.mark.parametrize("path", _solver_modules(), ids=lambda path: path.name)
def test_solver_modules_do_not_reach_the_references(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module is None or "_reference" not in node.module.split("."), (
                f"{path.name}:{node.lineno} imports {node.module}")
            for alias in node.names:
                assert alias.name != "_reference" and alias.name not in REFERENCE_ROUTES, (
                    f"{path.name}:{node.lineno} imports {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert "_reference" not in alias.name.split("."), (
                    f"{path.name}:{node.lineno} imports {alias.name}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            assert node.name not in REFERENCE_ROUTES, (
                f"{path.name}:{node.lineno} defines {node.name}")


def test_no_dead_references():
    # every function of _reference.py is reached from the tests: a test
    # module imports it or reads it off the module, or a function so
    # reached calls it, directly or in turn
    tree = ast.parse((SRC / "_reference.py").read_text())
    fns = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached = set()
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "lineplace._reference":
                reached |= {alias.name for alias in node.names}
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "_reference"):
                reached.add(node.attr)
    todo = list(reached & set(fns))
    while todo:
        for name in set(_called_names(fns[todo.pop()])) & set(fns):
            if name not in reached:
                reached.add(name)
                todo.append(name)
    assert set(fns) <= reached, sorted(set(fns) - reached)


# the one definition that no root reaches: criterion 3 and
# test_oracles.py read it, and it stays beside the other grid oracles
# since _reference.py, where the other test-only routes live, may not
# import lineplace.verify
REACHED_BY_THE_TESTS_ONLY = {("verify", "grid_obnoxious_center")}


def _read_names(node):
    """Every name and attribute read anywhere under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_no_dead_code():
    # every top-level function and class of a package module other than
    # _reference.py is reached from a root: the exports, cli.main,
    # verify.cross_check, and the names that bench/ and tools/ import
    # from lineplace. A definition reaches every name read in its body,
    # in whichever module that name is defined
    defs = {}
    for path in _solver_modules():
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((path.stem, node))
    roots = set(lineplace.__all__) | {"main", "cross_check"}
    for folder in ("bench", "tools"):
        for path in sorted((ROOT / folder).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lineplace"):
                    roots |= {alias.name for alias in node.names}
    reached = set()
    todo = sorted(roots & set(defs))
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for _, node in defs[name]:
                todo += sorted(set(_read_names(node)) & set(defs) - reached)
    dead = {(module, name) for name in set(defs) - reached for module, _ in defs[name]}
    assert dead == REACHED_BY_THE_TESTS_ONLY


def test_all_resolves_and_leaves_out_the_references():
    for name in lineplace.__all__:
        assert hasattr(lineplace, name), name
    assert not REFERENCE_ROUTES & set(lineplace.__all__)
    assert not any(hasattr(lineplace, name) for name in REFERENCE_ROUTES)
    assert "_reference" not in lineplace.__all__


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads(PYPROJECT.read_text())["project"]
    assert meta["name"] == "lineplace"
    assert lineplace.__version__ == meta["version"]


def _imported_names(path):
    """(line, dotted name parts) of every import in the module at path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.lineno, (node.module or "").split(".") + [alias.name]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")


@pytest.mark.parametrize(
    "path", [path for path in sorted(SRC.glob("*.py")) if path.name not in ("cli.py", "verify.py")],
    ids=lambda path: path.name)
def test_only_the_cli_imports_verify(path):
    for lineno, parts in _imported_names(path):
        assert "verify" not in parts, f"{path.name}:{lineno} imports {'.'.join(parts)}"


def test_unexported_names_stay_off_the_package():
    for name in UNEXPORTED:
        assert name not in lineplace.__all__, name
        assert not hasattr(lineplace, name), name


def test_no_unused_imports():
    # an import that no name in its module uses; __init__.py imports to export
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, unused


def test_k_cover_reconstructs_on_one_route():
    # the circles of k-cover runs come from the pair circles (Helly's
    # theorem, k_cover._run_circles); they reach neither route of
    # min_enclosing, nor the interval objects, nor a radius search
    names = {parts[-1] for _, parts in _imported_names(SRC / "k_cover.py")}
    assert not names & {"min_enclosing", "covering_interval", "Interval", "SegmentArray",
                        "least_radius", "bisect_radius"}


@pytest.mark.parametrize("module, name", [("one_center.py", "min_enclosing"),
                                          ("obnoxious.py", "max_empty_binsearch"),
                                          ("_reference.py", "min_enclosing_scalar")])
def test_radius_searches_share_one_bisection(module, name):
    # the bracket nudge, the stop rule and the re-check of a radius
    # search live in intervals.bisect_radius and least_radius only
    tree = ast.parse((SRC / module).read_text())
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == name)
    assert not any(isinstance(node, ast.While) for node in ast.walk(fn))
    called = {node.func.id for node in ast.walk(fn)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert called & {"bisect_radius", "least_radius"}


def test_envelope_build_wraps_once():
    # the envelope build carries pieces as (a, b, seg_index) tuples; only
    # the return of compute_lower_envelope builds the public objects
    tree = ast.parse((SRC / "obnoxious.py").read_text())

    def wraps(node):
        return sorted(call.func.id for call in ast.walk(node)
                      if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                      and call.func.id in ("EnvelopePiece", "LowerEnvelope"))

    build = next(fn for fn in tree.body
                 if isinstance(fn, ast.FunctionDef) and fn.name == "compute_lower_envelope")
    final = build.body[-1]
    assert isinstance(final, ast.Return)
    assert wraps(tree) == wraps(final) == ["EnvelopePiece", "LowerEnvelope"]


def _called_names(node):
    """Names of the functions and classes called anywhere under node."""
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            if isinstance(func, ast.Name):
                yield func.id
            elif isinstance(func, ast.Attribute):
                yield func.attr


def test_points_travel_as_one_table():
    # the points go from the CLI's frame transform to the DP as one
    # sorted (N, 2) array: k_cover builds no Point, and _axis_instance
    # moves every problem's table in one operation, with no branch
    k_cover = ast.parse((SRC / "k_cover.py").read_text())
    assert "Point" not in set(_called_names(k_cover))
    cli = ast.parse((SRC / "cli.py").read_text())
    fn = next(node for node in cli.body
              if isinstance(node, ast.FunctionDef) and node.name == "_axis_instance")
    assert "Point" not in set(_called_names(fn))
    assert not any(isinstance(node, (ast.If, ast.IfExp, ast.Match)) for node in ast.walk(fn))
    assert "problem" not in {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)}


def _bound_names(tree):
    """Every name that a module defines, assigns or imports."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def test_envelope_merges_one_cell_at_a_time():
    # no solver module binds a reference route, and the one build, which
    # both compute_lower_envelope and the --verify route call, reads one
    # scalar profile per segment and merges halves with the scalar merge
    for path in _solver_modules():
        names = set(_bound_names(ast.parse(path.read_text(), filename=str(path))))
        assert not REFERENCE_ROUTES & names, (path.name, REFERENCE_ROUTES & names)
    tree = ast.parse((SRC / "obnoxious.py").read_text())
    fns = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    build = fns["_envelope_pieces"]
    assert {"_build_profile", "_merge_raw", "_compact_pieces"} <= set(_called_names(build))
    assert "_resolve_cell" in set(_called_names(fns["_merge_raw"]))
    for name in ("compute_lower_envelope", "max_empty_envelope"):
        assert "_envelope_pieces" in set(_called_names(fns[name])), name
    # the --verify route maximises the build's pieces, with no piece objects
    assert "compute_lower_envelope" not in set(_called_names(fns["max_empty_envelope"]))


def test_one_scalar_envelope_build():
    # the envelope build reaches no root kernel of k-cover, so --verify
    # shares none with it
    def no_rtsafe(*args):
        raise AssertionError("the envelope build reached rtsafe")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(lineplace.geometry, "_rtsafe", no_rtsafe)
        m.setattr(lineplace.k_cover, "_rtsafe", no_rtsafe)
        rows = np.array([[0.0, 1.0, 4.0, -2.0], [3.0, 2.0, 9.0, 1.5], [5.0, -1.0, 5.0, 3.0],
                         [8.0, 0.5, 8.0, 0.5]])
        for p in (1.0, 1.5, 2.0, 3.0, 30.0):
            norm, tol = lineplace.NormP(p), lineplace.Tolerance()
            lineplace.obnoxious.compute_lower_envelope(rows, 10.0, norm, tol)
            lineplace.obnoxious.max_empty_envelope(rows, 10.0, norm, tol)


def test_envelope_is_only_the_verify_route():
    # the solve bisects, and the lower envelope is the --verify route of
    # the largest empty circle whatever the result's "method" says; it
    # is off the package but stays in lineplace.obnoxious, whence the
    # benchmark imports it
    cli = set(_bound_names(ast.parse((SRC / "cli.py").read_text())))
    assert not cli & {"max_empty_envelope", "compute_lower_envelope", "_envelope_pieces"}
    check = next(node for node in ast.parse((SRC / "verify.py").read_text()).body
                 if isinstance(node, ast.FunctionDef) and node.name == "cross_check")
    constants = {node.value for node in ast.walk(check) if isinstance(node, ast.Constant)}
    assert "method" not in constants
    for name in ("compute_lower_envelope", "largest_empty_from_envelope", "LowerEnvelope",
                 "EnvelopePiece"):
        assert name not in lineplace.__all__ and not hasattr(lineplace, name), name
        assert getattr(lineplace.obnoxious, name).__module__ == "lineplace.obnoxious", name


def test_segment_routes_share_one_prologue():
    # geometry.segment_rows converts and checks a segment instance; the
    # envelope build takes L = 0 through its merges, not a branch
    # of its own, and no function of the segment solvers raises the
    # prologue's errors itself
    messages = {"need at least one segment", "L must be finite and nonnegative"}
    for name in ("one_center.py", "obnoxious.py"):
        tree = ast.parse((SRC / name).read_text())
        raised = {arg.value for node in ast.walk(tree) if isinstance(node, ast.Raise)
                  for arg in ast.walk(node) if isinstance(arg, ast.Constant)}
        assert not messages & raised, name
    build = next(node for node in ast.parse((SRC / "obnoxious.py").read_text()).body
                 if isinstance(node, ast.FunctionDef) and node.name == "_envelope_pieces")
    for node in ast.walk(build):
        if isinstance(node, (ast.If, ast.IfExp, ast.While)):
            assert "L" not in {name.id for name in ast.walk(node.test)
                               if isinstance(name, ast.Name)}
    assert "segment_rows" in set(_called_names(build))
    # every segment route raises the prologue's errors, messages and all
    from lineplace import _reference

    norm, tol = lineplace.NormP(2.0), lineplace.Tolerance()
    for route in (lineplace.min_enclosing, lineplace.max_empty_binsearch,
                  lineplace.obnoxious.max_empty_envelope,
                  lineplace.obnoxious.compute_lower_envelope,
                  _reference.min_enclosing_scalar):
        with pytest.raises(lineplace.EmptyInput, match="^need at least one segment$"):
            route([], 1.0, norm, tol)
        for L in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="^L must be finite and nonnegative$"):
                route(np.zeros((1, 4)), L, norm, tol)


def test_k_cover_dp_reads_the_run_table():
    # a solve weighs its runs by the run table alone and builds no
    # candidate lists; lists= only rejects unknown values, the DP takes
    # its weight blocks with no word of which caller it serves, and
    # k_cover keeps no whole-table route beside the stream
    tree = ast.parse((SRC / "k_cover.py").read_text())
    fns = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for node in ast.walk(fns["dp_solve"]):
        if isinstance(node, (ast.If, ast.IfExp)) and "lists" in {
                name.id for name in ast.walk(node.test) if isinstance(name, ast.Name)}:
            assert isinstance(node, ast.If) and not node.orelse
            assert [type(stmt) for stmt in node.body] == [ast.Raise]
    assert [arg.arg for arg in fns["_relax_blocks"].args.args] == ["xy", "K", "blocks", "p",
                                                                    "agg"]
    gap = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_power_gap")
    assert [arg.arg for arg in gap.args.args] == ["x", "a", "b", "t", "p"]


def test_k_cover_pairs_are_tested_by_their_span():
    # _binding_radii's inside test reads each pair's span: F, by
    # _power_gap, is evaluated only in the one closure handed to rtsafe
    tree = ast.parse((SRC / "k_cover.py").read_text())
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "_binding_radii")
    closure, = [node for node in ast.walk(fn) if isinstance(node, ast.FunctionDef)
                and node is not fn]
    inside = set(map(id, ast.walk(closure)))
    gaps = [node for node in ast.walk(fn)
            if isinstance(node, ast.Name) and node.id == "_power_gap"]
    assert gaps and all(id(node) in inside for node in gaps)
    rtsafe, = [node for node in ast.walk(fn) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id == "_rtsafe"]
    assert isinstance(rtsafe.args[0], ast.Name) and rtsafe.args[0].id == closure.name


def test_k_cover_verify_has_one_route():
    # one k-cover rule at every p: cross_check never reads the norm's p,
    # and the certificate reads the run table's blocks with no pair
    # kernel of k_cover (no closed form, no rtsafe)
    tree = ast.parse((SRC / "verify.py").read_text())
    fns = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    check = fns["cross_check"]
    assert "p" not in {node.attr for node in ast.walk(check) if isinstance(node, ast.Attribute)}
    kernels = {name for name, value in vars(lineplace.k_cover).items()
               if inspect.isfunction(value) and value.__module__ == "lineplace.k_cover"}
    used = set()
    for name in ("certify_run_table", "_meet", "_halfwidths"):
        used |= {node.id for node in ast.walk(fns[name]) if isinstance(node, ast.Name)}
    assert used & kernels == {"_run_columns", "_column_blocks"}
    assert not {"_rtsafe", "_np_lp", "_lp_pair"} & used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_one_covering_kernel(path):
    # SegmentArray.covering is the only covering-interval kernel that a
    # solver runs; the scalar kernel and its intersection are references
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set(_bound_names(tree)) | {node.attr for node in ast.walk(tree)
                                       if isinstance(node, ast.Attribute)}
    if path.name != "_reference.py":
        assert not {"covering_interval", "intersect_all"} & names


def test_one_envelope_build():
    # the one-off fold is a reference: no solver module binds its functions
    for path in _solver_modules():
        names = set(_bound_names(ast.parse(path.read_text(), filename=str(path))))
        assert not {"_fold_one", "_fold_windows", "_envelope_peak", "envelope_one_off"} & names, (
            path.name)


def test_extraction_folds_exact_distances():
    # the envelope's maximum is read from point_segment_distance at
    # every piece end, with no array estimate to rescore
    obnoxious = ast.parse((SRC / "obnoxious.py").read_text())
    extraction = next(node for node in obnoxious.body
                      if isinstance(node, ast.FunctionDef) and node.name == "_largest_empty")
    names = {node.id for node in ast.walk(extraction) if isinstance(node, ast.Name)}
    assert "point_segment_distance" in names
    assert not {"axis_distances", "rescored_extreme"} & names
