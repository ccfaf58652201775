"""The package surface: what is exported, and where the second routes live."""

import ast
import pathlib

import pytest

import lineplace

SRC = pathlib.Path(lineplace.__file__).parent
PYPROJECT = pathlib.Path(__file__).parent.parent / "pyproject.toml"

# independent second routes, kept for the tests in lineplace._reference
REFERENCE_ROUTES = {
    "_covering_bisect",
    "_min_distance_search",
    "build_lists_loop",
    "distance_argmin_on_axis",
    "equal_distance_point",
    "envelope_value",
    "relax_scan",
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


def test_reference_module_defines_the_routes():
    from lineplace import _reference

    for name in REFERENCE_ROUTES:
        assert callable(getattr(_reference, name))


def test_all_resolves_and_leaves_out_the_references():
    for name in lineplace.__all__:
        assert hasattr(lineplace, name), name
    assert not REFERENCE_ROUTES & set(lineplace.__all__)
    assert "_reference" not in lineplace.__all__


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads(PYPROJECT.read_text())["project"]
    assert meta["name"] == "lineplace"
    assert lineplace.__version__ == meta["version"]


def test_no_crossing_stays_internal():
    # only the reference search raises it, so the package does not export it
    from lineplace import errors

    assert "NoCrossing" not in lineplace.__all__
    assert not hasattr(lineplace, "NoCrossing")
    assert issubclass(errors.NoCrossing, errors.SolverError)
