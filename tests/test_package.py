import ast
import importlib
from pathlib import Path

import pytest

import qplanes


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    meta = tomllib.loads(pyproject.read_text())
    assert qplanes.__version__ == meta["project"]["version"]


BENCH = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))


@pytest.mark.parametrize("script", BENCH, ids=lambda path: path.name)
def test_bench_scripts_use_only_names_that_exist(script):
    """The bench scripts are imported in CI but not run, and they reach
    private names: every ``from qplanes.m import X`` and every ``m.X``
    on a module bound by ``from qplanes import m`` must still exist."""
    tree = ast.parse(script.read_text())
    modules = {}  # local name -> qplanes module
    missing = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.module == "qplanes":
            for alias in node.names:
                modules[alias.asname or alias.name] = importlib.import_module(
                    f"qplanes.{alias.name}")
        elif (node.module or "").startswith("qplanes."):
            mod = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names
                        if not hasattr(mod, a.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and not hasattr(modules[node.value.id], node.attr)):
            missing.append(f"{modules[node.value.id].__name__}.{node.attr}")
    assert not missing, f"{script.name} uses missing names: {missing}"
