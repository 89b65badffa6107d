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


ROOT = Path(__file__).resolve().parents[1]
BENCH = sorted((ROOT / "bench").glob("*.py"))


def _top_level_names(path: Path) -> set[str]:
    """The names a module binds at top level: defs, classes, plain
    assignments and imports."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
    return names


def _missing_names(source: str) -> list[str]:
    """The names a bench script reaches that do not exist: every ``from
    qplanes.m import X``, every ``m.X`` on a module bound by ``from
    qplanes import m``, and every ``from t import X`` of a module t in
    tests/ or bench/ (the oracles and helpers the scripts share)."""
    tree = ast.parse(source)
    modules = {}  # local name -> qplanes module
    missing = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        local = [path for path in (ROOT / "tests" / f"{node.module}.py",
                                   ROOT / "bench" / f"{node.module}.py")
                 if path.exists()]
        if node.module == "qplanes":
            for alias in node.names:
                modules[alias.asname or alias.name] = importlib.import_module(
                    f"qplanes.{alias.name}")
        elif (node.module or "").startswith("qplanes."):
            mod = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names
                        if not hasattr(mod, a.name)]
        elif local:
            names = _top_level_names(local[0])
            missing += [f"{node.module}.{a.name}" for a in node.names
                        if a.name not in names]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and not hasattr(modules[node.value.id], node.attr)):
            missing.append(f"{modules[node.value.id].__name__}.{node.attr}")
    return missing


@pytest.mark.parametrize("script", BENCH, ids=lambda path: path.name)
def test_bench_scripts_use_only_names_that_exist(script):
    """The bench scripts are imported in CI but not run, and they reach
    private names of the package and oracles of the tests: each of them
    must still exist."""
    missing = _missing_names(script.read_text())
    assert not missing, f"{script.name} uses missing names: {missing}"


def test_bench_name_check_sees_the_test_oracles():
    """A renamed oracle of a test module, a deleted helper of a bench
    script and a deleted package name are each reported."""
    source = ("from qplanes import loci\n"
              "from test_loci import _fraction_power_products, _gone\n"
              "from test_linalg import _loop_rref\n"
              "from elimination import cpu_model, _also_gone\n"
              "loci.classify, loci._minor_cubics\n")
    assert _missing_names(source) == ["test_loci._gone",
                                      "elimination._also_gone",
                                      "qplanes.loci._minor_cubics"]
