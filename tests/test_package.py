from pathlib import Path

import pytest

import qplanes


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    meta = tomllib.loads(pyproject.read_text())
    assert qplanes.__version__ == meta["project"]["version"]
