import ast
from pathlib import Path

import pytest

import cstr

SOURCES = sorted(Path(cstr.__file__).parent.glob("*.py"))


def test_sources_are_found():
    assert "ndarray.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_parses_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
