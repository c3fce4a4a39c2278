import ast
from pathlib import Path

import numpy as np
import pytest

import cstr

SOURCES = sorted(Path(cstr.__file__).parent.glob("*.py"))

# pyproject.toml declares numpy >= 1.24; these names came later
AFTER_NUMPY_1_24 = (
    "concat", "astype", "isdtype", "permute_dims", "matrix_transpose", "vecdot",
    "unique_values", "unique_counts", "unique_inverse", "unique_all", "bitwise_count",
    "trapezoid", "pow", "acos", "asin", "atan", "atan2", "long", "ulong", "unstack",
    "cumulative_sum", "cumulative_prod", "exceptions", "dtypes",
)


def after_numpy_1_24(tree):
    """Every np.<name> above, and every reshape(copy=...) (numpy 2.1), in a
    parsed source."""
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "np"
            and node.attr in AFTER_NUMPY_1_24
        ):
            found.append(f"line {node.lineno}: np.{node.attr}")
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "reshape"
            and any(k.arg == "copy" for k in node.keywords)
        ):
            found.append(f"line {node.lineno}: reshape(copy=...)")
    return found


def test_sources_are_found():
    assert "ndarray.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_parses_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_names_after_numpy_1_24_exist_and_are_found():
    # a misspelt name would never match
    assert [name for name in AFTER_NUMPY_1_24 if not hasattr(np, name)] == []
    tree = ast.parse("y = np.concat([x]).reshape(2, copy=False)\nz = np.reshape(x, 2)\n")
    assert after_numpy_1_24(tree) == ["line 1: reshape(copy=...)", "line 1: np.concat"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_uses_nothing_after_numpy_1_24(path):
    assert after_numpy_1_24(ast.parse(path.read_text(encoding="utf-8"))) == []
