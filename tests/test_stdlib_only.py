"""The package runs on the standard library alone (``dependencies = []``
in ``pyproject.toml``): every absolute import in ``src/smoothsimplex``
names a standard-library module."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "smoothsimplex")
                 .glob("*.py"))


def foreign_imports(source: str) -> list[str]:
    """The roots of the absolute imports in ``source`` that are not in the
    standard library."""
    roots = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append(node.module.split(".")[0])
    return [r for r in roots if r not in sys.stdlib_module_names]


def test_the_scan_sees_a_foreign_import():
    source = ("import numpy.linalg\nfrom scipy import optimize\n"
              "from . import words\nimport json, fractions\n"
              "def f():\n    import sympy\n")
    assert foreign_imports(source) == ["numpy", "scipy", "sympy"]
    assert {"__init__.py", "engine.py", "simplicial.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []
