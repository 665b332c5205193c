"""No guard of the package lives in an ``assert``: ``python -O`` strips
asserts, so every check in ``src/smoothsimplex`` must raise."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "smoothsimplex")
                 .glob("*.py"))


def assert_lines(source: str) -> list[int]:
    """The line numbers of the ``assert`` statements in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_the_scan_sees_an_assert():
    source = ("def f(x):\n    if x:\n        assert x > 0, 'x'\n"
              "    return 'assert x'\n")
    assert assert_lines(source) == [3]
    assert {"__init__.py", "geometry.py", "homotopy.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_has_no_assert(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []
