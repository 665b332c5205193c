"""Every text-mode ``open()`` in ``src/smoothsimplex`` names its encoding:
without one, Python reads and writes in the locale's encoding, so a UTF-8
file fails to read under an ASCII locale."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "smoothsimplex")
                 .glob("*.py"))


def _is_open(func: ast.expr) -> bool:
    """``open`` or ``io.open``, which take the file first and the mode second."""
    if isinstance(func, ast.Name):
        return func.id == "open"
    return (isinstance(func, ast.Attribute) and func.attr == "open"
            and isinstance(func.value, ast.Name) and func.value.id == "io")


def unencoded_text_opens(source: str) -> list[int]:
    """The line numbers of the ``open()`` calls in ``source`` that open in
    text mode (a mode that is not a string constant counts as text) and
    pass no ``encoding``, by keyword or as the fourth positional argument."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and _is_open(node.func)):
            continue
        kw = {k.arg: k.value for k in node.keywords}
        mode = node.args[1] if len(node.args) > 1 else kw.get("mode")
        if (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and "b" in mode.value):
            continue
        if "encoding" not in kw and len(node.args) < 4:
            lines.append(node.lineno)
    return lines


def test_the_scan_sees_an_unencoded_open():
    source = ("import io\n"
              "def f(p, m):\n"
              "    with open(p) as fh:\n"
              "        fh.read()\n"
              "    open(p, 'w', encoding='utf-8').close()\n"
              "    open(p, 'rb').close()\n"
              "    open(p, mode=m).close()\n"
              "    io.open(p, 'a').close()\n"
              "    open(p, 'r', -1, 'utf-8').close()\n"
              "    return 'open(p)'\n")
    assert unencoded_text_opens(source) == [3, 7, 8]
    assert {"cli.py", "homotopy.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_opens_text_with_an_encoding(path):
    assert unencoded_text_opens(path.read_text(encoding="utf-8")) == []
