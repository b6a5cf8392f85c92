"""No module in the package keeps state that outlives a call.

A ``global`` statement rebinds module state from inside a function, and a
``functools.lru_cache`` or ``functools.cache`` decorator keeps every answer
for the life of the process.  Neither may appear in ``src/borelfiber``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "borelfiber"
CACHES = {"lru_cache", "cache"}


def decorator_name(node: ast.expr) -> str | None:
    """``lru_cache`` for ``@lru_cache``, ``@functools.lru_cache(...)`` and the like."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_globals_and_no_process_caches(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found.append(f"line {node.lineno}: global {', '.join(node.names)}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for dec in node.decorator_list:
                if decorator_name(dec) in CACHES:
                    found.append(f"line {dec.lineno}: @{ast.unparse(dec)} on {node.name}")
    assert not found, found


def test_the_scan_sees_both_forms():
    source = "import functools\nX = 0\n@functools.lru_cache(maxsize=None)\ndef f():\n    global X\n"
    tree = ast.parse(source)
    assert any(isinstance(node, ast.Global) for node in ast.walk(tree))
    (func,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    assert decorator_name(func.decorator_list[0]) == "lru_cache"
