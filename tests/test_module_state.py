"""No module in the package keeps state that outlives a call.

A ``global`` statement rebinds module state from inside a function, and a
``functools.lru_cache`` or ``functools.cache`` decorator keeps every answer
for the life of the process.  Neither may appear in ``src/borelfiber``.
Nor may a call to ``id()``: a memo keyed by object identity ties an answer
to which objects built the input, so bases hold words instead.

Every module must also parse as Python 3.10, the oldest version that
``pyproject.toml`` admits (``requires-python = ">=3.10"``).  The parser's
``feature_version`` rejects newer syntax such as ``except*`` or ``type``
statements; it does not see newer library names.
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


def id_calls(tree: ast.AST) -> list[int]:
    """Lines that call the builtin ``id``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id"
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_identity_memos(path):
    assert id_calls(ast.parse(path.read_text(), filename=str(path))) == []


def test_the_id_scan_sees_a_call():
    source = "def f(side, memo):\n    key = side.id\n    return memo.get(id(side))\n"
    assert id_calls(ast.parse(source)) == [3]


def test_the_scan_sees_both_forms():
    source = "import functools\nX = 0\n@functools.lru_cache(maxsize=None)\ndef f():\n    global X\n"
    tree = ast.parse(source)
    assert any(isinstance(node, ast.Global) for node in ast.walk(tree))
    (func,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    assert decorator_name(func.decorator_list[0]) == "lru_cache"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_the_3_10_parse_rejects_newer_syntax():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
