"""No module in the package keeps state that outlives a call.

A ``global`` statement rebinds module state from inside a function, and a
``functools.lru_cache`` or ``functools.cache`` decorator keeps every answer
for the life of the process.  Neither may appear in ``src/borelfiber``.
Nor may a call to ``id()``: a memo keyed by object identity ties an answer
to which objects built the input, so bases hold words instead.  Nor may an
``except`` clause name ``TypeError``: bad input is refused by a check, never
by catching what it breaks, so the error names the input instead of the
line it broke.  Nor may a module start worker processes: no
``concurrent.futures``, no ``multiprocessing`` and no ``os.cpu_count``,
since every check runs in the calling process.  Nor may a module import
anything but the standard library (``sys.stdlib_module_names``) and the
package itself, as ``pyproject.toml`` declares (``dependencies = []``).

The modules import each other without a cycle at run time, so importing any
one of them never meets a half-initialized module: a module-level ``from
borelfiber.X import ...`` or ``import borelfiber.X`` is an edge, and an
``if TYPE_CHECKING:`` block, which only a type checker runs, is not.  No
import sits inside a function, where it would hide such an edge.

Every module must also parse as Python 3.10, the oldest version that
``pyproject.toml`` admits (``requires-python = ">=3.10"``).  The parser's
``feature_version`` rejects newer syntax such as ``except*`` or ``type``
statements; it does not see newer library names.
"""

import ast
import graphlib
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "borelfiber"
CACHES = {"lru_cache", "cache"}
PACKAGE = "borelfiber."


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


def type_error_handlers(tree: ast.AST) -> list[int]:
    """Lines of ``except`` clauses that name ``TypeError``, alone, in a tuple or as an attribute."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and any(
            getattr(name, "id", getattr(name, "attr", None)) == "TypeError"
            for name in ast.walk(node.type)
        )
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_type_error_handlers(path):
    assert type_error_handlers(ast.parse(path.read_text(), filename=str(path))) == []


def test_the_type_error_scan_sees_each_form():
    source = (
        "try:\n    f()\nexcept TypeError:\n    pass\n"
        "try:\n    f()\nexcept (ValueError, TypeError) as err:\n    pass\n"
        "try:\n    f()\nexcept builtins.TypeError:\n    pass\n"
        "try:\n    f()\nexcept ValueError:\n    pass\nexcept:\n    raise\n"
    )
    assert type_error_handlers(ast.parse(source)) == [3, 7, 11]


def test_the_scan_sees_both_forms():
    source = "import functools\nX = 0\n@functools.lru_cache(maxsize=None)\ndef f():\n    global X\n"
    tree = ast.parse(source)
    assert any(isinstance(node, ast.Global) for node in ast.walk(tree))
    (func,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    assert decorator_name(func.decorator_list[0]) == "lru_cache"


PROCESS_NAMES = ("concurrent.futures", "multiprocessing", "os.cpu_count")


def process_uses(tree: ast.AST) -> list[int]:
    """Lines that import or name ``concurrent.futures``, ``multiprocessing`` or ``os.cpu_count``.

    An import is read by each dotted name it binds, ``from X import y`` as
    ``X`` and ``X.y``, and an attribute chain such as ``os.cpu_count`` by its
    source text; a name is refused when it is one of ``PROCESS_NAMES`` or
    lies inside one.
    """
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [ast.unparse(node)]
        else:
            continue
        if any(name == p or name.startswith(p + ".") for name in names for p in PROCESS_NAMES):
            lines.append(node.lineno)
    return sorted(set(lines))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_worker_processes(path):
    assert process_uses(ast.parse(path.read_text(), filename=str(path))) == []


def test_the_process_scan_sees_each_form():
    source = (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "import multiprocessing.pool\n"
        "from concurrent import futures\n"
        "from os import cpu_count\n"
        "width = os.cpu_count() or 1\n"
        "import os, concurrent\n"
        "cpus = os.sched_getaffinity(0)\n"
    )
    assert process_uses(ast.parse(source)) == [1, 2, 3, 4, 5]


def runtime_imports(tree: ast.Module) -> set[str]:
    """The package modules that a module imports at module level when it runs.

    Reads ``from borelfiber.X import ...`` and ``import borelfiber.X`` in the
    module body and in module-level ``if`` blocks, but not in the body of an
    ``if TYPE_CHECKING:``.
    """
    out = set()
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.If):
            checking = ast.unparse(node.test) in {"TYPE_CHECKING", "typing.TYPE_CHECKING"}
            todo.extend(node.orelse if checking else node.body + node.orelse)
            continue
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        out.update(name.removeprefix(PACKAGE) for name in names if name.startswith(PACKAGE))
    return out


def import_cycle(modules: dict[str, ast.Module]) -> list[str]:
    """One cycle of the run-time import graph, or ``[]`` when it is acyclic."""
    graph = {name: runtime_imports(tree) for name, tree in modules.items()}
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as err:
        return err.args[1]
    return []


def nested_imports(tree: ast.AST) -> list[int]:
    """Lines of import statements inside a function."""
    return sorted(
        {
            inner.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(node)
            if isinstance(inner, (ast.Import, ast.ImportFrom))
        }
    )


def test_no_import_cycle_and_no_import_in_a_function():
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    assert import_cycle(modules) == []
    assert {name: nested_imports(tree) for name, tree in modules.items()} == dict.fromkeys(
        modules, []
    )


def test_the_import_scans_see_a_cycle_and_a_nested_import():
    first = ast.parse("from borelfiber.b import g\n")
    second = "import borelfiber.a\n"
    checked = "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    import borelfiber.a\n"
    assert import_cycle({"a": first, "b": ast.parse(second)}) in (["a", "b", "a"], ["b", "a", "b"])
    assert import_cycle({"a": first, "b": ast.parse(checked)}) == []
    nested = ast.parse("import os\ndef f():\n    from borelfiber.b import g\n    return g\n")
    assert nested_imports(nested) == [3]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_the_3_10_parse_rejects_newer_syntax():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


def third_party_imports(tree: ast.AST) -> list[str]:
    """The top-level names of imported modules outside the standard library and the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module)
    tops = {name.partition(".")[0] for name in names}
    return sorted(tops - set(sys.stdlib_module_names) - {"borelfiber"})


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_standard_library_imports(path):
    assert third_party_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_the_import_origin_scan_sees_each_form():
    source = (
        "import numpy.linalg\n"
        "from sympy.polys import groebner\n"
        "from . import fiber\n"
        "import os, borelfiber.toric\n"
        "def f():\n    from scipy import sparse\n"
        "from __future__ import annotations\n"
    )
    assert third_party_imports(ast.parse(source)) == ["numpy", "scipy", "sympy"]
