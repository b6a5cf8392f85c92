"""Every module-level function of the package has a caller outside the tests.

A function counts as called when some module of ``src/borelfiber`` names it
outside its own body, when ``__all__`` exports it, or when the benchmark
script ``bench/run.py`` names it (as a name, an attribute or a string, such
as its ``LAYERS`` entries); the script is only read.  The functions that meet
none of these are pinned: each is reachable from the tests alone, and a new
one must either find a caller or move to ``tests/helpers.py``.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "borelfiber"
BENCH_SCRIPT = ROOT / "bench" / "run.py"

# Kept in the library as the Rees counterpart of ``toric.normal_form``.
TEST_ONLY = ["rees.rees_normal_form"]


def named(tree: ast.AST, strings: bool = False) -> Counter:
    """How often each name is loaded as a bare name or an attribute (or a string)."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def uncalled(modules: dict[str, ast.Module], outside: Counter) -> list[str]:
    """``module.function`` for each top-level function that nothing calls."""
    inside: Counter = Counter()
    for tree in modules.values():
        inside += named(tree)
    public = set().union(*map(exported, modules.values()))
    out = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if inside[name] > named(node)[name] or name in public or outside[name]:
                continue
            out.append(f"{module}.{name}")
    return sorted(out)


def test_every_function_outside_the_pin_has_a_caller():
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    outside = named(ast.parse(BENCH_SCRIPT.read_text()), strings=True)
    assert uncalled(modules, outside) == TEST_ONLY


def test_the_scan_sees_each_kind_of_caller():
    modules = {
        "a": ast.parse(
            "__all__ = ['exported']\n"
            "def exported(): pass\n"
            "def called(): pass\n"
            "def by_attribute(): pass\n"
            "def by_the_bench(): pass\n"
            "def recursive(): recursive()\n"
            "def orphan(): pass\n"
        ),
        "b": ast.parse("import a\ndef user():\n    called()\n    a.by_attribute()\n"),
    }
    outside = named(ast.parse("LAYERS = [('a', 'by_the_bench')]\nuser()\n"), strings=True)
    assert uncalled(modules, outside) == ["a.orphan", "a.recursive"]
