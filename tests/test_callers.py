"""Every module-level function of the package has a caller outside the tests.

A function counts as called when some module of ``src/borelfiber`` names it
outside its own body, when ``__all__`` exports it, or when the benchmark
script ``bench/run.py`` names it (as a name, an attribute or a string, such
as its ``LAYERS`` entries); the script is only read.  The functions that meet
none of these are pinned: each is reachable from the tests alone, and a new
one must either find a caller or move to ``tests/helpers.py``.

Configuration sums have one path: ``fiber._pack`` and ``fiber._unpack``,
whose src callers are pinned, and no src code sums vectors as tuples with
``map(add, ...)`` or ``map(sum, zip(...))``.  The paired-move rows
(``GeneratorTable.later_pairs``) take differences on the same packed
generators and unit vectors, to spot the unit moves within a degree-2
fiber.  Besides them, ``toric._checked_rules``, the one check of a basis,
packs its configuration once, for its words' sums in the homogeneity check
and, kept on its rule index, for the critical monomials' sums of
``toric._check_overlaps``, which only unpacks a failure's name.  The
unique-sink sweep (``verify.sweep_unique_sinks``) packs the generators for
its standard words' sums and unpacks those sums into multidegrees.

A ``ReesBasis`` holds word pairs, ``rees_gb`` builds no monomial, and the
elimination order is defined once, on code words (``rees._word_key``), so
``rees._from_codes`` decodes words only where a monomial is read: the
``ReesBasis.elements`` view and the answer of ``rees_normal_form``; those
callers are pinned.  No word is decoded in order to rank it.

Each private name that one src module imports from another is pinned too,
so a new reach into another module's internals fails a list here.  The
unique-sink check (``verify.check_unique_sink``) reads the fiber graph that
``fiber.build_fiber_graph`` builds and imports neither ``_later_moves`` nor
``_fiber_in_sink_order``; the sweep takes the first step of the direct sink
per standard word, ``fiber._sink_plan`` and ``fiber._peel``.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "borelfiber"
BENCH_SCRIPT = ROOT / "bench" / "run.py"

# Kept in the library as the Rees counterpart of ``toric.normal_form``.
TEST_ONLY = ["rees.rees_normal_form"]

# The one configuration-sum path and the src functions that use it.
SUM_PATH = {
    "_pack": [
        "borel.GeneratorTable.later_pairs",
        "fiber.fibers",
        "toric._checked_rules",
        "verify.sweep_unique_sinks",
    ],
    "_unpack": ["fiber.fibers", "toric._check_overlaps", "verify.sweep_unique_sinks"],
}

# Decoding a word back to a Rees monomial, and its src callers.
DECODE_PATH = {
    "_from_codes": ["rees.ReesBasis.elements", "rees.rees_normal_form"]
}

# Each private name one src module imports from another, by importing module.
PRIVATE_IMPORTS = {
    "borel": ["fiber._pack"],
    "rees": [
        "toric._Rules",
        "toric._check_ints",
        "toric._check_point",
        "toric._checked_rules",
        "toric._verify",
    ],
    "toric": [
        "fiber._bits",
        "fiber._component_labels",
        "fiber._pack",
        "fiber._partners",
        "fiber._shared",
        "fiber._standard_levels",
        "fiber._unpack",
    ],
    "verify": [
        "fiber._component_labels",
        "fiber._pack",
        "fiber._partners",
        "fiber._peel",
        "fiber._sink_plan",
        "fiber._standard_levels",
        "fiber._unpack",
    ],
}


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


def callers(modules: dict[str, ast.Module], name: str) -> list[str]:
    """``module.function`` for each src function that names ``name``.

    A method counts as ``module.Class.method`` and module-level code as
    ``module.<module>``.
    """
    out = []
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                scopes = [(f"{node.name}.{getattr(f, 'name', '<body>')}", f) for f in node.body]
            else:
                scopes = [(getattr(node, "name", "<module>"), node)]
            out.extend(f"{module}.{scope}" for scope, body in scopes if named(body)[name])
    return sorted(set(out))


def tuple_sums(tree: ast.AST) -> list[int]:
    """Lines that map ``add`` or ``sum`` over vectors: the tuple-sum idioms."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "map"
        and node.args
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id in {"add", "sum"}
    ]


def test_one_configuration_sum_path():
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    assert {name: callers(modules, name) for name in SUM_PATH} == SUM_PATH
    defined = [
        f"{module}.{node.name}"
        for module, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    assert "toric._sum" not in defined
    assert {module: tuple_sums(tree) for module, tree in modules.items()} == dict.fromkeys(
        modules, []
    )


def test_the_sum_scans_see_each_kind_of_use():
    tree = ast.parse(
        "def _pack(): pass\n"
        "def user():\n    return _pack()\n"
        "class Holder:\n    def method(self):\n        return fiber._pack\n"
        "FIRST = _pack()\n"
        "def tuple_sum(u, v):\n    return tuple(map(add, u, v))\n"
        "def zip_sum(vs):\n    return tuple(map(sum, zip(*vs)))\n"
        "def difference(u, v):\n    return tuple(map(sub, u, v))\n"
    )
    assert callers({"m": tree}, "_pack") == ["m.<module>", "m.Holder.method", "m.user"]
    assert tuple_sums(tree) == [9, 11]


def test_one_decode_path():
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    assert {name: callers(modules, name) for name in DECODE_PATH} == DECODE_PATH


def private_imports(modules: dict[str, ast.Module]) -> dict[str, list[str]]:
    """``source.name`` for each private name a module imports from a package module.

    A ``from`` import counts when it is relative or names ``borelfiber`` or
    one of its modules; modules that import no private name are left out.
    """
    out = {}
    for module, tree in modules.items():
        names = sorted(
            f"{(node.module or '').rpartition('.')[2]}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "borelfiber")
            for alias in node.names
            if alias.name.startswith("_")
        )
        if names:
            out[module] = names
    return out


def test_private_imports_are_pinned():
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    assert private_imports(modules) == PRIVATE_IMPORTS


def test_the_private_import_scan_sees_each_form():
    modules = {
        "m": ast.parse(
            "from borelfiber.fiber import _pack, build_fiber_graph\n"
            "from .toric import _Rules\n"
            "from os import _exit\n"
            "import borelfiber.rees\n"
            "def user():\n    from borelfiber.verify import _hidden\n"
        ),
        "clean": ast.parse("from borelfiber.fiber import sinks\n"),
    }
    assert private_imports(modules) == {"m": ["fiber._pack", "toric._Rules", "verify._hidden"]}
