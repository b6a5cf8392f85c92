"""Every module-level function of the package has a caller outside the tests.

A function counts as called when some module of ``src/borelfiber`` names it
outside its own body, when ``__all__`` exports it, or when the benchmark
script ``bench/run.py`` names it (as a name, an attribute or a string, such
as its ``LAYERS`` entries); the script is only read.  The functions that meet
none of these, reachable from the tests alone, are pinned in ``TEST_ONLY``,
which is empty: a new one must either find a caller or move to
``tests/helpers.py``, as ``rees_normal_form`` has.

Configuration sums have one path: ``fiber._pack`` and ``fiber._unpack``,
whose src callers are pinned, and no src code sums vectors as tuples with
``map(add, ...)`` or ``map(sum, zip(...))``.  The fiber listing
(``fiber._fiber_groups``) packs, and unpacks only the sum named in its
error; its keyed view ``fiber.fibers`` unpacks every key.  The paired-move
test (``fiber._paired_moves``) packs the generators with the unit vectors,
whose differences are the unit moves.  The completion oracle's fiber walk
(``toric._stars``) packs the generators once per call, for the sums of the
normal words it builds above degree 2, and unpacks a sum only when two
normal words share it, into the multidegree it enumerates.  Besides them,
``toric._checked_rules``, the one check of a basis, packs its
configuration once, for its words' sums in the homogeneity check
and, kept on its rule index, for the critical monomials' sums of
``toric._check_overlaps``, which only unpacks a failure's name.  The
unique-sink sweep (``verify.sweep_unique_sinks``) packs the generators'
and the roots' suffix sums for its standard words' sums and their share and
peel tests, and unpacks the sum of a word only when it holds that word to
the whole direct sink or marks it.

A ``ReesBasis`` holds word pairs, ``rees_gb`` builds no monomial, and the
elimination order is defined once, on code words (``rees._word_key``), so
``rees._from_codes`` decodes words only where a monomial is read: its one
src caller, the ``ReesBasis.elements`` view, is pinned.  No word is decoded
in order to rank it.  A table lists its degree-2 fibers of two or more
points once (``GeneratorTable._quadric_fibers``), and both sides' full
bases read that listing and nothing else: ``toric.quadric_generators`` and
``rees.rees_gb`` are its only readers, so ``rees`` lists no fiber, and
neither the completion oracle (``toric.brute_force_gb``) nor its fiber walk
(``toric._stars``) reaches it.  Both pair the fibers in one place,
``toric._degree_two_pairs``, given the listing, which counts the pairs
before it takes any; those two are its only callers.  What counts as a
paired move is defined once too:
``fiber._paired_moves`` serves the sweep's lead masks
(``fiber._lead_masks``), the fiber graph (``fiber.build_fiber_graph``) and
the Rees syzygies (``rees.rees_gb``), and nothing else.  A single fiber is
enumerated in one place, ``fiber.enumerate_fiber``, in sink order, and its
src callers are pinned: the fiber graph, the closure components and the
oracle's fiber walk.
The completion oracle lists the fibers of degrees 1 and 2 once
(``toric.brute_force_gb``), apart from the table's listing, builds their
rules in closed form and hands the listing to its fiber walk
(``toric._stars``), which lists no fiber of its own.  The rule index answers
a word one way, by the sub-multiset lookup ``toric._Rules.hits``: its src
callers are the rewriter, the overlap check and that walk.

Each private name that one src module imports from another is pinned too,
so a new reach into another module's internals fails a list here.  The
unique-sink check (``verify.check_unique_sink``) reads the fiber graph that
``fiber.build_fiber_graph`` builds and imports none of its parts, neither
the paired-move test nor the enumeration; the sweep takes its
leads from ``fiber._lead_masks`` and checks the first peel of the direct
sink per standard word on packed suffix sums, calling the share test
(``fiber._sink_plan``) only for a word it holds to the whole direct sink.

The oracles stay independent of the fast paths they check: the scan of
standard words (``fiber._standard_levels``) serves only the sweep and the
overlap check; the lead masks (``fiber._lead_masks``), which the sweep's
scan trusts, are built for the sweep alone, and neither the fiber graph nor
the unique-sink check reaches them; and nothing that the
completion oracle (``toric.brute_force_gb``) calls, directly or through
other src functions, reaches the scan of standard words, the overlap check or
the direct sink: it finds its normal words with its own rules.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "borelfiber"
BENCH_SCRIPT = ROOT / "bench" / "run.py"

# Functions that only the tests call; none is left.
TEST_ONLY = []

# The one configuration-sum path and the src functions that use it.
SUM_PATH = {
    "_pack": [
        "fiber._fiber_groups",
        "fiber._paired_moves",
        "toric._checked_rules",
        "toric._stars",
        "verify.sweep_unique_sinks",
    ],
    "_unpack": [
        "fiber._fiber_groups",
        "fiber.fibers",
        "toric._check_overlaps",
        "toric._stars",
        "verify.sweep_unique_sinks",
    ],
}

# The one enumeration of a single fiber and its src callers.
ENUMERATE_PATH = {
    "enumerate_fiber": ["fiber.build_fiber_graph", "toric._stars", "toric.closure_components"],
}

# The completion oracle's listing of degrees 1 and 2, its fiber walk, and the
# rule index's one lookup of a word, by their src callers.
ORACLE_PATH = {
    "_fiber_groups": [
        "borel.GeneratorTable._quadric_fibers",
        "fiber.fibers",
        "toric.brute_force_gb",
    ],
    "_stars": ["toric.brute_force_gb"],
    "hits": ["toric._Rules.rewrite", "toric._check_overlaps", "toric._stars"],
}

# Decoding a word back to a Rees monomial, and its src callers.
DECODE_PATH = {
    "_from_codes": ["rees.ReesBasis.elements"]
}

# A table's one listing of its degree-2 fibers, and its src readers.
LISTING_PATH = {
    "_quadric_fibers": ["rees.rees_gb", "toric.quadric_generators"],
}

# The one pairing of degree-2 fibers, which counts its pairs, and its src callers.
PAIR_PATH = {
    "_degree_two_pairs": ["rees.rees_gb", "toric.quadric_generators"],
}

# The one paired-move test and its src callers.
MOVE_PATH = {
    "_paired_moves": ["fiber._lead_masks", "fiber.build_fiber_graph", "rees.rees_gb"],
}

# Each private name one src module imports from another, by importing module.
PRIVATE_IMPORTS = {
    "borel": ["fiber._fiber_groups"],
    "rees": [
        "fiber._paired_moves",
        "toric._Rules",
        "toric._check_ints",
        "toric._check_point",
        "toric._checked_rules",
        "toric._degree_two_pairs",
        "toric._verify",
    ],
    "toric": [
        "fiber._bits",
        "fiber._component_labels",
        "fiber._fiber_groups",
        "fiber._pack",
        "fiber._partners",
        "fiber._shared",
        "fiber._standard_levels",
        "fiber._unpack",
    ],
    "verify": [
        "fiber._component_labels",
        "fiber._lead_masks",
        "fiber._pack",
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


def reaching(modules: dict[str, ast.Module], name: str) -> set[str]:
    """The names of the src functions from which a chain of callers reaches ``name``.

    Grows :func:`callers` to a fixed point, each caller by its last name
    component; a name that several functions share stands for all of them,
    so the set errs toward too many.
    """
    found: set[str] = set()
    todo = [name]
    while todo:
        for caller in callers(modules, todo.pop()):
            short = caller.rpartition(".")[2]
            if short not in found:
                found.add(short)
                todo.append(short)
    return found


def test_the_oracles_stay_off_the_fast_paths():
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    assert callers(modules, "_standard_levels") == [
        "toric._check_overlaps",
        "verify.sweep_unique_sinks",
    ]
    for fast in ("_standard_levels", "_check_overlaps", "find_sink_direct"):
        assert "brute_force_gb" not in reaching(modules, fast), fast
    assert callers(modules, "_lead_masks") == ["verify.sweep_unique_sinks"]
    masks_reach = reaching(modules, "_lead_masks")
    assert not {"build_fiber_graph", "check_unique_sink"} & masks_reach, masks_reach
    assert not callers(modules, "later_pairs")


def test_the_reach_scan_follows_chains():
    modules = {
        "m": ast.parse(
            "def fast(): pass\n"
            "def middle():\n    fast()\n"
            "class Holder:\n    def method(self):\n        return middle()\n"
            "def top(holder):\n    holder.method()\n"
            "def apart(): pass\n"
        ),
    }
    assert reaching(modules, "fast") == {"middle", "method", "top"}


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


def test_the_oracle_lists_degree_two_once():
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    assert {name: callers(modules, name) for name in ORACLE_PATH} == ORACLE_PATH


def test_one_listing_of_degree_two_fibers_per_table():
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    assert {name: callers(modules, name) for name in LISTING_PATH} == LISTING_PATH
    listing_reach = reaching(modules, "_quadric_fibers")
    assert not {"brute_force_gb", "_stars"} & listing_reach, listing_reach


def test_one_pairing_of_degree_two_fibers():
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    assert {name: callers(modules, name) for name in PAIR_PATH} == PAIR_PATH


def test_one_paired_move_test():
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    assert {name: callers(modules, name) for name in MOVE_PATH} == MOVE_PATH


def test_one_enumeration_of_a_single_fiber():
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    assert {name: callers(modules, name) for name in ENUMERATE_PATH} == ENUMERATE_PATH


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
