"""The benchmark's traced layers and recorded answers still fit the package.

``bench/run.py --trace 1`` wraps each (module, function) of its ``LAYERS``
table and keys the wrappers by ``id``.  A deleted or renamed function breaks
the traced run, and a name left as an alias of another traced function would
silently merge two layers' counters.  Every bench op's answer is compared
with its digest in ``bench/reference.json``, so a change of answer fails the
benchmark; the quick inputs are checked here too.  This module only reads
``bench/``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def load_bench(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_run_contract", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_to_a_distinct_function(monkeypatch):
    layers = load_bench(monkeypatch).LAYERS
    assert len(layers) == 15
    functions = []
    for module, name, *_ in layers:
        target = getattr(importlib.import_module(f"borelfiber.{module}"), name, None)
        assert callable(target), f"borelfiber.{module}.{name} is gone"
        assert target.__module__ == f"borelfiber.{module}", f"{module}.{name} is an import"
        functions.append(target)
    assert len({id(f) for f in functions}) == len(functions)


@pytest.mark.parametrize("workload", ["sweep", "groebner", "oracle", "scale"])
def test_quick_answers_match_the_reference(monkeypatch, workload):
    bench = load_bench(monkeypatch)
    # The package as the tests import it; the bench's fresh_import would
    # reload it under the other test modules.
    bf = {name: importlib.import_module(f"borelfiber.{name}") for name in bench.LAYER_MODULES}
    reference = bench.load_reference()[workload]
    inputs, op, answer, _ = bench.WORKLOADS[workload]
    items = inputs(bf, bench.DEFAULT_SEED, True)
    quick = {"scale": len(bench.QUICK_SCALE_ARGVS)}
    assert len(items) == quick.get(workload, bench.QUICK_SUITE + bench.QUICK_RANDOM)
    for item in items:
        key, ans, problems = answer(bf, item, op(bf, item))
        assert problems == [], key
        assert bench.digest(ans) == reference[key], key
