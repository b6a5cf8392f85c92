"""The benchmark's traced layers still name distinct functions of the package.

``bench/run.py --trace 1`` wraps each (module, function) of its ``LAYERS``
table and keys the wrappers by ``id``.  A deleted or renamed function breaks
the traced run, and a name left as an alias of another traced function would
silently merge two layers' counters.  This test only reads ``bench/run.py``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def load_layers(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_run_contract", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_resolves_to_a_distinct_function(monkeypatch):
    layers = load_layers(monkeypatch)
    assert len(layers) == 15
    functions = []
    for module, name, *_ in layers:
        target = getattr(importlib.import_module(f"borelfiber.{module}"), name, None)
        assert callable(target), f"borelfiber.{module}.{name} is gone"
        assert target.__module__ == f"borelfiber.{module}", f"{module}.{name} is an import"
        functions.append(target)
    assert len({id(f) for f in functions}) == len(functions)
