"""The benchmark's tracer wraps package callables by name
(``perfbench/tracing.py``); a rename in the package must show up here, not
only when a traced benchmark run is started."""

import importlib
import inspect
from pathlib import Path


def test_every_traced_callable_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracing

    missing = []
    for layer, names in tracing.TARGETS.items():
        module = importlib.import_module(f"smoothsimplex.{layer}")
        for dotted in names:
            obj = module
            for part in dotted.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{layer}.{dotted}")
    assert missing == []


def test_counted_searches_are_generator_functions():
    # the tracer counts the items of generator functions: maps and squares
    from smoothsimplex import engine, simplicial

    assert inspect.isgeneratorfunction(simplicial.enumerate_maps)
    assert inspect.isgeneratorfunction(engine.iter_lifting_problems)
