"""The names the benchmark's tracer wraps must exist in dualnav.

navbench/tracer.py replaces dualnav functions and methods by name; a rename
in dualnav would otherwise surface only when the benchmark is run traced.
"""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "navbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("navbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_in_dualnav():
    tracer = _tracer()
    for mod_name, attr, _, _ in tracer.FUNCTIONS:
        module = importlib.import_module("dualnav." + mod_name)
        assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"
    for mod_name, cls_name, attr, _, _ in tracer.METHODS:
        cls = getattr(importlib.import_module("dualnav." + mod_name),
                      cls_name, None)
        assert cls is not None, f"{mod_name}.{cls_name}"
        # installed on the class itself, so it must be defined there
        assert callable(cls.__dict__.get(attr)), \
            f"{mod_name}.{cls_name}.{attr}"
