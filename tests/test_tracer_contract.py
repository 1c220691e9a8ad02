"""The benchmark's contracts with dualnav.

navbench/tracer.py replaces dualnav functions and methods by name, and
navbench/workloads.py states its flights' map kind itself; a change in
dualnav would otherwise surface only when the benchmark is run.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

from dualnav.bench import scenario

NAVBENCH = Path(__file__).resolve().parents[1] / "navbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "navbench_" + name, NAVBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while they are built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_benchmark_flights_are_catalogue_flights():
    workloads = _load("workloads")
    flights = {f.name: f.scenario for wl in ("flight-known", "flight-explore")
               for f in workloads.flight_inputs(wl)}
    assert flights["wall"] == scenario("wall", 0)
    assert flights["random-0"] == scenario("random", 0)
    assert flights["intruder"] == scenario("intruder", 0)


def test_traced_names_resolve_in_dualnav():
    tracer = _load("tracer")
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
