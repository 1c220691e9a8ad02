import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.internal.conjecture import providers
from hypothesis.internal.constants_ast import Constants

import dualnav
from dualnav.bench import bench_flight3d

# Property tests draw the same examples on every run, and a slow example on
# a loaded host is not a failure. `pytest --hypothesis-profile=randomized
# --hypothesis-seed=N` selects fresh draws from seed N instead, with no
# example database: Hypothesis's pytest plugin loads that profile after
# this file.
settings.register_profile("dualnav", derandomize=True, deadline=None)
settings.register_profile("randomized", derandomize=False, database=None,
                          deadline=None)
settings.load_profile("dualnav")

# Hypothesis also draws constants that it reads from the source of every
# loaded module outside the tests (`_get_local_constants`, a private name of
# the pinned hypothesis==6.155.2), so a literal added or removed anywhere in
# the package would reshuffle unrelated properties. A derandomized run draws
# from an empty local pool instead, so its draws depend on the test alone;
# the randomized profile keeps Hypothesis's own pool, which probes the
# code's thresholds.
_NO_CONSTANTS = Constants()
_local_constants = providers._get_local_constants


def _constant_pool():
    return _NO_CONSTANTS if settings.default.derandomize else \
        _local_constants()


providers._get_local_constants = _constant_pool


@pytest.fixture(scope="session")
def flight3d():
    """The wall world and random-0..9 flown with and without DAGS."""
    return bench_flight3d(n_worlds=10, seed=0)


NAVBENCH = Path(__file__).resolve().parents[1] / "navbench"


def _load_navbench(name):
    spec = importlib.util.spec_from_file_location(
        "navbench_" + name, NAVBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while they are built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def navbench_module():
    """A loader of the benchmark's modules by name, from their files."""
    return _load_navbench


# A randomized run's pool grows as modules load, so its draws depend on the
# modules a run has loaded (the CLI and the benchmark's modules load only
# with their tests). Loading every module of both packages here, before the
# first test, gives a seed the same draws in a single-file and a full run;
# the benchmark's modules import each other as `navbench`.
if str(NAVBENCH.parent) not in sys.path:
    sys.path.append(str(NAVBENCH.parent))
for _info in [*pkgutil.iter_modules(dualnav.__path__, "dualnav."),
              *pkgutil.iter_modules([str(NAVBENCH)], "navbench.")]:
    importlib.import_module(_info.name)
