import pytest
from hypothesis import settings

from dualnav.bench import bench_flight3d

# Property tests draw the same examples on every run, and a slow example on
# a loaded host is not a failure.
settings.register_profile("dualnav", derandomize=True, deadline=None)
settings.load_profile("dualnav")


@pytest.fixture(scope="session")
def flight3d():
    """The wall world and random-0..9 flown with and without DAGS."""
    return bench_flight3d(n_worlds=10, seed=0)
