import sys
from importlib import util

from hypothesis import given, settings
from hypothesis import strategies as st


def test_the_run_loads_the_profile_it_names(pytestconfig):
    # tier-1 names no profile and runs derandomized
    name = pytestconfig.getoption("--hypothesis-profile") or "dualnav"
    assert settings.get_current_profile_name() == name
    assert settings.default.derandomize == (name == "dualnav")
    assert settings.get_profile("dualnav").derandomize
    randomized = settings.get_profile("randomized")
    assert not randomized.derandomize
    assert randomized.database is None and randomized.deadline is None


def _draws():
    seen = []

    @settings(max_examples=200)
    @given(st.floats(-1e3, 1e3), st.integers(-10 ** 6, 10 ** 6))
    def record(x, n):
        seen.append((x, n))

    record()
    return seen


def test_a_new_module_leaves_derandomized_draws_unchanged(tmp_path,
                                                          monkeypatch):
    """Hypothesis reads the literals of each local module that loads; under
    the tier-1 profile they stay out of the draws."""
    profile = settings.get_current_profile_name()
    settings.load_profile("dualnav")
    try:
        before = _draws()
        path = tmp_path / "fresh_constants.py"
        path.write_text("VALUES = ("
                        + ", ".join(f"{101 + 37 * i}, {i + 0.123457}"
                                    for i in range(40)) + ")\n")
        spec = util.spec_from_file_location("fresh_constants", path)
        module = util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setitem(sys.modules, spec.name, module)
        assert _draws() == before
    finally:
        settings.load_profile(profile)
