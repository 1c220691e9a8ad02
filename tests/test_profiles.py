from hypothesis import settings


def test_the_run_loads_the_profile_it_names(pytestconfig):
    # tier-1 names no profile and runs derandomized
    name = pytestconfig.getoption("--hypothesis-profile") or "dualnav"
    assert settings.get_current_profile_name() == name
    assert settings.default.derandomize == (name == "dualnav")
    assert settings.get_profile("dualnav").derandomize
    randomized = settings.get_profile("randomized")
    assert not randomized.derandomize
    assert randomized.database is None and randomized.deadline is None
