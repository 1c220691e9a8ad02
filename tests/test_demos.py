"""Each demo script still imports against the current API.

Running a demo under a name other than "__main__" executes its imports and
definitions only, so this costs no flight.
"""
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports(path):
    namespace = runpy.run_path(str(path), run_name="demo")
    assert callable(namespace["main"])
