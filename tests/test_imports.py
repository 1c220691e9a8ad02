"""Every imported name is used in the file that imports it, and the
flight loop, the filters and the map planner run with scipy blocked.

A stdlib `ast` scan over the package, the tests and the demos; the
project has no linter, so this stands in for an unused-import check.
`from __future__` imports are exempt.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/dualnav", "tests", "demos")


def unused_imports(source: str) -> list:
    """(line, name) for each name the module imports but never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.append((node.lineno, alias.asname or alias.name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_scan_finds_an_unused_import():
    src = "from __future__ import annotations\nimport os\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(src) == [(2, "os")]


def test_no_unused_imports():
    files = sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py"))
    assert files
    found = [f"{p.relative_to(ROOT)}:{line}: {name}"
             for p in files for line, name in unused_imports(p.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)


# run in a fresh interpreter: the tests' own oracles import scipy. A None
# entry in sys.modules makes every import of scipy raise
NO_SCIPY = """
import sys
sys.modules["scipy"] = None
from dataclasses import replace

import numpy as np

import dualnav.bench, dualnav.cli, dualnav.map_planner, dualnav.runtime
from dualnav.bench import scenario
from dualnav.map_planner import DagsParams, plan_final_path
from dualnav.mapping import LocalMapParams, VoxelMap, local_map, project_2d
from dualnav.pcl import filter_pipeline, outlier_filter
from dualnav.runtime import run_episode
from dualnav.sim import Box, SensorParams, World, scan_world, sense

# a cubic lattice of spacing r: its axis neighbours sit exactly r apart
side = np.arange(3) * 0.3
lattice = np.stack(np.meshgrid(side, side, side), -1).reshape(-1, 3)
assert len(outlier_filter(lattice, 0.3, 3)) == 27

result = run_episode(replace(scenario("intruder", 0), timeout=2.0))
assert result.metrics["duration"] > 0
world = World(static=[Box((-0.1, -3.0, 0.0), (0.1, 3.0, 2.0))], ground_z=0.0)
p_0 = np.array([-2.0, 0.0, 1.0])
cloud = sense(world, p_0, 0.0, SensorParams(), 0.0, 0)
assert len(filter_pipeline(cloud, p_0, 0.0, ground_z=0.0)) > 0
vmap = VoxelMap(0.2)
vmap.integrate(scan_world(world, 0.2))
p_n = np.array([-4.0, 0.0, 1.1])
params = LocalMapParams()
pcl_lm = local_map(vmap, p_n, params)
plan = plan_final_path(p_n, np.array([4.0, 0.0, 1.1]), pcl_lm,
                       project_2d(pcl_lm, p_n, params), params,
                       DagsParams(z_min=0.3))
assert plan is not None
"""


def test_the_loop_and_the_planner_load_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", NO_SCIPY], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
