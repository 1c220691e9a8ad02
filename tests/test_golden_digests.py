"""Behaviour lock: fixed flights, map-planner queries and a small 2D study
replay to the same bytes.

Each flight digest is the sha256 of an episode's trajectory CSV plus its
metrics JSON, for the four flights the benchmark flies (episode seed 0);
`course-2` is built from the benchmark's own inputs. The map-planner digest
covers the plans of fixed `plan_final_path` queries with and without DAGS.
The 2D-study digest covers the seed and length columns of `bench_map2d`'s
rows; its time columns vary between runs and are left out. The flight3d
digest covers the reports of the wall world and random-0..9, each flown with
and without DAGS, less their `timing` entries.
A change that claims to keep behaviour must keep these digests; one that
changes behaviour on purpose updates them and says why.
"""
import hashlib
import json

import numpy as np
import pytest

from dualnav.bench import bench_map2d, scenario
from dualnav.map_planner import plan_final_path
from dualnav.mapping import VoxelMap, local_map, project_2d
from dualnav.runtime import run_episode
from dualnav.sim import scan_world

GOLDEN = {
    "wall": "467d9471a43374d56603b09e77925ef93279cd652c7c1dd57ba12ac7aab6060b",
    "random-0":
        "df6ceed3ee1d7d14c9ebb079c8997c0892f6a713a49cf396c7d6bca04b5d0876",
    "intruder":
        "b4051dc399d7721823a1a707b0e47337acc89a6a070d183309c0de083cd6ce1a",
    "course-2":
        "d5f5025d342031580f6317a25a3810230f138106f69d11cdbe228f241ee6dda2",
}

# the catalogue name and seed of each flight
FLIGHTS = {"wall": ("wall", 0), "random-0": ("random", 0),
           "intruder": ("intruder", 0)}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_flight_digest(name, navbench_module):
    if name in FLIGHTS:
        sc = scenario(*FLIGHTS[name])
    else:
        # the benchmark's two-tile pillar course, which only it builds
        workloads = navbench_module("workloads")
        sc = {f.name: f.scenario
              for f in workloads.flight_inputs("flight-explore")}[name]
    result = run_episode(sc)
    digest = hashlib.sha256(
        (result.trajectory_csv() + result.metrics_json()).encode()).hexdigest()
    assert digest == GOLDEN[name]


MAP2D_GOLDEN = \
    "a3e2bad2a0dabe31fe0e73c7aefa1684964794bdc62226a351ace2be8ffba8b9"


def test_map2d_lengths_digest():
    out = bench_map2d(map_size=200, trials=3, local_size=60, min_dist=100)
    cols = [[r[k] for k in ("seed", "len_global", "len_local", "len_stitched")]
            for r in out["rows"]]
    digest = hashlib.sha256(json.dumps(cols).encode()).hexdigest()
    assert digest == MAP2D_GOLDEN


MP_GOLDEN = \
    "8d2fa671d8ec5d17f9ee9cdc8aac83d793e6f673f2473f52632dc206808eb7a5"

# (random_world_3d seed, drone position, global goal); the goals 21-30 m away
# lie beyond the 20 m local map, and every query but the last builds at
# least one DAGS angular graph
MP_QUERIES = (
    (0, (-4.0, 0.0, 1.8), (4.0, 0.5, 2.0)),
    (0, (-3.0, 1.5, 0.8), (26.0, -4.0, 1.1)),
    (0, (0.0, -3.2, 1.4), (3.0, 24.0, 1.5)),
    (1, (-4.0, 0.0, 1.1), (4.0, 0.5, 2.0)),
    (2, (0.0, -3.2, 1.4), (4.0, 0.5, 2.0)),
    (2, (-4.0, 0.0, 1.1), (-25.0, 6.0, 1.1)),
)


def test_map_planner_plans_digest():
    """The flight configuration's map planner on known local maps; the DAGS
    candidate is hashed too, so a rejected one still locks the search."""
    h = hashlib.sha256()
    for seed, p_n, goal in MP_QUERIES:
        sc = scenario("random", seed)
        params, dags = sc.map_params, sc.dags_params
        vmap = VoxelMap(params.voxel_size)
        vmap.integrate(scan_world(sc.world, params.voxel_size))
        pcl_lm = local_map(vmap, p_n, params)
        map_1 = project_2d(pcl_lm, p_n, params)
        for use_dags in (True, False):
            res = plan_final_path(p_n, goal, pcl_lm, map_1, params, dags,
                                  use_dags=use_dags)
            assert res is not None
            cand = res.path_3d.waypoints if res.path_3d else np.zeros(0)
            h.update(res.path.kind.encode())
            for arr in (res.path.waypoints, res.g_l, cand):
                h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == MP_GOLDEN


FLIGHT3D_GOLDEN = \
    "8d84b29b99d1d72b68aecde6ca9d0230f0b2f134d2707f0816e2345c069159e4"


def test_flight3d_reports_digest(flight3d):
    """Status, length, collisions, backups and replans of every flight3d
    run; worlds 3, 5, 8 and 9 lean on the safety backup."""
    reports = [{key: ({k: v for k, v in val.items() if k != "timing"}
                      if isinstance(val, dict) else val)
                for key, val in report.items()}
               for report in flight3d["reports"]]
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == FLIGHT3D_GOLDEN
