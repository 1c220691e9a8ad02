"""Behaviour lock: fixed flights and a small 2D study replay to the same bytes.

Each flight digest is the sha256 of an episode's trajectory CSV plus its
metrics JSON, for the worlds and configuration the benchmark flies (episode
seed 0). The 2D-study digest covers the seed and length columns of
`bench_map2d`'s rows; its time columns vary between runs and are left out.
A change that claims to keep behaviour must keep these digests; one that
changes behaviour on purpose updates them and says why.
"""
import hashlib
import json

import pytest

from dualnav.bench import (bench_map2d, flight_scenario, intruder_world,
                           random_world_3d, wall_world)
from dualnav.runtime import run_episode

GOLDEN = {
    "wall": "467d9471a43374d56603b09e77925ef93279cd652c7c1dd57ba12ac7aab6060b",
    "random-0":
        "df6ceed3ee1d7d14c9ebb079c8997c0892f6a713a49cf396c7d6bca04b5d0876",
    "intruder":
        "b4051dc399d7721823a1a707b0e47337acc89a6a070d183309c0de083cd6ce1a",
}

# (world, start, goal), and whether the map is known and frozen
FLIGHTS = {
    "wall": (wall_world, True),
    "random-0": (lambda: random_world_3d(0), True),
    "intruder": (intruder_world, False),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_flight_digest(name):
    make_world, known = FLIGHTS[name]
    world, start, goal = make_world()
    scenario = flight_scenario(world, start, goal, 0, use_dags=True,
                               known_world=known, freeze_map=known)
    result = run_episode(scenario)
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
