import json
import os
import time

import numpy as np
import pytest

from dualnav import bench
from dualnav.bench import (bench_map2d, bench_optimizer, export_plots,
                           intruder_world, oracle_shortest_path,
                           random_map_2d, random_world_3d, wall_world)
from dualnav.map_planner import snapshot_grids
from dualnav.mapping import LocalMapParams
from dualnav.sim import Box, World


def test_oracle_trivial_world_is_straight():
    world = World(static=[], ground_z=0.0)
    out = oracle_shortest_path(world, (0.0, 0.0, 1.0), (3.0, 0.0, 1.0))
    assert out is not None
    length, path = out
    assert length == pytest.approx(3.0, abs=1e-6)
    assert len(path) == 2


def test_oracle_detours_around_box():
    world = World(static=[Box((1.0, -4.0, 0.0), (2.0, 4.0, 4.0))],
                  ground_z=0.0)
    out = oracle_shortest_path(world, (0.0, 0.0, 1.0), (3.0, 0.0, 1.0))
    assert out is not None
    length, path = out
    # must leave the straight line, so strictly longer than 3 m
    assert length > 3.5
    assert len(path) >= 3


def test_oracle_unreachable_goal():
    world = World(static=[Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))])
    assert oracle_shortest_path(world, (-2.0, 0.0, 0.0), (0.0, 0.0, 0.0),
                                resolution=0.2) is None


def test_random_map_2d_deterministic():
    a = random_map_2d(100, seed=4)
    b = random_map_2d(100, seed=4)
    c = random_map_2d(100, seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    density = a.mean()
    assert 0.10 <= density <= 0.25


def test_random_map_2d_small_maps():
    # these seeds draw a wall at least as long as the 70-cell map, whose
    # start offset once had an empty range and raised ValueError
    for seed in (2, 3, 5, 7):
        cells = random_map_2d(70, seed=seed, density=0.12)
        assert cells.shape == (70, 70)
        assert set(np.unique(cells)) <= {0, 1}
        assert cells.mean() >= 0.12
        assert np.array_equal(cells, random_map_2d(70, seed=seed,
                                                   density=0.12))


def test_random_world_3d_contract():
    for seed in range(5):
        world, start, goal = random_world_3d(seed)
        assert len(world.static) >= 2
        for box in world.static:
            lo, hi = box.arrays()
            assert hi[2] >= 1.6             # pillars top out above cruise
            for p in (start, goal):
                d = np.linalg.norm(np.asarray(p) - np.clip(p, lo, hi))
                assert d >= 1.2
        # identical seed reproduces identical geometry
        again, _, _ = random_world_3d(seed)
        assert all(np.allclose(a.arrays(), b.arrays())
                   for a, b in zip(world.static, again.static))


def test_wall_and_intruder_fixtures():
    world, start, goal = wall_world()
    assert len(world.static) == 1
    assert world.static[0].arrays()[1][2] == pytest.approx(2.0)
    iworld, istart, igoal = intruder_world()
    assert len(iworld.dynamic) == 1
    assert iworld.dynamic[0].center_at(5.0) is None
    assert np.allclose(iworld.dynamic[0].center_at(10.0), [2.9, 0.0, 0.8])


def test_bench_map2d_odd_window():
    # the window has the Map_1 side, so the stitched arm can pool it
    out = bench_map2d(map_size=200, trials=1, local_size=61, min_dist=100)
    assert len(out["rows"]) == 1
    assert out["rows"][0]["len_stitched"] > 0


def test_bench_map2d_rejects_min_dist_beyond_the_diagonal():
    # 199 * sqrt(2) is about 281.4: no start-goal pair is 282 cells apart,
    # and the draw loop would never end
    with pytest.raises(ValueError, match="diagonal"):
        bench_map2d(map_size=200, trials=1, min_dist=282)


@pytest.mark.parametrize("local_size", [3, 10, 22, 25])
def test_bench_map2d_rejects_local_sizes_whose_drone_cell_leaves_map_c(
        local_size):
    # these sizes raised IndexError in the stitched arm's first plan
    with pytest.raises(ValueError, match="outside Map_c"):
        bench_map2d(map_size=200, trials=1, min_dist=100,
                    local_size=local_size)


@pytest.mark.parametrize("local_size", [20, 21, 26, 27])
def test_bench_map2d_plans_when_the_drone_coarse_cell_leaves_map_c(
        local_size):
    # the drone's coarse cell is centred outside Map_c at these sizes; the
    # stitched arm used to fail every draw
    out = bench_map2d(map_size=200, trials=1, min_dist=100,
                      local_size=local_size)
    assert len(out["rows"]) == 1
    assert out["rows"][0]["len_stitched"] > 0


def test_bench_map2d_local_size_bound_matches_the_aligned_window():
    # a size passes when _window puts the drone cell inside Map_c for every
    # residue of the drone cell modulo the stride; an accepted size goes on
    # to the diagonal check, which a 10-cell map fails at once
    cells = np.zeros((400, 400), dtype=np.uint8)
    for i in range(3, 130):
        params = LocalMapParams(i=i, m=int(i * 0.35), k=1, voxel_size=1.0)
        lo = i // 2 - params.m // 2
        inside = all(
            lo <= c - bench._window(cells, (c, c), i, params.h)[1][0]
            < lo + params.m for c in range(200, 200 + params.h))
        with pytest.raises(ValueError,
                           match="diagonal" if inside else "outside Map_c"):
            bench_map2d(map_size=10, trials=1, min_dist=100, local_size=i)


def test_bench_map2d_gives_up_when_pairs_are_too_rare():
    # 280 cells is below the diagonal, but only pairs near opposite corners
    # are that far apart: the study stops after MAP2D_MAX_DRAWS draws
    tic = time.perf_counter()
    with pytest.raises(ValueError, match="min_dist 280"):
        bench_map2d(map_size=200, trials=1, min_dist=280)
    assert time.perf_counter() - tic < 15.0


def test_stitched_study_derives_grids_once_per_window_origin(monkeypatch):
    origins = []
    window = bench._window

    def recorded(cells, center, side, align=1):
        win, origin = window(cells, center, side, align)
        if align > 1:                   # the stitched arm's aligned windows
            origins.append(origin)
        return win, origin
    monkeypatch.setattr(bench, "_window", recorded)
    before = snapshot_grids.cache_info()
    out = bench_map2d(map_size=200, trials=1, local_size=61, min_dist=100)
    after = snapshot_grids.cache_info()
    assert len(out["rows"]) == 1
    changes = sum(1 for k, o in enumerate(origins)
                  if k == 0 or o != origins[k - 1])
    assert 1 < changes < len(origins)
    assert after.misses - before.misses == changes
    assert after.hits - before.hits == len(origins) - changes


def test_bench_optimizer_small():
    out = bench_optimizer(instances=50, caps=(5, 20), seed=1)
    assert out["instances"] == 50
    assert [row["max_steps"] for row in out["table"]] == [5, 20]
    for row in out["table"]:
        assert row["feasible_rate"] == 1.0
        assert 0.0 <= row["success_rate"] <= 1.0
    # more iterations cannot hurt convergence
    assert out["table"][1]["success_rate"] >= out["table"][0]["success_rate"]


def test_export_plots(tmp_path):
    from dualnav.runtime import EpisodeResult
    res = EpisodeResult(status="goal_reached",
                        trajectory=[(0.05, 0, 0, 1, 0, 0, 0, "normal")],
                        events=[], metrics={"trajectory_length": 0.0},
                        timing={})
    written = export_plots([res], str(tmp_path))
    names = {os.path.basename(w) for w in written}
    assert names == {"episode_000_trajectory.csv",
                     "episode_000_metrics.json", "manifest.json"}
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["schema"] == 1
    assert len(manifest["files"]) == 2
    csv = (tmp_path / "episode_000_trajectory.csv").read_text()
    assert csv.splitlines()[0] == "t,x,y,z,vx,vy,vz,mode"
