import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualnav.geometry import (min_clearance, path_length, spherical_angles,
                              wrap_angle)
from dualnav.jps import jps_search, line_is_free
from dualnav.map_planner import (AngularGraph, DagsParams, PlanPath,
                                 cast_local_goal, dags_search, lift_path,
                                 plan_final_path, select_final_path,
                                 shortcut_cells, stitched_plan)
from dualnav.mapping import (GridMap2D, LocalMapParams, cut_center,
                             downsample, inflate, local_map, project_2d,
                             VoxelMap)
from dualnav.sim import Box, World, scan_world


def zigzag_fixture():
    """Six-waypoint path where exactly the third and fifth are redundant."""
    cells = np.zeros((16, 16), dtype=np.uint8)
    cells[1, 1] = 1
    cells[2, 6] = 1
    path = [(0, 0), (1, 5), (5, 6), (9, 7), (10, 10), (11, 13)]
    return cells, path


def test_shortcut_deletes_exactly_two():
    cells, path = zigzag_fixture()
    out = shortcut_cells(list(path), cells)
    assert out == [(0, 0), (1, 5), (9, 7), (11, 13)]


def test_shortcut_soundness_random():
    rng = np.random.default_rng(9)
    for _ in range(50):
        cells = (rng.random((40, 40)) < 0.2).astype(np.uint8)
        cells[0, 0] = cells[39, 39] = 0
        res = jps_search(cells, (0, 0), (39, 39))
        if res is None:
            continue
        path, cost = res
        out = shortcut_cells(list(path), cells)
        assert out[0] == path[0] and out[-1] == path[-1]
        original = set(zip(path, path[1:]))
        for a, b in zip(out, out[1:]):
            # every merged chord must be verified; surviving edges keep the
            # search's own traversability guarantee
            assert (a, b) in original or line_is_free(cells, a, b)
        len_in = path_length(np.array([(c[0], c[1], 0.0) for c in path]))
        len_out = path_length(np.array([(c[0], c[1], 0.0) for c in out]))
        assert len_out <= len_in + 1e-9


def test_plan_path_dedupes_and_validates():
    with pytest.raises(ValueError):
        PlanPath(np.zeros((0, 3)))
    p = PlanPath(np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0]]))
    assert len(p.waypoints) == 2
    assert p.length() == pytest.approx(1.0)


def test_cast_local_goal_inside_and_outside():
    params = LocalMapParams()
    grid = project_2d(np.zeros((0, 3)), (0.0, 0.0, 1.0), params)
    g_l, cell = cast_local_goal((0, 0, 1.0), (2.0, 0.0, 1.0), params, grid)
    assert np.allclose(g_l, [2.0, 0.0, 1.0])
    g_l, cell = cast_local_goal((0, 0, 1.0), (100.0, 0.0, 1.0), params, grid)
    assert g_l[0] == pytest.approx(params.l_ms / 2.0)
    assert grid.is_free(cell)


def _stitch_maps(cells, params):
    grid = GridMap2D(origin=np.zeros(2), resolution=1.0, cells=cells)
    map_c = GridMap2D(
        origin=np.full(2, float(params.i // 2 - params.m // 2)),
        resolution=1.0,
        cells=cells[params.i // 2 - params.m // 2:
                    params.i // 2 + (params.m + 1) // 2,
                    params.i // 2 - params.m // 2:
                    params.i // 2 + (params.m + 1) // 2].copy())
    return downsample(grid, params.h), map_c


def test_stitched_plan_goal_inside_fine_map():
    params = LocalMapParams(i=40, m=20, k=1, voxel_size=1.0)
    cells = np.zeros((40, 40), dtype=np.uint8)
    map_1b, map_c = _stitch_maps(cells, params)
    sp = stitched_plan(map_1b, map_c, (24, 24), params)
    assert sp is not None
    assert len(sp.coarse_cells) == 0
    assert sp.fine_cells[0] == (10, 10)
    assert sp.fine_cells[-1] == (14, 14)


def test_stitched_plan_goal_outside_stitches():
    params = LocalMapParams(i=40, m=20, k=1, voxel_size=1.0)
    cells = np.zeros((40, 40), dtype=np.uint8)
    cells[24:28, 5:28] = 1         # wall between center and far goal
    map_1b, map_c = _stitch_maps(cells, params)
    sp = stitched_plan(map_1b, map_c, (36, 20), params)
    assert sp is not None
    assert len(sp.coarse_cells) > 0
    assert sp.fine_cells[0] == (10, 10)
    # the fine path ends at the crossing g_ist on the Map_c boundary
    assert min(sp.fine_cells[-1]) == 0 or max(sp.fine_cells[-1]) == params.m - 1


def test_stitched_plan_cache_consistency():
    params = LocalMapParams(i=40, m=20, k=1, voxel_size=1.0)
    rng = np.random.default_rng(1)
    cells = (rng.random((40, 40)) < 0.1).astype(np.uint8)
    cells[20, 20] = 0
    map_1b, map_c = _stitch_maps(cells, params)
    cache = {}
    for goal in ((36, 20), (4, 4), (24, 24)):
        a = stitched_plan(map_1b, map_c, goal, params)
        b = stitched_plan(map_1b, map_c, goal, params, cache=cache)
        if a is None:
            assert b is None
            continue
        assert a.fine_cells == b.fine_cells
        assert a.coarse_cells == b.coarse_cells


class _PerPointGraph(AngularGraph):
    """Oracle: the per-point AngularGraph loop the whole-array one replaced.

    `cells` maps each cell to its point indices in input order; edge cells
    and their selection are inherited unchanged.
    """

    def __init__(self, points, origin, goal, alpha_res):
        self.alpha_res = alpha_res
        self.az_g, self.el_g = spherical_angles(
            np.asarray(goal) - np.asarray(origin))
        self.cells = {}
        origin = np.asarray(origin, dtype=float)
        for idx, p in enumerate(np.asarray(points, dtype=float).reshape(-1, 3)):
            az, el = spherical_angles(p - origin)
            rel = (wrap_angle(az - self.az_g), el - self.el_g)
            key = (int(math.floor(rel[0] / alpha_res)),
                   int(math.floor(rel[1] / alpha_res)))
            self.cells.setdefault(key, []).append(idx)


@st.composite
def angular_scenes(draw, max_points=40):
    """Clouds around an origin, with points on the origin, straight above or
    below it (zero horizontal distance) and opposite the goal azimuth (the
    wrap boundary), goals on the origin, and lattice coordinates that put
    angles on exact cell boundaries."""
    if draw(st.booleans()):
        coord = st.integers(-30, 30).map(lambda i: i * 0.1)
    else:
        coord = st.floats(-5.0, 5.0)
    origin = np.array(draw(st.tuples(coord, coord, coord)))
    goal = origin.copy()
    if draw(st.booleans()):
        goal = np.array(draw(st.tuples(coord, coord, coord)))
    back = origin - (goal - origin) * [1.0, 1.0, 0.0]
    special = st.sampled_from([origin, back]).flatmap(
        lambda p: coord.map(lambda dz: p + [0.0, 0.0, dz]))
    free = st.tuples(coord, coord, coord).map(np.array)
    pts = draw(st.lists(st.one_of(free, special, st.just(origin)),
                        min_size=1, max_size=max_points))
    alpha_res = draw(st.one_of(
        st.sampled_from([math.radians(10.0), math.radians(5.0), math.pi / 4]),
        st.floats(0.01, math.pi / 4)))
    return np.array(pts), origin, goal, alpha_res


@settings(max_examples=300)
@given(angular_scenes())
# a relative azimuth of exactly -pi (y = -0.0 behind the goal) and of pi
@example((np.array([[-1.0, -0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
          np.zeros(3), np.array([1.0, 0.0, 0.0]), math.radians(10.0)))
# goal at azimuth pi, points at azimuth -pi and pi
@example((np.array([[-2.0, -0.0, 0.5], [-2.0, 0.0, -0.5]]),
          np.zeros(3), np.array([-1.0, 0.0, 0.0]), math.radians(10.0)))
# one point, on the origin, with the goal on the origin too
@example((np.zeros((1, 3)), np.zeros(3), np.zeros(3), math.radians(10.0)))
def test_angular_graph_matches_per_point_loop(scene):
    points, origin, goal, alpha_res = scene
    graph = AngularGraph(points, origin, goal, alpha_res)
    oracle = _PerPointGraph(points, origin, goal, alpha_res)
    assert (graph.az_g, graph.el_g) == (oracle.az_g, oracle.el_g)
    assert graph.cells == set(oracle.cells)
    for cell, idx in oracle.cells.items():
        assert graph.members(cell).tolist() == idx
    assert graph.min_norm_edge_cell() == oracle.min_norm_edge_cell()


def _wall_points():
    ys = np.arange(-1.0, 1.01, 0.2)
    zs = np.arange(0.1, 1.31, 0.2)
    gy, gz = np.meshgrid(ys, zs)
    return np.stack([np.zeros(gy.size), gy.ravel(), gz.ravel()], axis=1)


def test_dags_goes_over_wall():
    pts = _wall_points()
    p_n = np.array([-3.0, 0.0, 0.7])
    g_l = np.array([3.0, 0.0, 0.7])
    direct = PlanPath(np.array([p_n, g_l]))
    params = DagsParams(z_min=0.1)
    path = dags_search(pts, p_n, g_l, direct, params)
    assert path is not None
    assert path.kind == "3D"
    assert len(path.waypoints) >= 3
    # the elevation tie-break sends the detour over the wall, not under
    assert float(np.max(path.waypoints[:, 2])) > 1.3
    assert min_clearance(path.waypoints, pts) >= params.r_safe - 1e-9


def test_dags_skips_non_blocking_round():
    # a cloud fully clear of the direct segment leaves the path straight
    pts = np.array([[0.0, 3.0, 0.7]])
    p_n = np.array([-2.0, 0.0, 0.7])
    g_l = np.array([2.0, 0.0, 0.7])
    direct = PlanPath(np.array([p_n, g_l]))
    path = dags_search(pts, p_n, g_l, direct, DagsParams())
    assert path is not None
    assert len(path.waypoints) == 2


def test_dags_z_min_rejects_underground():
    pts = _wall_points()
    p_n = np.array([-3.0, 0.0, 0.7])
    g_l = np.array([3.0, 0.0, 0.7])
    direct = PlanPath(np.array([p_n, g_l]))
    path = dags_search(pts, p_n, g_l, direct, DagsParams(z_min=0.1))
    if path is not None:
        assert np.all(path.waypoints[:, 2] >= 0.1)


def test_lift_and_select():
    p2 = PlanPath(np.array([[0, 0, 0], [1, 1, 0], [2, 0, 0]]))
    lifted = lift_path(p2, 1.0, 2.0)
    assert lifted.waypoints[0][2] == pytest.approx(1.0)
    assert lifted.waypoints[-1][2] == pytest.approx(2.0)
    assert lifted.waypoints[1][2] == pytest.approx(1.5)
    short3d = PlanPath(np.array([[0, 0, 1.0], [2, 0, 2.0]]), kind="3D")
    assert select_final_path(lifted, short3d) is short3d
    straight = lift_path(PlanPath(np.array([[0, 0, 0], [2, 0, 0]])), 1.0, 2.0)
    # a 3D candidate that merely ties the lifted path loses to 2D
    assert select_final_path(straight, short3d) is straight
    assert select_final_path(lifted, None) is lifted


def test_plan_final_path_on_known_wall():
    world = World(static=[Box((-0.1, -3.0, 0.0), (0.1, 3.0, 2.0))],
                  ground_z=0.0)
    vmap = VoxelMap(0.2)
    vmap.integrate(scan_world(world, 0.2))
    p_n = np.array([-4.0, 0.0, 1.1])
    params = LocalMapParams()
    pcl_lm = local_map(vmap, p_n, params)
    map_1 = project_2d(pcl_lm, p_n, params)
    goal = np.array([4.0, 0.0, 1.1])
    res = plan_final_path(p_n, goal, pcl_lm, map_1, params,
                          DagsParams(z_min=0.3), use_dags=True)
    assert res is not None
    assert res.path is res.path_3d
    assert res.path.kind == "3D"
    assert min_clearance(res.path.waypoints, pcl_lm) >= 0.5 - 1e-9
    # the 3D shortcut beats going around the six meter wall
    flat = plan_final_path(p_n, goal, pcl_lm, map_1, params,
                           DagsParams(z_min=0.3), use_dags=False)
    assert flat.path.kind == "2D-lifted" and flat.path_3d is None
    assert res.path.length() < flat.path.length()
