import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import label

from dualnav import jps, map_planner
from dualnav.geometry import (direction_from_angles, min_clearance,
                              path_length, segment_point_distances,
                              spherical_angles)
from dualnav.jps import JpsGrid, jps_search, line_is_free
from dualnav.map_planner import (ALPHA_RES, R_SAFE, DagsParams,
                                 MapPlanResult, PlanPath, angular_cells,
                                 cast_local_goal, dags_search, lift_path,
                                 plan_final_path, select_final_path,
                                 shortcut_cells, snapshot_grids, stitched_plan)
from dualnav.mapping import (H_MS, GridMap2D, LocalMapParams, VoxelMap,
                             cut_center, downsample, inflate, local_map,
                             project_2d)
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
        res = jps_search(JpsGrid(cells), (0, 0), (39, 39))
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


@st.composite
def grid_paths(draw):
    """A random grid of 2-24 cells a side and a path on it: the JPS path
    between two free cells when there is one, else (or when drawn) a list of
    2-10 arbitrary cells."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 24))
    cells = (rng.random((n, n)) < draw(st.floats(0.0, 0.5))).astype(np.uint8)
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    path = None
    if draw(st.booleans()):
        a, b = draw(cell), draw(cell)
        cells[a] = cells[b] = 0
        res = jps_search(JpsGrid(cells), a, b)
        path = None if res is None else res[0]
    if path is None:
        path = draw(st.lists(cell, min_size=2, max_size=10))
    return cells, path


def _is_subsequence(sub, seq):
    it = iter(seq)
    return all(any(c == x for x in it) for c in sub)


@settings(max_examples=300)
@given(grid_paths())
def test_shortcut_cells_is_sound_on_generated_grids(case):
    """The output keeps the endpoints, is a subsequence of the input, and
    every chord it makes is `line_is_free`. A chord that is an input edge
    is kept as it came: JPS moves diagonally when the destination is free,
    across a blocked corner too, which the supercover check rejects."""
    cells, path = case
    out = shortcut_cells(list(path), cells)
    assert out[0] == path[0] and out[-1] == path[-1]
    assert _is_subsequence(out, path)
    edges = set(zip(path, path[1:]))
    for a, b in zip(out, out[1:]):
        assert (a, b) in edges or line_is_free(cells, a, b)


# unit-cell settings whose coarse cell side h is even (2, 2, 8 and 22), so
# a coarse cell's centre has integer coordinates and a fine one's does not;
# at h = 22 the drone's coarse cell is centred outside Map_c
STITCH_SETTINGS = [LocalMapParams(i=40, m=20, k=1, voxel_size=1.0),
                   LocalMapParams(i=40, m=20, k=3, voxel_size=1.0),
                   LocalMapParams(i=40, m=10, k=3, voxel_size=1.0),
                   LocalMapParams(i=40, m=6, k=1, voxel_size=1.0)]


@st.composite
def stitch_cases(draw):
    """A random Map_1 with unit cells at origin 0, its drone at the centre
    cell, and a global goal inside or beyond the local map."""
    params = draw(st.sampled_from(STITCH_SETTINGS))
    i = params.i
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = (rng.random((i, i)) < draw(st.floats(0.0, 0.3))).astype(np.uint8)
    if draw(st.booleans()):
        cells[i // 2, i // 2] = 1            # the drone's own cell blocked
    coord = st.floats(-1.5 * i, 2.5 * i)
    goal = np.array([draw(coord), draw(coord), 1.0])
    return params, cells, goal


@settings(max_examples=200)
@given(stitch_cases())
def test_stitched_plan_cells_are_free_and_start_at_the_drone(case):
    """Each waypoint of a stitched plan is the centre of a cell that is free
    in the grid it was planned on: a fine cell in the inflated Map_c (the
    drone's own cell may be blocked, the search exempts it), the goal's
    fine cell in the inflated Map_1 it was cast on, a coarse cell in
    Map_1b. The plan starts at the centre of the drone's cell."""
    params, cells, goal = case
    i, m, h = params.i, params.m, params.h
    lo = i // 2 - m // 2
    map_1 = GridMap2D(origin=np.zeros(2), resolution=1.0, cells=cells)
    map_1_infl, map_c, map_1b = snapshot_grids(map_1, params.k, m, h)
    p_n = np.array([i / 2.0, i / 2.0, 1.0])
    _, g_cell = cast_local_goal(p_n, goal, params, map_1_infl)
    path = stitched_plan(map_1b, map_c, g_cell, params)
    if path is None:
        return
    wp = path.waypoints[:, :2]
    assert wp[0].tolist() == [i // 2 + 0.5, i // 2 + 0.5]
    for x, y in wp.tolist():
        if x % 1.0 == 0.5:
            cell = (int(x), int(y))
            if lo <= cell[0] < lo + m and lo <= cell[1] < lo + m:
                assert (map_c.cells[cell[0] - lo, cell[1] - lo] == 0
                        or cell == (i // 2, i // 2))
            else:
                assert cell == g_cell and map_1_infl.cells[cell] == 0
        else:
            assert map_1b.cells[int(x) // h, int(y) // h] == 0


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
    assert grid.cells[cell] == 0


@pytest.mark.parametrize("shape, goal, want", [
    ((4, 10), (1.5, 8.5), (1, 8)),      # inside the cuboid
    ((4, 10), (1.5, 30.0), (0, 9)),     # cast to y = 10, one past the grid
    ((10, 4), (8.5, 1.5), (8, 1)),
])
def test_cast_local_goal_clamps_each_axis_by_its_own_size(shape, goal, want):
    grid = GridMap2D(origin=np.zeros(2), resolution=1.0,
                     cells=np.zeros(shape, dtype=np.uint8))
    _, cell = cast_local_goal((0.0, 0.0, 1.0), (*goal, 1.0),
                              LocalMapParams(), grid)
    assert cell == want


def oracle_cast_local_goal(p_n, global_goal, params, map_1_inflated):
    """The earlier cast_local_goal, on numpy 3-vectors."""
    p = np.asarray(p_n, dtype=float)
    g = np.asarray(global_goal, dtype=float)
    half = np.array([params.l_ms / 2.0, params.l_ms / 2.0, H_MS / 2.0])
    d = g - p
    if np.all(np.abs(d) <= half + 1e-12):
        g_l = g.copy()
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            t_faces = np.where(d != 0.0, half / np.abs(d), np.inf)
        t = float(np.min(t_faces))
        g_l = p + t * d
    cell = np.floor((g_l[:2] - map_1_inflated.origin)
                    / map_1_inflated.resolution)
    nx, ny = map_1_inflated.cells.shape
    cell = (min(max(int(cell[0]), 0), nx - 1),
            min(max(int(cell[1]), 0), ny - 1))
    if map_1_inflated.cells[cell] != 0:
        cell = map_planner._nearest_free_edge_cell(map_1_inflated,
                                                   cell) or cell
    return g_l, cell


_coord = st.floats(-40.0, 40.0, allow_nan=False)


@given(st.tuples(_coord, _coord, st.floats(0.0, 6.0)),
       st.tuples(_coord, _coord, st.floats(-10.0, 20.0)),
       st.sampled_from([0.0, 0.3, 1.0]), st.integers(0, 2 ** 32 - 1))
@example((0.0, 0.0, 1.0), (10.0, 3.0, 1.0), 0.0, 0)       # on the x face
@example((0.0, 0.0, 1.0), (10.0 + 5e-13, 3.0, 1.0), 0.0, 0)   # within slack
@example((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), 0.0, 0)        # at the drone
@example((0.5, -0.5, 1.0), (0.5, -0.5, 30.0), 0.3, 1)     # straight up
@example((0.0, 0.0, 1.0), (30.0, 30.0, 1.0), 1.0, 2)      # all occupied
def test_cast_local_goal_matches_oracle(p_n, goal, density, seed):
    """Same g_l bits and cell as the numpy version, inside and outside the
    cuboid, on its faces, and with occupied cells to fall back from."""
    params = LocalMapParams()
    rng = np.random.default_rng(seed)
    grid = GridMap2D(
        origin=np.asarray(p_n[:2]) - params.l_ms / 2.0 + rng.random(2),
        resolution=params.resolution,
        cells=(rng.random((params.i, params.i)) < density).astype(np.uint8))
    g_l, cell = cast_local_goal(p_n, goal, params, grid)
    want_g_l, want_cell = oracle_cast_local_goal(p_n, goal, params, grid)
    assert g_l.dtype == np.float64 and g_l.shape == (3,)
    assert g_l.tobytes() == want_g_l.tobytes()
    assert cell == want_cell and all(type(v) is int for v in cell)


@pytest.mark.parametrize("goal", [(30.0, 0.0, math.nan),
                                  (math.nan, 0.0, 1.0)])
def test_cast_local_goal_raises_on_a_nan_offset_as_the_oracle(goal):
    """A NaN in any coordinate makes every coordinate of g_l NaN, so its
    cell cannot be taken."""
    params = LocalMapParams()
    grid = project_2d(np.zeros((0, 3)), (0.0, 0.0, 1.0), params)
    for cast in (cast_local_goal, oracle_cast_local_goal):
        with pytest.raises(ValueError):
            cast((0.0, 0.0, 1.0), goal, params, grid)


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


def _map_1_cells(path):
    """The Map_1 cell of each waypoint of a plan on `_stitch_maps` grids:
    Map_1 has unit cells at origin 0, so a waypoint's floor is its cell."""
    return [(int(x), int(y)) for x, y in np.floor(path.waypoints[:, :2])]


def test_stitched_plan_goal_inside_fine_map():
    params = LocalMapParams(i=40, m=20, k=1, voxel_size=1.0)
    cells = np.zeros((40, 40), dtype=np.uint8)
    map_1b, map_c = _stitch_maps(cells, params)
    sp = stitched_plan(map_1b, map_c, (24, 24), params)
    assert sp is not None
    got = _map_1_cells(sp)
    # Map_c spans Map_1 cells 10..29; every waypoint is one of its centres
    assert all(10 <= c < 30 for cell in got for c in cell)
    assert got[0] == (20, 20)
    assert got[-1] == (24, 24)


def test_stitched_plan_goal_outside_stitches():
    params = LocalMapParams(i=40, m=20, k=1, voxel_size=1.0)
    cells = np.zeros((40, 40), dtype=np.uint8)
    cells[24:28, 5:28] = 1         # wall between center and far goal
    map_1b, map_c = _stitch_maps(cells, params)
    sp = stitched_plan(map_1b, map_c, (36, 20), params)
    assert sp is not None
    got = _map_1_cells(sp)
    assert got[0] == (20, 20)
    # the coarse remainder starts at the first waypoint outside Map_c
    outside = [idx for idx, cell in enumerate(got)
               if not all(10 <= c < 30 for c in cell)]
    assert outside
    k = outside[0]
    # the fine path ends at the crossing g_ist on the Map_c boundary
    assert min(got[k - 1]) == 10 or max(got[k - 1]) == 29


def test_stitched_plan_on_built_tables_matches_a_fresh_copy():
    params = LocalMapParams(i=40, m=20, k=1, voxel_size=1.0)
    rng = np.random.default_rng(1)
    cells = (rng.random((40, 40)) < 0.1).astype(np.uint8)
    cells[20, 20] = 0
    map_1b, map_c = _stitch_maps(cells, params)

    def fresh(grid):
        return GridMap2D(origin=grid.origin.copy(),
                         resolution=grid.resolution, cells=grid.cells.copy())
    for goal in ((36, 20), (4, 4), (24, 24)):
        a = stitched_plan(fresh(map_1b), fresh(map_c), goal, params)
        b = stitched_plan(map_1b, map_c, goal, params)
        if a is None:
            assert b is None
            continue
        assert a.waypoints.tobytes() == b.waypoints.tobytes()
    # the later goals planned on the tables the first one built
    assert "jump_tables" in vars(map_c)


def test_blocked_start_leaves_the_grid_tables_unbuilt():
    params = LocalMapParams(i=40, m=20, k=1, voxel_size=1.0)
    cells = np.zeros((40, 40), dtype=np.uint8)
    cells[20:22, 20] = 1            # blocks the start in Map_c and Map_1b
    map_1b, map_c = _stitch_maps(cells, params)
    assert map_c.cells[10, 10] == 1 and map_1b.cells[10, 10] == 1
    sp = stitched_plan(map_1b, map_c, (36, 20), params)
    assert sp is not None and _map_1_cells(sp)[0] == (20, 20)
    for grid in (map_1b, map_c):
        assert "jump_tables" not in vars(grid)
        assert grid.cells.flags.writeable
    assert map_c.cells[10, 10] == 1 and map_1b.cells[10, 10] == 1


def oracle_wrap(a: float) -> float:
    """`wrap_angle` as it was: the floored remainder, on a Python float."""
    return -((-a + math.pi) % (2.0 * math.pi) - math.pi)


class _PerPointGraph:
    """Oracle: DAGS's angular graph as a per-point loop with a per-cell
    edge scan, as it was before the graph became whole-array numpy.

    `cells` maps each cell to its point indices in input order.
    """

    def __init__(self, points, origin, goal, alpha_res):
        self.alpha_res = alpha_res
        self.az_g, self.el_g = spherical_angles(
            np.asarray(goal) - np.asarray(origin))
        self.cells = {}
        origin = np.asarray(origin, dtype=float)
        for idx, p in enumerate(np.asarray(points, dtype=float).reshape(-1, 3)):
            az, el = spherical_angles(p - origin)
            rel = (oracle_wrap(az - self.az_g), el - self.el_g)
            key = (int(math.floor(rel[0] / alpha_res)),
                   int(math.floor(rel[1] / alpha_res)))
            self.cells.setdefault(key, []).append(idx)

    def edge_cells(self):
        out = []
        for (a, b) in self.cells:
            for na, nb in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)):
                if (na, nb) not in self.cells:
                    out.append((a, b))
                    break
        return out

    def cell_center_angles(self, cell):
        return ((cell[0] + 0.5) * self.alpha_res,
                (cell[1] + 0.5) * self.alpha_res)

    def min_norm_edge_cell(self):
        best, best_key = None, None
        for cell in self.edge_cells():
            ca, cb = self.cell_center_angles(cell)
            key = (math.hypot(ca, cb), -cb, cell)
            if best_key is None or key < best_key:
                best, best_key = cell, key
        return best


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
    return np.array(pts), origin, goal


@settings(max_examples=300)
@given(angular_scenes())
# a relative azimuth of exactly -pi (y = -0.0 behind the goal) and of pi
@example((np.array([[-1.0, -0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
          np.zeros(3), np.array([1.0, 0.0, 0.0])))
# goal at azimuth pi, points at azimuth -pi and pi
@example((np.array([[-2.0, -0.0, 0.5], [-2.0, 0.0, -0.5]]),
          np.zeros(3), np.array([-1.0, 0.0, 0.0])))
# one point, on the origin, with the goal on the origin too
@example((np.zeros((1, 3)), np.zeros(3), np.zeros(3)))
def test_angular_graph_matches_per_point_loop(scene):
    points, origin, goal = scene
    oracle = _PerPointGraph(points, origin, goal, ALPHA_RES)
    offsets = np.ascontiguousarray((points - origin).T)
    keys, key, cell = angular_cells(offsets, oracle.az_g, oracle.el_g)
    # one key per cell, and a different key for each cell
    assert len(set(keys.tolist())) == len(oracle.cells)
    for idx in oracle.cells.values():
        assert len(set(keys[idx].tolist())) == 1
    assert cell == oracle.min_norm_edge_cell()
    assert np.flatnonzero(keys == key).tolist() == oracle.cells[cell]


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
    assert min_clearance(path.waypoints, pts) >= R_SAFE - 1e-9


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


@pytest.mark.parametrize("bad", [
    {"z_min": math.nan}, {"z_min": math.inf}, {"z_min": -math.inf}])
def test_dags_params_reject_limits_that_turn_checks_off(bad):
    # a NaN z_min passes every altitude
    with pytest.raises(ValueError):
        DagsParams(**bad)


def test_dags_params_accept_finite_limits():
    assert DagsParams(z_min=-1.0).z_min == -1.0
    assert DagsParams(z_min=None).z_min is None


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


def test_plan_final_path_when_the_drone_coarse_cell_is_centred_off_map_c():
    # h = 50: the drone's coarse cell is centred 25 cells from the drone,
    # outside the 10-cell Map_c, so the coarse path leaves Map_c at once
    params = LocalMapParams(i=100, m=10)
    p_n = np.array([0.0, 0.0, 1.0])
    pcl_lm = np.zeros((0, 3))
    map_1 = project_2d(pcl_lm, p_n, params)
    for goal in ([8.0, 0.0, 1.0], [-6.0, 7.0, 1.0], [3.0, -9.0, 1.0],
                 [-9.5, -9.5, 1.0]):
        res = plan_final_path(p_n, np.array(goal), pcl_lm, map_1, params,
                              DagsParams(), use_dags=False)
        assert res is not None
        assert res.path.waypoints[0].tolist() == p_n.tolist()
        assert res.path.waypoints[-1].tolist() == goal
        # no detour through the centre of the drone's own coarse cell
        straight = float(np.linalg.norm(np.array(goal) - p_n))
        assert res.path.length() <= 1.1 * straight, goal


def test_stitched_plan_ends_at_the_goal_cell_inside_the_drone_coarse_cell():
    # h = 50: goal (8, 0) lies in the drone's own coarse cell, outside the
    # 10-cell Map_c, so the coarse path is that one cell; the cut heads for
    # the goal's fine cell, not for the coarse cell's centre at (5, 5)
    params = LocalMapParams(i=100, m=10)
    p_n = np.array([0.0, 0.0, 1.0])
    map_1 = project_2d(np.zeros((0, 3)), p_n, params)
    map_1_infl, map_c, map_1b = snapshot_grids(map_1, params.k, params.m,
                                               params.h)
    g_cell = tuple(np.floor(([8.0, 0.0] - map_1_infl.origin)
                            / map_1_infl.resolution).astype(int))
    path = stitched_plan(map_1b, map_c, g_cell, params)
    assert path is not None
    wp = path.waypoints
    centre = map_1.origin + (np.array(g_cell) + 0.5) * map_1.resolution
    assert np.allclose(wp[-1, :2], centre, atol=1e-9)
    assert np.all(np.abs(wp[:, 1]) <= 0.3)
    assert path.length() <= 1.01 * float(np.linalg.norm(wp[-1] - wp[0]))


# -- the memo of a map snapshot's grids ---------------------------------------

def oracle_plan_final_path(p_n, global_goal, pcl_lm, map_1, params,
                           dags_params, use_dags=True):
    """`plan_final_path` as it was when every query derived its own grids
    and jump tables, with its later rule that a one-cell plan is None."""
    p_n = np.asarray(p_n, dtype=float)
    global_goal = np.asarray(global_goal, dtype=float)
    map_1_infl = inflate(map_1, params.k)
    g_l, g_cell = cast_local_goal(p_n, global_goal, params, map_1_infl)
    map_c = inflate(cut_center(map_1, params.m), params.k)
    map_1b = downsample(map_1, params.h)
    path_2d = stitched_plan(map_1b, map_c, g_cell, params)
    if path_2d is None or len(path_2d.waypoints) < 2:
        return None
    wp = path_2d.waypoints.copy()
    wp[0, :2] = p_n[:2]
    wp[-1, :2] = g_l[:2]
    lifted = lift_path(PlanPath(wp), p_n[2], g_l[2])
    path_3d = None
    if use_dags and len(np.asarray(pcl_lm).reshape(-1, 3)):
        path_3d = dags_search(pcl_lm, p_n, g_l, lifted, dags_params)
    return MapPlanResult(path=select_final_path(lifted, path_3d), g_l=g_l,
                         path_3d=path_3d)


def assert_same_plan(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got.path.kind == want.path.kind
    assert got.path.waypoints.tobytes() == want.path.waypoints.tobytes()
    assert got.g_l.tobytes() == want.g_l.tobytes()
    if want.path_3d is None:
        assert got.path_3d is None
    else:
        assert got.path_3d.waypoints.tobytes() == \
            want.path_3d.waypoints.tobytes()


# two settings on one Map_1 (same i and voxel size): (k, m, h) = (3, 20, 2)
# and (1, 16, 3)
MEMO_PARAMS = LocalMapParams(i=40, m=20, k=3, voxel_size=0.25)
MEMO_OTHER = LocalMapParams(i=40, m=16, k=1, voxel_size=0.25)


@st.composite
def voxel_clouds(draw, p_n, params):
    """Voxel centres inside the local cuboid around p_n, a few of them
    stacked into pillars; with the drone's own cell occupied if drawn."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    half = np.array([params.l_ms / 2.0, params.l_ms / 2.0, H_MS / 2.0])
    pts = p_n + rng.uniform(-half, half, size=(draw(st.integers(0, 200)), 3))
    bases = p_n + rng.uniform(-half, half, size=(draw(st.integers(0, 12)), 3))
    pillars = [b + [0.0, 0.0, dz] for b in bases
               for dz in np.arange(-1.0, 1.01, params.voxel_size)]
    pts = np.vstack([pts, np.reshape(pillars, (-1, 3))])
    if draw(st.booleans()):
        pts = np.vstack([pts, p_n])            # blocks the start cell
    vs = params.voxel_size
    return (np.floor(pts / vs) + 0.5) * vs


@st.composite
def memo_cases(draw):
    coord = st.floats(-2.0, 2.0)
    p_n = np.array([draw(coord), draw(coord), draw(st.floats(0.8, 1.5))])
    goals = []
    for far in draw(st.lists(st.booleans(), min_size=1, max_size=3)):
        ang = draw(st.floats(-math.pi, math.pi))
        # inside the 5 m fine window Map_c, or beyond the 10 m local map
        r = draw(st.floats(7.0, 20.0) if far else st.floats(0.3, 2.2))
        goals.append(p_n + [r * math.cos(ang), r * math.sin(ang),
                            draw(st.floats(-0.5, 0.5))])
    return (p_n, goals, draw(voxel_clouds(p_n, MEMO_PARAMS)),
            draw(voxel_clouds(p_n, MEMO_PARAMS)))


@settings(max_examples=40)
@given(memo_cases())
def test_memoized_plans_match_oracle(case):
    p_n, goals, cloud_1, cloud_2 = case
    dags = DagsParams(z_min=0.3)
    map_1 = project_2d(cloud_1, p_n, MEMO_PARAMS)
    map_2 = project_2d(cloud_2, p_n, MEMO_PARAMS)
    # one map object with both settings, a second map object right after
    # the first, then the first again
    for params, grid, cloud in ((MEMO_PARAMS, map_1, cloud_1),
                                (MEMO_OTHER, map_1, cloud_1),
                                (MEMO_PARAMS, map_2, cloud_2),
                                (MEMO_PARAMS, map_1, cloud_1)):
        for goal in goals:
            for use_dags in (True, False):
                assert_same_plan(
                    plan_final_path(p_n, goal, cloud, grid, params, dags,
                                    use_dags=use_dags),
                    oracle_plan_final_path(p_n, goal, cloud, grid, params,
                                           dags, use_dags=use_dags))


def test_blocked_start_plans_match_oracle():
    p_n = np.array([0.3, -0.2, 1.1])
    cloud = np.vstack([_wall_points() + [1.5, 0.0, 0.4], p_n])
    map_1 = project_2d(cloud, p_n, MEMO_PARAMS)
    i = MEMO_PARAMS.i
    assert map_1.cells[i // 2, i // 2] == 1
    for goal in ((1.0, 0.5, 1.1), (15.0, 2.0, 1.1), (-12.0, -9.0, 1.1)):
        for use_dags in (True, False):
            assert_same_plan(
                plan_final_path(p_n, goal, cloud, map_1, MEMO_PARAMS,
                                DagsParams(), use_dags=use_dags),
                oracle_plan_final_path(p_n, goal, cloud, map_1, MEMO_PARAMS,
                                       DagsParams(), use_dags=use_dags))


def test_grids_built_once_per_snapshot(monkeypatch):
    built = {"inflate": 0, "downsample": 0, "JpsGrid": 0}

    def counted(owner, name, attr):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            built[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapper)

    counted(map_planner, "inflate", "inflate")
    counted(map_planner, "downsample", "downsample")
    # the grids build their own tables, so count every build
    counted(jps.JpsGrid, "JpsGrid", "__init__")
    p_n = np.array([0.0, 0.0, 1.1])
    cloud = _wall_points() + [1.5, 0.0, 0.4]
    params = LocalMapParams()
    for round_ in (1, 2):
        # a fresh map object per round, six queries on each
        map_1 = project_2d(cloud, p_n, params)
        for goal in ((3.0, 0.5, 1.1), (25.0, 2.0, 1.1), (-20.0, -9.0, 1.1)):
            for use_dags in (True, False):
                assert plan_final_path(p_n, goal, cloud, map_1, params,
                                       DagsParams(),
                                       use_dags=use_dags) is not None
        assert built == {"inflate": 2 * round_, "downsample": round_,
                         "JpsGrid": 2 * round_}


def test_project_2d_cells_are_read_only():
    grid = project_2d(np.array([[0.5, 0.5, 1.0]]), (0.0, 0.0, 1.0),
                      LocalMapParams())
    assert not grid.cells.flags.writeable
    with pytest.raises(ValueError):
        grid.cells[0, 0] = 1


def test_walled_in_start_gives_no_plan():
    # voxels two cells around the drone: k = 3 inflation blocks its eight
    # neighbours in Map_c and leaves its own cell free but walled in
    params = MEMO_PARAMS
    vs = params.voxel_size
    p_n = np.array([0.0, 0.0, 1.1])
    ring = [(dx, dy) for dx in range(-2, 3) for dy in range(-2, 3)
            if max(abs(dx), abs(dy)) == 2]
    cloud = np.array([[dx * vs, dy * vs, z]
                      for dx, dy in ring for z in (0.9, 1.1, 1.3)])
    map_1 = project_2d(cloud, p_n, params)
    map_c = inflate(cut_center(map_1, params.m), params.k)
    c = params.m // 2
    assert map_c.cells[c, c] == 0
    assert map_c.cells[c - 1:c + 2, c - 1:c + 2].sum() == 8
    lo = params.i // 2 - params.m // 2
    path_2d = stitched_plan(downsample(map_1, params.h), map_c,
                            (lo + c + 3, lo + c), params)
    assert len(path_2d.waypoints) == 1
    assert tuple(np.floor((path_2d.waypoints[0, :2] - map_c.origin)
                          / map_c.resolution)) == (c, c)
    for goal in ((1.0, 0.0, 1.1), (15.0, 2.0, 1.1)):
        for use_dags in (True, False):
            assert plan_final_path(p_n, goal, cloud, map_1, params,
                                   DagsParams(), use_dags=use_dags) is None


# -- the rewritten clearance test, waypoint dedupe and edge-cell scan ---------

def oracle_dags_search(pcl_lm, p_n, g_l, improved_2d, params, rounds=None):
    """`dags_search` as it was when both clearance tests scanned the whole
    cloud and the graph was built point by point. When given a list,
    `rounds` gets one entry per round that ran: "empty", "clear" or, for a
    round that built a graph, "graph from p_n" or "graph from a turning
    point"."""
    log = [] if rounds is None else rounds
    p_n = np.asarray(p_n, dtype=float)
    g_l = np.asarray(g_l, dtype=float)
    pts = np.asarray(pcl_lm, dtype=float).reshape(-1, 3)
    wp = improved_2d.waypoints
    jp1 = wp[1] if len(wp) > 1 else wp[0]
    jp1 = np.array([jp1[0], jp1[1], p_n[2]])
    split_r = float(np.linalg.norm(p_n - jp1))
    if len(pts):
        dist = np.linalg.norm(pts - p_n, axis=1)
        subsets = [pts[dist < split_r], pts[dist >= split_r]]
    else:
        subsets = [pts, pts]
    tps = []
    origin = p_n
    for subset in subsets:
        if len(subset) == 0:
            log.append("empty")
            continue
        if np.min(segment_point_distances(origin, g_l, subset)) >= R_SAFE:
            log.append("clear")
            continue
        log.append("graph from " + ("p_n" if origin is p_n
                                    else "a turning point"))
        graph = _PerPointGraph(subset, origin, g_l, ALPHA_RES)
        cell = graph.min_norm_edge_cell()
        if cell is None:
            continue
        members = subset[graph.cells[cell]]
        d_seg = segment_point_distances(origin, g_l, members)
        p_eg = members[int(np.argmax(d_seg))]
        l_tp = float(np.linalg.norm(p_n - p_eg))
        if R_SAFE > l_tp:
            return None
        alpha_safe = math.asin(R_SAFE / l_tp)
        ca, cb = graph.cell_center_angles(cell)
        norm = math.hypot(ca, cb)
        scale = (norm + alpha_safe) / norm if norm > 0 else 0.0
        az = graph.az_g + ca * scale
        el = graph.el_g + cb * scale
        tp = origin + l_tp * direction_from_angles(az, el)
        tps.append(tp)
        origin = tp
    path = PlanPath(np.array([p_n] + tps + [g_l]), kind="3D")
    if min_clearance(path.waypoints, pts) < R_SAFE:
        return None
    if params.z_min is not None and np.any(path.waypoints[:, 2] < params.z_min):
        return None
    return path


@st.composite
def pillar_scenes(draw):
    """A drone, a local goal 2-8 m away, the first jump point of a 2D path
    around the line between them, and up to three obstacles near that line,
    voxelized at 0.2 m: pillars 0.3-1.2 m wide and 1.6-3.0 m tall, or walls
    across the line 1-3 m wide and 0.9-1.5 m tall that DAGS can go over."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_n = np.array([0.0, 0.0, rng.uniform(0.8, 1.6)])
    ang = rng.uniform(-math.pi, math.pi)
    dist = rng.uniform(2.0, 8.0)
    g_l = p_n + [dist * math.cos(ang), dist * math.sin(ang),
                 rng.uniform(-0.3, 0.3)]
    along = np.array([math.cos(ang), math.sin(ang), 0.0])
    side = np.array([-math.sin(ang), math.cos(ang), 0.0])
    jp1 = p_n + rng.uniform(0.3, 0.7) * (g_l - p_n) + rng.normal(0.0, 0.5) * side
    improved = PlanPath(np.array([p_n, jp1, g_l]) if draw(st.booleans())
                        else np.array([p_n, g_l]))
    vs = 0.2
    obstacles = [np.zeros((0, 3))]
    for _ in range(rng.choice([0, 1, 1, 1, 2, 3])):
        if rng.random() < 0.5:
            size = [*rng.uniform(0.3, 1.2, 2), rng.uniform(1.6, 3.0)]
        else:
            size = [rng.uniform(0.2, 0.8), rng.uniform(1.0, 3.0),
                    rng.uniform(0.9, 1.5)]
        a, b, h = (np.arange(-x / 2, x / 2 + 1e-9, vs / 2) for x in size)
        ga, gb, gh = (g.ravel() for g in np.meshgrid(a, b, h + size[2] / 2))
        base = p_n + rng.uniform(0.3, 0.7) * dist * along \
            + rng.normal(0.0, 0.3) * side
        obstacles.append([base[0], base[1], 0.0] + ga[:, None] * along
                         + gb[:, None] * side + gh[:, None] * [0.0, 0.0, 1.0])
    cloud = np.unique((np.floor(np.vstack(obstacles) / vs) + 0.5) * vs, axis=0)
    params = DagsParams(z_min=draw(st.sampled_from([None, 0.3])))
    return cloud, p_n, g_l, improved, params


@settings(max_examples=300)
@given(pillar_scenes())
def test_dags_search_matches_full_scan_oracle(scene):
    got = dags_search(*scene)
    want = oracle_dags_search(*scene)
    if want is None:
        assert got is None
    else:
        assert got.kind == want.kind
        assert got.waypoints.tobytes() == want.waypoints.tobytes()


@pytest.fixture(scope="module")
def mp_replay_dags_calls(navbench_module):
    """The arguments of every DAGS call that the benchmark's mp-replay
    planner makes on seed 4's first two pillar fields, four drone positions
    in each and three goals per position: 24 local maps of 5,616 to 7,137
    voxels."""
    workloads = navbench_module("workloads")
    params, dags = workloads.mp_config()
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(map_planner, "dags_search",
                   lambda *args: calls.append(args) or dags_search(*args))
        for q in workloads.mp_inputs(4, n_positions=4, n_fields=2):
            map_planner.plan_final_path(q.p_n, q.goal, q.pcl_lm, q.map_1,
                                        params, dags)
    return calls


# the rounds some of those calls run, by call index: both rounds skipped,
# an empty near subset, and a second graph built from the turning point of
# the first, which gives a path with two turning points
PINNED_ROUNDS = {0: ["clear", "clear"],
                 4: ["empty", "graph from p_n"],
                 14: ["graph from p_n", "graph from a turning point"]}


def test_dags_search_matches_oracle_on_benchmark_local_maps(
        mp_replay_dags_calls):
    assert len(mp_replay_dags_calls) == 24
    for idx, args in enumerate(mp_replay_dags_calls):
        assert 5000 <= len(args[0]) <= 7500
        rounds = []
        want = oracle_dags_search(*args, rounds=rounds)
        got = dags_search(*args)
        if idx in PINNED_ROUNDS:
            assert rounds == PINNED_ROUNDS[idx]
        if want is None:
            assert got is None
        else:
            assert got.kind == want.kind
            assert got.waypoints.tobytes() == want.waypoints.tobytes()
    assert len(dags_search(*mp_replay_dags_calls[0]).waypoints) == 2
    assert len(dags_search(*mp_replay_dags_calls[14]).waypoints) == 4


@settings(max_examples=500)
@given(pillar_scenes())
def test_dags_paths_clear_the_cloud_and_stay_above_z_min(scene):
    cloud, p_n, g_l, improved, params = scene
    path = dags_search(cloud, p_n, g_l, improved, params)
    if path is not None:
        assert min_clearance(path.waypoints, cloud) >= R_SAFE
        if params.z_min is not None:
            assert np.all(path.waypoints[:, 2] >= params.z_min)


def oracle_dedupe(waypoints):
    """`PlanPath`'s waypoint dedupe as it was: one norm per waypoint."""
    wp = np.asarray(waypoints, dtype=float).reshape(-1, 3)
    if len(wp) > 1:
        keep = [0]
        for idx in range(1, len(wp)):
            if np.linalg.norm(wp[idx] - wp[keep[-1]]) > 1e-12:
                keep.append(idx)
        wp = wp[keep]
    return wp


@st.composite
def near_duplicate_paths(draw):
    """Paths whose steps are zero, a few ulps, about 1e-12 or 2e-12 along
    one or more axes, or ordinary, from a base point of any magnitude."""
    scale = draw(st.sampled_from([0.0, 1.0, 1e-6, 1e3]))
    wp = [np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3))) * scale]
    tiny = st.sampled_from([0.0, 5e-13, 1e-12, 1.5e-12, 2e-12, 2.5e-12,
                            3e-12, 1e-11, 0.3])
    for _ in range(draw(st.integers(0, 6))):
        step = np.array(draw(st.tuples(tiny, tiny, tiny)))
        step *= np.array(draw(st.tuples(*[st.sampled_from([-1.0, 1.0])] * 3)))
        p = wp[-1] + step
        for _ in range(draw(st.integers(0, 2))):
            p = np.nextafter(p, draw(st.sampled_from([-np.inf, np.inf])))
        wp.append(p)
    return np.array(wp)


@settings(max_examples=300)
@given(near_duplicate_paths())
@example(np.array([[0.0, 0.0, 0.0], [2e-12, 0.0, 0.0], [4e-12, 0.0, 0.0]]))
@example(np.array([[0.0, 0.0, 0.0], [8e-13, 8e-13, 8e-13]]))
def test_plan_path_dedupe_matches_oracle(wp):
    assert PlanPath(wp).waypoints.tobytes() == oracle_dedupe(wp).tobytes()


def oracle_nearest_free_edge_cell(grid, ref):
    """`_nearest_free_edge_cell` as it was: a loop over the edge cells in
    order, keeping a strictly nearer one."""
    n, m = grid.cells.shape
    edge = [c for x in range(n) for c in ((x, 0), (x, m - 1))]
    edge += [c for y in range(1, m - 1) for c in ((0, y), (n - 1, y))]
    best, best_d = None, np.inf
    for cell in edge:
        if grid.cells[cell[0], cell[1]] == 0:
            d = (cell[0] - ref[0]) ** 2 + (cell[1] - ref[1]) ** 2
            if d < best_d:
                best, best_d = cell, d
    return best


@settings(max_examples=300)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1),
       st.floats(0.0, 1.0), st.integers(-3, 15), st.integers(-3, 15))
def test_nearest_free_edge_cell_matches_oracle(n, m, seed, density, rx, ry):
    cells = (np.random.default_rng(seed).random((n, m)) < density)
    grid = GridMap2D(origin=np.zeros(2), resolution=1.0,
                     cells=cells.astype(np.uint8))
    got = map_planner._nearest_free_edge_cell(grid, (rx, ry))
    assert got == oracle_nearest_free_edge_cell(grid, (rx, ry))
    assert got is None or all(type(v) is int for v in got)


def test_nearest_free_edge_cell_tie_goes_to_the_first_in_edge_order():
    # (0, 1) and (0, 3) are both 5 from (2, 2); (0, 1) comes first
    cells = np.ones((5, 5), dtype=np.uint8)
    cells[0, 1] = cells[0, 3] = 0
    grid = GridMap2D(origin=np.zeros(2), resolution=1.0, cells=cells)
    assert map_planner._nearest_free_edge_cell(grid, (2, 2)) == (0, 1)
    assert oracle_nearest_free_edge_cell(grid, (2, 2)) == (0, 1)
    # (4, 1) comes before (0, 3) as well; the two are 5 from (2, 2) too
    cells[0, 1] = 1
    cells[4, 1] = 0
    assert map_planner._nearest_free_edge_cell(grid, (2, 2)) == (4, 1)
    assert oracle_nearest_free_edge_cell(grid, (2, 2)) == (4, 1)


def oracle_nearest_free_in_grid(cells, ref):
    """`nearest_free_in_grid` as it was: argwhere and a row sum."""
    free = np.argwhere(cells == 0)
    if len(free) == 0:
        return None
    d = np.sum((free - np.asarray(ref)) ** 2, axis=1)
    x, y = free[int(np.argmin(d))]
    return int(x), int(y)


def oracle_nearest_reachable(cells, start, ref, boundary_only=False):
    """`_nearest_reachable` as it was: scipy's 8-connected `label`."""
    lab, _ = label(cells == 0, structure=np.ones((3, 3), dtype=int))
    comp = lab[start[0], start[1]]
    if comp == 0:
        return None
    mask = lab == comp
    if boundary_only:
        inner = np.zeros_like(mask)
        inner[1:-1, 1:-1] = True
        mask &= ~inner
    return oracle_nearest_free_in_grid(~mask, ref)


@st.composite
def reach_cases(draw):
    n, m = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = (rng.random((n, m)) < draw(st.floats(0.0, 0.7))).astype(np.uint8)
    start = (draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1)))
    if draw(st.booleans()):
        cells[start] = 1                      # a blocked start
    ref = draw(st.one_of(
        st.tuples(st.integers(-3, n + 3), st.integers(-3, m + 3)),
        st.tuples(st.floats(-3.0, n + 3.0), st.floats(-3.0, m + 3.0))))
    return cells, start, ref, draw(st.booleans())


@settings(max_examples=300)
@given(reach_cases())
def test_nearest_reachable_matches_the_label_oracle(case):
    cells, start, ref, boundary_only = case
    got = map_planner._nearest_reachable(cells, start, ref,
                                         boundary_only=boundary_only)
    assert got == oracle_nearest_reachable(cells, start, ref,
                                           boundary_only=boundary_only)
    assert got is None or all(type(v) is int for v in got)
    assert (map_planner.nearest_free_in_grid(cells, ref)
            == oracle_nearest_free_in_grid(cells, ref))


def test_nearest_reachable_joins_runs_at_a_corner_only():
    # two free runs that touch only diagonally are one component
    cells = np.ones((4, 6), dtype=np.uint8)
    cells[0, 0:2] = 0
    cells[1, 2:5] = 0
    cells[3, :] = 0                     # a third run, not reachable
    assert map_planner._nearest_reachable(cells, (0, 0), (1, 5)) == (1, 4)
    assert map_planner._nearest_reachable(cells, (0, 0), (3, 5)) == (1, 4)
    assert map_planner._nearest_reachable(cells, (3, 0), (0, 0)) == (3, 0)


def test_nearest_free_in_grid_reads_ref_in_full_precision():
    # (0, 2) is 1e-9 nearer than (0, 1); a float32 ref would tie them
    cells = np.zeros((1, 3), dtype=np.uint8)
    ref = (0.0, 1.5 + 1e-9)
    assert map_planner.nearest_free_in_grid(cells, ref) == (0, 2)
    assert oracle_nearest_free_in_grid(cells, ref) == (0, 2)
    assert map_planner._nearest_reachable(cells, (0, 0), ref) == (0, 2)


@pytest.mark.parametrize("start", [(-1, 0), (5, 0), (0, -1), (0, 5),
                                   (-1, -1), (5, 5)])
def test_nearest_reachable_from_off_the_grid_is_none(start):
    # (-1, 0) used to wrap to the last row and (5, 0) to raise IndexError
    cells = np.zeros((5, 5), dtype=np.uint8)
    assert map_planner._nearest_reachable(cells, start, (2, 2)) is None
    assert map_planner._nearest_reachable(cells, start, (2, 2),
                                          boundary_only=True) is None
