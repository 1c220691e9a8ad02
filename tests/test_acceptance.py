"""End-to-end acceptance suite.

Each test prints an explicit PASS/FAIL line for its criterion (visible with
pytest -s; the test verdict itself carries the same information under -v).
"""
import math
import time

import numpy as np

from dualnav.bench import bench_map2d, bench_optimizer, scenario
from dualnav.geometry import min_clearance, path_length
from dualnav.jps import JpsGrid, jps_search, line_is_free
from dualnav.map_planner import PlanPath, plan_final_path, shortcut_cells
from dualnav.mapping import VoxelMap, local_map, project_2d
from dualnav.pcp import PcpParams, fermat_point
from dualnav.runtime import LoopRates, Scenario, _EpisodeCore, run_episode
from dualnav.sim import World, scan_world
from test_jps import dijkstra_cost


def report(num, name, ok, detail=""):
    line = f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# -- criterion 1: search optimality ------------------------------------------

def test_criterion_01_search_matches_dijkstra():
    tic = time.perf_counter()
    solved = 0
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        cells = (rng.random((50, 50)) < 0.25).astype(np.uint8)
        cells[0, 0] = cells[49, 49] = 0
        ref = dijkstra_cost(cells, (0, 0), (49, 49))
        res = jps_search(JpsGrid(cells), (0, 0), (49, 49))
        if ref is None:
            assert res is None
            continue
        assert res is not None
        worst = max(worst, abs(res[1] - ref))
        solved += 1
    elapsed = time.perf_counter() - tic
    report(1, "search optimality",
           worst <= 1e-9 and elapsed < 5.0 and solved > 0,
           f"{solved} solvable, max cost error {worst:.2e}, {elapsed:.2f}s")


# -- criterion 2: shortcut soundness -----------------------------------------

def _step_free(cells, a, b):
    """Unit-step rasterization along an octile run, destination-corner rule."""
    dx = np.sign(b[0] - a[0])
    dy = np.sign(b[1] - a[1])
    c = a
    while c != b:
        c = (c[0] + dx, c[1] + dy)
        if cells[c[0], c[1]]:
            return False
    return True


def test_criterion_02_shortcut_soundness():
    rng = np.random.default_rng(42)
    checked = 0
    ok = True
    while checked < 500:
        cells = (rng.random((40, 40)) < 0.22).astype(np.uint8)
        cells[0, 0] = cells[39, 39] = 0
        res = jps_search(JpsGrid(cells), (0, 0), (39, 39))
        if res is None:
            continue
        path, _ = res
        out = shortcut_cells(list(path), cells)
        original = set(zip(path, path[1:]))
        for a, b in zip(out, out[1:]):
            if (a, b) in original:
                free = _step_free(cells, a, b)
            else:
                free = line_is_free(cells, a, b)
            ok = ok and free
        len_in = path_length(np.array([(c[0], c[1], 0.0) for c in path]))
        len_out = path_length(np.array([(c[0], c[1], 0.0) for c in out]))
        ok = ok and (len_out <= len_in + 1e-9)
        ok = ok and out[0] == path[0] and out[-1] == path[-1]
        checked += 1
    # fixture: exactly the two redundant intermediate waypoints disappear
    cells = np.zeros((16, 16), dtype=np.uint8)
    cells[1, 1] = 1
    cells[2, 6] = 1
    fixture = [(0, 0), (1, 5), (5, 6), (9, 7), (10, 10), (11, 13)]
    ok = ok and (shortcut_cells(list(fixture), cells)
                 == [(0, 0), (1, 5), (9, 7), (11, 13)])
    report(2, "shortcut soundness", ok, f"{checked} random paths + fixture")


# -- criterion 3: dual-resolution 2D planning trend --------------------------

def test_criterion_03_dual_resolution_trend():
    tic = time.perf_counter()
    out = bench_map2d(map_size=800, trials=10, seed=0, min_dist=500,
                      local_size=200)
    elapsed = time.perf_counter() - tic
    ok = (out["mean_len_ratio_local"] <= 1.05
          and out["mean_time_ratio_local"] <= 0.10
          and out["mean_len_ratio_stitched"] <= 1.02
          and out["mean_time_ratio_stitched"] <= 0.70
          and elapsed < 300.0)
    report(3, "dual-resolution trend", ok,
           f"len_local {out['mean_len_ratio_local']:.4f}, "
           f"time_local {out['mean_time_ratio_local']:.4f}, "
           f"len_stitched {out['mean_len_ratio_stitched']:.4f}, "
           f"time_stitched {out['mean_time_ratio_stitched']:.4f}, "
           f"{elapsed:.0f}s")


# -- criterion 4: 3D angular search shortening -------------------------------

def test_criterion_04_3d_shortening(flight3d):
    wall = next(r for r in flight3d["reports"] if r["world"] == "wall")
    ok = (wall["dags"]["status"] == "goal_reached"
          and wall["no_dags"]["length"] > 0
          and wall["dags"]["length"] <= 0.80 * wall["no_dags"]["length"])
    # the emitted 3D path clears the local cloud by the safety radius
    sc = scenario("wall", 0)
    params, dags_params = sc.map_params, sc.dags_params
    vmap = VoxelMap(params.voxel_size)
    vmap.integrate(scan_world(sc.world, params.voxel_size))
    p_n = np.asarray(sc.start, dtype=float)
    pcl_lm = local_map(vmap, p_n, params)
    map_1 = project_2d(pcl_lm, p_n, params)
    res = plan_final_path(p_n, np.asarray(sc.goal), pcl_lm, map_1, params,
                          dags_params, use_dags=True)
    clear = min_clearance(res.path.waypoints, pcl_lm)
    ok = ok and res.path.kind == "3D" and clear >= dags_params.r_safe - 1e-9
    report(4, "3D shortening", ok,
           f"with {wall['dags']['length']:.2f} m vs without "
           f"{wall['no_dags']['length']:.2f} m, clearance {clear:.3f} m")


# -- criterion 5: triangle goal-point oracle ---------------------------------

def _median_cost(V, x):
    return float(np.linalg.norm(V - x, axis=1).sum())


def _oracle_cost(V):
    x = V.mean(axis=0)
    for _ in range(2000):
        d = np.linalg.norm(V - x, axis=1)
        if np.any(d < 1e-12):
            break
        w = 1.0 / d
        x_new = (V * w[:, None]).sum(axis=0) / w.sum()
        if np.linalg.norm(x_new - x) < 1e-15:
            x = x_new
            break
        x = x_new
    return min([_median_cost(V, x)] + [_median_cost(V, v) for v in V])


def _triangle_cases(rng):
    cases = []
    for _ in range(850):
        cases.append(rng.normal(size=(3, 3)))
    for _ in range(100):            # one vertex angle >= 120 degrees
        a = rng.normal(size=3)
        d1 = rng.normal(size=3)
        d1 /= np.linalg.norm(d1)
        axis = np.cross(d1, rng.normal(size=3))
        axis /= np.linalg.norm(axis)
        theta = rng.uniform(math.radians(121.0), math.radians(176.0))
        d2 = d1 * math.cos(theta) + np.cross(axis, d1) * math.sin(theta)
        b = a + d1 * rng.uniform(0.5, 2.0)
        c = a + d2 * rng.uniform(0.5, 2.0)
        cases.append(np.stack([b, a, c]))
    for k in range(50):             # near-degenerate
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        t = rng.uniform(-0.5, 1.5)
        c = a + t * (b - a) + rng.normal(scale=1e-9, size=3)
        if k % 5 == 0:
            c = a.copy()
        cases.append(np.stack([a, b, c]))
    return cases


def test_criterion_05_triangle_goal_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for V in _triangle_cases(rng):
        f = fermat_point(V)
        cost = _median_cost(V, f)
        ref = _oracle_cost(V)
        worst = max(worst, abs(cost - ref) / max(ref, 1.0))
    report(5, "triangle goal oracle", worst <= 1e-6,
           f"1000 triangles, worst rel error {worst:.2e}")


# -- criterion 6: motion optimizer convergence -------------------------------

def test_criterion_06_optimizer_convergence():
    tic = time.perf_counter()
    out = bench_optimizer(instances=10000, caps=(20,), seed=0)
    elapsed = time.perf_counter() - tic
    row = out["table"][0]
    ok = (row["success_rate"] >= 0.99
          and row["feasible_rate"] == 1.0
          and elapsed < 60.0)
    report(6, "optimizer convergence", ok,
           f"success {row['success_rate']:.4f}, feasible "
           f"{row['feasible_rate']:.4f}, {elapsed:.0f}s")


# -- criterion 7: global excess over the oracle ------------------------------

def test_criterion_07_global_excess(flight3d):
    randoms = [r for r in flight3d["reports"]
               if r["world"].startswith("random")]
    reached = all(r["dags"]["status"] == "goal_reached" for r in randoms)
    mean_eta = flight3d["mean_eta"]
    ok = (reached and len(randoms) == 10 and mean_eta is not None
          and mean_eta <= 0.25
          and flight3d["total_collisions"] == 0)
    report(7, "global excess", ok,
           f"mean eta {mean_eta:.4f} over {len(randoms)} worlds, "
           f"collisions {flight3d['total_collisions']}")


# -- criterion 8: dynamic-obstacle reaction ----------------------------------

def test_criterion_08_intruder_reaction():
    ok = True
    worst_delay = 0.0
    for seed in range(20):
        sc = scenario("intruder", seed)
        spawn_time = sc.world.dynamic[0].times[0]
        res = run_episode(sc, mode="virtual_time")
        # the intruder is first visible on the next sensor tick after spawn
        period = 1.0 / sc.rates.filter_hz
        period_us = int(round(period * 1e6))
        t_enter = math.ceil(spawn_time * 1e6 / period_us) * period_us / 1e6
        deadline = t_enter + 1.0 / sc.rates.pcp_hz + 1e-6
        reaction = next((t for t, kind, payload in res.events
                         if t >= t_enter and (kind == "backup_triggered" or (
                             kind == "pcp_ray" and payload["ray"] > 0))),
                        None)
        ok = ok and reaction is not None and reaction <= deadline
        ok = ok and res.status == "goal_reached"
        ok = ok and res.metrics["collisions"] == 0
        if reaction is not None:
            worst_delay = max(worst_delay, reaction - t_enter)
    report(8, "intruder reaction", ok,
           f"20 seeds, worst reaction delay {worst_delay:.3f}s")


# -- criterion 9: safety backup branches -------------------------------------

def _trapped_core(speed):
    sc = Scenario(world=World(), start=(0.0, 0.0, 1.0), goal=(5.0, 0.0, 1.0),
                  seed=3, pcp_params=PcpParams(v_max=1.35, a_max=2.0),
                  rates=LoopRates(pcp_hz=20.0))
    core = _EpisodeCore(sc)
    core.state.v = np.array([speed, 0.0, 0.0])
    core.prev_p = np.array([-0.1, 0.0, 1.0])
    core.bb.publish("state", core.state)
    ang = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    ring = np.stack([0.4 * np.cos(ang), 0.4 * np.sin(ang),
                     np.full(ang.size, 1.0)], axis=1)
    core.bb.publish("pcl4", ring)
    core.bb.publish("map", (np.zeros((0, 3)), np.array([0.0, 0.0, 1.0])))
    core.bb.publish("path",
                    PlanPath(np.array([[0.0, 0.0, 1.0], [5.0, 0.0, 1.0]])))
    core.pcp_step(0.0)
    return core


def test_criterion_09_safety_backup_branches():
    # braking distance 0.1^2/4 m, far below the 0.4 m ring: steer away
    slow = _trapped_core(speed=0.1)
    slow_modes = [e[2]["mode"] for e in slow.events
                  if e[1] == "backup_triggered"]
    # braking distance 1.3^2/4 = 0.42 m exceeds the ring clearance: brake
    fast = _trapped_core(speed=1.3)
    fast_modes = [e[2]["mode"] for e in fast.events
                  if e[1] == "backup_triggered"]
    ok = slow_modes == ["backup_steer"] and fast_modes == ["backup_brake"]
    fast_cmd = fast.bb.read("cmd")
    ok = ok and float(fast_cmd.a_n[0]) < 0.0     # decelerating toward p_prev
    report(9, "safety backup branches", ok,
           f"slow {slow_modes}, fast {fast_modes}")


# -- criterion 10: determinism -----------------------------------------------

def test_criterion_10_determinism():
    runs = [run_episode(scenario("wall", 11), mode="virtual_time")
            for _ in range(2)]
    ok = (runs[0].trajectory_csv() == runs[1].trajectory_csv()
          and runs[0].metrics_json() == runs[1].metrics_json())
    report(10, "determinism", ok,
           f"{len(runs[0].trajectory)} trajectory rows byte-identical")
