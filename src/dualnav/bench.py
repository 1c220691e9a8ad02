"""Benchmark harness: the scenario catalogue, a grid-based shortest-path
oracle, the 2D dual-resolution planning study, full-episode 3D flight studies
and the motion-optimizer convergence study.

All entry points are deterministic for a fixed seed and return plain dicts so
the CLI can serialize them directly.
"""
from __future__ import annotations

import json
import math
import os
import time as time_mod
from dataclasses import replace

import numpy as np

from .geometry import path_length, row_norms
from .jps import JpsGrid, jps_search
from .map_planner import (DagsParams, nearest_free_in_grid, segment_box_exit,
                          shortcut_cells, snapshot_grids, stitched_plan)
from .mapping import GridMap2D, LocalMapParams
from .pcp import R_DET, PcpParams, plan_motion
from .runtime import LoopRates, Scenario, run_episode
from .sim import Box, DynamicObstacle, World

_OFFSETS_3D = np.array([(dx, dy, dz)
                        for dx in (-1, 0, 1)
                        for dy in (-1, 0, 1)
                        for dz in (-1, 0, 1)
                        if (dx, dy, dz) > (0, 0, 0)])

FEATURE_MAX = 30            # obstacle size bound of a random 2D map, cells
INTRUDER_X = 2.9            # where the intruder crosses the flight line, m
INTRUDER_SPAWN = 10.0       # when the intruder appears, s
MAP2D_MAX_DRAWS = 1000      # 2D-study draws in a row that keep no trial


# -- shortest-path oracle ----------------------------------------------------

def _world_grid(world: World, start, goal, resolution):
    pts = [np.asarray(start, dtype=float), np.asarray(goal, dtype=float)]
    for b in world.static:
        lo, hi = b.arrays()
        pts += [lo, hi]
    lo = np.min(pts, axis=0) - 1.0
    hi = np.max(pts, axis=0) + 1.0
    r = Scenario.drone_radius
    if world.ground_z is not None:
        lo[2] = max(lo[2], world.ground_z + r + resolution)
    shape = np.maximum(np.ceil((hi - lo) / resolution).astype(int), 1)
    centers_axes = [lo[k] + (np.arange(shape[k]) + 0.5) * resolution
                    for k in range(3)]
    occ = np.zeros(shape, dtype=bool)
    for b in world.static:
        blo, bhi = b.arrays()
        sel = []
        for k in range(3):
            sel.append((centers_axes[k] > blo[k] - r)
                       & (centers_axes[k] < bhi[k] + r))
        occ |= sel[0][:, None, None] & sel[1][None, :, None] & sel[2][None, None, :]
    return lo, shape, occ


def _segment_clear_of_boxes(a, b, boxes, step):
    n = max(int(np.ceil(np.linalg.norm(b - a) / step)), 1)
    t = np.linspace(0.0, 1.0, n + 1)
    samples = a + t[:, None] * (b - a)
    for box in boxes:
        lo, hi = box.arrays()
        nearest = np.clip(samples, lo, hi)
        if np.min(row_norms(samples - nearest)) < Scenario.drone_radius:
            return False
    return True


def oracle_shortest_path(world: World, start, goal, resolution: float = 0.1):
    """Globally shortest path length for the drone's sphere: on a fine
    voxel grid inflated by `Scenario.drone_radius`.

    26-connected Dijkstra followed by line-of-sight shortcutting; the result
    upper-bounds the true optimum by at most the grid discretization error.
    Returns (length, waypoints) or None when the goal is unreachable.
    It needs scipy's graph routines, from the `bench` extra
    (`pip install -e '.[bench]'`); they are imported here, so a flight or
    a plan never loads scipy.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    lo, shape, occ = _world_grid(world, start, goal, resolution)
    free = ~occ
    nid = -np.ones(shape, dtype=np.int64)
    nid[free] = np.arange(int(free.sum()))

    rows, cols, data = [], [], []
    for off in _OFFSETS_3D:
        sa = tuple(slice(max(o, 0), s + min(o, 0))
                   for o, s in zip(off, shape))
        sb = tuple(slice(max(-o, 0), s + min(-o, 0))
                   for o, s in zip(off, shape))
        ok = free[sa] & free[sb]
        rows.append(nid[sa][ok])
        cols.append(nid[sb][ok])
        w = float(np.linalg.norm(off)) * resolution
        data.append(np.full(int(ok.sum()), w, dtype=np.float32))
    n = int(free.sum())
    graph = csr_matrix((np.concatenate(data),
                        (np.concatenate(rows), np.concatenate(cols))),
                       shape=(n, n))

    def cell_of(p):
        c = np.floor((p - lo) / resolution).astype(int)
        c = np.clip(c, 0, shape - 1)
        return tuple(c)

    c_start, c_goal = cell_of(start), cell_of(goal)
    if not free[c_start] or not free[c_goal]:
        return None
    dist, pred = dijkstra(graph, directed=False, indices=nid[c_start],
                          return_predecessors=True)
    gid = nid[c_goal]
    if not np.isfinite(dist[gid]):
        return None
    order = []
    node = gid
    while node >= 0:
        order.append(node)
        node = pred[node]
    order.reverse()
    coords = np.argwhere(free)
    pts = lo + (coords[order] + 0.5) * resolution
    pts = np.vstack([start, pts, goal])

    # greedy line-of-sight shortcut on the grid path
    boxes = world.static
    keep = [0]
    i = 0
    while i < len(pts) - 1:
        j = len(pts) - 1
        while j > i + 1 and not _segment_clear_of_boxes(
                pts[i], pts[j], boxes, resolution / 2.0):
            j -= 1
        keep.append(j)
        i = j
    path = pts[keep]
    return float(path_length(path)), path


# -- random 2D map benchmark -------------------------------------------------

def random_map_2d(size: int, seed: int, density: float = 0.12) -> np.ndarray:
    """Seeded rectangle-and-wall obstacle map, cells in {0, 1}."""
    rng = np.random.default_rng(seed)
    cells = np.zeros((size, size), dtype=np.uint8)
    target = density * size * size
    while cells.sum() < target:
        if rng.random() < 0.3:      # thin wall
            w, h = (int(rng.integers(2, 5)), int(rng.integers(10, 3 * FEATURE_MAX))) \
                if rng.random() < 0.5 else \
                (int(rng.integers(10, 3 * FEATURE_MAX)), int(rng.integers(2, 5)))
        else:
            w = int(rng.integers(3, FEATURE_MAX))
            h = int(rng.integers(3, FEATURE_MAX))
        # a feature as long as the map starts at its edge
        x = int(rng.integers(0, max(size - w, 1)))
        y = int(rng.integers(0, max(size - h, 1)))
        cells[x:x + w, y:y + h] = 1
    return cells


def _free_cell_near(cells, rng):
    size = cells.shape[0]
    while True:
        c = (int(rng.integers(0, size)), int(rng.integers(0, size)))
        if cells[c] == 0:
            return c


def _local_goal_cell(window: np.ndarray, center, goal_rel):
    """Goal cast to the window: inside if contained, else on the boundary."""
    n = window.shape[0]
    gx, gy = goal_rel
    if 0 <= gx < n and 0 <= gy < n:
        cell = (int(gx), int(gy))
    else:
        x, y = segment_box_exit(center, goal_rel, 0, n - 1)
        cell = (min(max(int(round(x)), 0), n - 1),
                min(max(int(round(y)), 0), n - 1))
    if window[cell] == 0:
        return cell
    return nearest_free_in_grid(window, cell)


def _first_step(path_cells):
    (x0, y0), nxt = path_cells[0], path_cells[1]
    dx = int(np.sign(nxt[0] - x0))
    dy = int(np.sign(nxt[1] - y0))
    return x0 + dx, y0 + dy


def _window(cells, center, side, align: int = 1):
    """Window of the given side with the cell at index side // 2, as in
    Map_1; outside the map counts as occupied so local plans never step off
    the grid.

    The origin is snapped down to a multiple of align so downsample blocks
    stay fixed in absolute map coordinates as the center moves.
    """
    size = cells.shape[0]
    x0, y0 = center[0] - side // 2, center[1] - side // 2
    x0 -= x0 % align
    y0 -= y0 % align
    win = np.ones((side, side), dtype=np.uint8)
    sx0, sy0 = max(x0, 0), max(y0, 0)
    sx1, sy1 = min(x0 + side, size), min(y0 + side, size)
    win[sx0 - x0:sx1 - x0, sy0 - y0:sy1 - y0] = cells[sx0:sx1, sy0:sy1]
    return win, (x0, y0)


def _simulate_local(cells, start, goal, params: LocalMapParams,
                    stitched: bool, max_steps: int):
    """Move one cell per step along a freshly planned local path."""
    local_size = params.i
    pos = start
    visited = [start]
    times = []
    map_1, map_origin = None, None
    for _ in range(max_steps):
        if pos == goal:
            # smooth the realized cell path the same way the global baseline
            # is smoothed, so lengths compare in the same chord metric
            sc = shortcut_cells(visited, cells)
            length = path_length(np.array([(c[0], c[1], 0.0) for c in sc]))
            return length, float(np.mean(times))
        # align the window origin to the pooling stride so coarse blocks stay
        # fixed in map coordinates while the drone moves cell by cell
        align = params.h if stitched else 1
        win, (x0, y0) = _window(cells, pos, local_size, align)
        if stitched and (x0, y0) != map_origin:
            # the aligned window only changes with its origin, so one Map_1
            # per origin lets the MP reuse its grids and jump tables
            map_1 = GridMap2D(origin=np.zeros(2), resolution=1.0, cells=win)
            map_origin = (x0, y0)
        center = (pos[0] - x0, pos[1] - y0)
        goal_rel = (goal[0] - x0, goal[1] - y0)
        tic = time_mod.perf_counter()
        g_cell = _local_goal_cell(win, center, goal_rel)
        step_cell = None
        if g_cell is not None and g_cell != center:
            if stitched:
                sp = _stitched_on_window(map_1, center, g_cell, params)
                if sp is not None and len(sp) > 1:
                    step_cell = _first_step(sp)
            else:
                # the drone's cell is free: it only ever steps onto free cells
                res = jps_search(JpsGrid(win), center, g_cell)
                if res is not None and len(res[0]) > 1:
                    step_cell = _first_step(shortcut_cells(res[0], win))
        times.append(time_mod.perf_counter() - tic)
        if step_cell is None:
            return None
        nx, ny = x0 + step_cell[0], y0 + step_cell[1]
        if cells[nx, ny]:
            return None
        pos = (nx, ny)
        visited.append(pos)
    return None


def _stitched_on_window(map_1: GridMap2D, start_cell, g_cell,
                        params: LocalMapParams):
    """Cells of the MP's stitched plan on a window's Map_1, None on failure.

    start_cell is the drone cell; it may sit slightly off center when the
    window origin is stride-aligned. Map_1 has unit cells at origin 0, so
    each waypoint's floor is its cell, fine and coarse alike.
    """
    _, map_c, map_1b = snapshot_grids(map_1, params.k, params.m, params.h)
    path = stitched_plan(map_1b, map_c, g_cell, params,
                         start_cell_fine=start_cell)
    if path is None:
        return None
    return [(int(x), int(y)) for x, y in np.floor(path.waypoints[:, :2])]


def bench_map2d(map_size: int = 800, trials: int = 10, seed: int = 0,
                min_dist: int = 500, local_size: int = 200) -> dict:
    """Global vs single-resolution local vs stitched dual-resolution study;
    ValueError when the local size gives no fine window that always holds
    the drone cell, when no start-goal pair can be min_dist cells apart, or
    when MAP2D_MAX_DRAWS draws in a row keep no trial."""
    # fine window about 35 percent of the full one gives a 4x pooling stride,
    # which keeps the coarse search small and the aligned window reusable
    params = LocalMapParams(i=local_size, m=int(local_size * 0.35), k=1,
                            voxel_size=1.0)
    # the stitched arm snaps its window origin down to a multiple of h, so
    # the drone cell sits up to h - 1 cells past the window centre i // 2;
    # Map_c starts at i // 2 - m // 2, so it holds that cell only while
    # m // 2 + h - 1 <= m - 1
    m, h = params.m, params.h
    if m // 2 + h > m:
        raise ValueError(
            f"local_size {local_size} gives Map_c {m} cells a side and a "
            f"pooling stride of {h}: the stride-aligned drone cell can sit "
            f"{h - 1} cells past the window centre, outside Map_c "
            f"(needs m // 2 + h <= m)")
    diagonal = (map_size - 1) * math.sqrt(2.0)
    if min_dist > diagonal:
        raise ValueError(f"min_dist {min_dist} exceeds {diagonal:.1f}, the "
                         f"diagonal of a {map_size}-cell map")
    rows = []
    rng = np.random.default_rng(seed)
    done = 0
    attempt = 0
    last_kept = 0
    while done < trials:
        if attempt - last_kept >= MAP2D_MAX_DRAWS:
            raise ValueError(
                f"{MAP2D_MAX_DRAWS} draws in a row kept no trial: start-goal "
                f"pairs min_dist {min_dist} cells apart are too rare on a "
                f"{map_size}-cell map, or the planners fail on them")
        attempt += 1
        cells = random_map_2d(map_size, seed * 1000 + attempt)
        if cells.all():     # no free cell to draw start and goal from
            continue
        start = _free_cell_near(cells, rng)
        goal = _free_cell_near(cells, rng)
        # a goal on the start gives no step to time
        if (start == goal or math.hypot(goal[0] - start[0],
                                        goal[1] - start[1]) < min_dist):
            continue
        tic = time_mod.perf_counter()
        res_g = jps_search(JpsGrid(cells), start, goal)
        t_global = time_mod.perf_counter() - tic
        if res_g is None:
            continue
        sc = shortcut_cells(res_g[0], cells)
        len_global = path_length(np.array([(c[0], c[1], 0.0) for c in sc]))
        max_steps = int(len_global * 3) + 100
        local = _simulate_local(cells, start, goal, params, False, max_steps)
        stitched = _simulate_local(cells, start, goal, params, True,
                                   max_steps)
        if local is None or stitched is None:
            continue
        rows.append({
            "seed": seed * 1000 + attempt,
            "len_global": round(len_global, 6),
            "t_global": t_global,
            "len_local": round(local[0], 6),
            "t_local_step": local[1],
            "len_stitched": round(stitched[0], 6),
            "t_stitched_step": stitched[1],
        })
        done += 1
        last_kept = attempt
    summary = {
        "schema": 1,
        "trials": trials,
        "rows": rows,
        "mean_len_ratio_local": float(np.mean(
            [r["len_local"] / r["len_global"] for r in rows])),
        "mean_time_ratio_local": float(np.mean(
            [r["t_local_step"] / r["t_global"] for r in rows])),
        "mean_len_ratio_stitched": float(np.mean(
            [r["len_stitched"] / r["len_local"] for r in rows])),
        "mean_time_ratio_stitched": float(np.mean(
            [r["t_stitched_step"] / r["t_local_step"] for r in rows])),
    }
    return summary


# -- scenario catalogue: scripted and random 3D worlds ----------------------

def wall_world():
    """The over-the-wall fixture: a 6 m wide, 2 m tall thin wall."""
    world = World(static=[Box((-0.1, -3.0, 0.0), (0.1, 3.0, 2.0))],
                  ground_z=0.0)
    return world, (-4.0, 0.0, 1.1), (4.0, 0.0, 1.1)


def random_world_3d(seed: int):
    """Desk-scale box world with a guaranteed-free start/goal pair.

    All pillars reach above the cruise altitude so the projected 2D map and
    the reactive layer agree on what blocks the flight plane, and pairwise
    gaps leave corridors wide enough for the safety radius.
    """
    rng = np.random.default_rng(seed)
    start = np.array([-4.0, 0.0, 1.1])
    goal = np.array([4.0, 0.0, 1.1])
    boxes = []
    n_boxes = int(rng.integers(2, 5))
    attempts = 0
    while len(boxes) < n_boxes and attempts < 200:
        attempts += 1
        cx = float(rng.uniform(-2.2, 2.2))
        cy = float(rng.uniform(-1.8, 1.8))
        sx = float(rng.uniform(0.3, 0.8))
        sy = float(rng.uniform(0.3, 0.8))
        h = float(rng.uniform(1.6, 2.2))
        box = Box((cx - sx / 2, cy - sy / 2, 0.0), (cx + sx / 2, cy + sy / 2, h))
        lo, hi = box.arrays()
        ok = True
        for p in (start, goal):
            if np.linalg.norm(p - np.clip(p, lo, hi)) < 1.2:
                ok = False
        for other in boxes:
            olo, ohi = other.arrays()
            gap = np.maximum(np.maximum(lo[:2] - ohi[:2], olo[:2] - hi[:2]), 0.0)
            if float(np.hypot(gap[0], gap[1])) < 1.5:
                ok = False
        if ok:
            boxes.append(box)
    world = World(static=boxes, ground_z=0.0)
    return world, tuple(start), tuple(goal)


def intruder_world():
    """Corridor where a box pops up 1.5 m ahead of the cruising drone, right
    on the flight line, then crosses it sideways at 1 m/s."""
    world = World(
        dynamic=[DynamicObstacle(
            size=(0.4, 0.4, 1.6),
            times=[INTRUDER_SPAWN, INTRUDER_SPAWN + 2.5],
            positions=[(INTRUDER_X, 0.0, 0.8), (INTRUDER_X, 2.5, 0.8)])],
        ground_z=0.0)
    return world, (0.0, 0.0, 1.0), (6.0, 0.0, 1.0)


# name -> (world builder of the seed, map known and frozen, else sensed)
SCENARIOS = {
    "empty": (lambda seed: (World(ground_z=0.0), (0.0, 0.0, 1.0),
                            (5.0, 0.0, 1.0)), True),
    "wall": (lambda seed: wall_world(), True),
    "random": (random_world_3d, True),
    "intruder": (lambda seed: intruder_world(), False),
}


def flight_scenario(world, start, goal, seed: int, **overrides) -> Scenario:
    """Standard desk-scale flight configuration used by the 3D benchmarks."""
    return Scenario(
        world=world, start=start, goal=goal, seed=seed,
        pcp_params=PcpParams(v_max=0.15, a_max=2.0, r_safe=0.4),
        map_params=LocalMapParams(k=7),
        rates=LoopRates(filter_hz=30.0, mapping_hz=10.0, mp_hz=5.0,
                        pcp_hz=10.0, sim_dt=0.05),
        dags_params=DagsParams(z_min=0.3), **overrides)


def scenario(name: str, seed: int, **overrides) -> Scenario:
    """The standard flight over catalogue world `name`, built (if random)
    and flown with `seed`; overrides set the fields `flight_scenario`
    leaves open, the map kind included."""
    build, known = SCENARIOS[name]
    overrides = {"known_world": known, "freeze_map": known, **overrides}
    return flight_scenario(*build(seed), seed, **overrides)


def bench_flight3d(n_worlds: int = 10, seed: int = 0,
                   mode: str = "virtual_time") -> dict:
    """Full-episode study: excess over the oracle, DAGS shortening, safety."""
    reports = []
    flights = [("wall", scenario("wall", seed))] + [
        (f"random-{k}", replace(scenario("random", seed * 100 + k), seed=seed))
        for k in range(n_worlds)]
    for name, flight in flights:
        start, goal = flight.start, flight.goal
        oracle = oracle_shortest_path(flight.world, start, goal)
        report = {"world": name, "start": list(start), "goal": list(goal)}
        for use_dags in (True, False):
            res = run_episode(replace(flight, use_dags=use_dags), mode=mode)
            # charge the goal-tolerance shortfall so lengths compare like
            # for like with the oracle
            final = np.asarray(res.trajectory[-1][1:4], dtype=float)
            length = res.metrics["trajectory_length"] + float(
                np.linalg.norm(np.asarray(goal) - final))
            key = "dags" if use_dags else "no_dags"
            report[key] = {
                "status": res.status,
                "length": round(length, 6),
                "collisions": res.metrics["collisions"],
                "backups": res.metrics["backup_activations"],
                "mp_replans": res.metrics["mp_replans"],
                "timing": res.timing,
            }
        if oracle is not None:
            report["len_oracle"] = round(oracle[0], 6)
            if report["dags"]["status"] == "goal_reached":
                report["eta"] = round(
                    (report["dags"]["length"] - oracle[0]) / oracle[0], 6)
        reports.append(report)
    etas = [r["eta"] for r in reports if "eta" in r
            and r["world"].startswith("random")]
    return {
        "schema": 1,
        "reports": reports,
        "mean_eta": float(np.mean(etas)) if etas else None,
        "total_collisions": int(sum(
            r[k]["collisions"] for r in reports for k in ("dags", "no_dags"))),
    }


# -- optimizer study ---------------------------------------------------------

def sample_optimizer_instance(rng, params: PcpParams):
    v = rng.normal(size=3)
    v = v / np.linalg.norm(v) * rng.uniform(0.0, params.v_max)
    w = rng.normal(size=3)
    w = w / np.linalg.norm(w) * rng.uniform(0.05, R_DET)
    t_avs = float(rng.uniform(0.005, 0.1))
    return np.zeros(3), v, w, t_avs


def bench_optimizer(instances: int = 10000, caps=(5, 10, 20, 80),
                    seed: int = 0) -> dict:
    params = PcpParams(v_max=1.0, a_max=2.0)
    rng = np.random.default_rng(seed)
    cases = [sample_optimizer_instance(rng, params) for _ in range(instances)]
    table = []
    for cap in caps:
        p = PcpParams(v_max=params.v_max, a_max=params.a_max,
                      max_opt_iters=int(cap))
        ok = 0
        feasible = 0
        tic = time_mod.perf_counter()
        for p_n, v_n, w, t_avs in cases:
            cmd = plan_motion(p_n, v_n, w, t_avs, p)
            if cmd.converged:
                ok += 1
            if (np.linalg.norm(cmd.a_n) <= p.a_max + 1e-9
                    and np.linalg.norm(v_n + cmd.a_n * t_avs)
                    <= p.v_max + 1e-9):
                feasible += 1
        elapsed = time_mod.perf_counter() - tic
        table.append({
            "max_steps": int(cap),
            "success_rate": ok / instances,
            "feasible_rate": feasible / instances,
            "mean_solve_ms": 1e3 * elapsed / instances,
        })
    return {"schema": 1, "instances": instances, "table": table}


# -- export ------------------------------------------------------------------

def export_plots(results, outdir: str) -> list:
    """Write trajectory CSVs and metrics JSONs plus a manifest."""
    os.makedirs(outdir, exist_ok=True)
    written = []
    for idx, res in enumerate(results):
        base = os.path.join(outdir, f"episode_{idx:03d}")
        with open(base + "_trajectory.csv", "w") as f:
            f.write(res.trajectory_csv())
        with open(base + "_metrics.json", "w") as f:
            f.write(res.metrics_json())
        written += [base + "_trajectory.csv", base + "_metrics.json"]
    manifest = {"schema": 1, "files": [os.path.basename(w) for w in written]}
    path = os.path.join(outdir, "manifest.json")
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2)
    written.append(path)
    return written
