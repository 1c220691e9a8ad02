"""Seeded inputs and runners for the benchmark's three workloads.

flight-known    closed-loop flights with a known, frozen map (wall + random-0)
flight-explore  closed-loop flights that build the map from the sensor
                (intruder corridor + a two-tile pillar course)
mp-replay       map-planner queries on dense local maps, each with and
                without DAGS

The flights are a fixed set: fixed worlds flown with episode seed 0. At one
or two rounds per run, a seed-driven sensor noise flips whole episodes
between backup-heavy and backup-free flights and so moved wall_s by a fifth
between seeds; a fixed set leaves only timing noise, and its digests are the
same on every run. mp-replay's pillar fields are fixed too; it draws its
drone positions and goals from the seed.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

from dualnav import bench, map_planner, runtime
from dualnav.mapping import GridMap2D, VoxelMap, local_map, project_2d
from dualnav.runtime import Scenario
from dualnav.sim import Box, World, scan_world

WORKLOADS = ("flight-known", "flight-explore", "mp-replay")

CRUISE_Z = 1.1
MP_FIELDS = 4              # pillar fields per mp-replay round
MP_POSITIONS = 25          # drone positions per pillar field
FIELD_HALF = 20.0          # pillar field spans [-FIELD_HALF, FIELD_HALF]^2
QUERY_HALF = 10.0          # drone positions lie in [-QUERY_HALF, QUERY_HALF]^2
PILLAR_DENSITY = 0.35      # pillars per square metre before rejection
PILLAR_GAP = 1.5           # corridor between pillars, as in random_world_3d
FREE_CLEARANCE = 1.0       # drone and goal distance to the nearest pillar
FLIGHT_SEED = 0            # episode seed of every flight (sensor noise)


# -- inputs ------------------------------------------------------------------

@dataclass
class Flight:
    name: str
    scenario: Scenario


@dataclass
class Query:
    p_n: np.ndarray
    goal: np.ndarray
    pcl_lm: np.ndarray
    map_1: GridMap2D


def tiled_course(tile_seeds) -> tuple:
    """random_world_3d pillar sets laid end to end along x, 8 m per tile.

    Each tile keeps its own start/goal clearance, so the tile joints stay
    free and the course is as passable as its tiles.
    """
    boxes = []
    for k, tile_seed in enumerate(tile_seeds):
        world, _, _ = bench.random_world_3d(tile_seed)
        off = np.array([8.0 * k, 0.0, 0.0])
        boxes += [Box(tuple(np.asarray(b.lo) + off),
                      tuple(np.asarray(b.hi) + off)) for b in world.static]
    goal_x = -4.0 + 8.0 * len(tile_seeds)
    return (World(static=boxes, ground_z=0.0), (-4.0, 0.0, CRUISE_Z),
            (goal_x, 0.0, CRUISE_Z))


def flight_inputs(workload: str) -> list:
    if workload == "flight-known":
        worlds = [("wall", *bench.wall_world()),
                  ("random-0", *bench.random_world_3d(0))]
        known = True
    elif workload == "flight-explore":
        worlds = [("intruder", *bench.intruder_world()),
                  ("course-2", *tiled_course((0, 1)))]
        known = False
    else:
        raise ValueError(f"not a flight workload: {workload}")
    return [Flight(name, bench.flight_scenario(
        world, start, goal, FLIGHT_SEED, known_world=known, freeze_map=known))
        for name, world, start, goal in worlds]


def mp_config():
    """Map and DAGS parameters of the flight configuration."""
    sc = bench.flight_scenario(World(), (0.0, 0.0, CRUISE_Z),
                               (1.0, 0.0, CRUISE_Z), 0)
    return sc.map_params, sc.dags_params


def pillar_field(rng) -> World:
    """Seeded random pillars over the field, rejection-spaced."""
    boxes, lows, highs = [], [], []
    area = (2.0 * FIELD_HALF) ** 2
    for _ in range(int(PILLAR_DENSITY * area)):
        c = rng.uniform(-FIELD_HALF, FIELD_HALF, size=2)
        size = rng.uniform(0.3, 1.2, size=2)
        h = float(rng.uniform(1.6, 3.0))
        lo, hi = c - size / 2.0, c + size / 2.0
        if lows:
            gap = np.maximum(np.maximum(lo - np.asarray(highs),
                                        np.asarray(lows) - hi), 0.0)
            if np.min(np.hypot(gap[:, 0], gap[:, 1])) < PILLAR_GAP:
                continue
        lows.append(lo)
        highs.append(hi)
        boxes.append(Box((float(lo[0]), float(lo[1]), 0.0),
                         (float(hi[0]), float(hi[1]), h)))
    return World(static=boxes, ground_z=0.0)


def _xy_clearance(world: World, xy) -> float:
    lo = np.array([b.lo[:2] for b in world.static])
    hi = np.array([b.hi[:2] for b in world.static])
    d = np.asarray(xy) - np.clip(xy, lo, hi)
    return float(np.min(np.hypot(d[:, 0], d[:, 1])))


def _free_position(world, rng, lo, hi):
    """A free drone position in the square [lo, hi] (2 corners); anywhere in
    the query area when the square has none that is easily found."""
    for _ in range(50):
        xy = rng.uniform(lo, hi)
        if _xy_clearance(world, xy) >= FREE_CLEARANCE:
            return np.array([xy[0], xy[1], CRUISE_Z])
    return _free_point(world, rng, None, 0.0, 0.0, QUERY_HALF)


def _free_point(world, rng, centre, r_lo, r_hi, half):
    while True:
        if centre is None:
            xy = rng.uniform(-half, half, size=2)
        else:
            ang = rng.uniform(-np.pi, np.pi)
            xy = centre[:2] + rng.uniform(r_lo, r_hi) * np.array(
                [np.cos(ang), np.sin(ang)])
        if _xy_clearance(world, xy) >= FREE_CLEARANCE:
            return np.array([xy[0], xy[1], CRUISE_Z])


def mp_inputs(seed: int, n_positions: int = MP_POSITIONS,
              n_fields: int = MP_FIELDS) -> list:
    """Local maps around seeded free drone positions in fixed pillar fields.

    The fields are those of pillar_field seeds 0 .. n_fields-1, whatever the
    seed: the query cost moved by 10-15% between two fields under the same
    positions, which made the seed-to-seed spread measure the field draw
    more than the program. The seed draws the positions, one per cell of a
    grid over the query area, and the goals.

    Each position gets three goals: one inside the fine centre window Map_c
    and two 15-30 m away, beyond the 20 m local map, so both branches of the
    stitched search run. DAGS builds its angular graph only when pillars
    block the direct line to the local goal, which the long queries almost
    always meet; keeping them the majority holds the DAGS-arm median on that
    costly branch.
    """
    params, _ = mp_config()
    rng = np.random.default_rng(seed)
    side = math.ceil(math.sqrt(n_positions))
    step = 2.0 * QUERY_HALF / side
    cells = [np.array([-QUERY_HALF + step * i, -QUERY_HALF + step * j])
             for i in range(side) for j in range(side)][:n_positions]
    queries = []
    for field_seed in range(n_fields):
        world = pillar_field(np.random.default_rng(field_seed))
        vmap = VoxelMap(params.voxel_size)
        vmap.integrate(scan_world(world, params.voxel_size))
        for lo in cells:
            p_n = _free_position(world, rng, lo, lo + step)
            pcl_lm = local_map(vmap, p_n, params)
            map_1 = project_2d(pcl_lm, p_n, params)
            for r_lo, r_hi in ((2.0, 4.5), (15.0, 30.0), (15.0, 30.0)):
                goal = _free_point(world, rng, p_n, r_lo, r_hi, None)
                queries.append(Query(p_n, goal, pcl_lm, map_1))
    return queries


def make_inputs(workload: str, seed: int) -> list:
    if workload == "mp-replay":
        return mp_inputs(seed)
    return flight_inputs(workload)


def inputs_digest(workload: str, inputs: list) -> str:
    h = hashlib.sha256()
    if workload == "mp-replay":
        for q in inputs:
            for arr in (q.p_n, q.goal, q.pcl_lm, q.map_1.origin,
                        q.map_1.cells):
                h.update(np.ascontiguousarray(arr).tobytes())
    else:
        for f in inputs:
            h.update(repr(f.scenario).encode())
    return h.hexdigest()


# -- runs ------------------------------------------------------------------

@dataclass
class FlightRun:
    flight: Flight
    result: runtime.EpisodeResult
    host_s: float
    tick_s: dict             # loop -> per-tick host seconds from the runtime


@dataclass
class MpRun:
    query: Query
    use_dags: bool
    result: object          # MapPlanResult or None
    host_s: float


class _KeepLoopTimes:
    """Keeps the runtime's own per-tick durations, which EpisodeResult
    reduces to mean and max, by hooking the once-per-episode result()."""

    def __enter__(self):
        self.kept = []
        self._orig = runtime._EpisodeCore.result
        orig, kept = self._orig, self.kept

        def result(core):
            kept.append({k: list(v) for k, v in core.timing.items()})
            return orig(core)

        runtime._EpisodeCore.result = result
        return self

    def __exit__(self, *exc):
        runtime._EpisodeCore.result = self._orig
        return False


def run_flights(flights: list) -> list:
    runs = []
    with _KeepLoopTimes() as keep:
        for f in flights:
            tic = time.perf_counter()
            res = runtime.run_episode(f.scenario)
            host = time.perf_counter() - tic
            runs.append(FlightRun(f, res, host, keep.kept[-1]))
    return runs


def run_queries(queries: list, tick=None) -> list:
    params, dags = mp_config()
    runs = []
    for q in queries:
        for use_dags in (True, False):
            if tick:
                tick()
            tic = time.perf_counter()
            res = map_planner.plan_final_path(q.p_n, q.goal, q.pcl_lm,
                                              q.map_1, params, dags,
                                              use_dags=use_dags)
            runs.append(MpRun(q, use_dags, res, time.perf_counter() - tic))
    return runs


def run_round(workload: str, inputs: list, tick=None) -> list:
    """One pass over the set; `tick` is called between MP queries (flights
    are ticked through the runtime's schedule, see speed.SpeedClock)."""
    if workload == "mp-replay":
        return run_queries(inputs, tick)
    return run_flights(inputs)


def warm_up(workload: str, inputs: list) -> None:
    """First calls of every layer, outside the timed rounds."""
    if workload == "mp-replay":
        run_queries(inputs[:2])
        return
    run_flights([dataclasses.replace(
        f, scenario=dataclasses.replace(f.scenario, timeout=1.0))
        for f in inputs])


# -- digests ---------------------------------------------------------------

def run_digests(workload: str, runs: list) -> dict:
    """sha256 per episode (trajectory CSV + metrics JSON) or over all plans."""
    if workload != "mp-replay":
        return {r.flight.name: hashlib.sha256(
            (r.result.trajectory_csv() + r.result.metrics_json()).encode()
        ).hexdigest() for r in runs}
    h = hashlib.sha256()
    for r in runs:
        if r.result is None:
            h.update(b"none")
            continue
        h.update(r.result.path.kind.encode())
        h.update(np.ascontiguousarray(r.result.path.waypoints).tobytes())
        h.update(np.ascontiguousarray(r.result.g_l).tobytes())
    return {"plans": h.hexdigest()}
