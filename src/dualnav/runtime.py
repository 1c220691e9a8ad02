"""Concurrent orchestration of the four planning loops plus the simulator.

One dispatch path, `_EpisodeCore.tick`, runs and times every loop tick under
either of two clocks. Virtual-time mode runs everything single-threaded on a
deterministic event heap and is used for all correctness tests; wall-clock
mode paces each loop on its own thread on the host clock, so its flights
depend on thread timing and serve timing measurements. Under both clocks
the PCP ticks once per PCP period and plans each command over that period,
the time the simulator holds it.

Virtual time leaves out the filter ticks whose frame no loop reads: a frame
that the next filter tick replaces before any mapping or PCP tick would
read it is never made (see `virtual_schedule`). The flights are the same to
the byte, but under this clock the filter's tick count in
`EpisodeResult.timing` counts frames made, not filter periods; a frame's age
is the reader's time minus the time of the filter tick that made it.

The mapping tick publishes the map as a snapshot `(pcl_m, p)`: the occupied
voxel centres and the drone position at that tick. The MP derives the local
map Pcl_lm and its projection Map_1 from the snapshot only when it replans,
so a snapshot that no replan reads costs nothing beyond the integration.

Each Blackboard slot and core field has one writer loop, and the loops
take no lock beyond the Blackboard's. The filter writes `pcl4`; mapping,
`vmap` and `map`; the MP, `path`, `g_l`, `mp_replans` and `mp_cleared`; the
PCP, `cmd`, `progress`, `prev_p`, `pcp_steps` and `backup_count`; the sim,
`state`, `status` and `trajectory`. `events` and `timing` are append-only
records that no loop reads. `progress` is one tuple `(path, wp_index,
blocked)` keyed by the path object the PCP read: a new path starts at index
1 with no blocked ray, and a given-up one has index None; the MP replans it.

The MP's validity gate keeps the (path, Pcl_m) pair it last found clear,
both references held, and skips `path_clears` when a tick reads the same
two objects (compared with `is`). The kept verdict is the one a new check
would give, because:
- every replan publishes a new `PlanPath`;
- `VoxelMap.occupied_centers` returns the same read-only array until the
  voxel set changes, and a new one after; a map that forgets voxels must
  keep this, publishing a new read-only array whenever it changes;
- the PCP's index on a path only grows, so each later remaining path is
  the one checked or a suffix of it with at least two waypoints, until the
  PCP gives the path up, which the MP checks before the memo;
- `path_clears` answers `min_clearance >= margin`, and over a suffix that
  is a minimum over a subset of the same per-segment distances.
A blocked verdict always replans, so only clear verdicts are kept.
"""
from __future__ import annotations

import heapq
import io
import json
import math
import threading
import time as time_mod
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .geometry import norm, path_clears, path_length, row_norms
from .map_planner import DagsParams, plan_final_path
from .mapping import LocalMapParams, VoxelMap, cuboid_cut, project_2d
from .pcl import filter_pipeline
from .pcp import (R_DEC, R_DET, WAYPOINT_DIST, PcpParams, compute_goal,
                  das_search, hold, plan_motion, safety_backup, streamline)
from .sim import (DroneState, SensorParams, World, check_collision,
                  scan_world, sense, step_dynamics)


SENSOR = SensorParams()


@dataclass
class LoopRates:
    filter_hz: float = 30.0
    mapping_hz: float = 10.0
    mp_hz: float = 12.0
    pcp_hz: float = 60.0
    sim_dt: float = 1.0 / 60.0

    def __post_init__(self):
        if min(self.filter_hz, self.mapping_hz, self.mp_hz, self.pcp_hz) <= 0:
            raise ValueError("all rates must be positive")
        if self.sim_dt <= 0:
            raise ValueError("sim_dt must be positive")
        if self.pcp_hz < self.mp_hz:
            raise ValueError("pcp rate must be >= mp rate")
        # virtual time counts whole microseconds; a 0 us period never advances
        if min(int(round(p * 1e6)) for _, p in self.periods()) < 1:
            raise ValueError("every loop period must be at least 1 us")

    def periods(self):
        """(loop, period) for the five loops, in the order simultaneous ticks
        fire."""
        return (("filter", 1.0 / self.filter_hz),
                ("mapping", 1.0 / self.mapping_hz),
                ("mp", 1.0 / self.mp_hz),
                ("pcp", 1.0 / self.pcp_hz),
                ("sim", self.sim_dt))


class Blackboard:
    """Latest-value snapshot slots."""

    def __init__(self):
        self._slots = {}
        self._lock = threading.Lock()

    def publish(self, name: str, value):
        with self._lock:
            self._slots[name] = value

    def read(self, name: str):
        with self._lock:
            return self._slots.get(name)


@dataclass
class Scenario:
    world: World
    start: tuple
    goal: tuple
    seed: int = 0
    map_params: LocalMapParams = field(default_factory=LocalMapParams)
    dags_params: DagsParams = field(default_factory=DagsParams)
    pcp_params: PcpParams = field(default_factory=PcpParams)
    rates: LoopRates = field(default_factory=LoopRates)
    use_dags: bool = True
    known_world: bool = False     # pre-seed the voxel map from world geometry
    freeze_map: bool = False      # skip in-flight map integration (known worlds)
    drone_radius: ClassVar[float] = 0.15
    goal_tol: ClassVar[float] = 0.3
    timeout: float | None = None       # default 10 * distance / v_max

    def timeout_or_default(self) -> float:
        if self.timeout is not None:
            return self.timeout
        dist = float(np.linalg.norm(np.asarray(self.goal, dtype=float)
                                    - np.asarray(self.start, dtype=float)))
        return 10.0 * max(dist, 1.0) / self.pcp_params.v_max


@dataclass
class EpisodeResult:
    status: str                  # goal_reached | collision | timeout
    trajectory: list             # rows (t, x, y, z, vx, vy, vz, mode)
    events: list                 # (time, kind, payload) tuples
    metrics: dict
    timing: dict                 # wall-clock loop stats, excluded from metrics

    def trajectory_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t,x,y,z,vx,vy,vz,mode\n")
        for row in self.trajectory:
            t, x, y, z, vx, vy, vz, mode = row
            buf.write("%.6f,%.9f,%.9f,%.9f,%.9f,%.9f,%.9f,%s\n"
                      % (t, x, y, z, vx, vy, vz, mode))
        return buf.getvalue()

    def metrics_json(self) -> str:
        return json.dumps({"schema": 1, "status": self.status,
                           **self.metrics}, sort_keys=True)


def virtual_schedule(rates: LoopRates, duration: float):
    """Deterministic event sequence (time, loop) over a virtual duration.

    Loops fire at exact multiples of their periods; simultaneous events fire
    in the order of `LoopRates.periods`. A filter tick is left out when the
    filter's next tick comes no later than the next mapping or PCP tick, the
    only loops that read its frame: no loop would read that frame before it
    is replaced. The filter fires first at equal times, so a reader always
    sees the frame of the last filter period at or before it, as if every
    filter tick ran; the frame is a pure function of the published state,
    the time and the seed, so the reader gets the same bytes.
    """
    # integer microsecond clock avoids float-accumulation drift
    heap = []
    for order, (name, period) in enumerate(rates.periods()):
        heapq.heappush(heap, (0, order, name, int(round(period * 1e6))))
    end_us = int(round(duration * 1e6))
    while heap:
        t_us, order, name, period_us = heapq.heappop(heap)
        if t_us > end_us:
            continue
        heapq.heappush(heap, (t_us + period_us, order, name, period_us))
        if name == "filter" and t_us + period_us <= min(
                e[0] for e in heap if e[2] in ("mapping", "pcp")):
            continue
        yield t_us / 1e6, name


class _EpisodeCore:
    """Shared loop bodies for both execution modes."""

    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self.bb = Blackboard()
        self.world = scenario.world
        self.vmap = VoxelMap(scenario.map_params.voxel_size)
        if scenario.known_world:
            self.vmap.integrate(scan_world(self.world,
                                           scenario.map_params.voxel_size))
        self.state = DroneState(
            p=np.asarray(scenario.start, dtype=float).copy(),
            v=np.zeros(3), yaw=self._initial_yaw())
        self.goal = np.asarray(scenario.goal, dtype=float)
        # PCP horizon t_avs: each command holds until the next PCP tick
        self.t_avs = 1.0 / scenario.rates.pcp_hz
        self.events = []
        self.trajectory = []
        self.status = None
        self.progress = (None, 1, frozenset())  # (path, wp_index, blocked)
        self.prev_p = self.state.p.copy()
        self.pcp_steps = 0
        self.mp_replans = 0
        self.mp_cleared = (None, None)   # (path, pcl_m) last found clear
        self.backup_count = 0
        self.timing = {name: [] for name, _ in scenario.rates.periods()}
        self.bb.publish("state", self.state)

    def _initial_yaw(self):
        d = np.asarray(self.sc.goal, dtype=float) - np.asarray(
            self.sc.start, dtype=float)
        return math.atan2(d[1], d[0])

    def log(self, t, kind, payload=None):
        self.events.append((round(t, 6), kind, payload))

    def tick(self, name, t):
        """Run one tick of loop `name` at time t and record its wall time."""
        tic = time_mod.perf_counter()
        getattr(self, name + "_step")(t)
        self.timing[name].append(time_mod.perf_counter() - tic)

    # -- loop bodies --------------------------------------------------------

    def filter_step(self, t):
        st = self.bb.read("state")
        cloud_body = sense(self.world, st.p, st.yaw, SENSOR, t, self.sc.seed)
        ground = self.world.ground_z
        if ground is not None:
            # keep the floor out of the map even with range noise on the hits
            ground = ground + 5.0 * SENSOR.noise_coeff * SENSOR.max_range
        pcl4 = filter_pipeline(cloud_body, st.p, st.yaw, ground_z=ground)
        self.bb.publish("pcl4", pcl4)

    def mapping_step(self, t):
        """Integrate the latest frame and publish the map snapshot
        (pcl_m, p): the read-only occupied voxel centres and the position
        the local map is cut around."""
        pcl4 = self.bb.read("pcl4")
        st = self.bb.read("state")
        if pcl4 is not None and len(pcl4) and not self.sc.freeze_map:
            self.vmap.integrate(pcl4)
        self.bb.publish("map", (self.vmap.occupied_centers(), st.p))

    def mp_step(self, t):
        """Replan when there is no path or the map blocks it. A replan cuts
        Pcl_lm and projects Map_1 around the snapshot's position, not the
        drone's current one: the two differ when the MP and mapping ticks
        do not coincide."""
        snap = self.bb.read("map")
        if snap is None:
            return
        pcl_m, p_map = snap
        st = self.bb.read("state")
        current = self.bb.read("path")
        wp_index, _ = self._progress_on(current)
        reason = "absent"               # no path, or the PCP gave it up
        if current is not None and wp_index is not None:
            # replan only when the path intersects the map within the drone's
            # own footprint: the grid planner guarantees about half a voxel of
            # chord clearance, so an r_safe gate would replan on every cycle.
            # path_clears answers as the full min_clearance scan would; the
            # module docstring says why a clear verdict on a pair is kept.
            cleared_path, cleared_map = self.mp_cleared
            if current is cleared_path and pcl_m is cleared_map:
                return                      # suspended: path still valid
            margin = self.sc.drone_radius + self.sc.map_params.voxel_size / 2.0
            remaining = current.waypoints[max(wp_index - 1, 0):]
            if path_clears(remaining, pcl_m, margin):
                self.mp_cleared = (current, pcl_m)
                return                      # suspended: path still valid
            reason = "collided"
        pcl_lm = cuboid_cut(pcl_m, p_map, self.sc.map_params)
        map_1 = project_2d(pcl_lm, p_map, self.sc.map_params)
        result = plan_final_path(st.p, self.goal, pcl_lm, map_1,
                                 self.sc.map_params, self.sc.dags_params,
                                 use_dags=self.sc.use_dags)
        self.mp_replans += 1
        if result is None:
            self.bb.publish("path", None)
            self.log(t, "mp_replan", {"reason": reason, "ok": False})
            return
        self.bb.publish("path", result.path)
        self.bb.publish("g_l", result.g_l)
        self.log(t, "mp_replan", {"reason": reason, "ok": True,
                                  "kind": result.path.kind})

    def _progress_on(self, path):
        """The PCP's progress on `path`: (wp_index, blocked rays)."""
        seen, wp_index, blocked = self.progress
        return (wp_index, blocked) if path is seen else (1, frozenset())

    def pcp_step(self, t):
        sc = self.sc
        pp = sc.pcp_params
        st = self.bb.read("state")
        self.pcp_steps += 1
        path = self.bb.read("path")
        wp_index, blocked = self._progress_on(path)
        if path is None or wp_index is None:
            self.bb.publish("cmd", hold(st.v, self.t_avs, pp.a_max))
            return
        wp = path.waypoints
        while wp_index < len(wp) - 1:
            cur = wp[wp_index]
            seg = cur - wp[wp_index - 1]
            # a waypoint counts as reached when the drone is close or has
            # crossed the plane through it, so an avoidance swing past a
            # corner never drags the drone back to the corner itself
            if not (norm(st.p - cur) < 0.35
                    or float(np.dot(st.p - cur, seg)) > 0.0):
                break
            wp_index, blocked = wp_index + 1, frozenset()
        # a one-waypoint path starts with wp_index past its end
        remaining = wp[min(wp_index, len(wp) - 1):]
        end = wp[-1]
        if (norm(st.p - end) < sc.goal_tol
                and norm(end - self.goal) > sc.goal_tol):
            # local goal reached but not the global one: give the path up
            self.progress = (path, None, blocked)
            self.bb.publish("cmd", hold(st.v, self.t_avs, pp.a_max))
            return
        g_n = compute_goal(st.p, st.v, remaining)
        cloud = self._pcp_cloud(st.p, g_n)
        dist_goal = norm(end - st.p)
        wd = WAYPOINT_DIST * min(1.0, max(dist_goal / R_DEC, 0.1))
        found = das_search(st.p, g_n, cloud, pp, waypoint_dist=wd,
                           excluded=blocked)
        if found is None:
            cmd = safety_backup(st.p, st.v, self.prev_p, cloud, pp, blocked)
            self.backup_count += 1
            self.log(t, "backup_triggered", {"mode": cmd.mode})
            if cmd.mode == "backup_brake":
                blocked = blocked | {0}
        else:
            w_pn, ray_idx = found
            cmd = plan_motion(st.p, st.v, w_pn, self.t_avs, pp)
            if ray_idx:     # ray 0 heads straight for the goal point
                self.log(t, "pcp_ray", {"ray": ray_idx})
        self.progress = (path, wp_index, blocked)
        self.prev_p = st.p.copy()
        self.bb.publish("cmd", cmd)

    def _pcp_cloud(self, p, g_n):
        """The PCP's collision-check cloud: the frame's points within R_DET,
        streamlined, and the map's, sorted by distance to p.

        Each point's distance is computed once, row-wise; a row's norm does
        not depend on the other rows, so every cut and sort sees the bytes
        it would get from the rows it keeps.
        """
        parts, dists = [], []
        pcl4 = self.bb.read("pcl4")
        if pcl4 is not None and len(pcl4):
            d = row_norms(pcl4 - p)
            keep = d <= R_DET
            near, d = pcl4[keep], d[keep]
            if len(near):
                order = np.argsort(d, kind="stable")
                near, d = near[order], d[order]
                kept = streamline(near, d, p, g_n,
                                  seed=self.sc.seed + self.pcp_steps)
                parts.append(near[kept])
                dists.append(d[kept])
        snap = self.bb.read("map")
        if snap is not None:
            pcl_m = snap[0]
            if len(pcl_m):
                d = row_norms(pcl_m - p)
                keep = d <= R_DET
                parts.append(pcl_m[keep])
                dists.append(d[keep])
        if not parts:
            return np.zeros((0, 3))
        order = np.argsort(np.concatenate(dists), kind="stable")
        return np.vstack(parts)[order]

    def sim_step(self, t):
        dt = self.sc.rates.sim_dt
        cmd = self.bb.read("cmd")
        a = cmd.a_n if cmd is not None else np.zeros(3)
        mode = cmd.mode if cmd is not None else "hold"
        self.state = step_dynamics(self.state, a, dt,
                                   self.sc.pcp_params.v_max)
        g_l = self.bb.read("g_l")
        head_to = g_l if g_l is not None else self.goal
        d = head_to - self.state.p
        if np.hypot(d[0], d[1]) > 0.2:
            self.state.yaw = math.atan2(d[1], d[0])
        self.bb.publish("state", self.state)
        self.trajectory.append((t + dt, *self.state.p.tolist(),
                                *self.state.v.tolist(), mode))
        if check_collision(self.world, self.state.p, self.sc.drone_radius,
                           t + dt):
            self.status = "collision"
            self.log(t + dt, "collision", None)
        elif norm(self.state.p - self.goal) < self.sc.goal_tol:
            self.status = "goal_reached"
            self.log(t + dt, "goal_reached", None)

    # -- result assembly ----------------------------------------------------

    def result(self) -> EpisodeResult:
        traj = np.array([row[:7] for row in self.trajectory], dtype=float)
        length = path_length(traj[:, 1:4]) if len(traj) > 1 else 0.0
        metrics = {
            "trajectory_length": round(float(length), 9),
            "duration": round(float(traj[-1, 0]), 6) if len(traj) else 0.0,
            "mp_replans": self.mp_replans,
            "pcp_steps": self.pcp_steps,
            "backup_activations": self.backup_count,
            "collisions": 1 if self.status == "collision" else 0,
        }
        timing = {name: {
            "count": len(vals),
            "mean_ms": (1e3 * float(np.mean(vals))) if vals else 0.0,
            "max_ms": (1e3 * float(np.max(vals))) if vals else 0.0,
        } for name, vals in self.timing.items()}
        return EpisodeResult(status=self.status or "timeout",
                             trajectory=self.trajectory, events=self.events,
                             metrics=metrics, timing=timing)


def run_episode(scenario: Scenario, mode: str = "virtual_time") -> EpisodeResult:
    if mode not in ("virtual_time", "wall_clock"):
        raise ValueError("mode must be virtual_time or wall_clock")
    core = _EpisodeCore(scenario)
    timeout = scenario.timeout_or_default()
    if mode == "virtual_time":
        for t, name in virtual_schedule(scenario.rates, timeout):
            core.tick(name, t)
            if core.status is not None:
                break
    else:
        _run_wall_clock(core, timeout)
    return core.result()


def _run_wall_clock(core: _EpisodeCore, timeout: float) -> None:
    """One thread per loop, each paced at its period on the host clock; a
    tick that starts late moves the loop's next tick to one period on. The
    first exception in any loop stops them all and is raised after the join."""
    stop = threading.Event()
    errors = []
    start = time_mod.perf_counter()

    def pace(name, period):
        next_t = 0.0
        try:
            while not stop.is_set():
                t = time_mod.perf_counter() - start
                if t >= timeout:
                    break
                if t < next_t:
                    time_mod.sleep(min(next_t - t, 0.002))
                    continue
                core.tick(name, t)
                if core.status is not None:
                    stop.set()
                next_t += period
                if next_t < t:
                    next_t = t + period
        except BaseException as exc:    # re-raised below, after the join
            errors.append(exc)
            stop.set()

    threads = [threading.Thread(target=pace, args=loop)
               for loop in core.sc.rates.periods()]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    if errors:
        raise errors[0]
