import heapq
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dualnav import runtime
from dualnav.bench import scenario
from dualnav.geometry import min_clearance, path_clears
from dualnav.map_planner import PlanPath, plan_final_path
from dualnav.mapping import cuboid_cut, local_map, project_2d
from dualnav.pcp import MotionCommand, PcpParams
from dualnav.runtime import (Blackboard, LoopRates, Scenario, run_episode,
                             virtual_schedule)
from dualnav.sim import Box, World

FLIGHT_RATES = scenario("empty", 0).rates


def empty_scenario(world=None, goal=(1.5, 0.0, 1.0), known_world=True,
                   freeze_map=True, **overrides):
    return Scenario(world=world or World(), start=(0.0, 0.0, 1.0), goal=goal,
                    seed=7, known_world=known_world, freeze_map=freeze_map,
                    rates=FLIGHT_RATES, **overrides)


def test_loop_rates_validation():
    with pytest.raises(ValueError):
        LoopRates(filter_hz=0.0)
    with pytest.raises(ValueError):
        LoopRates(sim_dt=-0.1)
    with pytest.raises(ValueError):
        LoopRates(mp_hz=50.0, pcp_hz=10.0)
    # periods that round to 0 us would stall the virtual clock at t = 0
    with pytest.raises(ValueError):
        LoopRates(sim_dt=1e-7)
    with pytest.raises(ValueError):
        LoopRates(pcp_hz=float("inf"))


def test_blackboard_keeps_the_latest_value():
    bb = Blackboard()
    assert bb.read("x") is None
    bb.publish("x", 1)
    bb.publish("x", 2)
    bb.publish("y", None)
    assert bb.read("x") == 2
    assert bb.read("y") is None


def test_virtual_schedule_counts_and_order():
    rates = LoopRates(filter_hz=10.0, mapping_hz=5.0, mp_hz=2.0,
                      pcp_hz=10.0, sim_dt=0.1)
    seq = list(virtual_schedule(rates, 1.0))
    counts = {}
    for _, name in seq:
        counts[name] = counts.get(name, 0) + 1
    # inclusive of both endpoints at exact period multiples
    assert counts == {"filter": 11, "mapping": 6, "mp": 3,
                      "pcp": 11, "sim": 11}
    head = [name for t, name in seq if t == 0.0]
    assert head == ["filter", "mapping", "mp", "pcp", "sim"]
    times = [t for t, _ in seq]
    assert times == sorted(times)


def oracle_schedule(rates, duration):
    """`virtual_schedule` as it was when every filter period ticked."""
    heap = []
    for order, (name, period) in enumerate(rates.periods()):
        heapq.heappush(heap, (0, order, name, int(round(period * 1e6))))
    end_us = int(round(duration * 1e6))
    while heap:
        t_us, order, name, period_us = heapq.heappop(heap)
        if t_us > end_us:
            continue
        yield t_us / 1e6, name
        heapq.heappush(heap, (t_us + period_us, order, name, period_us))


def last_frames(seq):
    """For each mapping and PCP event, the time of the filter event that
    made the frame it reads."""
    frame, seen = None, []
    for t, name in seq:
        if name == "filter":
            frame = t
        elif name in ("mapping", "pcp"):
            seen.append((t, name, frame))
    return seen


hz = st.sampled_from([1.0, 5.0, 7.0, 10.0, 12.0, 30.0, 60.0]) | st.floats(0.5, 80.0)


@st.composite
def schedule_rates(draw):
    """Equal, integer-multiple, coprime and arbitrary loop rates."""
    kind = draw(st.sampled_from(["free", "equal", "multiple"]))
    base = draw(hz)
    filter_hz, mapping_hz, pcp_hz = draw(hz), draw(hz), draw(hz)
    if kind == "equal":
        filter_hz = mapping_hz = pcp_hz = base
    elif kind == "multiple":
        filter_hz = base * draw(st.integers(1, 5))
        mapping_hz = base
        pcp_hz = base * draw(st.integers(1, 3))
    mp_hz = min(draw(hz), pcp_hz)
    return LoopRates(filter_hz=filter_hz, mapping_hz=mapping_hz, mp_hz=mp_hz,
                     pcp_hz=pcp_hz, sim_dt=1.0 / draw(hz))


@given(schedule_rates(), st.sampled_from([0.0, 1.0, 10.0]) | st.floats(0.0, 3.0))
@example(LoopRates(), 1.0)
@example(FLIGHT_RATES, 10.0)
# coprime periods, 1/7 s and 1/3 s
@example(LoopRates(filter_hz=7.0, mapping_hz=3.0, mp_hz=3.0, pcp_hz=3.0,
                   sim_dt=0.05), 2.0)
@example(LoopRates(filter_hz=10.0, mapping_hz=10.0, mp_hz=10.0, pcp_hz=10.0,
                   sim_dt=0.1), 1.0)
def test_virtual_schedule_drops_only_unread_frames(rates, duration):
    got = list(virtual_schedule(rates, duration))
    want = list(oracle_schedule(rates, duration))
    assert ([e for e in got if e[1] != "filter"]
            == [e for e in want if e[1] != "filter"])
    assert set(e for e in got if e[1] == "filter") <= set(
        e for e in want if e[1] == "filter")
    assert last_frames(got) == last_frames(want)


def test_virtual_schedule_filter_counts():
    def filters(seq):
        return sum(name == "filter" for _, name in seq)
    assert filters(oracle_schedule(FLIGHT_RATES, 10.0)) == 301
    assert filters(virtual_schedule(FLIGHT_RATES, 10.0)) == 101
    # at the defaults the PCP reads every frame, so none is dropped
    assert filters(oracle_schedule(LoopRates(), 1.0)) == 31
    assert filters(virtual_schedule(LoopRates(), 1.0)) == 31
    # at twice the readers' rate, only the filter tick at a reader's time runs
    double = LoopRates(filter_hz=20.0, mapping_hz=10.0, mp_hz=10.0,
                       pcp_hz=10.0, sim_dt=0.05)
    assert filters(oracle_schedule(double, 1.0)) == 21
    assert filters(virtual_schedule(double, 1.0)) == 11


def test_dropped_frames_leave_the_flight_unchanged(monkeypatch):
    # past the box's spawn at 10 s: map writes, a replan, the moving box
    sc = scenario("intruder", 3, timeout=11.0)
    got = run_episode(sc)
    monkeypatch.setattr(runtime, "virtual_schedule", oracle_schedule)
    want = run_episode(sc)
    assert got.trajectory_csv() == want.trajectory_csv()
    assert got.metrics_json() == want.metrics_json()
    assert got.events == want.events
    # the box, once mapped, blocks the path
    assert any(kind == "mp_replan" and payload["reason"] == "collided"
               for _, kind, payload in got.events)
    assert got.timing["filter"]["count"] < want.timing["filter"]["count"]


def oracle_mapping_step(self, t):
    """`_EpisodeCore.mapping_step` as it was when every mapping tick built
    the local map and Map_1."""
    pcl4 = self.bb.read("pcl4")
    st = self.bb.read("state")
    if pcl4 is not None and len(pcl4) and not self.sc.freeze_map:
        self.vmap.integrate(pcl4)
    pcl_m = self.vmap.occupied_centers()
    pcl_lm = local_map(self.vmap, st.p, self.sc.map_params)
    map_1 = project_2d(pcl_lm, st.p, self.sc.map_params)
    self.bb.publish("map", (pcl_m, pcl_lm, map_1))


def oracle_mp_step(self, t):
    """`_EpisodeCore.mp_step` reading that three-part snapshot."""
    snap = self.bb.read("map")
    if snap is None:
        return
    pcl_m, pcl_lm, map_1 = snap
    st = self.bb.read("state")
    current = self.bb.read("path")
    if current is not None:
        margin = self.sc.drone_radius + self.sc.map_params.voxel_size / 2.0
        remaining = current.waypoints[max(self.wp_index - 1, 0):]
        clear = min_clearance(remaining, pcl_m) if len(pcl_m) else np.inf
        if clear >= margin:
            return
        reason = "collided"
    else:
        reason = "absent"
    result = runtime.plan_final_path(st.p, self.goal, pcl_lm, map_1,
                                     self.sc.map_params, self.sc.dags_params,
                                     use_dags=self.sc.use_dags)
    self.mp_replans += 1
    if result is None:
        self.bb.publish("path", None)
        self.log(t, "mp_replan", {"reason": reason, "ok": False})
        return
    with self._lock:
        self.wp_index = 1
        self.blocked_rays = set()
    self.bb.publish("path", result.path)
    self.bb.publish("g_l", result.g_l)
    self.log(t, "mp_replan", {"reason": reason, "ok": True,
                              "kind": result.path.kind})


def test_lazy_map_snapshot_leaves_the_flight_unchanged(monkeypatch):
    # MP at 3 Hz, mapping at 7 Hz: the two ticks meet only on whole
    # seconds, so a replan cut around the drone's position at the MP tick
    # instead of the snapshot's would plan on another map
    rates = LoopRates(filter_hz=30.0, mapping_hz=7.0, mp_hz=3.0, pcp_hz=13.0,
                      sim_dt=0.03)
    scenarios = [
        replace(scenario("intruder", 3, timeout=11.0), rates=rates),
        replace(scenario("random", 5, known_world=False, freeze_map=False,
                         timeout=8.0), seed=3, rates=rates)]
    projected = [0]
    planned = []

    def counted_project_2d(*args):
        projected[0] += 1
        return project_2d(*args)

    def recorded_plan(p_n, goal, pcl_lm, map_1, *args, **kwargs):
        planned.append((p_n.tobytes(), pcl_lm.tobytes(),
                        map_1.origin.tobytes(), map_1.cells.tobytes()))
        return plan_final_path(p_n, goal, pcl_lm, map_1, *args, **kwargs)

    monkeypatch.setattr(runtime, "project_2d", counted_project_2d)
    monkeypatch.setattr(runtime, "plan_final_path", recorded_plan)
    got = []
    for sc in scenarios:
        projected[0] = 0
        res = run_episode(sc)
        assert projected[0] == res.metrics["mp_replans"]
        got.append((res, planned[:]))
        planned.clear()
    replans = [e for res, _ in got for e in res.events if e[1] == "mp_replan"]
    assert any(e[0] > 0.0 for e in replans)
    monkeypatch.setattr(runtime._EpisodeCore, "mapping_step",
                        oracle_mapping_step)
    monkeypatch.setattr(runtime._EpisodeCore, "mp_step", oracle_mp_step)
    for sc, (res, inputs) in zip(scenarios, got):
        want = run_episode(sc)
        # the planner saw the same local map and Map_1 at every replan
        assert inputs == planned
        planned.clear()
        assert res.trajectory_csv() == want.trajectory_csv()
        assert res.metrics_json() == want.metrics_json()
        assert res.events == want.events


def unmemoized_mp_step(self, t):
    """`_EpisodeCore.mp_step` as it was before the gate kept its clear
    verdict: every tick that reads a path runs path_clears."""
    snap = self.bb.read("map")
    if snap is None:
        return
    pcl_m, p_map = snap
    st = self.bb.read("state")
    current = self.bb.read("path")
    if current is not None:
        margin = self.sc.drone_radius + self.sc.map_params.voxel_size / 2.0
        remaining = current.waypoints[max(self.wp_index - 1, 0):]
        if path_clears(remaining, pcl_m, margin):
            return
        reason = "collided"
    else:
        reason = "absent"
    pcl_lm = cuboid_cut(pcl_m, p_map, self.sc.map_params)
    map_1 = project_2d(pcl_lm, p_map, self.sc.map_params)
    result = runtime.plan_final_path(st.p, self.goal, pcl_lm, map_1,
                                     self.sc.map_params, self.sc.dags_params,
                                     use_dags=self.sc.use_dags)
    self.mp_replans += 1
    if result is None:
        self.bb.publish("path", None)
        self.log(t, "mp_replan", {"reason": reason, "ok": False})
        return
    with self._lock:
        self.wp_index = 1
        self.blocked_rays = set()
    self.bb.publish("path", result.path)
    self.bb.publish("g_l", result.g_l)
    self.log(t, "mp_replan", {"reason": reason, "ok": True,
                              "kind": result.path.kind})


def test_gate_memo_leaves_the_flight_unchanged(monkeypatch):
    # in both flights the sensor-built map grows until it blocks a path the
    # gate found clear; at the lazy-map test's rates the MP and mapping
    # ticks rarely coincide
    rates = LoopRates(filter_hz=30.0, mapping_hz=7.0, mp_hz=3.0, pcp_hz=13.0,
                      sim_dt=0.03)
    flights = [scenario("intruder", 3),
               replace(scenario("random", 5, known_world=False,
                                freeze_map=False), seed=3)]
    scenarios = flights + [replace(sc, rates=rates) for sc in flights]
    got = [run_episode(sc) for sc in scenarios]
    monkeypatch.setattr(runtime._EpisodeCore, "mp_step", unmemoized_mp_step)
    for sc, res in zip(scenarios, got):
        want = run_episode(sc)
        assert res.trajectory_csv() == want.trajectory_csv()
        assert res.metrics_json() == want.metrics_json()
        assert res.events == want.events
    for res in got[:2]:
        assert any(kind == "mp_replan" and payload["reason"] == "collided"
                   for _, kind, payload in res.events)


def test_gate_checks_each_path_against_a_snapshot_once(monkeypatch):
    # the (path, Pcl_m) pair each MP tick reads, and one entry per gate
    # check; the entries hold their objects, so no id is reused
    reading = [None]
    checked = []
    mp_step = runtime._EpisodeCore.mp_step

    def recorded_mp_step(self, t):
        snap = self.bb.read("map")
        reading[0] = (self.bb.read("path"),
                      None if snap is None else snap[0])
        mp_step(self, t)

    def counted_path_clears(*args):
        checked.append(reading[0])
        return path_clears(*args)

    monkeypatch.setattr(runtime._EpisodeCore, "mp_step", recorded_mp_step)
    monkeypatch.setattr(runtime, "path_clears", counted_path_clears)
    res = run_episode(scenario("wall", 0))
    assert res.status == "goal_reached"
    assert checked
    pairs = [(id(path), id(pcl_m)) for path, pcl_m in checked]
    assert len(pairs) == len(set(pairs))


def test_walled_in_drone_times_out_instead_of_raising():
    # at 47 s inflation walls the drone's own Map_c cell in: the MP finds
    # no path instead of publishing a one-cell one, and the drone holds
    sc = replace(scenario("random", 20, known_world=False, freeze_map=False,
                          timeout=48.0), seed=0)
    res = run_episode(sc)
    assert res.status == "timeout"
    failed = [t for t, kind, payload in res.events
              if kind == "mp_replan" and not payload["ok"]]
    assert failed and failed[0] == 47.0


def test_pcp_heads_for_a_one_waypoint_path():
    core = runtime._EpisodeCore(empty_scenario())
    core.bb.publish("path", PlanPath(np.array([[1.5, 0.0, 1.0]])))
    core.pcp_step(0.0)
    cmd = core.bb.read("cmd")
    assert cmd is not None and cmd.a_n[0] > 0.0


def test_a_replan_during_a_pcp_tick_leaves_the_new_path_unblocked(
        monkeypatch):
    # under the wall clock an MP tick can land while a PCP tick runs; here
    # it replans inside the tick's safety backup, which then brakes. The
    # brake blocks ray 0 of the path the tick read, not of the new path
    core = runtime._EpisodeCore(empty_scenario())
    old = PlanPath(np.array([[0.0, 0.0, 1.0], [1.5, 0.0, 1.0]]))
    core.bb.publish("path", old)
    core.bb.publish("map", (np.zeros((0, 3)), core.state.p))

    def replan_then_brake(*args):
        core.bb.publish("path", None)
        core.mp_step(0.0)
        return MotionCommand(np.zeros(3), mode="backup_brake")

    monkeypatch.setattr(runtime, "das_search", lambda *args, **kw: None)
    monkeypatch.setattr(runtime, "safety_backup", replan_then_brake)
    core.pcp_step(0.0)
    new = core.bb.read("path")
    assert new is not None and new is not old
    assert core.wp_index == 1 and core.blocked_rays == set()


def test_scenario_timeout_default():
    sc = empty_scenario(pcp_params=PcpParams(v_max=0.5, a_max=2.0, r_safe=0.5))
    assert sc.timeout_or_default() == pytest.approx(10.0 * 1.5 / 0.5)
    sc2 = empty_scenario(timeout=3.0)
    assert sc2.timeout_or_default() == 3.0


def test_empty_world_reaches_goal():
    res = run_episode(empty_scenario(), mode="virtual_time")
    assert res.status == "goal_reached"
    assert res.metrics["collisions"] == 0
    # a straight run barely exceeds the 1.5 m separation
    assert res.metrics["trajectory_length"] < 2.0
    assert res.trajectory_csv().startswith("t,x,y,z,vx,vy,vz,mode\n")
    assert '"schema": 1' in res.metrics_json()


def test_trajectory_rows_hold_plain_floats():
    res = run_episode(empty_scenario(), mode="virtual_time")
    assert len(res.trajectory) > 0
    for row in res.trajectory:
        assert len(row) == 8
        assert all(type(v) is float for v in row[:7])
        assert type(row[7]) is str


def test_virtual_mode_is_deterministic():
    a = run_episode(empty_scenario(), mode="virtual_time")
    b = run_episode(empty_scenario(), mode="virtual_time")
    assert a.trajectory_csv() == b.trajectory_csv()
    assert a.metrics_json() == b.metrics_json()


def test_collision_is_detected():
    world = World(static=[Box((1.0, -1.0, 0.0), (2.0, 1.0, 2.0))])
    sc = empty_scenario(world=world, goal=(3.0, 0.0, 1.0), timeout=30.0,
                        known_world=False, freeze_map=False,
                        use_dags=False)
    res = run_episode(sc, mode="virtual_time")
    assert res.status in ("goal_reached", "collision", "timeout")
    if res.status == "collision":
        assert res.metrics["collisions"] == 1


def test_wall_clock_smoke():
    # the 1.5 m hop takes about 5 s of flight at these rates
    sc = empty_scenario(timeout=10.0)
    threads_before = threading.active_count()
    res = run_episode(sc, mode="wall_clock")
    assert threading.active_count() == threads_before
    assert res.status == "goal_reached"
    assert len(res.trajectory) > 0
    for loop in ("filter", "mapping", "mp", "pcp", "sim"):
        assert res.timing[loop]["count"] > 0


def test_wall_clock_raises_a_loop_error(monkeypatch):
    def fail(self, t):
        raise RuntimeError("mp failed")

    monkeypatch.setattr(runtime._EpisodeCore, "mp_step", fail)
    threads_before = threading.active_count()
    tic = time.perf_counter()
    with pytest.raises(RuntimeError, match="mp failed"):
        run_episode(empty_scenario(timeout=10.0), mode="wall_clock")
    assert time.perf_counter() - tic < 5.0
    assert threading.active_count() == threads_before


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        run_episode(empty_scenario(), mode="bogus")
