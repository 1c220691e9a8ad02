import heapq
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dualnav import runtime
from dualnav.bench import flight_scenario, intruder_world
from dualnav.pcp import PcpParams
from dualnav.runtime import (Blackboard, EpisodeResult, LoopRates, Scenario,
                             run_episode, virtual_schedule)
from dualnav.sim import Box, World

FLIGHT_RATES = dict(filter_hz=30.0, mapping_hz=10.0, mp_hz=5.0, pcp_hz=10.0,
                    sim_dt=0.05)


def empty_scenario(**overrides):
    kwargs = dict(world=World(), start=(0.0, 0.0, 1.0), goal=(1.5, 0.0, 1.0),
                  seed=7, known_world=True, freeze_map=True,
                  rates=LoopRates(filter_hz=30.0, mapping_hz=10.0, mp_hz=5.0,
                                  pcp_hz=10.0, sim_dt=0.05))
    kwargs.update(overrides)
    return Scenario(**kwargs)


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


def test_blackboard_versioning():
    bb = Blackboard()
    assert bb.read("x") is None
    bb.publish("x", 1)
    bb.publish("x", 2)
    version, value = bb.read_versioned("x")
    assert version == 2 and value == 2


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
@example(LoopRates(**FLIGHT_RATES), 10.0)
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
    flight = LoopRates(**FLIGHT_RATES)
    assert filters(oracle_schedule(flight, 10.0)) == 301
    assert filters(virtual_schedule(flight, 10.0)) == 101
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
    world, start, goal = intruder_world()
    sc = flight_scenario(world, start, goal, seed=3, known_world=False,
                         freeze_map=False, timeout=11.0)
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
