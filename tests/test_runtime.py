import threading

import numpy as np
import pytest

from dualnav.pcp import PcpParams
from dualnav.runtime import (Blackboard, EpisodeResult, LoopRates, Scenario,
                             run_episode, virtual_schedule)
from dualnav.sim import Box, World


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


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        run_episode(empty_scenario(), mode="bogus")
