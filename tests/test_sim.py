import math

import numpy as np
import pytest

from dualnav.sim import (Box, DroneState, DynamicObstacle, SensorParams,
                         World, check_collision, scan_world, sense,
                         step_dynamics)


def test_box_validation():
    with pytest.raises(ValueError):
        Box((0, 0, 0), (0, 1, 1))


def test_dynamic_obstacle_schedule():
    d = DynamicObstacle(size=(1, 1, 1), times=[1.0, 3.0],
                        positions=[(0, 0, 0), (2, 0, 0)])
    assert d.center_at(0.5) is None
    assert np.allclose(d.center_at(2.0), [1, 0, 0])
    assert np.allclose(d.center_at(10.0), [2, 0, 0])
    box = d.box_at(3.0)
    assert np.allclose(box.lo, [1.5, -0.5, -0.5])


def test_sense_noise_free_geometry():
    w = World(static=[Box((2.0, -5.0, -5.0), (3.0, 5.0, 5.0))])
    sensor = SensorParams(noise_coeff=0.0)
    cloud = sense(w, (0.0, 0.0, 0.0), 0.0, sensor, 0.0, seed=0)
    assert len(cloud) > 0
    # the facing wall plane is at body x == 2
    assert np.allclose(cloud[:, 0], 2.0, atol=1e-9)


def test_sense_deterministic_per_time_and_seed():
    w = World(static=[Box((2.0, -5.0, -5.0), (3.0, 5.0, 5.0))])
    sensor = SensorParams()
    a = sense(w, (0, 0, 0), 0.0, sensor, 1.25, seed=3)
    b = sense(w, (0, 0, 0), 0.0, sensor, 1.25, seed=3)
    c = sense(w, (0, 0, 0), 0.0, sensor, 1.30, seed=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sense_yaw_rotation():
    w = World(static=[Box((-3.0, 2.0, -5.0), (3.0, 3.0, 5.0))])
    sensor = SensorParams(noise_coeff=0.0)
    cloud = sense(w, (0, 0, 0), math.pi / 2.0, sensor, 0.0, seed=0)
    # wall at Earth y=2 appears ahead in the body frame after a 90 deg yaw
    assert len(cloud) > 0
    assert np.allclose(cloud[:, 0], 2.0, atol=1e-9)


def test_sense_ground_plane():
    w = World(ground_z=0.0)
    sensor = SensorParams(noise_coeff=0.0)
    cloud = sense(w, (0, 0, 1.0), 0.0, sensor, 0.0, seed=0)
    assert len(cloud) > 0
    assert np.allclose(cloud[:, 2], -1.0, atol=1e-9)


def test_sense_origin_on_ground_plane_with_noise():
    # every ray hits the plane at distance -0.0, and numpy's normal rejects
    # a noise scale of -0.0
    cloud = sense(World(ground_z=0.0), (0, 0, 0), 0.0, SensorParams(), 0.0, 0)
    assert len(cloud) > 0
    assert np.all(cloud == 0.0)


def test_step_dynamics_exact_and_clamped():
    st = DroneState(p=np.zeros(3), v=np.array([1.0, 0, 0]))
    out = step_dynamics(st, np.array([2.0, 0, 0]), 0.5, v_max=10.0)
    assert np.allclose(out.p, [0.75, 0, 0])
    assert np.allclose(out.v, [2.0, 0, 0])
    clamped = step_dynamics(st, np.array([100.0, 0, 0]), 1.0, v_max=2.0)
    assert np.linalg.norm(clamped.v) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        step_dynamics(st, np.zeros(3), 0.0, 1.0)


def test_check_collision_sphere():
    w = World(static=[Box((1, -1, -1), (2, 1, 1))])
    assert check_collision(w, (0.9, 0, 0), 0.15, 0.0)
    assert not check_collision(w, (0.8, 0, 0), 0.15, 0.0)


def test_check_collision_dynamic_timing():
    w = World(dynamic=[DynamicObstacle((1, 1, 1), [5.0], [(0, 0, 0)])])
    assert not check_collision(w, (0, 0, 0), 0.1, 1.0)
    assert check_collision(w, (0, 0, 0), 0.1, 6.0)


def test_scan_world_shell():
    w = World(static=[Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))])
    pts = scan_world(w, voxel_size=0.2)
    # 5^3 voxel cube minus the 3^3 interior
    assert len(pts) == 125 - 27
    assert np.min(pts) == pytest.approx(0.1)
    assert np.max(pts) == pytest.approx(0.9)
