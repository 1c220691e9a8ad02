import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dualnav.pcl import (OUTLIER_MIN_NEIGHBORS, OUTLIER_RADIUS, VOXEL_SIZE,
                         body_to_earth, distance_filter, filter_pipeline,
                         outlier_filter, voxel_downsample)
from dualnav.sim import Box, SensorParams, World, sense


def test_distance_filter_keeps_order():
    cloud = np.array([[0.1, 0, 0], [9, 0, 0], [0, 0.2, 0]])
    out = distance_filter(cloud)
    assert np.allclose(out, [[0.1, 0, 0], [0, 0.2, 0]])


def test_voxel_downsample_centroids():
    cloud = np.array([[0.05, 0.05, 0.05], [0.15, 0.15, 0.15], [1.0, 1.0, 1.0]])
    out = voxel_downsample(cloud, 0.2)
    assert len(out) == 2
    assert np.allclose(out[0], [0.1, 0.1, 0.1])
    assert np.allclose(out[1], [1.0, 1.0, 1.0])


def test_voxel_downsample_validates():
    for size in (0.0, -0.2, math.nan):
        with pytest.raises(ValueError):
            voxel_downsample(np.zeros((1, 3)), size)


@pytest.mark.parametrize("radius", [0.0, -0.4, math.nan])
def test_outlier_filter_validates(radius):
    with pytest.raises(ValueError):
        outlier_filter(np.zeros((1, 3)), radius, 3)


def test_voxel_downsample_keeps_far_apart_voxels_apart():
    # voxel indices 4e12 apart on every axis
    far = 1e12
    corners = np.array([[x, y, z] for x in (-far, 0.0, far)
                        for y in (-far, 0.0, far) for z in (-far, 0.0, far)])
    cloud = np.concatenate([corners + 0.01, corners + 0.03])
    out = voxel_downsample(cloud, 0.25)
    assert len(out) == 27
    assert np.allclose(out, corners + 0.02, rtol=0.0, atol=1e-3)


def test_voxel_downsample_negative_voxel_boundaries():
    # a voxel holds its lower faces: -0.5 shares a voxel with -0.25, while
    # just below -0.5 (or -1.0) starts the next voxel down; -0.0 is 0
    cloud = np.array([
        [-0.5, -1.0, -0.5],
        [-0.25, -0.75, -0.25],
        [-0.5 - 1e-9, -1.0, -0.5],
        [-1.0, -1.0 - 1e-9, -0.5],
        [-0.0, 0.0, -0.5],
        [0.0, -0.0, -0.5 + 1e-9],
    ])
    out = voxel_downsample(cloud, 0.5)
    want = np.array([
        (cloud[0] + cloud[1]) / 2.0,
        cloud[2],
        cloud[3],
        (cloud[4] + cloud[5]) / 2.0,
    ])
    assert np.allclose(out, want, rtol=0.0, atol=1e-15)


def test_outlier_filter_removes_lonely_points():
    cluster = np.tile([0.0, 0.0, 0.0], (5, 1)) + 0.01 * np.arange(5)[:, None]
    lonely = np.array([[10.0, 10.0, 10.0]])
    out = outlier_filter(np.vstack([cluster, lonely]), 0.4, 3)
    assert len(out) == 5
    assert np.max(np.abs(out)) < 1.0


def _surface_distance(points, box):
    """Each point's distance to the surface of the box."""
    lo, hi = box.arrays()
    outside = np.linalg.norm(points - np.clip(points, lo, hi), axis=1)
    inside = np.minimum(points - lo, hi - points).min(axis=1)
    return np.where(outside > 0.0, outside, inside)


def test_sensed_points_land_on_the_world():
    """sense returns a yaw-aligned body frame and body_to_earth undoes it:
    every noise-free hit lies on a wall or on the floor. The room is off
    centre, so a rotation the wrong way puts the hits off the walls."""
    walls = [Box((2.0, -4.0, 0.0), (2.5, 4.0, 3.0)),
             Box((-3.1, -4.0, 0.0), (-2.8, 4.0, 3.0)),
             Box((-4.0, 1.7, 0.0), (4.0, 2.0, 3.0)),
             Box((-4.0, -2.6, 0.0), (4.0, -2.3, 3.0))]
    world = World(static=walls, ground_z=0.0)
    p = np.array([0.3, -0.2, 1.0])
    for yaw in (0.0, math.pi / 2, -math.pi / 2, math.pi, 0.7):
        cloud = sense(world, p, yaw, SensorParams(noise_coeff=0.0), 0.0,
                      seed=0)
        earth = body_to_earth(cloud, p, yaw)
        on_wall = np.min([_surface_distance(earth, b) for b in walls], axis=0)
        on_floor = np.abs(earth[:, 2] - world.ground_z)
        assert (on_wall <= 1e-9).sum() > 100, yaw
        assert np.all(np.minimum(on_wall, on_floor) <= 1e-9), yaw


def test_filter_pipeline_ground_removal():
    # a 2 x 2 patch of wall returns 0.25 m apart, which vouch for each
    # other, and two floor returns below it, each with three neighbours,
    # noise-free: only the floor cut removes the floor returns
    cloud_body = np.array([[2.0, y, z] for z in (-0.75, -0.5, -1.0)
                           for y in (0.0, 0.25)])
    out = filter_pipeline(cloud_body, (0.0, 0.0, 1.0), 0.0, ground_z=0.05)
    assert len(out) == 4
    assert np.all(out[:, 2] > 0.2)
    assert len(filter_pipeline(cloud_body, (0.0, 0.0, 1.0), 0.0)) == 6


def test_filter_pipeline_floor_returns_do_not_vouch_for_obstacles():
    # three wall returns whose third neighbour is a floor return: the floor
    # goes before the outlier filter, which then drops the wall returns too
    cloud_body = np.array([[2.0, 0.05, -0.75], [2.0, 0.3, -0.75],
                           [2.25, 0.15, -0.75], [2.1, 0.15, -1.0]])
    out = filter_pipeline(cloud_body, (0.0, 0.0, 1.0), 0.0, ground_z=0.05)
    assert out.shape == (0, 3)
    assert len(filter_pipeline(cloud_body, (0.0, 0.0, 1.0), 0.0)) == 4


def _stage_chain(cloud_body, position, yaw, ground_z=None):
    """The filter stages in their order before the floor cut moved to the
    head of the chain: distance, voxel, outlier, Earth frame, then the cut."""
    pcl_1 = distance_filter(cloud_body)
    pcl_2 = voxel_downsample(pcl_1, VOXEL_SIZE)
    pcl_3 = outlier_filter(pcl_2, OUTLIER_RADIUS, OUTLIER_MIN_NEIGHBORS)
    pcl_4 = body_to_earth(pcl_3, position, yaw)
    if ground_z is not None:
        pcl_4 = pcl_4[pcl_4[:, 2] > ground_z]
    return pcl_4


@st.composite
def floor_scenes(draw):
    """A body cloud in clusters on a 0.05 m lattice or off it, with returns
    below, at and above the floor cut; when `floorless`, only above it."""
    pz = draw(st.sampled_from([0.5, 1.0, 1.25, 3.0]) | st.floats(0.1, 3.0))
    ground_z = draw(st.sampled_from([0.0, 0.05, 0.25, -0.5])
                    | st.floats(-0.5, 0.5))
    position = (draw(st.floats(-20.0, 20.0)), draw(st.floats(-20.0, 20.0)),
                pz)
    yaw = draw(st.sampled_from([0.0, math.pi / 2, -math.pi])
               | st.floats(-math.pi, math.pi))
    floorless = draw(st.booleans())
    offsets = (st.sampled_from([0.01, 0.05, 0.1, 0.2, 1.0])
               | st.floats(1e-9, 3.0)) if floorless else (
        st.sampled_from([-0.2, -0.05, 0.0, 0.0, 0.05, 0.2, 1.0])
        | st.floats(-1.0, 3.0))
    lattice = draw(st.booleans())
    points = []
    for _ in range(draw(st.integers(0, 4))):
        centre = (draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0)))
        spread = draw(st.sampled_from([0.1, 0.5, 2.0]))
        for _ in range(draw(st.integers(1, 25))):
            x, y = (c + draw(st.floats(-spread, spread)) for c in centre)
            if lattice:
                x, y = round(x * 20.0) / 20.0, round(y * 20.0) / 20.0
            # ground_z - pz is the body z of the cut, up to one rounding
            points.append((x, y, ground_z - pz + draw(offsets)))
    cloud = np.array(points, dtype=float).reshape(-1, 3)
    return cloud, position, yaw, ground_z


@given(floor_scenes())
@example((np.array([[2.0, 0.0, 0.0], [2.0, 0.1, -1.0], [2.0, 0.05, -1.0]]),
          (0.0, 0.0, 1.0), 0.3, 0.0))
# three returns just above the cut whose centroid rounds onto it, and three
# neighbours: only the final cut drops that centroid
@example((np.array([[1.0, 0.5, -2.719059361077343]] * 3
                   + [[1.0, 0.7, -2.719059361077343],
                      [1.0, 0.3, -2.719059361077343],
                      [1.3, 0.5, -2.719059361077343]]),
          (0.0, 0.0, 2.8440593610773433), 0.0, 0.125))
def test_filter_pipeline_is_the_stage_chain_on_the_returns_above_the_cut(
        scene):
    cloud, position, yaw, ground_z = scene
    out = filter_pipeline(cloud, position, yaw, ground_z=ground_z)
    assert out.shape[1] == 3
    assert np.all(out[:, 2] > ground_z)
    above = body_to_earth(cloud, position, yaw)[:, 2] > ground_z
    want = _stage_chain(cloud[above], position, yaw, ground_z)
    assert out.tobytes() == want.tobytes()
    if above.all():
        # no return at or below the cut: the old order's bytes
        old = _stage_chain(cloud, position, yaw, ground_z)
        assert out.tobytes() == old.tobytes()
    no_cut = filter_pipeline(cloud, position, yaw)
    assert no_cut.tobytes() == _stage_chain(cloud, position, yaw).tobytes()


def test_filter_pipeline_empty():
    out = filter_pipeline(np.zeros((0, 3)), (0, 0, 0), 0.0)
    assert out.shape == (0, 3)
