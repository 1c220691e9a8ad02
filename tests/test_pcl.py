import math

import numpy as np
import pytest

from dualnav.pcl import (FilterParams, body_to_earth, distance_filter,
                         filter_pipeline, outlier_filter, voxel_downsample)
from dualnav.sim import Box, SensorParams, World, sense


def test_distance_filter_keeps_order():
    cloud = np.array([[0.1, 0, 0], [9, 0, 0], [0, 0.2, 0]])
    out = distance_filter(cloud, 4.5)
    assert np.allclose(out, [[0.1, 0, 0], [0, 0.2, 0]])


def test_voxel_downsample_centroids():
    cloud = np.array([[0.05, 0.05, 0.05], [0.15, 0.15, 0.15], [1.0, 1.0, 1.0]])
    out = voxel_downsample(cloud, 0.2)
    assert len(out) == 2
    assert np.allclose(out[0], [0.1, 0.1, 0.1])
    assert np.allclose(out[1], [1.0, 1.0, 1.0])


def test_voxel_downsample_validates():
    with pytest.raises(ValueError):
        voxel_downsample(np.zeros((1, 3)), 0.0)


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
    # one wall return and one floor return, noise-free
    cloud_body = np.array([[2.0, 0.0, 0.0], [1.0, 0.0, -1.0]])
    params = FilterParams(outlier_min_neighbors=1, outlier_radius=3.0)
    out = filter_pipeline(cloud_body, (0.0, 0.0, 1.0), 0.0, params,
                          ground_z=0.05)
    assert len(out) == 1
    assert out[0][2] > 0.5


def test_filter_pipeline_empty():
    out = filter_pipeline(np.zeros((0, 3)), (0, 0, 0), 0.0, FilterParams())
    assert out.shape == (0, 3)
