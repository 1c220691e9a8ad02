import numpy as np
import pytest

from dualnav.pcl import (FilterParams, Pose, body_to_earth, distance_filter,
                         earth_to_body, filter_pipeline, outlier_filter,
                         voxel_downsample)


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


def test_body_earth_roundtrip():
    rng = np.random.default_rng(3)
    cloud = rng.normal(size=(20, 3))
    pose = Pose(position=(1.0, -2.0, 0.5), yaw=0.7, pitch=0.2, roll=-0.4)
    back = earth_to_body(body_to_earth(cloud, pose), pose)
    assert np.allclose(back, cloud, atol=1e-12)


def test_pose_validates_pitch():
    with pytest.raises(ValueError):
        Pose(position=(0, 0, 0), pitch=np.pi / 2)


def test_filter_pipeline_ground_removal():
    # one wall return and one floor return, noise-free
    cloud_body = np.array([[2.0, 0.0, 0.0], [1.0, 0.0, -1.0]])
    pose = Pose(position=(0.0, 0.0, 1.0), yaw=0.0)
    params = FilterParams(outlier_min_neighbors=1, outlier_radius=3.0)
    out = filter_pipeline(cloud_body, pose, params, ground_z=0.05)
    assert len(out) == 1
    assert out[0][2] > 0.5


def test_filter_pipeline_empty():
    out = filter_pipeline(np.zeros((0, 3)), Pose(position=(0, 0, 0)),
                          FilterParams())
    assert out.shape == (0, 3)
