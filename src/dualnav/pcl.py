"""Depth point-cloud preprocessing: a floor cut, distance, voxel and outlier
filters, and the body-to-Earth rigid transform.

All functions are pure and order-stable; the runtime's filter loop chains them
(floor cut, distance, voxel, outlier, Earth frame, then the floor cut again as
a guard on the centroids) and publishes the result as an immutable snapshot.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import row_norms


D_PASS = 4.5        # the distance filter's range, m
VOXEL_SIZE = 0.2    # the voxel filter's cell side, m


@dataclass(frozen=True)
class FilterParams:
    outlier_radius: float = 0.4   # 2 * VOXEL_SIZE
    outlier_min_neighbors: int = 3

    def __post_init__(self):
        if not self.outlier_radius > 0:
            raise ValueError("outlier_radius must be > 0")
        if self.outlier_min_neighbors < 1:
            raise ValueError("outlier_min_neighbors must be >= 1")


def distance_filter(cloud: np.ndarray, d_pass: float) -> np.ndarray:
    """Keep points with Euclidean norm <= d_pass, preserving order."""
    cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
    if len(cloud) == 0:
        return cloud
    keep = row_norms(cloud) <= d_pass
    return cloud[keep]


def voxel_downsample(cloud: np.ndarray, voxel_size: float) -> np.ndarray:
    """Replace the points of each voxel by their centroid.

    Output order follows the first occurrence of each voxel in the input.
    The kernel works on the three coordinate columns: each column's voxel
    index is floor(c / voxel_size), a stable lexsort of the three orders
    the points by voxel, and a voxel starts wherever any column's index
    differs from the previous point's. A NaN index differs from every
    index, so each point with a NaN coordinate is a voxel of its own, and
    -0.0 equals 0.0. Each point's voxel key is the voxel's rank in that
    sort, so keys are dense (< n) and distinct voxels never share one; one
    bincount per column then sums each voxel's points in input order.
    """
    if not voxel_size > 0:
        raise ValueError("voxel_size must be > 0")
    cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
    if len(cloud) == 0:
        return cloud
    columns = cloud.T
    cells = [np.floor(c / voxel_size) for c in columns]
    by_voxel = np.lexsort(cells)         # stable: equal voxels keep input order
    sx, sy, sz = (c[by_voxel] for c in cells)
    starts = np.ones(len(cloud), dtype=bool)
    starts[1:] = (sx[1:] != sx[:-1]) | (sy[1:] != sy[:-1]) | (sz[1:] != sz[:-1])
    inverse = np.empty(len(cloud), dtype=np.intp)
    inverse[by_voxel] = np.cumsum(starts) - 1
    first = by_voxel[starts]
    counts = np.bincount(inverse, minlength=first.size).astype(float)
    order = np.argsort(first, kind="stable")
    centroids = np.empty((first.size, 3))
    for k, c in enumerate(columns):
        sums = np.bincount(inverse, weights=c, minlength=first.size)
        centroids[:, k] = (sums / counts)[order]
    return centroids


def outlier_filter(cloud: np.ndarray, radius: float, min_neighbors: int) -> np.ndarray:
    """Keep points with at least min_neighbors other points within radius."""
    if not radius > 0:
        raise ValueError("radius must be > 0")
    cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
    if len(cloud) == 0:
        return cloud
    pairs = cKDTree(cloud).query_pairs(radius, output_type="ndarray")
    # each pair (i < j) is a neighbour of both ends; a point is never its own
    counts = np.bincount(pairs.ravel(), minlength=len(cloud))
    return cloud[counts >= min_neighbors]


def body_to_earth(cloud: np.ndarray, position, yaw: float) -> np.ndarray:
    """Yaw-aligned body frame to Earth frame: the simulated camera is level,
    so the attitude is the rotation R = [[c, -s, 0], [s, c, 0], [0, 0, 1]]
    by yaw about the vertical axis."""
    cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
    c, s = np.cos(yaw), np.sin(yaw)
    # the rows multiply R's transpose, built C-ordered: matmul's rounding
    # depends on the operand's memory layout
    r_t = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    return cloud @ r_t + np.asarray(position, dtype=float)


def filter_pipeline(cloud_body: np.ndarray, position, yaw: float,
                    params: FilterParams,
                    ground_z: float | None = None) -> np.ndarray:
    """Full chain: floor cut -> distance -> voxel -> outlier -> Earth frame.

    ground_z, when given, drops the returns at or below that Earth height
    first, so the floor never enters the filters or the occupancy map, and
    again after the Earth frame as a guard on the centroids. The output is
    the chain distance -> voxel -> outlier -> Earth frame -> cut applied to
    the returns above the cut: a floor return never vouches for an obstacle
    return in the outlier filter, and a voxel that straddles the cut takes
    its centroid from its returns above it.
    """
    cloud = np.asarray(cloud_body, dtype=float).reshape(-1, 3)
    if ground_z is not None:
        # the frame is yaw-only, so body z plus the position's z is the
        # Earth z that body_to_earth computes, bit for bit
        cloud = cloud[cloud[:, 2] + position[2] > ground_z]
    pcl_1 = distance_filter(cloud, D_PASS)
    pcl_2 = voxel_downsample(pcl_1, VOXEL_SIZE)
    pcl_3 = outlier_filter(pcl_2, params.outlier_radius, params.outlier_min_neighbors)
    pcl_4 = body_to_earth(pcl_3, position, yaw)
    if ground_z is not None and len(pcl_4):
        pcl_4 = pcl_4[pcl_4[:, 2] > ground_z]
    return pcl_4
