"""Depth point-cloud preprocessing: a floor cut, distance, voxel and outlier
filters, and the body-to-Earth rigid transform.

All functions are pure and order-stable; the runtime's filter loop chains them
(floor cut, distance, voxel, outlier, Earth frame, then the floor cut again as
a guard on the centroids) and publishes the result as an immutable snapshot.
"""
from __future__ import annotations

import numpy as np

from .geometry import row_norms


D_PASS = 4.5        # the distance filter's range, m
VOXEL_SIZE = 0.2    # the voxel filter's cell side, m
OUTLIER_RADIUS = 2 * VOXEL_SIZE    # the outlier filter's radius, m
OUTLIER_MIN_NEIGHBORS = 3   # neighbours a point needs to pass the filter
# clouds up to this size compare all pairs at once. Each kernel wins on its
# own side: over the clouds of a seed-0 flight-known run (one thread, 2-vCPU
# host), the 301 non-empty ones of at most 96 points took 7.1 ms all-pairs
# against 12.5 ms windowed, and the 513 larger ones 48.9 ms windowed against
# 126.0 ms all-pairs
PAIRS_AT_ONCE = 96


def distance_filter(cloud: np.ndarray) -> np.ndarray:
    """Keep points with Euclidean norm <= D_PASS, preserving order."""
    cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
    if len(cloud) == 0:
        return cloud
    keep = row_norms(cloud) <= D_PASS
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
    """Keep points with at least min_neighbors other points within radius.

    A pair is within radius when ((dx*dx + dy*dy) + dz*dz) <= radius *
    radius, summed in that order. Clouds of up to PAIRS_AT_ONCE points
    compare every pair in one n x n array per axis. Larger clouds are sorted
    on their widest axis, and each point is compared with the points after
    it up to radius along that axis; the window's slack of 1e-6 * radius
    plus 4 ulps of the largest coordinate covers the rounding of the
    window's bound, so no pair within radius is left out. A NaN or an inf
    coordinate raises a ValueError.
    """
    if not radius > 0:
        raise ValueError("radius must be > 0")
    cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
    n = len(cloud)
    if n == 0:
        return cloud
    if not np.isfinite(cloud).all():
        raise ValueError("cloud coordinates must be finite")
    count = _all_pair_counts if n <= PAIRS_AT_ONCE else _window_pair_counts
    return cloud[count(cloud, float(radius)) >= min_neighbors]


def _all_pair_counts(cloud: np.ndarray, r: float) -> np.ndarray:
    """Each point's neighbour count from the n x n squared distances."""
    x, y, z = cloud.T
    d2 = np.subtract.outer(x, x)
    d2 *= d2
    dy = np.subtract.outer(y, y)
    dy *= dy
    d2 += dy
    np.subtract.outer(z, z, out=dy)
    dy *= dy
    d2 += dy
    close = d2 <= r * r
    # d2 is symmetric, and its diagonal is each point's zero distance to
    # itself
    return np.add.reduce(close.view(np.uint8), axis=0, dtype=np.intp) - 1


def _window_pair_counts(cloud: np.ndarray, r: float) -> np.ndarray:
    """Each point's neighbour count over the pairs that lie within the
    radius (and its slack) along the cloud's widest axis."""
    n = len(cloud)
    columns = cloud.T.copy()
    extent = columns.max(axis=1) - columns.min(axis=1)
    axis = int(np.argmax(extent))
    order = np.argsort(columns[axis], kind="stable")
    columns = columns.take(order, axis=1)
    key = columns[axis]
    width = r * (1.0 + 1e-6) + 4.0 * np.finfo(float).eps * max(-key[0], key[-1])
    # sorted point p is paired with p + 1 .. stop[p] - 1, and those pairs
    # are ends[p] - sizes[p] .. ends[p] - 1 of the flat pair list
    stop = np.searchsorted(key, key + width, side="right")
    sizes = stop - np.arange(1, n + 1)
    ends = np.cumsum(sizes)
    j = np.arange(ends[-1]) + np.repeat(stop - ends, sizes)

    def squared_gaps(c):
        d = np.repeat(c, sizes)
        d -= c[j]
        d *= d
        return d

    x, y, z = columns
    d2 = squared_gaps(x)
    d2 += squared_gaps(y)
    d2 += squared_gaps(z)
    pairs = np.flatnonzero(d2 <= r * r)
    counts = np.empty(n, dtype=np.intp)
    counts[order] = (np.bincount(np.searchsorted(ends, pairs, side="right"),
                                 minlength=n)
                     + np.bincount(j[pairs], minlength=n))
    return counts


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
    pcl_1 = distance_filter(cloud)
    pcl_2 = voxel_downsample(pcl_1, VOXEL_SIZE)
    pcl_3 = outlier_filter(pcl_2, OUTLIER_RADIUS, OUTLIER_MIN_NEIGHBORS)
    pcl_4 = body_to_earth(pcl_3, position, yaw)
    if ground_z is not None and len(pcl_4):
        pcl_4 = pcl_4[pcl_4[:, 2] > ground_z]
    return pcl_4
