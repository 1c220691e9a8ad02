"""Shared vector geometry helpers used across the planners and the simulator.

`path_clears(waypoints, points, r)` answers `min_clearance(waypoints,
points) >= r` from the points near each segment. A point outside the
segment's bounding box grown by r (plus a slack for rounding) has a
coordinate gap above r, so its computed distance is at least r and it
cannot block. The kept points' distances come from the same
`segment_point_distances` the full scan runs, and a row's distance does
not depend on the other rows it is computed with. Still, when a segment's
nearest kept distance lies within 1e-12 relative of r, the full
`min_clearance` scan decides, so the answer holds even under a BLAS kernel
whose last bit depends on how many rows it is given: a distance farther
from r than that is on the same side of r in both scans.

`row_norms(d)` is `np.linalg.norm(d, axis=1)` bit for bit: numpy sums the
squares of a short row from left to right, ((a + b) + c), and so does the
column sum, which skips numpy's reduction over a length-3 axis.
"""
from __future__ import annotations

import math

import numpy as np


def norm(v) -> float:
    """Euclidean norm of a 1-D float array, bit-equal to `np.linalg.norm(v)`.

    numpy computes that norm as sqrt(v.dot(v)) as well; this skips its
    argument handling, which costs more than the sum on a 3-vector.
    """
    return math.sqrt(float(v.dot(v)))


def row_norms(d) -> np.ndarray:
    """Euclidean norm of each row of a 2-D float array, bit-equal to
    `np.linalg.norm(d, axis=1)`: the squares of the columns summed left to
    right, then the square root."""
    first, *rest = d.T
    s = first * first
    for c in rest:
        s += c * c
    return np.sqrt(s, out=s)


def unit(v):
    v = np.asarray(v, dtype=float)
    n = norm(v)
    if n == 0.0:
        return np.zeros_like(v)
    return v / n


def segment_point_distances(a, b, points):
    """Distance from each point to the segment a-b. points: (N,3) or (N,2)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return np.zeros(0)
    ab = b - a
    denom = float(np.dot(ab, ab))
    if denom == 0.0:
        return row_norms(pts - a)
    t = np.clip((pts - a) @ ab / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return row_norms(pts - proj)


def path_length(waypoints) -> float:
    wp = np.asarray(waypoints, dtype=float)
    if len(wp) < 2:
        return 0.0
    return float(np.sum(row_norms(np.diff(wp, axis=0))))


def min_clearance(waypoints, points) -> float:
    """Smallest distance from any segment of the polyline to any point."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return np.inf
    wp = np.asarray(waypoints, dtype=float)
    if len(wp) == 1:
        return float(np.min(row_norms(pts - wp[0])))
    best = np.inf
    for i in range(len(wp) - 1):
        d = segment_point_distances(wp[i], wp[i + 1], pts)
        best = min(best, float(np.min(d)))
    return best


def path_clears(waypoints, points, r) -> bool:
    """`min_clearance(waypoints, points) >= r`, scanning for each segment
    only the points inside its bounding box grown by r; False at the first
    segment that blocks."""
    pts = np.asarray(points, dtype=float)
    wp = np.asarray(waypoints, dtype=float)
    if pts.size == 0 or len(wp) < 2:
        return min_clearance(wp, pts) >= r
    cols = np.ascontiguousarray(pts.T)
    # the slack covers the rounding of the box bounds and of a projection
    # that lands a few ulps outside the segment
    grow = r + 1e-6 * (1.0 + abs(r) + float(np.max(np.abs(wp))))
    lo = np.minimum(wp[:-1], wp[1:]) - grow
    hi = np.maximum(wp[:-1], wp[1:]) + grow
    for i in range(len(wp) - 1):
        near = (cols[0] >= lo[i, 0]) & (cols[0] <= hi[i, 0])
        for c in range(1, len(cols)):
            near &= (cols[c] >= lo[i, c]) & (cols[c] <= hi[i, c])
        if not near.any():
            continue
        d = float(np.min(segment_point_distances(
            wp[i], wp[i + 1], pts[np.flatnonzero(near)])))
        if abs(d - r) <= 1e-12 * abs(r):
            return min_clearance(wp, pts) >= r
        if d < r:
            return False
    return True


def wrap_angle(a):
    """Wrap angle(s) to (-pi, pi]."""
    a = np.asarray(a, dtype=float)
    out = -((-a + np.pi) % (2.0 * np.pi) - np.pi)
    return out if out.ndim else float(out)


def spherical_angles(v):
    """(azimuth, elevation) of a 3-vector."""
    v = np.asarray(v, dtype=float)
    az = float(np.arctan2(v[1], v[0]))
    el = float(np.arctan2(v[2], np.hypot(v[0], v[1])))
    return az, el


def direction_from_angles(az: float, el: float) -> np.ndarray:
    return np.array(
        [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)]
    )
