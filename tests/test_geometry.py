import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualnav.geometry import (direction_from_angles, min_clearance,
                              path_clears, path_length, row_norms,
                              segment_point_distances, spherical_angles, unit,
                              wrap_angle)


def test_unit_norm_and_zero():
    v = unit([3.0, 4.0, 0.0])
    assert np.allclose(v, [0.6, 0.8, 0.0])
    assert np.allclose(unit([0.0, 0.0, 0.0]), 0.0)


def test_segment_point_distances_basic():
    d = segment_point_distances([0, 0, 0], [2, 0, 0],
                                [[1, 1, 0], [-1, 0, 0], [3, 0, 0]])
    assert np.allclose(d, [1.0, 1.0, 1.0])


def test_segment_point_distances_degenerate_segment():
    d = segment_point_distances([1, 1, 1], [1, 1, 1], [[1, 1, 3]])
    assert np.allclose(d, [2.0])


def test_path_length():
    assert path_length([[0, 0, 0]]) == 0.0
    assert path_length([[0, 0, 0], [3, 4, 0], [3, 4, 2]]) == pytest.approx(7.0)


def test_min_clearance():
    wp = [[0, 0, 0], [4, 0, 0]]
    pts = [[2, 2, 0], [5, 0, 0]]
    assert min_clearance(wp, pts) == pytest.approx(1.0)
    assert min_clearance(wp, np.zeros((0, 3))) == np.inf


def test_wrap_angle():
    assert wrap_angle(np.pi + 0.1) == pytest.approx(-np.pi + 0.1)
    assert wrap_angle(-np.pi - 0.1) == pytest.approx(np.pi - 0.1)
    assert wrap_angle(0.3) == pytest.approx(0.3)


TURN = 2.0 * math.pi
# signed zeros, +-pi and +-2 pi with their neighbours one ulp either way,
# and NaN of either sign
WRAP_EDGES = [v for c in (0.0, -0.0, math.pi, -math.pi, TURN, -TURN)
              for v in (c, math.nextafter(c, math.inf),
                        math.nextafter(c, -math.inf))] + [math.nan, -math.nan]


@settings(max_examples=500)
@given(st.lists(st.sampled_from(WRAP_EDGES) | st.floats(-TURN, TURN),
                min_size=1, max_size=8))
@example(WRAP_EDGES)
def test_wrap_angle_is_bit_equal_to_the_floored_remainder(angles):
    """Over |a| <= 2 pi, every difference of two azimuths, and one ulp
    beyond: the bytes of the remainder form it replaced, on arrays and on
    scalars."""
    a = np.array(angles)
    want = -((-a + np.pi) % (2.0 * np.pi) - np.pi)
    assert wrap_angle(a).tobytes() == want.tobytes()
    for x, w in zip(angles, want):
        got = wrap_angle(x)
        assert type(got) is float
        assert np.float64(got).tobytes() == w.tobytes()


def test_spherical_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = unit(rng.normal(size=3))
        az, el = spherical_angles(v)
        assert np.allclose(direction_from_angles(az, el), v, atol=1e-12)


# -- path_clears against the full min_clearance scan --------------------------

@st.composite
def clearance_cases(draw):
    """A polyline of 1-5 waypoints, a cloud and a radius r.

    Coordinates lie on a 0.1 m or 0.2 m lattice or anywhere; waypoints may
    repeat (a == b). The cloud holds scattered points, a block of lattice
    points like a voxel map's, and in some cases points placed r from a
    segment: off its side, past either end or off the corners of its grown
    box, each nudged by up to three ulps either way.
    """
    step = draw(st.sampled_from([0.1, 0.2, None]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if step is None:
        coord = st.floats(-3.0, 3.0)
    else:
        coord = st.integers(-20, 20).map(lambda i: i * step)
    point = st.tuples(coord, coord, coord).map(np.array)
    wp = [draw(point) for _ in range(rng.integers(1, 6))]
    if len(wp) > 1 and draw(st.booleans()):
        wp[1] = wp[0].copy()
    r = draw(st.sampled_from([0.1, 0.2, 0.3, 0.5]) | st.floats(0.01, 1.0))
    pts = draw(st.lists(point, max_size=20))
    lattice = step or 0.1
    corner = rng.integers(-20, 15, size=3)
    block = np.stack(np.meshgrid(*(np.arange(c, c + rng.integers(1, 8))
                                   for c in corner)), -1).reshape(-1, 3)
    pts += list(block * lattice)
    for _ in range(draw(st.sampled_from([0, 0, 1, 4]))):
        i = draw(st.integers(0, len(wp) - 1))
        a, b = wp[i], wp[min(i + 1, len(wp) - 1)]
        offset = np.array(draw(st.tuples(*[st.sampled_from([-1.0, 0.0, 1.0])]
                                         * 3)))
        if not offset.any():
            offset[draw(st.integers(0, 2))] = 1.0
        base = draw(st.sampled_from([a, b, (a + b) / 2.0]))
        scale = r / np.linalg.norm(offset) if draw(st.booleans()) else r
        p = base + scale * offset
        for _ in range(draw(st.integers(0, 3))):
            p = np.nextafter(p, draw(st.sampled_from([-np.inf, np.inf])))
        pts.append(p)
    return np.array(wp), np.array(pts, dtype=float).reshape(-1, 3), r


@settings(max_examples=400)
@given(clearance_cases())
# a point exactly r past the end of an axis-aligned segment
@example((np.array([[0.0, 0.0, 0.0], [0.7, 0.0, 0.0]]),
          np.array([[1.2, 0.0, 0.0]]), 0.5))
# a point just outside the box grown by r, whose computed distance is below
# r: the projection lands a few ulps past the segment's end (the slack)
@example((np.array([[-2.6, -2.8000000000000003, -2.4000000000000004],
                    [0.6000000000000001, 0.0, 0.2]]),
          np.array([[0.6000000000000001, 0.0, 0.3000000000000001]]), 0.1))
# a degenerate segment and a single waypoint
@example((np.array([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]]),
          np.array([[0.1, 0.2, 0.5]]), 0.2))
@example((np.array([[0.1, 0.2, 0.3]]), np.array([[0.1, 0.2, 0.5]]), 0.2))
# an empty cloud
@example((np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), np.zeros((0, 3)),
          0.5))
def test_path_clears_matches_min_clearance(case):
    wp, cloud, r = case
    assert path_clears(wp, cloud, r) == (min_clearance(wp, cloud) >= r)


@st.composite
def suffix_cases(draw):
    """A polyline of 2-6 waypoints, a cloud and a radius r; some points
    lie off a segment's side at r times (1 + e), |e| <= 1e-12, where
    path_clears hands the verdict to the full scan."""
    coord = st.floats(-3.0, 3.0)
    point = st.tuples(coord, coord, coord).map(np.array)
    wp = np.array(draw(st.lists(point, min_size=2, max_size=6)))
    r = draw(st.sampled_from([0.1, 0.2, 0.3, 0.5]) | st.floats(0.01, 1.0))
    pts = draw(st.lists(point, max_size=6))
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, len(wp) - 2))
        a, b = wp[i], wp[i + 1]
        side = np.cross(b - a, draw(point))
        n = np.linalg.norm(side)
        if n == 0.0:
            continue
        base = a + draw(st.floats(0.0, 1.0)) * (b - a)
        e = draw(st.sampled_from([-1e-12, 0.0, 1e-12]) | st.floats(-1e-12,
                                                                   1e-12))
        pts.append(base + r * (1.0 + e) * side / n)
    return wp, np.array(pts, dtype=float).reshape(-1, 3), r


@settings(max_examples=300)
@given(suffix_cases())
def test_a_clear_path_stays_clear_on_every_suffix(case):
    """The MP gate keeps a clear verdict while the drone moves along the
    path; its remaining part is then a suffix of the one it checked."""
    wp, cloud, r = case
    if path_clears(wp, cloud, r):
        for k in range(len(wp) - 1):
            assert path_clears(wp[k:], cloud, r)


# r is the nearest point's distance from rows in C order; from the same
# rows in F order, a matrix-vector product rounds it one ulp lower on an
# OpenBLAS host, so a full scan over the F-order rows would say False
COLUMN_CASE = (
    np.array([[1.5, 0.6, -1.5], [1.4, 1.8, 1.6]]),
    np.array([[0.5, 1.6, 1.1], [-1.1, -0.8, 1.5], [-2.0, 1.3, 1.2],
              [-0.1, -0.8, -0.9], [-1.0, -0.2, 0.0], [0.2, 2.0, 1.2],
              [0.5, 2.0, -1.1], [-1.4, 0.5, -1.8], [-1.9, 0.1, -0.1],
              [1.7, 0.5, 0.1], [-0.0, -1.0, -2.0], [-1.2, 0.8, -1.2],
              [-0.5, -2.0, 1.3], [-1.4, -0.9, 1.5], [0.0, 1.4, 0.6],
              [1.0, -1.6, 0.2], [0.0, 1.5, -0.6], [0.4, -1.8, -0.4],
              [-0.7, -1.4, 1.3], [-0.5, 1.9, 0.4], [0.4, 0.6, 0.7],
              [-1.4, -0.2, -1.0], [-0.4, -1.6, 1.9], [-1.1, 0.7, -0.8]]),
    0.7137375835385968)


@settings(max_examples=300)
@given(clearance_cases() | suffix_cases())
@example(COLUMN_CASE)
def test_path_clears_reads_a_column_view_as_its_rows(case):
    """DAGS passes the transpose of its (3, N) columns; the near rows and
    the full scan see the rows in C order all the same."""
    wp, cloud, r = case
    cols = np.ascontiguousarray(cloud.T)
    assert path_clears(wp, cols.T, r) == path_clears(wp, cloud, r)


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.1, 0.2, None]),
       st.integers(1, 3000))
def test_segment_distances_of_a_row_subset_are_bit_equal(seed, step, n):
    """A row's distance does not depend on the rows computed with it."""
    rng = np.random.default_rng(seed)
    if step is None:
        cloud = rng.normal(scale=2.0, size=(n, 3))
        a, b = rng.normal(scale=2.0, size=(2, 3))
    else:
        cloud = rng.integers(-30, 31, size=(n, 3)) * step
        a, b = rng.integers(-30, 31, size=(2, 3)) * step
    rows = rng.random(n) < rng.random()
    full = segment_point_distances(a, b, cloud)
    part = segment_point_distances(a, b, cloud[rows])
    assert part.tobytes() == full[rows].tobytes()


# squares 1.0, 0.04000000000000001 and 0.09: (a + b) + c and a + (b + c)
# round to different sums, and their square roots differ in the last bit
ORDER_SENSITIVE = np.array([[1.0, 0.2, 0.3]])


def test_order_sensitive_row_tells_the_orders_apart():
    a, b, c = (ORDER_SENSITIVE[0] ** 2).tolist()
    assert np.sqrt((a + b) + c) != np.sqrt(a + (b + c))


@st.composite
def row_arrays(draw):
    """1 to 3,000 rows of 2 or 3 columns, C-order, F-order or a strided
    view, with magnitudes from the subnormal range to 1e150."""
    n = draw(st.integers(1, 3000))
    k = draw(st.sampled_from([2, 3]))
    lo = draw(st.integers(-323, 150))
    hi = draw(st.integers(lo, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = rng.uniform(-9.9, 9.9, (n, k)) * 10.0 ** rng.integers(lo, hi + 1,
                                                               (n, k))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        return np.asfortranarray(d)
    if layout == "strided":
        wide = np.zeros((2 * n, k + 1))
        wide[::2, 1:] = d
        return wide[::2, 1:]
    return d


@settings(max_examples=200)
@given(row_arrays())
@example(ORDER_SENSITIVE)
def test_row_norms_are_bit_equal_to_numpy(d):
    assert row_norms(d).tobytes() == np.linalg.norm(d, axis=1).tobytes()
