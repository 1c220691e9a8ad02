"""The perception kernels return the same bytes as the straightforward
versions they replaced, over generated worlds and clouds.

The oracles below are the earlier implementations of `sim.sense` (one slab
test per box, nanmax/nanmin reductions, the fan rebuilt per call, the
noise drawn with `rng.normal`), `pcl.voxel_downsample` (`np.unique` over
int64 rows, and the row-wise lexsort kernel that the column kernel
replaced) and `pcl.outlier_filter` (a `query_ball_point` count per point,
and the `query_pairs` count that the numpy neighbour count replaced).

The outlier filter's neighbour count is defined as the numpy sum
((dx*dx + dy*dy) + dz*dz) <= r*r, and `brute_outlier_filter` forms it over
all n x n pairs. Every cloud must match that oracle. The k-d tree prunes
boxes of points on bounds that drift by a few ulps of the cloud's squared
extent, so the tree oracles are held to the same bytes only on clouds with
no pair in a narrow band around r*r (`off_the_tie_band`).
"""
import math

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from dualnav import pcl
from dualnav.pcl import outlier_filter, voxel_downsample
from dualnav.sim import Box, DynamicObstacle, SensorParams, World, sense

# -- oracles -----------------------------------------------------------------


def _oracle_ray_directions(sensor, yaw):
    az = np.linspace(-sensor.h_fov / 2.0, sensor.h_fov / 2.0, sensor.h_rays)
    el = np.linspace(-sensor.v_fov / 2.0, sensor.v_fov / 2.0, sensor.v_rays)
    azg, elg = np.meshgrid(az + yaw, el, indexing="ij")
    dirs = np.stack([
        np.cos(elg) * np.cos(azg),
        np.cos(elg) * np.sin(azg),
        np.sin(elg),
    ], axis=-1)
    return dirs.reshape(-1, 3)


def _oracle_ray_box_hits(origin, dirs, box):
    lo, hi = box.arrays()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = 1.0 / dirs
        t0 = (lo - origin) * inv
        t1 = (hi - origin) * inv
    tmin = np.nanmax(np.minimum(t0, t1), axis=1)
    tmax = np.nanmin(np.maximum(t0, t1), axis=1)
    return np.where((tmax >= tmin) & (tmax >= 0.0), np.maximum(tmin, 0.0),
                    np.inf)


def oracle_sense(world, position, yaw, sensor, time, seed):
    origin = np.asarray(position, dtype=float)
    dirs = _oracle_ray_directions(sensor, yaw)
    t_hit = np.full(len(dirs), np.inf)
    for box in world.boxes_at(time):
        t_hit = np.minimum(t_hit, _oracle_ray_box_hits(origin, dirs, box))
    if world.ground_z is not None:
        dz = dirs[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_pl = (world.ground_z - origin[2]) / dz
        t_pl = np.where((dz != 0.0) & (t_pl >= 0.0), t_pl, np.inf)
        t_hit = np.minimum(t_hit, t_pl)
    hit = t_hit <= sensor.max_range
    if not np.any(hit):
        return np.zeros((0, 3))
    t = t_hit[hit]
    if sensor.noise_coeff > 0.0:
        rng = np.random.default_rng(
            np.random.SeedSequence([int(seed), int(round(time * 1e6))]))
        t = t + rng.normal(0.0, sensor.noise_coeff * np.abs(t))
    pts_e = origin + t[:, None] * dirs[hit]
    rel = pts_e - origin
    c, s = math.cos(yaw), math.sin(yaw)
    return np.stack([c * rel[:, 0] + s * rel[:, 1],
                     -s * rel[:, 0] + c * rel[:, 1],
                     rel[:, 2]], axis=1)


def oracle_voxel_downsample(cloud, voxel_size):
    cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
    if len(cloud) == 0:
        return cloud
    keys = np.floor(cloud / voxel_size).astype(np.int64)
    _, first, inverse = np.unique(
        keys, axis=0, return_index=True, return_inverse=True
    )
    sums = np.zeros((first.size, 3))
    np.add.at(sums, inverse, cloud)
    counts = np.bincount(inverse, minlength=first.size).astype(float)
    centroids = sums / counts[:, None]
    order = np.argsort(first, kind="stable")
    return centroids[order]


def oracle_rowwise_voxel_downsample(cloud, voxel_size):
    """The lexsort kernel on the (n, 3) voxel index rows, with a row-wise
    `any` for the voxel starts and the sums stacked into rows."""
    cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
    if len(cloud) == 0:
        return cloud
    cells = np.floor(cloud / voxel_size)
    by_voxel = np.lexsort(cells.T)
    sorted_cells = cells[by_voxel]
    starts = np.ones(len(cloud), dtype=bool)
    np.any(sorted_cells[1:] != sorted_cells[:-1], axis=1, out=starts[1:])
    inverse = np.empty(len(cloud), dtype=np.intp)
    inverse[by_voxel] = np.cumsum(starts) - 1
    first = by_voxel[starts]
    sums = np.stack([np.bincount(inverse, weights=cloud[:, k],
                                 minlength=first.size) for k in range(3)],
                    axis=1)
    counts = np.bincount(inverse, minlength=first.size).astype(float)
    centroids = sums / counts[:, None]
    order = np.argsort(first, kind="stable")
    return centroids[order]


def oracle_outlier_filter(cloud, radius, min_neighbors):
    cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
    if len(cloud) == 0:
        return cloud
    tree = cKDTree(cloud)
    counts = tree.query_ball_point(cloud, radius, return_length=True)
    keep = (np.asarray(counts) - 1) >= min_neighbors
    return cloud[keep]


def tree_outlier_filter(cloud, radius, min_neighbors):
    """The k-d tree pair count that `outlier_filter` ran before its numpy
    kernels."""
    cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
    if len(cloud) == 0:
        return cloud
    pairs = cKDTree(cloud).query_pairs(radius, output_type="ndarray")
    counts = np.bincount(pairs.ravel(), minlength=len(cloud))
    return cloud[counts >= min_neighbors]


def squared_distances(cloud):
    """The n x n squared distances, summed ((dx*dx + dy*dy) + dz*dz)."""
    dx, dy, dz = np.moveaxis(cloud[:, None, :] - cloud[None, :, :], -1, 0)
    return (dx * dx + dy * dy) + dz * dz


def brute_counts(cloud, radius):
    """Each point's neighbour count by the definition, over all pairs."""
    return np.count_nonzero(squared_distances(cloud) <= radius * radius,
                            axis=1) - 1


def brute_outlier_filter(cloud, radius, min_neighbors):
    cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
    if len(cloud) == 0:
        return cloud
    return cloud[brute_counts(cloud, radius) >= min_neighbors]


def off_the_tie_band(cloud, radius):
    """True when no pair's squared distance lies within 1e-9 * r*r plus
    4e-13 of the cloud's squared extent of r*r: outside that band the
    tree's pruning bounds cannot flip a pair."""
    cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
    if len(cloud) < 2:
        return True
    extent = np.ptp(cloud, axis=0)
    r2 = radius * radius
    band = 1e-9 * r2 + 4e-13 * float(extent @ extent)
    return not (np.abs(squared_distances(cloud) - r2) <= band).any()


def assert_same_bytes(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# -- sense -------------------------------------------------------------------

# boxes up to 8 m from an origin near the centre, so that some lie within
# the sensor's range and some beyond it
points = st.tuples(*[st.floats(-8.0, 8.0)] * 3)
origins = st.tuples(*[st.floats(-2.0, 2.0)] * 3)
sizes = st.tuples(*[st.floats(0.05, 4.0)] * 3)

# odd ray counts put a ray at elevation 0 (a zero z component), and a yaw
# cancelling one azimuth puts one at a zero y component: with the origin on
# a box face, those rays take the 0 * inf = NaN branch of the slab test
sensors = st.one_of(
    st.just(SensorParams()),
    st.builds(SensorParams,
              h_fov=st.floats(0.1, 3.0), v_fov=st.floats(0.1, 3.0),
              max_range=st.floats(0.5, 8.0),
              h_rays=st.integers(1, 24), v_rays=st.integers(1, 13),
              noise_coeff=st.sampled_from([0.0, 0.005, 0.05])))


@st.composite
def boxes(draw):
    lo = draw(points)
    size = draw(sizes)
    return Box(lo, tuple(a + d for a, d in zip(lo, size)))


@st.composite
def scenes(draw):
    sensor = draw(sensors)
    static = draw(st.lists(boxes(), max_size=10))
    dynamic = []
    if draw(st.booleans()):
        t0 = draw(st.floats(0.0, 2.0))
        dynamic.append(DynamicObstacle(draw(sizes), [t0, t0 + 1.0],
                                       [draw(points), draw(points)]))
    ground_z = draw(st.one_of(st.none(), st.floats(-3.0, 1.0)))
    origin = list(draw(origins))
    if static and draw(st.booleans()):
        box = draw(st.sampled_from(static))
        axis = draw(st.integers(0, 2))
        origin[axis] = draw(st.sampled_from([box.lo[axis], box.hi[axis]]))
    az = np.linspace(-sensor.h_fov / 2.0, sensor.h_fov / 2.0, sensor.h_rays)
    yaw = draw(st.one_of(st.floats(-math.pi, math.pi),
                         st.sampled_from([0.0] + [float(-a) for a in az])))
    world = World(static=static, dynamic=dynamic, ground_z=ground_z)
    return (world, tuple(origin), yaw, sensor, draw(st.floats(0.0, 4.0)),
            draw(st.integers(0, 2**31 - 1)))


@settings(max_examples=300)
@given(scenes())
def test_sense_matches_oracle(scene):
    assert_same_bytes(sense(*scene), oracle_sense(*scene))


@given(st.floats(-math.pi, math.pi), st.integers(0, 100))
def test_sense_boxes_at_and_beyond_range_match_oracle(yaw, seed):
    # one box face-on per side, its near face at max_range or just past it
    r = 3.0
    o = (0.0, 1e-12, 1e-6, 0.5)
    world = World(static=[
        Box((r + o[0], -0.5, -0.5), (r + o[0] + 1.0, 0.5, 0.5)),
        Box((-0.5, r + o[1], -0.5), (0.5, r + o[1] + 1.0, 0.5)),
        Box((-r - o[2] - 1.0, -0.5, -0.5), (-r - o[2], 0.5, 0.5)),
        Box((-0.5, -r - o[3] - 1.0, -0.5), (0.5, -r - o[3], 0.5)),
        Box((1.0, 1.0, -0.5), (1.5, 1.5, 0.5)),
    ])
    for noise in (0.0, 0.005):
        sensor = SensorParams(max_range=r, noise_coeff=noise)
        scene = (world, (0.0, 0.0, 0.0), yaw, sensor, 0.5, seed)
        assert_same_bytes(sense(*scene), oracle_sense(*scene))


def test_sense_keeps_a_box_just_inside_range():
    # odd ray counts put one ray straight ahead, the only one that reaches
    # the face within max_range; the face sits just inside max_range, on it
    # and just past it
    sensor = SensorParams(max_range=3.0, h_rays=9, v_rays=7, noise_coeff=0.0)
    for face in (3.0 * (1.0 - 1e-7), 3.0, 3.0 * (1.0 + 1e-7)):
        world = World(static=[Box((face, -0.5, -0.5), (face + 1.0, 0.5, 0.5))])
        scene = (world, (0.0, 0.0, 0.0), 0.0, sensor, 0.0, 0)
        got = sense(*scene)
        assert_same_bytes(got, oracle_sense(*scene))
        assert len(got) == (face <= 3.0)


def _nudge(x, ulps):
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.copysign(math.inf, ulps)))
    return x


# sense slab-tests each box only on the fan columns its footprint can reach;
# these scenes sit on the edges of that cut
@st.composite
def culling_scenes(draw):
    sensor = draw(st.builds(
        SensorParams,
        h_fov=st.one_of(st.sampled_from([math.radians(86.0), 3.0]),
                        st.floats(0.1, 3.0)),
        v_fov=st.floats(0.1, 3.0), max_range=st.floats(2.0, 8.0),
        h_rays=st.one_of(st.just(1), st.integers(2, 24)),
        v_rays=st.integers(1, 9), noise_coeff=st.sampled_from([0.0, 0.005])))
    yaw = draw(st.one_of(
        st.sampled_from([math.pi, -math.pi, _nudge(math.pi, -1),
                         _nudge(-math.pi, 1), 0.0]),
        st.floats(math.pi - 1e-3, math.pi), st.floats(-math.pi, -math.pi + 1e-3),
        st.floats(-math.pi, math.pi)))
    o = draw(origins)
    az = np.linspace(-sensor.h_fov / 2.0, sensor.h_fov / 2.0, sensor.h_rays)
    edges = [yaw - sensor.h_fov / 2.0, yaw + sensor.h_fov / 2.0,
             yaw + az[0], yaw + az[-1]]
    ulps = st.sampled_from([-1, 0, 1])
    extent = st.floats(0.05, 2.0)
    static = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["corner", "around", "over", "line",
                                     "random"]))
        z0 = o[2] + draw(st.floats(-2.0, 0.0))
        z1 = z0 + draw(st.floats(0.05, 3.0))
        if kind == "corner":
            # one footprint corner on a fan edge or column azimuth, or one
            # ulp off it, and the footprint on any side of that corner
            a = draw(st.one_of(st.sampled_from(edges),
                               st.sampled_from(list(yaw + az))))
            a = _nudge(a, draw(ulps))
            r = draw(st.floats(0.3, 6.0))
            cx = _nudge(o[0] + r * math.cos(a), draw(ulps))
            cy = _nudge(o[1] + r * math.sin(a), draw(ulps))
            w, h = draw(extent), draw(extent)
            x0, x1 = draw(st.sampled_from([(cx, cx + w), (cx - w, cx)]))
            y0, y1 = draw(st.sampled_from([(cy, cy + h), (cy - h, cy)]))
        elif kind == "around":
            # behind and beside the drone
            a = yaw + draw(st.sampled_from([math.pi, math.pi / 2.0,
                                            -math.pi / 2.0]))
            a += draw(st.floats(-0.5, 0.5))
            r = draw(st.floats(0.3, 6.0))
            cx, cy = o[0] + r * math.cos(a), o[1] + r * math.sin(a)
            w, h = draw(extent), draw(extent)
            x0, x1, y0, y1 = cx - w / 2, cx + w / 2, cy - h / 2, cy + h / 2
        elif kind == "over":
            # the origin inside the footprint, on an edge or on a corner of
            # it, the box above, below or around the drone
            dx0, dx1, dy0, dy1 = (
                draw(st.one_of(st.just(0.0), extent)) for _ in range(4))
            x0, x1 = o[0] - dx0, o[0] + (dx1 if dx0 + dx1 else 0.5)
            y0, y1 = o[1] - dy0, o[1] + (dy1 if dy0 + dy1 else 0.5)
            z_span = draw(st.sampled_from(["above", "below", "around"]))
            if z_span == "above":
                z0 = o[2] + draw(st.floats(0.0, 2.0))
                z1 = z0 + draw(extent)
            elif z_span == "below":
                z1 = o[2] - draw(st.floats(0.0, 2.0))
                z0 = z1 - draw(extent)
        elif kind == "line":
            # the origin on the line through one footprint edge, outside it:
            # off to one side along axis k, one edge at the origin across it
            k = draw(st.integers(0, 1))
            gap, w, h = draw(st.floats(0.1, 4.0)), draw(extent), draw(extent)
            lo, hi = [0.0, 0.0], [0.0, 0.0]
            lo[k] = o[k] + gap if draw(st.booleans()) else o[k] - gap - w
            hi[k] = lo[k] + w
            lo[1 - k], hi[1 - k] = draw(st.sampled_from(
                [(o[1 - k], o[1 - k] + h), (o[1 - k] - h, o[1 - k])]))
            (x0, y0), (x1, y1) = lo, hi
        else:
            static.append(draw(boxes()))
            continue
        static.append(Box((x0, y0, z0), (x1, y1, z1)))
    ground_z = draw(st.one_of(st.none(), st.floats(-3.0, 1.0)))
    world = World(static=static, ground_z=ground_z)
    return (world, o, yaw, sensor, draw(st.floats(0.0, 4.0)),
            draw(st.integers(0, 2**31 - 1)))


@settings(max_examples=500)
@given(culling_scenes())
# randomized seed 3 drew a yaw of 2.2e-311, which makes the middle ray's
# y component subnormal: its reciprocal overflows to inf, in the oracle
# and, with a box in front, in `sense`
@example((World(static=[Box((1.0, -1.0, -1.0), (2.0, 1.0, 1.0))]),
          (0.0, 0.0, 0.0), 5e-324,
          SensorParams(h_fov=1.5, v_fov=1.0, max_range=3.0, h_rays=3,
                       v_rays=1, noise_coeff=0.0), 0.0, 0))
def test_sense_culling_edges_match_oracle(scene):
    assert_same_bytes(sense(*scene), oracle_sense(*scene))


def test_sense_origin_on_box_face_matches_oracle():
    # rays at elevation 0 start in the box's z = 1 face plane: 0 * inf = NaN
    sensor = SensorParams(h_rays=9, v_rays=7, noise_coeff=0.0)
    world = World(static=[Box((1.0, -2.0, 1.0), (2.0, 2.0, 3.0)),
                          Box((-3.0, 1.0, -1.0), (-2.0, 2.0, 1.0))])
    for yaw in (0.0, 0.3, math.pi):
        scene = (world, (0.0, 0.0, 1.0), yaw, sensor, 0.0, 0)
        got = sense(*scene)
        assert len(got) > 0
        assert_same_bytes(got, oracle_sense(*scene))


def test_noisy_sense_from_a_box_face_matches_oracle():
    # the origin sits on the box's x = 0 face and on the floor, with -0.0
    # coordinates: rays into the box hit at a zero t and rays down at
    # t = -0.0, whose scale the abs makes +0.0 and whose offset normal's
    # loc makes +0.0. The body-frame point (o + t * d) - o is +0.0 for
    # either zero, so the output cannot show the offset's sign
    world = World(static=[Box((0.0, -1.0, 0.0), (2.0, 1.0, 2.0))],
                  ground_z=0.0)
    sensor = SensorParams(h_rays=9, v_rays=7)
    for origin in ((-0.0, 0.0, -0.0), (0.0, -0.0, 0.0), (-0.0, -0.0, -0.0)):
        for yaw in (0.0, math.pi, -2.5):
            scene = (world, origin, yaw, sensor, 0.25, 11)
            got = sense(*scene)
            assert np.count_nonzero(~got.any(axis=1)) > 0
            assert_same_bytes(got, oracle_sense(*scene))


# -- voxel and outlier filters ----------------------------------------------

@st.composite
def clouds(draw, max_points=80):
    n = draw(st.integers(0, max_points))
    kind = draw(st.sampled_from(["float", "lattice", "edge"]))
    if kind == "float":
        cloud = draw(hnp.arrays(np.float64, (n, 3),
                                elements=st.floats(-5.0, 5.0)))
    elif kind == "edge":
        # +-0.0, voxel boundaries and coordinates about 1e6 m out
        cloud = draw(hnp.arrays(np.float64, (n, 3), elements=st.one_of(
            st.sampled_from([0.0, -0.0, 0.2, -0.2, 1e6, -1e6, 1e6 + 0.2]),
            st.floats(-1.0, 1.0), st.floats(1e6 - 1.0, 1e6 + 1.0))))
    else:
        # points on a 0.1 m lattice: pairs sit exactly at 0.1 m multiples and
        # points on voxel boundaries, negative ones included
        cells = draw(hnp.arrays(np.int64, (n, 3),
                                elements=st.integers(-20, 20)))
        cloud = cells * 0.1
    if n and draw(st.booleans()):
        dup = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
        cloud = np.concatenate([cloud, cloud[dup]])
    return cloud


voxel_sizes = st.one_of(st.sampled_from([0.1, 0.2, 0.25, 0.5]),
                        st.floats(0.05, 2.0))
radii = st.one_of(st.sampled_from([0.1, 0.2, 0.3, 0.4]),
                  st.floats(0.05, 2.0))


@settings(max_examples=300)
@given(clouds(), voxel_sizes)
def test_voxel_downsample_matches_oracle(cloud, voxel_size):
    assert_same_bytes(voxel_downsample(cloud, voxel_size),
                      oracle_voxel_downsample(cloud, voxel_size))


@settings(max_examples=300)
@given(clouds(), radii, st.integers(1, 6))
def test_outlier_filter_matches_oracle(cloud, radius, min_neighbors):
    got = outlier_filter(cloud, radius, min_neighbors)
    assert_same_bytes(got, brute_outlier_filter(cloud, radius, min_neighbors))
    if off_the_tie_band(cloud, radius):
        assert_same_bytes(got,
                          oracle_outlier_filter(cloud, radius, min_neighbors))


def test_filters_on_empty_and_single_point_clouds():
    for cloud in (np.zeros((0, 3)), np.array([[0.3, -0.2, 1.0]])):
        assert_same_bytes(voxel_downsample(cloud, 0.2),
                          oracle_voxel_downsample(cloud, 0.2))
        assert_same_bytes(outlier_filter(cloud, 0.4, 1),
                          oracle_outlier_filter(cloud, 0.4, 1))


# clouds of up to 600 points, so that both the all-pairs and the sorted
# window count run: sensor-like scatter, walls with one constant axis,
# lattices whose spacing puts pairs exactly one radius apart, far-off and
# mixed-magnitude coordinates, duplicates, NaN and inf
@st.composite
def neighbour_clouds(draw):
    n = draw(st.one_of(st.integers(0, 600),
                       st.sampled_from([pcl.PAIRS_AT_ONCE,
                                        pcl.PAIRS_AT_ONCE + 1])))
    radius = draw(radii)
    kind = draw(st.sampled_from(["scatter", "wall", "lattice", "far",
                                 "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "scatter":
        cloud = rng.uniform(-4.5, 4.5, (n, 3))
    elif kind == "wall":
        # voxel centroids of a wall: one axis constant, the others on a
        # 0.2 m grid, jittered or not
        cloud = (rng.integers(-15, 15, (n, 3)) + 0.5) * 0.2
        cloud[:, draw(st.integers(0, 2))] = draw(st.floats(-4.0, 4.0))
        if draw(st.booleans()):
            cloud += rng.uniform(-0.05, 0.05, (n, 3))
    elif kind == "lattice":
        spacing = radius / draw(st.sampled_from([1, 2, 3]))
        cloud = rng.integers(-6, 6, (n, 3)) * spacing
    elif kind == "far":
        cloud = draw(st.sampled_from([1e6, -1e6, 1e8])) \
            + rng.uniform(-3.0, 3.0, (n, 3))
    else:
        cloud = rng.uniform(-1.0, 1.0, (n, 3)) * rng.choice(
            [1e-3, 1.0, 1e6], size=(n, 1))
    if n and draw(st.booleans()):
        cloud = np.concatenate([cloud, cloud[rng.integers(0, n, n // 4 + 1)]])
    if n and draw(st.integers(0, 5)) == 0:
        cloud[rng.integers(0, len(cloud))] [draw(st.integers(0, 2))] = \
            draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return cloud, radius


@settings(max_examples=300)
@given(neighbour_clouds(), st.integers(1, 6))
def test_outlier_filter_matches_the_tree_count(case, min_neighbors):
    cloud, radius = case
    if not np.isfinite(cloud).all():
        # the tree refuses such a cloud, and so does the filter
        for f in (outlier_filter, tree_outlier_filter):
            with pytest.raises(ValueError, match="finite"):
                f(cloud, radius, min_neighbors)
        return
    got = outlier_filter(cloud, radius, min_neighbors)
    assert_same_bytes(got, brute_outlier_filter(cloud, radius, min_neighbors))
    if off_the_tie_band(cloud, radius):
        assert_same_bytes(got,
                          tree_outlier_filter(cloud, radius, min_neighbors))
        assert_same_bytes(got,
                          oracle_outlier_filter(cloud, radius, min_neighbors))


def _lattice(side, spacing, offset=0.0):
    return np.stack(np.meshgrid(*[np.arange(side) * spacing] * 3),
                    -1).reshape(-1, 3) + offset


@pytest.mark.parametrize("n", [27, 343, 1000])
def test_pairs_one_radius_apart_take_the_tree_count(n):
    # a cubic lattice of spacing r: neighbours on an axis sit r apart, up to
    # the rounding of the offset, so pairs lie on the radius or a few ulps
    # either side of it. Both numpy counts are the definition's, and on
    # these lattices the tree's as well
    r = 0.3
    for offset in (0.0, 1e6, -3.7):
        cloud = _lattice(round(n ** (1 / 3)), r, offset)
        assert not off_the_tie_band(cloud, r)
        want = brute_counts(cloud, r)
        assert (pcl._all_pair_counts(cloud, r) == want).all()
        assert (pcl._window_pair_counts(cloud, r) == want).all()
        for k in (1, 4, 6, 7):
            got = outlier_filter(cloud, r, k)
            assert_same_bytes(got, brute_outlier_filter(cloud, r, k))
            assert_same_bytes(got, tree_outlier_filter(cloud, r, k))


def test_both_numpy_counts_agree_ties_included():
    rng = np.random.default_rng(3)
    clouds = [rng.uniform(-2.0, 2.0, (n, 3))
              for n in (1, 2, 50, pcl.PAIRS_AT_ONCE, 300)]
    clouds += [_lattice(side, 0.4, offset)
               for side in (3, 5, 7) for offset in (0.0, 1e6, -3.7)]
    for cloud in clouds:
        want = brute_counts(cloud, 0.4)
        assert (pcl._all_pair_counts(cloud, 0.4) == want).all()
        assert (pcl._window_pair_counts(cloud, 0.4) == want).all()


# -- the column kernel's edge cases -------------------------------------------

_rng = np.random.default_rng(0)
NAN = np.nan
EDGE_CLOUDS = {
    # each point with a NaN coordinate in a voxel of its own on the other
    # two axes
    "nan": np.array([[NAN, 0.1, 0.1], [0.3, 0.3, 0.3], [NAN, 0.5, 0.1],
                     [0.1, NAN, NAN], [0.31, 0.29, 0.33], [NAN] * 3]),
    # +-0.0 in every position, and a tiny negative in the next voxel down
    "signed_zero": np.array([[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0],
                             [-0.0, -0.0, -0.0], [0.0, -0.0, 0.1],
                             [-1e-300, 0.0, 0.0], [0.1, -0.0, 0.0]]),
    # about 1e6 m out, on a 0.05 m lattice across voxel boundaries and at
    # scattered offsets
    "far": np.concatenate([
        np.stack(np.meshgrid(*[1e6 + 0.05 * np.arange(-3, 4)] * 3),
                 -1).reshape(-1, 3) * [1.0, -1.0, 1.0],
        1e6 + _rng.uniform(-1.0, 1.0, size=(40, 3))]),
    "one_voxel": 0.2 + _rng.uniform(0.0, 0.2, size=(60, 3)) * (1 - 1e-12),
    "own_voxels": _rng.permutation(
        (np.stack(np.meshgrid(*[np.arange(-3, 3)] * 3), -1).reshape(-1, 3)
         + 0.5) * 0.2),
}


@pytest.mark.parametrize("name", sorted(EDGE_CLOUDS))
def test_voxel_downsample_edge_clouds_match_oracles(name):
    cloud = EDGE_CLOUDS[name]
    got = voxel_downsample(cloud, 0.2)
    assert_same_bytes(got, oracle_rowwise_voxel_downsample(cloud, 0.2))
    with np.errstate(invalid="ignore"):     # the int64 cast of a NaN
        assert_same_bytes(got, oracle_voxel_downsample(cloud, 0.2))
    want = {"one_voxel": 1, "own_voxels": len(cloud)}.get(name)
    if want is not None:
        assert len(got) == want


def test_voxel_downsample_keeps_nan_points_apart():
    # np.unique's oracle casts a NaN index to one int64, so it merges NaN
    # points whose other indices agree; the lexsort kernels, row-wise and
    # by columns alike, keep each NaN point as a voxel of its own
    cloud = np.array([[NAN, 0.1, 0.1], [NAN, 0.15, 0.05], [0.3, 0.3, 0.3]])
    got = voxel_downsample(cloud, 0.2)
    assert_same_bytes(got, oracle_rowwise_voxel_downsample(cloud, 0.2))
    assert_same_bytes(got, cloud)
    with np.errstate(invalid="ignore"):
        assert len(oracle_voxel_downsample(cloud, 0.2)) == 2
