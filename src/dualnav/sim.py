"""Deterministic flight test environment.

Axis-aligned box worlds with optional scripted moving obstacles, a ray-cast
depth sensor returning body-frame clouds, and double-integrator drone
dynamics. Everything is a pure function of (world, state, time, seed) so runs
replay bit for bit.
"""
from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import norm


@dataclass(frozen=True)
class Box:
    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if not np.all(hi > lo):
            raise ValueError("box must have positive extent on every axis")

    def arrays(self):
        return np.asarray(self.lo, dtype=float), np.asarray(self.hi, dtype=float)

    @functools.cached_property
    def bounds(self) -> tuple:
        """(x0, y0, z0, x1, y1, z1) as Python floats."""
        lo, hi = self.arrays()
        return tuple(lo.tolist() + hi.tolist())


@dataclass
class DynamicObstacle:
    """A box following a piecewise-linear center schedule.

    Before the first schedule time the obstacle is absent; after the last it
    stays at the final position.
    """
    size: tuple                  # (dx, dy, dz) extents
    times: list                  # ascending schedule times
    positions: list              # center position per schedule time

    def __post_init__(self):
        if len(self.times) != len(self.positions) or not self.times:
            raise ValueError("schedule needs matching, nonempty times/positions")
        if any(b < a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("schedule times must be non-decreasing")

    def center_at(self, t: float):
        if t < self.times[0]:
            return None
        pos = np.asarray(self.positions, dtype=float)
        if t >= self.times[-1]:
            return pos[-1]
        k = int(np.searchsorted(self.times, t, side="right")) - 1
        t0, t1 = self.times[k], self.times[k + 1]
        f = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
        return pos[k] + f * (pos[k + 1] - pos[k])

    def box_at(self, t: float):
        c = self.center_at(t)
        if c is None:
            return None
        half = np.asarray(self.size, dtype=float) / 2.0
        return Box(tuple(c - half), tuple(c + half))


@dataclass
class World:
    static: list = field(default_factory=list)       # list of Box
    dynamic: list = field(default_factory=list)      # list of DynamicObstacle
    ground_z: float | None = None                    # sensed floor plane

    def boxes_at(self, t: float):
        boxes = list(self.static)
        for d in self.dynamic:
            b = d.box_at(t)
            if b is not None:
                boxes.append(b)
        return boxes


@dataclass(frozen=True)
class SensorParams:
    h_fov: float = math.radians(86.0)
    v_fov: float = math.radians(57.0)
    max_range: float = 5.0
    h_rays: int = 64
    v_rays: int = 36
    noise_coeff: float = 0.005    # radial noise std per meter of range

    def __post_init__(self):
        if not (0.0 < self.h_fov < math.pi and 0.0 < self.v_fov < math.pi):
            raise ValueError("FOVs must lie in (0, pi)")
        if self.h_rays < 1 or self.v_rays < 1:
            raise ValueError("h_rays and v_rays must be >= 1")
        if not self.max_range > 0:
            raise ValueError("max_range must be > 0")
        if not self.noise_coeff >= 0:
            raise ValueError("noise_coeff must be >= 0")


@dataclass
class DroneState:
    p: np.ndarray
    v: np.ndarray
    yaw: float = 0.0


@functools.lru_cache(maxsize=8)
def _fan(sensor: SensorParams):
    """Yaw-independent parts of the ray fan: the azimuths and the cos/sin of
    the elevations (read-only, shared by every call with these params)."""
    az = np.linspace(-sensor.h_fov / 2.0, sensor.h_fov / 2.0, sensor.h_rays)
    el = np.linspace(-sensor.v_fov / 2.0, sensor.v_fov / 2.0, sensor.v_rays)
    parts = (az, np.cos(el), np.sin(el))
    for a in parts:
        a.flags.writeable = False
    return parts


def _ray_directions(sensor: SensorParams, yaw: float) -> np.ndarray:
    """Unit ray directions, axis-major (3, h_rays * v_rays); ray i * v_rays
    + j has azimuth i and elevation j."""
    az, cos_el, sin_el = _fan(sensor)
    azy = az + yaw
    dirs = np.empty((3, sensor.h_rays, sensor.v_rays))
    np.multiply.outer(np.cos(azy), cos_el, out=dirs[0])
    np.multiply.outer(np.sin(azy), cos_el, out=dirs[1])
    dirs[2] = sin_el
    return dirs.reshape(3, -1)


def _wrap(a: float) -> float:
    """An angle wrapped into [-pi, pi)."""
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def _box_columns(x0, y0, x1, y1, az, yaw: float):
    """Fan columns [start, stop) whose azimuths can meet the xy footprint
    [x0, x1] x [y0, y1], given relative to the origin.

    From outside, the footprint spans an azimuth interval narrower than pi.
    It is measured from the corner angles relative to one corner, then
    centred on its midpoint relative to the yaw, widened by a slack of
    1e-9 rad per radian of yaw beyond the first, and looked up in the fan's
    ascending azimuths az. An origin on or inside the footprint takes every
    column (from a corner, the slab test enters the box at t = 0 along rays
    that point away from it), and so does an interval within the slack of
    a half-plane.
    """
    if x0 <= 0.0 <= x1 and y0 <= 0.0 <= y1:
        return 0, len(az)
    a0 = math.atan2(y0, x0)
    d = [0.0, _wrap(math.atan2(y0, x1) - a0), _wrap(math.atan2(y1, x0) - a0),
         _wrap(math.atan2(y1, x1) - a0)]
    d_lo, d_hi = min(d), max(d)
    half = 0.5 * (d_hi - d_lo) + 1e-9 * (1.0 + abs(yaw))
    if half >= 0.5 * math.pi:
        return 0, len(az)
    mid = _wrap(a0 + 0.5 * (d_lo + d_hi) - yaw)
    # bisect is searchsorted's left and right side, without a numpy call
    return (bisect.bisect_left(az, mid - half),
            bisect.bisect_right(az, mid + half))


def _first_hits(origin, dirs, boxes, sensor: SensorParams,
                yaw: float) -> np.ndarray:
    """Entry distance of each ray into the nearest box (inf when it misses
    every box), as one slab test per box over the rays that can reach it.

    Boxes whose nearest point lies beyond max_range are left out, since no
    hit of theirs is kept. The gaps are Python floats, box by box, and the
    test keeps every box within max_range * (1 + 2e-9): that is more than
    any rounding of the gap's norm can move a box that lies within
    max_range * (1 + 1e-9), and a box beyond that adds only entries above
    max_range, which `sense` drops whichever boxes are kept. A ray starting
    on a box face gives 0 * inf = NaN on that axis, which fmax/fmin pass
    over like nanmax/nanmin; their reduce over the three axes takes them in
    order, as the pairwise calls did.

    Each remaining box is slab-tested only on the fan columns its xy
    footprint can cover (`_box_columns`); ray i * v_rays + j is in column i,
    so those rays are one contiguous slice of the axis-major dirs, and the
    rays' reciprocals are taken once, over the span of all those slices.
    This is exact:
    - every ray of a column has that column's azimuth in xy, since the
      cosine of its elevation is positive;
    - a footprint seen from outside covers less than pi, and h_fov < pi, so
      the part of an interval that wraps past +-pi never meets the fan;
    - the slack of `_box_columns` is far above the rounding of the corner
      angles, of the yawed azimuths and of the ray directions, so a ray
      outside a box's columns misses the box's footprint by more than
      rounding can close, and its slab entry would have been inf;
    - np.minimum(t, inf) is t bit for bit, and the boxes are folded in in
      order, as before, so ties between 0.0 and -0.0 resolve alike.
    """
    t_hit = np.full(dirs.shape[1], np.inf)
    ox, oy, oz = origin.tolist()
    reach = sensor.max_range * (1.0 + 2e-9)
    reach *= reach
    az = _fan(sensor)[0]
    v = sensor.v_rays
    slabs = []
    for box in boxes:
        x0, y0, z0, x1, y1, z1 = box.bounds
        gx = ox - min(max(ox, x0), x1)
        gy = oy - min(max(oy, y0), y1)
        gz = oz - min(max(oz, z0), z1)
        if gx * gx + gy * gy + gz * gz > reach:
            continue
        # lo and hi relative to the origin
        lo = (x0 - ox, y0 - oy, z0 - oz)
        hi = (x1 - ox, y1 - oy, z1 - oz)
        c0, c1 = _box_columns(lo[0], lo[1], hi[0], hi[1], az, yaw)
        if c0 < c1:
            slabs.append((c0 * v, c1 * v, (lo, hi)))
    if not slabs:
        return t_hit
    first = min(s[0] for s in slabs)
    # a zero component gives inf, and a subnormal one overflows to it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = 1.0 / dirs[:, first:max(s[1] for s in slabs)]
        for r0, r1, rel in slabs:
            t0, t1 = np.array(rel)[:, :, None] * inv[:, r0 - first:r1 - first]
            t_lo = np.minimum(t0, t1)
            t_hi = np.maximum(t0, t1, out=t0)
            tmin = np.fmax.reduce(t_lo)
            tmax = np.fmin.reduce(t_hi)
            t_ent = np.where((tmax >= tmin) & (tmax >= 0.0),
                             np.maximum(tmin, 0.0), np.inf)
            np.minimum(t_hit[r0:r1], t_ent, out=t_hit[r0:r1])
    return t_hit


def sense(world: World, position, yaw: float, sensor: SensorParams,
          time: float, seed: int) -> np.ndarray:
    """Body-frame first-hit point cloud from a FOV ray grid.

    The body frame here is yaw-aligned only (the simulated camera is kept
    level). Noise is zero-mean Gaussian along each ray with std proportional
    to the hit distance; the generator is keyed on (seed, time) so identical
    queries return identical clouds.
    """
    origin = np.asarray(position, dtype=float)
    dirs = _ray_directions(sensor, yaw)
    t_hit = _first_hits(origin, dirs, world.boxes_at(time), sensor, yaw)
    if world.ground_z is not None:
        # a ray's distance to the floor depends only on its elevation
        dz = _fan(sensor)[2]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_pl = (world.ground_z - origin[2]) / dz
        t_pl = np.where((dz != 0.0) & (t_pl >= 0.0), t_pl, np.inf)
        t_hit = np.minimum(t_hit.reshape(sensor.h_rays, -1), t_pl).ravel()
    hit = t_hit <= sensor.max_range
    if not np.any(hit):
        return np.zeros((0, 3))
    t = t_hit[hit]
    if sensor.noise_coeff > 0.0:
        rng = np.random.default_rng(
            np.random.SeedSequence([int(seed), int(round(time * 1e6))]))
        # rng.normal(0.0, scale) computes 0.0 + scale * z over this same
        # stream, but broadcasts and checks its scale element by element. A
        # ray starting on a surface hits at t = -0.0: abs keeps its scale
        # +0.0, and + 0.0 turns a -0.0 product into the +0.0 that normal's
        # loc gives, so t keeps normal's bits
        z = rng.standard_normal(len(t))
        z *= sensor.noise_coeff * np.abs(t)
        z += 0.0
        t = t + z
    # the Earth-frame hit minus the origin, axis by axis, then back to the
    # yaw-aligned body frame
    rx, ry, rz = ((o + t * d) - o for o, d in zip(origin.tolist(),
                                                  dirs[:, hit]))
    c, s = math.cos(yaw), math.sin(yaw)
    body = np.empty((len(t), 3))
    body[:, 0] = c * rx + s * ry
    body[:, 1] = -s * rx + c * ry
    body[:, 2] = rz
    return body


def step_dynamics(state: DroneState, a_n, dt: float, v_max: float) -> DroneState:
    """Exact double-integrator step with the command held over dt."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    a = np.asarray(a_n, dtype=float)
    p = state.p + state.v * dt + 0.5 * a * dt * dt
    v = state.v + a * dt
    nv = norm(v)
    if nv > v_max:
        v = v * (v_max / nv)
    return DroneState(p=p, v=v, yaw=state.yaw)


def check_collision(world: World, position, radius: float, time: float) -> bool:
    """Sphere-vs-world intersection test against the time-indexed boxes.

    Only the boxes whose per-axis gaps to the centre are all within
    radius * (1 + 1e-12) + 1e-150 get the per-box norm test. This is exact:
    a box's gap on an axis is computed as that axis's component of
    p - nearest, and the computed norm is never below a component whose
    square neither underflows nor overflows, so a box with a larger gap
    misses. The 1e-150 term keeps the boxes whose gaps square to below the
    smallest normal float, where the norm can read 0. The gaps are Python
    floats, box by box: with a few boxes, one numpy call costs more than
    the whole test.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    p = np.asarray(position, dtype=float)
    px, py, pz = p.tolist()
    reach = radius * (1.0 + 1e-12) + 1e-150
    for box in world.boxes_at(time):
        (x0, y0, z0), (x1, y1, z1) = box.lo, box.hi
        if (x0 - px > reach or px - x1 > reach or y0 - py > reach
                or py - y1 > reach or z0 - pz > reach or pz - z1 > reach):
            continue
        lo, hi = box.arrays()
        nearest = np.clip(p, lo, hi)
        if norm(p - nearest) <= radius:
            return True
    return False


def scan_world(world: World, voxel_size: float) -> np.ndarray:
    """Surface-voxel centers of the static boxes (known-world map seeding).

    Emits the center of every voxel on the shell of each box's covered voxel
    volume, matching what a noise-free depth sensor would accumulate.
    """
    eps = 1e-9
    pts = []
    for box in world.static:
        lo, hi = box.arrays()
        i0 = np.floor(lo / voxel_size + eps).astype(int)
        i1 = np.floor((hi - eps) / voxel_size).astype(int)
        xs = np.arange(i0[0], i1[0] + 1)
        ys = np.arange(i0[1], i1[1] + 1)
        zs = np.arange(i0[2], i1[2] + 1)
        gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
        shell = ((gx == i0[0]) | (gx == i1[0]) | (gy == i0[1]) | (gy == i1[1])
                 | (gz == i0[2]) | (gz == i1[2]))
        idx = np.stack([gx[shell], gy[shell], gz[shell]], axis=1)
        pts.append((idx + 0.5) * voxel_size)
    if not pts:
        return np.zeros((0, 3))
    return np.vstack(pts)
