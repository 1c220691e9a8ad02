"""High-frequency point-cloud planner.

Every step: derive the instantaneous goal from the reference path via the
Fermat point of a weighted triangle, streamline the nearby cloud, search a fan
of candidate rays for a safe waypoint, and solve a small constrained problem
for the acceleration command. A safety backup covers the no-ray case, and
`hold` brakes to a stop when there is no path to follow.

The planner runs at the framework's highest rate, so its 3-vector arithmetic
runs on Python floats wherever that gives the bits of the numpy expression it
stands for: an elementwise +, -, * or / and a comparison are the same IEEE
operation either way. Three rules say what a command is. A 3-vector norm is
sqrt(x.dot(x)), which is what `np.linalg.norm` computes. A float shortcut
decides a comparison of a norm with a bound only outside a guard band around
the squared bound: 4e-15 relative, about 36 times the unit roundoff 2**-53,
where rounding needs about 10 (`_norm_bound`); numpy decides the rest, which
lie within a few ulps of the bound. One batched clearance score per ray
decides the DAS fan (`_fan_clearance`): `das_search` takes the first open
ray that scores at least r_safe**2, and `safety_backup` the first open ray
of the largest score.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import norm, row_norms, unit


R_DEC = 3.0         # goal-approach deceleration radius, m
R_DET = 2.0         # detection radius: the cloud and rays reach this far, m
WAYPOINT_DIST = 0.3     # distance from the drone to a DAS waypoint, m
N_USE = 70          # points of the frame kept for the collision check
KAPPA1 = 4.2        # Fermat-triangle weight of the next waypoint
KAPPA2 = 1.5        # Fermat-triangle weight of the waypoint after it
DAS_ANGLE_STEP = math.radians(10.0)     # offset angle between DAS rounds
ETA1 = 40.0         # motion cost weight of the distance to the waypoint
ETA2 = 10.0         # motion cost weight of the heading error
OPT_TOL = 1e-3      # the optimizer stops once a step moves a by at most this


@dataclass
class PcpParams:
    r_safe: float = 0.5
    v_max: float = 1.0
    a_max: float = 2.0
    max_opt_iters: int = 20

    def __post_init__(self):
        if not all(x > 0 for x in (self.r_safe, self.v_max, self.a_max)):
            raise ValueError("r_safe, v_max, a_max must be > 0")
        if not self.max_opt_iters >= 1:
            raise ValueError("max_opt_iters must be >= 1")
        if self.v_max ** 2 / (2.0 * self.a_max) >= self.r_safe:
            raise ValueError("braking distance v_max^2/(2 a_max) must be < r_safe")


@dataclass
class MotionCommand:
    a_n: np.ndarray
    mode: str = "normal"          # normal | backup_steer | backup_brake
    converged: bool = True
    iterations: int = 0


# -- same-bytes 3-vector arithmetic on floats ---------------------------------

_GUARD = 4e-15   # relative half-width of the guard band around a squared bound
_TINY = 1e-300   # absolute slack for squares that round in the subnormal range


def _dot(a, b) -> float:
    """np.dot of two vectors given as float sequences."""
    return float(np.array(a).dot(np.array(b)))


def _sq(v) -> float:
    """x.dot(x) for x = np.array(v); `x @ x` computes the same dot."""
    x = np.array(v)
    return float(x.dot(x))


def _vnorm(v) -> float:
    """`norm(np.array(v))`: np.linalg.norm of a float sequence."""
    return math.sqrt(_sq(v))


def _band(r):
    """Bounds below and above r*r outside which `_norm_bound` decides."""
    r2 = r * r
    return r2 * (1.0 - _GUARD) - _TINY, r2 * (1.0 + _GUARD) + _TINY


def _norm_bound(x, y, z, r) -> float:
    """A stand-in for `_vnorm((x, y, z))` that compares with r as it does.

    With u = 2**-53: the naive s = x*x + y*y + z*z and numpy's dot (an FMA
    chain) each lie within gamma3 ~ 3u (relative) of the exact sum of
    squares, plus at most 3 * 2**-1075 from squares that round in the
    subnormal range, so the dot lies within about 6u of s. The band's bounds
    r*r * (1 -+ g) round twice, by up to 2u. A dot below r*r has a rounded
    square root of at most r, and one above r*r * (1 + 2u) a root above r.
    So a relative half-width g above about 10u ~ 1.1e-15 decides as the dot
    does; _GUARD is 4e-15 ~ 36u, which leaves margin, and _TINY covers the
    subnormal terms. Below the band the stand-in is 0.0, above it inf;
    inside the band, and for NaN, it is the exact norm.
    """
    s = x * x + y * y + z * z
    below, above = _band(r)
    if s < below:
        return 0.0
    if s > above:
        return math.inf
    return _vnorm((x, y, z))


def _cross(a, b):
    """np.cross of two 3-vectors, as numpy's products and differences."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _allclose(a, b) -> bool:
    """np.allclose(a, b) of two 3-vectors, with its default tolerances."""
    return all((abs(x - y) <= 1e-8 + 1e-5 * abs(y) and math.isfinite(y))
               or x == y for x, y in zip(a, b))


# -- goal extraction ---------------------------------------------------------

def _fermat_point_2d(P):
    """Geometric median of a planar triangle (classical case analysis).

    P holds three (x, y) pairs; so does the result.
    """
    (x0, y0), (x1, y1), (x2, y2) = P
    # B[i] = P[i+2] - P[i]: side i, opposite vertex i, is |B[i+2]|, and the
    # angle at vertex i spans A[i] = P[i+1] - P[i] = -B[i+1] and B[i]
    B = ((x2 - x0, y2 - y0), (x0 - x1, y0 - y1), (x1 - x2, y1 - y2))
    nb = [_vnorm(b) for b in B]
    sides = [nb[2], nb[0], nb[1]]
    # degenerate: collinear or coincident vertices -> middle vertex
    area2 = abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
    if area2 < 1e-12 * max(1.0, max(sides) ** 2):
        sums = [sum(_vnorm((xi - xj, yi - yj)) for xj, yj in P)
                for xi, yi in P]
        return P[sums.index(min(sums))]
    A = ((x1 - x0, y1 - y0), (x2 - x1, y2 - y1), (x0 - x2, y0 - y2))
    angles = []
    for i in range(3):
        cosang = _dot(A[i], B[i]) / (nb[(i + 1) % 3] * nb[i])
        angles.append(math.acos(min(1.0, max(-1.0, cosang))))
    imax = angles.index(max(angles))
    if angles[imax] >= 2.0 * math.pi / 3.0:
        return P[imax]
    # isogonic point: barycentric weights a_i / sin(A_i + 60 deg)
    w = np.array(sides) / np.sin(np.array(angles) + math.pi / 3.0)
    return ((w[:, None] * np.array(P)).sum(axis=0) / w.sum()).tolist()


def fermat_point(vertices) -> np.ndarray:
    """Point minimizing the sum of distances to three 3D vertices."""
    V = np.asarray(vertices, dtype=float).reshape(3, 3)
    v0, v1, v2 = V.tolist()
    e1 = [b - a for a, b in zip(v0, v1)]
    n1 = _vnorm(e1)
    if n1 < 1e-15:
        e1 = [b - a for a, b in zip(v0, v2)]
        n1 = _vnorm(e1)
        if n1 < 1e-15:
            return V[0].copy()
    u = [x / n1 for x in e1]
    e2 = [b - a for a, b in zip(v0, v2)]
    k = _dot(e2, u)
    e2p = [x - k * y for x, y in zip(e2, u)]
    n2 = _vnorm(e2p)
    v = [x / n2 for x in e2p] if n2 > 1e-15 else _any_orthogonal(u)
    # when e2 runs along e1, e2p is mostly rounding error and v can lean
    # on u, which the plane coordinates below take as orthonormal; a lean
    # c moves the mapped point by up to |c| times its distance from v0, so
    # above 1e-9 remove u from v once more, or, when v lies along u, use
    # any orthogonal direction (the height is then of the rounding's order)
    c = _dot(v, u)
    if abs(c) > 1e-9:
        w = [x - c * y for x, y in zip(v, u)]
        nw = _vnorm(w)
        v = [x / nw for x in w] if nw > 0.5 else _any_orthogonal(u)
    D = V - V[0]
    plane = zip((D @ np.array(u)).tolist(), (D @ np.array(v)).tolist())
    f0, f1 = _fermat_point_2d(tuple(plane))
    return np.array([a + f0 * b + f1 * c for a, b, c in zip(v0, u, v)])


def _any_orthogonal(u):
    ref = (1.0, 0.0, 0.0) if abs(u[0]) < 0.9 else (0.0, 1.0, 0.0)
    w = _cross(u, ref)
    n = _vnorm(w)
    return [x / n for x in w]


def compute_goal(p_n, v_0, path_waypoints):
    """Current PCP goal: Fermat point of the weighted waypoint triangle."""
    wp = np.asarray(path_waypoints, dtype=float).reshape(-1, 3)
    if len(wp) == 0:
        raise ValueError("path must contain at least one waypoint")
    p = np.asarray(p_n, dtype=float).tolist()
    v = np.asarray(v_0, dtype=float).tolist()
    pt1 = wp[0].tolist()
    pt2 = wp[1].tolist() if len(wp) > 1 else pt1
    return fermat_point([
        [KAPPA1 * (a - b) + b for a, b in zip(pt1, p)],
        [KAPPA2 * (a - b) + b for a, b in zip(pt2, p)],
        [a + b for a, b in zip(v, p)],
    ])


# -- point-cloud streamlining ------------------------------------------------

def streamline(pcl_sorted: np.ndarray, dist: np.ndarray, p_n, g_n,
               seed: int = 0) -> np.ndarray:
    """Cap the sorted collision-check cloud at N_USE points: the ascending
    indices of the points kept. `dist` holds the points' distances to p_n.

    Priority points lie within half the far distance (that of the last
    point) or within 90 degrees of the goal direction; surplus is removed by
    evenly spaced thinning, deficits topped up by seeded sampling from the
    complement.
    """
    pts = np.asarray(pcl_sorted, dtype=float).reshape(-1, 3)
    if len(pts) <= N_USE:
        return np.arange(len(pts))
    p_n = np.asarray(p_n, dtype=float)
    # a single 3-vector's norm is a dot product, whose last bit can differ
    # from the row-wise norm's, so d_ft is not dist[-1]
    d_ft = norm(pts[-1] - p_n)
    g_dir = np.asarray(g_n, dtype=float) - p_n
    rel = pts - p_n
    ahead = rel @ g_dir >= 0.0          # angle to goal direction <= 90 deg
    priority = (dist <= 0.5 * d_ft) | ahead
    pri_idx = np.flatnonzero(priority)
    if len(pri_idx) > N_USE:
        # picks (L - 1) / (N_USE - 1) > 1 apart round to N_USE distinct
        # ascending indices into the ascending pri_idx
        pick = np.linspace(0, len(pri_idx) - 1, N_USE).round().astype(int)
        return pri_idx[pick]
    rest = np.flatnonzero(~priority)
    rng = np.random.default_rng(seed)
    extra = rng.choice(rest, size=N_USE - len(pri_idx), replace=False)
    return np.sort(np.concatenate([pri_idx, extra]))


# -- collision checking and waypoint search ----------------------------------

def _fan_clearance(rays, rel, rel2):
    """Smallest squared distance from the points to each segment of a fan:
    rel2 - t (2P - t), with P = rays @ rel.T and t = clip(P, 0, R_DET).

    The rays have norms of about 1, rel = pts - p_n and rel2 holds its
    squared row norms; inf with no points. With u = 2**-53 and S =
    max|p_n| + max|rel| + R_DET, a score near r_safe**2 lies within about
    81u S**2 of the exact squared distance from the points to the segment
    along the exact unit ray.
    """
    p = rays @ rel.T
    t = np.minimum(np.maximum(p, 0.0), R_DET)
    return (rel2 - t * (2.0 * p - t)).min(axis=1, initial=math.inf)


# (cos, sin) of the offset angle of each DAS round after round 0: rounds 1
# to 9 fan out to 90 degrees
_FAN_ROUNDS = tuple((math.cos(q * DAS_ANGLE_STEP),
                     math.sin(q * DAS_ANGLE_STEP)) for q in range(1, 10))


def _fan_vectors(d) -> np.ndarray:
    """The DAS fan after ray 0, the unit goal direction d, one row per ray in
    search order: per round the two horizontal and the two vertical symmetric
    offsets c d +- s axis (`_FAN_ROUNDS`); `unit(row)` is the ray."""
    horiz = unit(np.array([d[0], d[1], 0.0]))
    if norm(horiz) == 0.0:
        horiz = np.array([1.0, 0.0, 0.0])
    hx, hy, _ = horiz.tolist()
    side = (-hy, hx, 0.0)                              # horizontal-plane normal
    vert = unit(np.array(_cross(side, d.tolist())))    # vertical-plane axis
    cs = np.array(_FAN_ROUNDS)
    cd, s = cs[:, :1] * d, cs[:, 1:]
    return np.stack((cd + s * side, cd - s * side, cd + s * vert,
                     cd - s * vert), axis=1).reshape(-1, 3)


def das_search(p_n, g_n, cloud_sorted: np.ndarray, params: PcpParams,
               waypoint_dist: float = WAYPOINT_DIST,
               excluded: set | None = None):
    """First collision-free candidate ray; returns (w_pn, ray_index) or None.

    A ray is free when its `_fan_clearance` score is at least r_safe**2.
    Ray 0 is scored alone. The rest of the fan is built only when ray 0 is
    blocked or excluded, and scored in one call.
    """
    p_n = np.asarray(p_n, dtype=float)
    g_n = np.asarray(g_n, dtype=float)
    d = g_n - p_n
    nd = norm(d)
    if nd == 0.0:
        return None
    ray = d / nd                                        # unit(d): ray 0
    excluded = excluded or ()
    r2 = params.r_safe * params.r_safe
    pts = np.asarray(cloud_sorted, dtype=float).reshape(-1, 3)
    rel = pts - p_n
    rel2 = np.einsum("ij,ij->i", rel, rel)
    if 0 not in excluded and _fan_clearance(ray[None], rel, rel2)[0] >= r2:
        return p_n + waypoint_dist * ray, 0
    fan = _fan_vectors(ray)
    clear = _fan_clearance(fan / row_norms(fan)[:, None], rel, rel2)
    for i, m in enumerate(clear.tolist(), 1):
        if i not in excluded and m >= r2:
            return p_n + waypoint_dist * unit(fan[i - 1]), i
    return None


# -- motion optimization -----------------------------------------------------

def _feasible(ax, ay, az, vx, vy, vz, t, v_max, a_max):
    """Clip a = (ax, ay, az) to a_max, then shrink it along itself until
    |v_n + a t| <= v_max (at most 60 bisection steps); brake when |v_n| alone
    exceeds v_max. Returns the projected (ax, ay, az)."""
    if _norm_bound(ax, ay, az, a_max) > a_max:
        k = a_max / _vnorm((ax, ay, az))
        ax, ay, az = ax * k, ay * k, az * k
    if _norm_bound(vx + ax * t, vy + ay * t, vz + az * t, v_max) > v_max:
        if _norm_bound(vx, vy, vz, v_max) > v_max:   # cannot fix by scaling: brake
            return tuple(_brake_accel(np.array((vx, vy, vz)), a_max).tolist())
        # shrink a along itself until the predicted speed is feasible; each
        # step decides |v_n + mid * a * t| <= v_max as `_norm_bound` does
        below, above = _band(v_max)
        decided = {}    # the in-band decision of each (x, y, z) met
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            # lo only ever takes feasible mids and hi infeasible ones (1.0 by
            # the entry test), so once mid is either, every step is a no-op
            if mid == lo or mid == hi:
                break
            x = vx + mid * ax * t
            y = vy + mid * ay * t
            z = vz + mid * az * t
            s = x * x + y * y + z * z
            if below <= s <= above:
                key = (x, y, z)
                feasible = decided.get(key)
                if feasible is None:
                    feasible = decided[key] = _vnorm(key) <= v_max
            else:
                feasible = s < below
            if feasible:
                lo = mid
            else:
                hi = mid
        ax, ay, az = lo * ax, lo * ay, lo * az
    return ax, ay, az


def _brake_accel(v_n, a_max):
    nv = norm(v_n)
    if nv == 0.0:
        return np.zeros(3)
    return -v_n / nv * a_max


def plan_motion(p_n, v_n, w_pn, t_avs: float, params: PcpParams) -> MotionCommand:
    """Projected-gradient solve of the fixed-horizon motion problem.

    The cost of an acceleration a is |a|^2 + eta1 |w - p1| + eta2 |u x r| / |r|
    with p1 = p_n + v_n t + a t^2 / 2, u = 2 v_n t + 2 a t^2 and r = w - p_n.
    """
    if t_avs <= 0:
        raise ValueError("t_avs must be > 0")
    p_n = np.asarray(p_n, dtype=float)
    v_n = np.asarray(v_n, dtype=float)
    w = np.asarray(w_pn, dtype=float)
    r = w - p_n
    dw = norm(r)
    if dw < 1e-12:
        a = _feasible(*_brake_accel(v_n, params.a_max).tolist(),
                      *v_n.tolist(), t_avs, params.v_max, params.a_max)
        return MotionCommand(np.array(a))

    t, eta1, eta2 = t_avs, ETA1, ETA2
    v_max, a_max = params.v_max, params.a_max
    vx, vy, vz = v_n.tolist()
    rx, ry, rz = r.tolist()
    wx, wy, wz = w.tolist()
    # the a-independent terms of p1 and u, and the gradient factors
    px, py, pz = (p_n + v_n * t).tolist()
    ux, uy, uz = (2.0 * v_n * t).tolist()
    k1 = eta1 * (0.5 * t * t)
    k2 = eta2 * (2.0 * t * t)

    def cost_grad(ax, ay, az):
        e1x = wx - (px + 0.5 * ax * t * t)
        e1y = wy - (py + 0.5 * ay * t * t)
        e1z = wz - (pz + 0.5 * az * t * t)
        n1 = _vnorm((e1x, e1y, e1z))
        cost = _sq((ax, ay, az)) + eta1 * n1
        gx, gy, gz = 2.0 * ax, 2.0 * ay, 2.0 * az
        if n1 > 1e-12:
            gx, gy, gz = gx - k1 * e1x / n1, gy - k1 * e1y / n1, gz - k1 * e1z / n1
        if dw > 1e-12:
            c = _cross((ux + 2.0 * ax * t * t, uy + 2.0 * ay * t * t,
                        uz + 2.0 * az * t * t), (rx, ry, rz))
            nc = _vnorm(c)
            cost += eta2 * nc / dw
            if nc > 1e-12:
                xx, xy, xz = _cross((rx, ry, rz), (c[0] / nc, c[1] / nc, c[2] / nc))
                gx, gy, gz = gx + k2 * xx / dw, gy + k2 * xy / dw, gz + k2 * xz / dw
        return cost, (gx, gy, gz)

    a = (0.0, 0.0, 0.0)
    cost, grad = cost_grad(*a)
    converged = False
    it = 0
    step = 0.25
    for it in range(1, params.max_opt_iters + 1):
        trial_step = step
        new_a = a
        for _ in range(12):
            cand = _feasible(a[0] - trial_step * grad[0],
                             a[1] - trial_step * grad[1],
                             a[2] - trial_step * grad[2],
                             vx, vy, vz, t, v_max, a_max)
            c2, g2 = cost_grad(*cand)
            if c2 <= cost - 1e-12 * abs(cost) or _allclose(cand, a):
                new_a, cost, grad = cand, c2, g2
                step = trial_step * 1.5
                break
            trial_step *= 0.5
        else:
            converged = True
            break
        moved = _norm_bound(new_a[0] - a[0], new_a[1] - a[1], new_a[2] - a[2],
                            OPT_TOL)
        a = new_a
        if moved <= OPT_TOL:
            converged = True
            break
    a = _feasible(*a, vx, vy, vz, t, v_max, a_max)
    return MotionCommand(np.array(a), converged=converged, iterations=it)


def hold(v_n, t: float, a_max: float) -> MotionCommand:
    """Hold command: brake to a stop within the horizon t, at most at a_max."""
    # every nonzero speed is braked, however small, so the drone stops
    # within the horizon whenever a_max allows it
    a_max = min(a_max, norm(v_n) / t)
    return MotionCommand(_brake_accel(v_n, a_max), mode="hold")


# -- safety backup -----------------------------------------------------------

def braking_distance(v_n, a_max: float) -> float:
    return float(norm(np.asarray(v_n, dtype=float)) ** 2 / (2.0 * a_max))


def safety_backup(p_n, v_n, p_prev, cloud_sorted: np.ndarray,
                  params: PcpParams, blocked_rays: set) -> MotionCommand:
    """Fallback when no candidate ray is collision-free.

    Steers along the widest ray not in blocked_rays, the first open ray of
    the largest `_fan_clearance` score, while the braking distance still
    fits. A NaN score never wins. Otherwise, or with no ray to steer along,
    brakes and retreats toward the previous position.
    """
    p_n = np.asarray(p_n, dtype=float)
    v_n = np.asarray(v_n, dtype=float)
    pts = np.asarray(cloud_sorted, dtype=float).reshape(-1, 3)
    d_bkd = braking_distance(v_n, params.a_max)
    t_avs = max(WAYPOINT_DIST / params.v_max, 1e-3)
    rel = pts - p_n
    min_obs = float(np.min(row_norms(rel))) if len(pts) else math.inf
    if min_obs > d_bkd:
        goal_dir = unit(np.asarray(p_prev, dtype=float) - p_n)
        if norm(goal_dir) == 0.0:
            goal_dir = unit(v_n) if norm(v_n) else np.array([1.0, 0, 0])
        d = unit(goal_dir)
        fan = np.vstack((d, _fan_vectors(d)))
        rel2 = np.einsum("ij,ij->i", rel, rel)
        score = _fan_clearance(fan / row_norms(fan)[:, None], rel,
                               rel2).tolist()
        open_rays = [i for i in range(len(fan))
                     if i not in blocked_rays and not math.isnan(score[i])]
        if open_rays:
            i = max(open_rays, key=score.__getitem__)
            w = p_n + WAYPOINT_DIST * (unit(fan[i]) if i else d)
            cmd = plan_motion(p_n, v_n, w, t_avs, params)
            cmd.mode = "backup_steer"
            return cmd
    if norm(v_n) > 1e-6:
        return MotionCommand(_brake_accel(v_n, params.a_max),
                             mode="backup_brake")
    w = np.asarray(p_prev, dtype=float)
    cmd = plan_motion(p_n, v_n, w, t_avs, params)
    cmd.mode = "backup_brake"
    return cmd
