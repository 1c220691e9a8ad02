"""High-frequency point-cloud planner.

Every step: derive the instantaneous goal from the reference path via the
Fermat point of a weighted triangle, streamline the nearby cloud, search a fan
of candidate rays for a safe waypoint, and solve a small constrained problem
for the acceleration command. A safety backup covers the no-ray case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import segment_point_distances, unit


@dataclass
class PcpParams:
    r_det: float = 2.0
    r_safe: float = 0.5
    r_dec: float = 3.0            # goal-approach deceleration radius
    waypoint_dist: float = 0.3
    n_use: int = 70
    kappa1: float = 4.2
    kappa2: float = 1.5
    eta1: float = 40.0
    eta2: float = 10.0
    v_max: float = 1.0
    a_max: float = 2.0
    das_angle_step: float = math.radians(10.0)
    max_opt_iters: int = 20
    opt_tol: float = 1e-3

    def __post_init__(self):
        if not (self.kappa1 > self.kappa2 > 0):
            raise ValueError("need kappa1 > kappa2 > 0")
        if not (self.waypoint_dist < self.r_det):
            raise ValueError("waypoint_dist must be < r_det")
        if self.v_max ** 2 / (2.0 * self.a_max) >= self.r_safe:
            raise ValueError("braking distance v_max^2/(2 a_max) must be < r_safe")


@dataclass
class MotionCommand:
    a_n: np.ndarray
    p_next: np.ndarray
    v_next: np.ndarray
    mode: str = "normal"          # normal | backup_steer | backup_brake
    converged: bool = True
    iterations: int = 0


# -- goal extraction ---------------------------------------------------------

def _fermat_point_2d(P: np.ndarray) -> np.ndarray:
    """Geometric median of a planar triangle (classical case analysis)."""
    sides = np.array([np.linalg.norm(P[(i + 1) % 3] - P[(i + 2) % 3])
                      for i in range(3)])
    # degenerate: collinear or coincident vertices -> middle vertex
    area2 = abs((P[1, 0] - P[0, 0]) * (P[2, 1] - P[0, 1])
                - (P[2, 0] - P[0, 0]) * (P[1, 1] - P[0, 1]))
    if area2 < 1e-12 * max(1.0, float(sides.max()) ** 2):
        sums = [sum(np.linalg.norm(P[i] - P[j]) for j in range(3))
                for i in range(3)]
        return P[int(np.argmin(sums))].copy()
    angles = []
    for i in range(3):
        a = P[(i + 1) % 3] - P[i]
        b = P[(i + 2) % 3] - P[i]
        cosang = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        angles.append(math.acos(min(1.0, max(-1.0, cosang))))
    imax = int(np.argmax(angles))
    if angles[imax] >= 2.0 * math.pi / 3.0:
        return P[imax].copy()
    # isogonic point: barycentric weights a_i / sin(A_i + 60 deg)
    w = sides / np.sin(np.array(angles) + math.pi / 3.0)
    return (w[:, None] * P).sum(axis=0) / w.sum()


def fermat_point(vertices: np.ndarray) -> np.ndarray:
    """Point minimizing the sum of distances to three 3D vertices."""
    V = np.asarray(vertices, dtype=float).reshape(3, 3)
    e1 = V[1] - V[0]
    n1 = np.linalg.norm(e1)
    if n1 < 1e-15:
        e1 = V[2] - V[0]
        n1 = np.linalg.norm(e1)
        if n1 < 1e-15:
            return V[0].copy()
    u = e1 / n1
    e2 = V[2] - V[0]
    e2p = e2 - np.dot(e2, u) * u
    n2 = np.linalg.norm(e2p)
    v = e2p / n2 if n2 > 1e-15 else _any_orthogonal(u)
    plane = np.stack([(V - V[0]) @ u, (V - V[0]) @ v], axis=1)
    f2 = _fermat_point_2d(plane)
    return V[0] + f2[0] * u + f2[1] * v


def _any_orthogonal(u):
    ref = np.array([1.0, 0.0, 0.0]) if abs(u[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    w = np.cross(u, ref)
    return w / np.linalg.norm(w)


def compute_goal(p_n, v_0, path_waypoints, kappa1: float, kappa2: float):
    """Current PCP goal: Fermat point of the weighted waypoint triangle."""
    p_n = np.asarray(p_n, dtype=float)
    v_0 = np.asarray(v_0, dtype=float)
    wp = np.asarray(path_waypoints, dtype=float).reshape(-1, 3)
    if len(wp) == 0:
        raise ValueError("path must contain at least one waypoint")
    pt1 = wp[0]
    pt2 = wp[1] if len(wp) > 1 else wp[0]
    verts = np.array([
        kappa1 * (pt1 - p_n) + p_n,
        kappa2 * (pt2 - p_n) + p_n,
        v_0 + p_n,
    ])
    return fermat_point(verts)


# -- point-cloud streamlining ------------------------------------------------

def streamline(pcl_sorted: np.ndarray, p_n, g_n, n_use: int, d_ft: float,
               seed: int = 0) -> np.ndarray:
    """Cap the sorted collision-check cloud at n_use points.

    Priority points lie within half the far distance or within 90 degrees of
    the goal direction; surplus is removed by evenly spaced thinning, deficits
    topped up by seeded sampling from the complement. Output stays sorted.
    """
    pts = np.asarray(pcl_sorted, dtype=float).reshape(-1, 3)
    if len(pts) <= n_use:
        return pts
    p_n = np.asarray(p_n, dtype=float)
    g_dir = np.asarray(g_n, dtype=float) - p_n
    rel = pts - p_n
    dist = np.linalg.norm(rel, axis=1)
    ahead = rel @ g_dir >= 0.0          # angle to goal direction <= 90 deg
    priority = (dist <= 0.5 * d_ft) | ahead
    pri_idx = np.flatnonzero(priority)
    if len(pri_idx) > n_use:
        pick = np.unique(np.linspace(0, len(pri_idx) - 1, n_use).round().astype(int))
        while len(pick) < n_use:        # rounding collisions: fill greedily
            missing = np.setdiff1d(np.arange(len(pri_idx)), pick)
            pick = np.sort(np.append(pick, missing[:n_use - len(pick)]))
        chosen = pri_idx[pick]
    else:
        rest = np.flatnonzero(~priority)
        rng = np.random.default_rng(seed)
        extra = rng.choice(rest, size=n_use - len(pri_idx), replace=False)
        chosen = np.sort(np.concatenate([pri_idx, extra]))
    return pts[np.sort(chosen)]


# -- collision checking and waypoint search ----------------------------------

def collision_check_segment(a, b, cloud_sorted: np.ndarray, r_safe: float):
    """First point (in sorted order) closer than r_safe to segment a-b."""
    pts = np.asarray(cloud_sorted, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        return None
    d = segment_point_distances(a, b, pts)
    hits = np.flatnonzero(d < r_safe)
    if len(hits) == 0:
        return None
    return pts[hits[0]]


def candidate_rays(direction, angle_step: float):
    """DAS ray directions in search order.

    Round 0 is the goal direction; each later round adds the two horizontal
    then the two vertical symmetric offsets, stopping past 90 degrees.
    """
    d = unit(direction)
    horiz = unit(np.array([d[0], d[1], 0.0]))
    if np.linalg.norm(horiz) == 0.0:
        horiz = np.array([1.0, 0.0, 0.0])
    side = np.array([-horiz[1], horiz[0], 0.0])        # horizontal-plane normal
    vert = unit(np.cross(side, d))                     # vertical-plane axis
    rays = [d]
    q = 1
    while q * angle_step <= math.pi / 2.0 + 1e-12:
        ang = q * angle_step
        c, s = math.cos(ang), math.sin(ang)
        rays.append(unit(c * d + s * side))
        rays.append(unit(c * d - s * side))
        rays.append(unit(c * d + s * vert))
        rays.append(unit(c * d - s * vert))
        q += 1
    return rays


def das_search(p_n, g_n, cloud_sorted: np.ndarray, params: PcpParams,
               waypoint_dist: float | None = None,
               excluded: set | None = None):
    """First collision-free candidate ray; returns (w_pn, ray_index) or None."""
    p_n = np.asarray(p_n, dtype=float)
    g_n = np.asarray(g_n, dtype=float)
    d = g_n - p_n
    if np.linalg.norm(d) == 0.0:
        return None
    wd = params.waypoint_dist if waypoint_dist is None else waypoint_dist
    for idx, ray in enumerate(candidate_rays(d, params.das_angle_step)):
        if excluded and idx in excluded:
            continue
        end = p_n + params.r_det * ray
        if collision_check_segment(p_n, end, cloud_sorted, params.r_safe) is None:
            return p_n + wd * ray, idx
    return None


# -- motion optimization -----------------------------------------------------

def _motion_cost_grad(a, p_n, v_n, w, t, eta1, eta2):
    p1 = p_n + v_n * t + 0.5 * a * t * t
    e1 = w - p1
    n1 = np.linalg.norm(e1)
    cost = float(a @ a) + eta1 * n1
    grad = 2.0 * a
    if n1 > 1e-12:
        grad -= eta1 * (0.5 * t * t) * e1 / n1
    dw = np.linalg.norm(w - p_n)
    if dw > 1e-12:
        u = 2.0 * v_n * t + 2.0 * a * t * t      # p*_{n+1} - p_n
        c = np.cross(u, w - p_n)                 # u x (w - p*) == u x (w - p_n)
        nc = np.linalg.norm(c)
        cost += eta2 * nc / dw
        if nc > 1e-12:
            grad += eta2 * (2.0 * t * t) * np.cross(w - p_n, c / nc) / dw
    return cost, grad


def _project_feasible(a, v_n, t, v_max, a_max):
    na = np.linalg.norm(a)
    if na > a_max:
        a = a * (a_max / na)
    v1 = v_n + a * t
    if np.linalg.norm(v1) > v_max:
        # shrink a along itself until the predicted speed is feasible
        lo, hi = 0.0, 1.0
        if np.linalg.norm(v_n) > v_max:          # cannot fix by scaling: brake
            return _brake_accel(v_n, a_max)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if np.linalg.norm(v_n + mid * a * t) <= v_max:
                lo = mid
            else:
                hi = mid
        a = lo * a
    return a


def _brake_accel(v_n, a_max):
    nv = np.linalg.norm(v_n)
    if nv == 0.0:
        return np.zeros(3)
    return -v_n / nv * a_max


def plan_motion(p_n, v_n, w_pn, t_avs: float, params: PcpParams) -> MotionCommand:
    """Projected-gradient solve of the fixed-horizon motion problem."""
    if t_avs <= 0:
        raise ValueError("t_avs must be > 0")
    p_n = np.asarray(p_n, dtype=float)
    v_n = np.asarray(v_n, dtype=float)
    w = np.asarray(w_pn, dtype=float)
    if np.linalg.norm(w - p_n) < 1e-12:
        a = _project_feasible(_brake_accel(v_n, params.a_max), v_n, t_avs,
                              params.v_max, params.a_max)
        return _finish(a, p_n, v_n, t_avs, "normal", True, 0)

    a = np.zeros(3)
    cost, grad = _motion_cost_grad(a, p_n, v_n, w, t_avs,
                                   params.eta1, params.eta2)
    converged = False
    it = 0
    step = 0.25
    for it in range(1, params.max_opt_iters + 1):
        trial_step = step
        new_a = a
        for _ in range(12):
            cand = _project_feasible(a - trial_step * grad, v_n, t_avs,
                                     params.v_max, params.a_max)
            c2, g2 = _motion_cost_grad(cand, p_n, v_n, w, t_avs,
                                       params.eta1, params.eta2)
            if c2 <= cost - 1e-12 * abs(cost) or np.allclose(cand, a):
                new_a, cost, grad = cand, c2, g2
                step = trial_step * 1.5
                break
            trial_step *= 0.5
        else:
            converged = True
            break
        moved = np.linalg.norm(new_a - a)
        a = new_a
        if moved <= params.opt_tol:
            converged = True
            break
    a = _project_feasible(a, v_n, t_avs, params.v_max, params.a_max)
    return _finish(a, p_n, v_n, t_avs, "normal", converged, it)


def _finish(a, p_n, v_n, t, mode, converged, iters):
    return MotionCommand(
        a_n=a,
        p_next=p_n + v_n * t + 0.5 * a * t * t,
        v_next=v_n + a * t,
        mode=mode,
        converged=converged,
        iterations=iters,
    )


# -- safety backup -----------------------------------------------------------

def braking_distance(v_n, a_max: float) -> float:
    return float(np.linalg.norm(v_n) ** 2 / (2.0 * a_max))


def safety_backup(p_n, v_n, p_prev, cloud_sorted: np.ndarray,
                  params: PcpParams, blocked_rays: set) -> MotionCommand:
    """Fallback when no candidate ray is collision-free.

    Steers along the max-clearance ray while the braking distance still fits,
    otherwise brakes and retreats toward the previous position, excluding the
    formerly chosen ray.
    """
    p_n = np.asarray(p_n, dtype=float)
    v_n = np.asarray(v_n, dtype=float)
    pts = np.asarray(cloud_sorted, dtype=float).reshape(-1, 3)
    d_bkd = braking_distance(v_n, params.a_max)
    min_obs = (float(np.min(np.linalg.norm(pts - p_n, axis=1)))
               if len(pts) else math.inf)
    if min_obs > d_bkd:
        goal_dir = unit(np.asarray(p_prev, dtype=float) - p_n)
        if np.linalg.norm(goal_dir) == 0.0:
            goal_dir = unit(v_n) if np.linalg.norm(v_n) else np.array([1.0, 0, 0])
        best_ray, best_clear = None, -1.0
        for idx, ray in enumerate(candidate_rays(goal_dir, params.das_angle_step)):
            if idx in blocked_rays:
                continue
            end = p_n + params.r_det * ray
            clear = (float(np.min(segment_point_distances(p_n, end, pts)))
                     if len(pts) else math.inf)
            if clear > best_clear:
                best_ray, best_clear = ray, clear
        w = p_n + params.waypoint_dist * best_ray
        cmd = plan_motion(p_n, v_n, w, max(params.waypoint_dist / params.v_max, 1e-3),
                          params)
        cmd.mode = "backup_steer"
        return cmd
    if np.linalg.norm(v_n) > 1e-6:
        a = _brake_accel(v_n, params.a_max)
        cmd = _finish(a, p_n, v_n, 1e-2, "backup_brake", True, 0)
        return cmd
    w = np.asarray(p_prev, dtype=float)
    cmd = plan_motion(p_n, v_n, w, max(params.waypoint_dist / params.v_max, 1e-3),
                      params)
    cmd.mode = "backup_brake"
    return cmd

