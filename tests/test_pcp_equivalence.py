"""The point-cloud planner returns the same bytes as the straightforward
version it replaced, over generated inputs. The DAS fan is the exception: a
batched score decides each ray, and where the score and a ray's exact
clearance fall on either side of a bound, the tests hold the choice to a
stated tolerance instead (the batched DAS fan and the safety backup below).

The oracles below are the earlier implementations: every 3-vector norm a
`np.linalg.norm` call, cross products by `np.cross`, the closeness test by
`np.allclose`, the feasibility bisection on numpy arrays, the DAS fan built
whole on every call and each of its rays checked by its own segment
distances, and a collision-check cloud that computes each point's distance
anew for every cut and sort. One step is newer than those versions:
`oracle_fermat_point` removes u once more from a plane direction v that
leans on it by more than 1e-9, as `pcp.fermat_point` does. Without it, a
collinear triangle whose e2p is rounding error gets a skewed plane basis
and a goal off the triangle: (4.2, 2.1, 0) * (0, 1, 1) gave (0, 0, 0).
"""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dualnav.geometry import norm, segment_point_distances, unit
from dualnav.pcp import (DAS_ANGLE_STEP, ETA1, ETA2, KAPPA1, KAPPA2, N_USE,
                         OPT_TOL, R_DET, WAYPOINT_DIST, PcpParams,
                         _fan_vectors, _feasible, compute_goal, das_search,
                         fermat_point, plan_motion, safety_backup)
from dualnav.runtime import Scenario, _EpisodeCore
from dualnav.sim import World

# -- oracles -----------------------------------------------------------------


def _oracle_unit(v):
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0:
        return np.zeros_like(v)
    return v / n


def _oracle_fermat_point_2d(P):
    sides = np.array([np.linalg.norm(P[(i + 1) % 3] - P[(i + 2) % 3])
                      for i in range(3)])
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
    w = sides / np.sin(np.array(angles) + math.pi / 3.0)
    return (w[:, None] * P).sum(axis=0) / w.sum()


def _oracle_any_orthogonal(u):
    ref = np.array([1.0, 0.0, 0.0]) if abs(u[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    w = np.cross(u, ref)
    return w / np.linalg.norm(w)


def oracle_fermat_point(vertices):
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
    v = e2p / n2 if n2 > 1e-15 else _oracle_any_orthogonal(u)
    c = np.dot(v, u)
    if abs(c) > 1e-9:
        w = v - c * u
        nw = np.linalg.norm(w)
        v = w / nw if nw > 0.5 else _oracle_any_orthogonal(u)
    plane = np.stack([(V - V[0]) @ u, (V - V[0]) @ v], axis=1)
    f2 = _oracle_fermat_point_2d(plane)
    return V[0] + f2[0] * u + f2[1] * v


def oracle_compute_goal(p_n, v_0, path_waypoints, kappa1, kappa2):
    p_n = np.asarray(p_n, dtype=float)
    v_0 = np.asarray(v_0, dtype=float)
    wp = np.asarray(path_waypoints, dtype=float).reshape(-1, 3)
    pt1 = wp[0]
    pt2 = wp[1] if len(wp) > 1 else wp[0]
    verts = np.array([
        kappa1 * (pt1 - p_n) + p_n,
        kappa2 * (pt2 - p_n) + p_n,
        v_0 + p_n,
    ])
    return oracle_fermat_point(verts)


def _oracle_collision_check_segment(a, b, cloud_sorted, r_safe):
    pts = np.asarray(cloud_sorted, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        return None
    d = segment_point_distances(a, b, pts)
    hits = np.flatnonzero(d < r_safe)
    if len(hits) == 0:
        return None
    return pts[hits[0]]


def oracle_rays(direction, angle_step):
    d = _oracle_unit(direction)
    horiz = _oracle_unit(np.array([d[0], d[1], 0.0]))
    if np.linalg.norm(horiz) == 0.0:
        horiz = np.array([1.0, 0.0, 0.0])
    side = np.array([-horiz[1], horiz[0], 0.0])
    vert = _oracle_unit(np.cross(side, d))
    rays = [d]
    q = 1
    while q * angle_step <= math.pi / 2.0 + 1e-12:
        ang = q * angle_step
        c, s = math.cos(ang), math.sin(ang)
        rays.append(_oracle_unit(c * d + s * side))
        rays.append(_oracle_unit(c * d - s * side))
        rays.append(_oracle_unit(c * d + s * vert))
        rays.append(_oracle_unit(c * d - s * vert))
        q += 1
    return rays


def oracle_das_search(p_n, g_n, cloud_sorted, params,
                      waypoint_dist=WAYPOINT_DIST, excluded=None):
    p_n = np.asarray(p_n, dtype=float)
    g_n = np.asarray(g_n, dtype=float)
    d = g_n - p_n
    if np.linalg.norm(d) == 0.0:
        return None
    for idx, ray in enumerate(oracle_rays(d, DAS_ANGLE_STEP)):
        if excluded and idx in excluded:
            continue
        end = p_n + R_DET * ray
        if _oracle_collision_check_segment(p_n, end, cloud_sorted,
                                           params.r_safe) is None:
            return p_n + waypoint_dist * ray, idx
    return None


def _oracle_motion_cost_grad(a, p_n, v_n, w, t, eta1, eta2):
    p1 = p_n + v_n * t + 0.5 * a * t * t
    e1 = w - p1
    n1 = np.linalg.norm(e1)
    cost = float(a @ a) + eta1 * n1
    grad = 2.0 * a
    if n1 > 1e-12:
        grad -= eta1 * (0.5 * t * t) * e1 / n1
    dw = np.linalg.norm(w - p_n)
    if dw > 1e-12:
        u = 2.0 * v_n * t + 2.0 * a * t * t
        c = np.cross(u, w - p_n)
        nc = np.linalg.norm(c)
        cost += eta2 * nc / dw
        if nc > 1e-12:
            grad += eta2 * (2.0 * t * t) * np.cross(w - p_n, c / nc) / dw
    return cost, grad


def oracle_feasible(a, v_n, t, v_max, a_max):
    na = np.linalg.norm(a)
    if na > a_max:
        a = a * (a_max / na)
    v1 = v_n + a * t
    if np.linalg.norm(v1) > v_max:
        lo, hi = 0.0, 1.0
        if np.linalg.norm(v_n) > v_max:
            return _oracle_brake_accel(v_n, a_max)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if np.linalg.norm(v_n + mid * a * t) <= v_max:
                lo = mid
            else:
                hi = mid
        a = lo * a
    return a


def _oracle_brake_accel(v_n, a_max):
    nv = np.linalg.norm(v_n)
    if nv == 0.0:
        return np.zeros(3)
    return -v_n / nv * a_max


def _oracle_finish(a, v_n, t, mode, converged, iters):
    return (a, v_n + a * t, mode, converged, iters)


def oracle_plan_motion(p_n, v_n, w_pn, t_avs, params):
    p_n = np.asarray(p_n, dtype=float)
    v_n = np.asarray(v_n, dtype=float)
    w = np.asarray(w_pn, dtype=float)
    if np.linalg.norm(w - p_n) < 1e-12:
        a = oracle_feasible(_oracle_brake_accel(v_n, params.a_max),
                            v_n, t_avs, params.v_max, params.a_max)
        return _oracle_finish(a, v_n, t_avs, "normal", True, 0)
    a = np.zeros(3)
    cost, grad = _oracle_motion_cost_grad(a, p_n, v_n, w, t_avs,
                                          ETA1, ETA2)
    converged = False
    it = 0
    step = 0.25
    for it in range(1, params.max_opt_iters + 1):
        trial_step = step
        new_a = a
        for _ in range(12):
            cand = oracle_feasible(a - trial_step * grad, v_n, t_avs,
                                   params.v_max, params.a_max)
            c2, g2 = _oracle_motion_cost_grad(cand, p_n, v_n, w, t_avs,
                                              ETA1, ETA2)
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
        if moved <= OPT_TOL:
            converged = True
            break
    a = oracle_feasible(a, v_n, t_avs, params.v_max, params.a_max)
    return _oracle_finish(a, v_n, t_avs, "normal", converged, it)


def oracle_safety_backup(p_n, v_n, p_prev, cloud_sorted, params, blocked_rays):
    p_n = np.asarray(p_n, dtype=float)
    v_n = np.asarray(v_n, dtype=float)
    pts = np.asarray(cloud_sorted, dtype=float).reshape(-1, 3)
    d_bkd = float(np.linalg.norm(v_n) ** 2 / (2.0 * params.a_max))
    min_obs = (float(np.min(np.linalg.norm(pts - p_n, axis=1)))
               if len(pts) else math.inf)
    horizon = max(WAYPOINT_DIST / params.v_max, 1e-3)
    if min_obs > d_bkd:
        goal_dir = _oracle_unit(np.asarray(p_prev, dtype=float) - p_n)
        if np.linalg.norm(goal_dir) == 0.0:
            goal_dir = (_oracle_unit(v_n) if np.linalg.norm(v_n)
                        else np.array([1.0, 0, 0]))
        best_ray, best_clear = None, -1.0
        rays = oracle_rays(goal_dir, DAS_ANGLE_STEP)
        for idx, ray in enumerate(rays):
            if idx in blocked_rays:
                continue
            end = p_n + R_DET * ray
            clear = (float(np.min(segment_point_distances(p_n, end, pts)))
                     if len(pts) else math.inf)
            if clear > best_clear:
                best_ray, best_clear = ray, clear
        # no ray to steer along (all blocked, or every clearance NaN):
        # brake or retreat as below
        if best_ray is not None:
            w = p_n + WAYPOINT_DIST * best_ray
            return oracle_plan_motion(p_n, v_n, w, horizon, params)[:2] + (
                "backup_steer",)
    if np.linalg.norm(v_n) > 1e-6:
        a = _oracle_brake_accel(v_n, params.a_max)
        return _oracle_finish(a, v_n, 1e-2, "backup_brake", True, 0)[:3]
    w = np.asarray(p_prev, dtype=float)
    return oracle_plan_motion(p_n, v_n, w, horizon, params)[:2] + (
        "backup_brake",)


def oracle_backup_rays(p_n, v_n, p_prev):
    """The fan of `oracle_safety_backup`, which points at p_prev."""
    goal_dir = _oracle_unit(p_prev - p_n)
    if np.linalg.norm(goal_dir) == 0.0:
        goal_dir = (_oracle_unit(v_n) if np.linalg.norm(v_n)
                    else np.array([1.0, 0, 0]))
    return oracle_rays(goal_dir, DAS_ANGLE_STEP)


def exact_clearances(p_n, rays, pts):
    """The oracles' clearance of each ray: the least distance from the
    points to its R_DET segment, inf with no points."""
    return [float(np.min(segment_point_distances(p_n, p_n + R_DET * r, pts)))
            if len(pts) else math.inf for r in rays]


def fan_tolerance(p_n, pts, reach):
    """The tolerance b = 1e-12 S**2 + 1e-300 of a fan score around a squared
    exact clearance, S = max|p_n| + max|pts - p_n| + reach, reach the ray
    length or more. `pcp._fan_clearance` scores within about 81u S**2 of it,
    u = 2**-53, so b leaves a wide margin."""
    far = np.linalg.norm(pts - p_n, axis=1).max(initial=0.0)
    scale = np.abs(p_n).max() + far + reach
    return 1e-12 * scale * scale + 1e-300


def oracle_streamline(pcl_sorted, p_n, g_n, n_use, d_ft, seed=0):
    pts = np.asarray(pcl_sorted, dtype=float).reshape(-1, 3)
    if len(pts) <= n_use:
        return pts
    p_n = np.asarray(p_n, dtype=float)
    g_dir = np.asarray(g_n, dtype=float) - p_n
    rel = pts - p_n
    dist = np.linalg.norm(rel, axis=1)
    ahead = rel @ g_dir >= 0.0
    priority = (dist <= 0.5 * d_ft) | ahead
    pri_idx = np.flatnonzero(priority)
    if len(pri_idx) > n_use:
        pick = np.unique(np.linspace(0, len(pri_idx) - 1, n_use).round().astype(int))
        while len(pick) < n_use:
            missing = np.setdiff1d(np.arange(len(pri_idx)), pick)
            pick = np.sort(np.append(pick, missing[:n_use - len(pick)]))
        chosen = pri_idx[pick]
    else:
        rest = np.flatnonzero(~priority)
        rng = np.random.default_rng(seed)
        extra = rng.choice(rest, size=n_use - len(pri_idx), replace=False)
        chosen = np.sort(np.concatenate([pri_idx, extra]))
    return pts[np.sort(chosen)]


def oracle_pcp_cloud(pcl4, snap, p, g_n, seed):
    """`_EpisodeCore._pcp_cloud` with the frame, the map snapshot and the
    streamline seed passed in."""
    parts = []
    if pcl4 is not None and len(pcl4):
        d = np.linalg.norm(pcl4 - p, axis=1)
        near = pcl4[d <= R_DET]
        if len(near):
            near = near[np.argsort(np.linalg.norm(near - p, axis=1),
                                   kind="stable")]
            d_ft = float(np.linalg.norm(near[-1] - p))
            near = oracle_streamline(near, p, g_n, N_USE, d_ft, seed=seed)
            parts.append(near)
    if snap is not None:
        pcl_m = snap[0]
        if len(pcl_m):
            d = np.linalg.norm(pcl_m - p, axis=1)
            parts.append(pcl_m[d <= R_DET])
    if not parts:
        return np.zeros((0, 3))
    cloud = np.vstack(parts)
    order = np.argsort(np.linalg.norm(cloud - p, axis=1), kind="stable")
    return cloud[order]


def assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def assert_same_command(cmd, want, v_n=None, t=None):
    """Compare a command with an oracle's (a, v_next, mode, ...) tuple; with
    v_n and the horizon t given, also the velocity the command reaches."""
    assert_same_bytes(cmd.a_n, want[0])
    if t is not None:
        assert_same_bytes(v_n + cmd.a_n * t, want[1])
    assert cmd.mode == want[2]
    if len(want) > 3:
        assert (cmd.converged, cmd.iterations) == want[3:]


# -- strategies --------------------------------------------------------------

# components with exact zeros, -0.0 and round values mixed in
def comps(lo, hi):
    return st.one_of(st.floats(lo, hi), st.sampled_from([0.0, -0.0, 0.5, 1.0]))


def vec3(lo, hi):
    return st.tuples(comps(lo, hi), comps(lo, hi), comps(lo, hi)).map(
        lambda v: np.array(v, dtype=float))


@st.composite
def limits(draw):
    """(v_max, a_max) that PcpParams accepts with its default r_safe."""
    v_max = draw(st.sampled_from([1.0, 0.5, 2.0]) | st.floats(0.2, 2.0))
    a_max = v_max * v_max + draw(st.sampled_from([1.0, 3.0])
                                 | st.floats(0.05, 6.0))
    return v_max, a_max


# speeds pinned within a few ulps of v_max, where the flights hold |v| and
# the feasibility bisection meets most steps inside its guard band
PINNED = [1.0 + k * 2.0 ** -52 for k in range(-4, 5)]


@st.composite
def velocities(draw, v_max):
    """A velocity inside the speed ball, often on its sphere up to rounding."""
    v = draw(vec3(-1.0, 1.0))
    n = np.linalg.norm(v)
    if n == 0.0:
        return v
    scale = draw(st.sampled_from([1.0, 1.0 - 1e-15] + PINNED)
                 | st.floats(0.0, 1.0))
    return v / n * (v_max * scale)


horizons = st.sampled_from([1e-3, 0.1, 0.125, 1.0]) | st.floats(1e-3, 1.0)


@st.composite
def feasibility_cases(draw):
    if draw(st.booleans()):
        # the flights' limits and PCP horizon
        v_max, a_max, t = 0.15, 2.0, 0.1
    else:
        v_max, a_max = draw(limits())
        t = draw(horizons)
    a = draw(vec3(-10.0, 10.0))
    if draw(st.booleans()):
        v = draw(velocities(v_max))
    else:
        v = draw(vec3(-3.0, 3.0))
    return a, v, t, v_max, a_max


# -- feasibility projection ------------------------------------------------

@settings(max_examples=400)
@given(feasibility_cases())
# |v_n| == v_max, and v_n + a t bound: no bisection
@example((np.array([2.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]), 0.1, 1.0, 2.0))
# a bisection step lands exactly on the speed sphere: 0.5 * 16 * 0.125 == 1
@example((np.array([16.0, 0.0, 0.0]), np.zeros(3), 0.125, 1.0, 20.0))
# v_n + a t exactly on the sphere without bisection
@example((np.array([10.0, 0.0, 0.0]), np.zeros(3), 0.1, 1.0, 20.0))
# zero and -0.0 components, a = 0, t = 1e-3
@example((np.array([-0.0, 0.0, -0.0]), np.array([0.0, -0.0, 1.0]), 1e-3, 1.0, 2.0))
@example((np.zeros(3), np.array([-0.0, 0.6, 0.8]), 1e-3, 1.0, 2.0))
@example((np.array([0.0, -0.0, 3.0]), np.array([-0.0, 0.0, 0.9]), 1e-3, 1.0, 2.0))
# |v_n| > v_max: brake
@example((np.array([1.0, 0.0, 0.0]), np.array([1.5, 0.0, 0.0]), 0.1, 1.0, 2.0))
# |v_n| == v_max and a across it: the steps from mid = 2**-25 on land inside
# the guard band, and the kept mid, about 2**-27, is what rounding leaves on
# the speed sphere
@example((np.array([0.0, 2.0, 0.0]), np.array([0.15, 0.0, 0.0]), 0.1, 0.15,
          2.0))
def test_project_feasible_same_bytes(case):
    a, v, t, v_max, a_max = case
    assert_same_bytes(np.array(_feasible(*a.tolist(), *v.tolist(), t, v_max,
                                         a_max)),
                      oracle_feasible(a, v, t, v_max, a_max))


@settings(max_examples=300)
@given(feasibility_cases())
@example((np.array([16.0, 0.0, 0.0]), np.zeros(3), 0.125, 1.0, 20.0))
@example((np.array([0.0, -0.0, 3.0]), np.array([-0.0, 0.0, 1.0]), 1e-3, 1.0, 2.0))
def test_project_feasible_keeps_bounds(case):
    """With |v_n| <= v_max the result keeps |a| <= a_max and
    |v_n + a t| <= v_max, each within 1e-12 relative."""
    a, v, t, v_max, a_max = case
    assume(norm(v) <= v_max)
    out = np.array(_feasible(*a.tolist(), *v.tolist(), t, v_max, a_max))
    assert norm(out) <= a_max * (1.0 + 1e-12)
    assert norm(v + out * t) <= v_max * (1.0 + 1e-12)


# -- plan_motion -------------------------------------------------------------

@st.composite
def motion_cases(draw):
    v_max, a_max = draw(limits())
    params = PcpParams(v_max=v_max, a_max=a_max)
    p = draw(vec3(-5.0, 5.0))
    v = draw(velocities(v_max))
    w = p + draw(vec3(-2.5, 2.5))
    if draw(st.integers(0, 9)) == 0:
        w = p.copy()                    # waypoint on the drone: brake branch
    return p, v, w, draw(horizons), params


@settings(max_examples=300)
@given(motion_cases())
@example((np.zeros(3), np.array([1.0, 0.0, 0.0]), np.array([0.3, 0.0, 0.0]),
          0.1, PcpParams()))
@example((np.array([1.0, -0.0, 0.0]), np.array([0.0, -0.0, 0.0]),
          np.array([1.0, 0.3, -0.0]), 1e-3, PcpParams()))
@example((np.zeros(3), np.array([0.6, 0.8, 0.0]), np.zeros(3), 0.1,
          PcpParams()))
@example((np.zeros(3), np.array([0.0, 0.0, -1.0]), np.array([0.0, 0.0, 0.2]),
          1.0, PcpParams()))
def test_plan_motion_same_bytes(case):
    p, v, w, t, params = case
    assert_same_command(plan_motion(p, v, w, t, params),
                        oracle_plan_motion(p, v, w, t, params), v, t)


# -- DAS rays and search -----------------------------------------------------

@settings(max_examples=200)
@given(vec3(-2.0, 2.0))
@example(np.array([0.0, 0.0, 1.0]))
@example(np.array([0.0, -0.0, -2.0]))
@example(np.zeros(3))
def test_candidate_rays_same_bytes(direction):
    d = unit(direction)
    got = [d] + [unit(f) for f in _fan_vectors(d)]
    want = oracle_rays(direction, DAS_ANGLE_STEP)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_bytes(g, w)


@st.composite
def clouds(draw, p):
    """A cloud around p, sorted by distance as the runtime sorts it."""
    n = draw(st.integers(0, 40))
    pts = np.array([p + draw(vec3(-2.5, 2.5)) for _ in range(n)]).reshape(-1, 3)
    order = np.argsort(np.linalg.norm(pts - p, axis=1), kind="stable")
    return pts[order]


@st.composite
def das_cases(draw):
    params = PcpParams(r_safe=draw(st.sampled_from([0.5, 0.7])))
    p = draw(vec3(-5.0, 5.0))
    g = p + draw(vec3(-3.0, 3.0))
    excluded = draw(st.sets(st.integers(0, 40), max_size=6))
    wd = draw(st.just(WAYPOINT_DIST) | st.floats(0.03, 0.3))
    return p, g, draw(clouds(p)), params, wd, excluded


@settings(max_examples=200)
@given(das_cases())
@example((np.zeros(3), np.zeros(3), np.zeros((0, 3)), PcpParams(),
          WAYPOINT_DIST, set()))
@example((np.zeros(3), np.array([2.0, 0.0, 0.0]), np.array([[1.0, 0.0, 0.0]]),
          PcpParams(), WAYPOINT_DIST, {0, 1}))
# a randomized draw (Hypothesis seed 0): ray 0 is blocked, and the point
# (0.5, 1, 0) lies r_safe from the 90-degree rays, within the tolerance
@example((np.zeros(3), np.array([1.0, 0.0, 0.0]),
          np.array([[0.5, 0.0, 0.0], [0.5, 1.0, 0.0]]), PcpParams(),
          WAYPOINT_DIST, set()))
def test_das_search_same_bytes(case):
    """The oracle's ray and bytes wherever no open ray up to it lies within
    the tolerance of r_safe (`assert_das_within_tolerance`)."""
    p, g, cloud, params, wd, excluded = case
    got = das_search(p, g, cloud, params, waypoint_dist=wd, excluded=excluded)
    assert_das_within_tolerance(got, p, g, cloud, params, excluded, wd)


def assert_das_within_tolerance(got, p, g, cloud, params, excluded, wd):
    """With c a ray's exact clearance and b = `fan_tolerance`: the search
    returns an open ray with c**2 >= r_safe**2 - b and the oracle's
    waypoint along it, every open ray before it has c**2 < r_safe**2 + b,
    and it returns None only when every open ray has c**2 < r_safe**2 + b.
    Where no open ray up to the result has c**2 within b of r_safe**2,
    that is the oracle's result. With g at p there is no fan, and no ray."""
    if np.linalg.norm(g - p) == 0.0:
        assert got is None
        return
    rays = oracle_rays(g - p, DAS_ANGLE_STEP)
    c2 = [c * c for c in exact_clearances(p, rays, cloud)]
    r2 = params.r_safe * params.r_safe
    b = fan_tolerance(p, cloud, R_DET + params.r_safe)
    open_rays = [i for i in range(len(rays)) if i not in excluded]
    stop = len(rays) if got is None else got[1]
    if got is not None:
        assert stop in open_rays and c2[stop] >= r2 - b
        assert_same_bytes(got[0], p + wd * rays[stop])
    assert all(c2[i] < r2 + b for i in open_rays if i < stop)


def assert_same_search(got, want):
    if want is None:
        assert got is None
    else:
        assert got is not None and got[1] == want[1]
        assert_same_bytes(got[0], want[0])


# -- the batched DAS fan -----------------------------------------------------
#
# `das_search` scores ray 0 alone and the rest of the fan in one
# `_fan_clearance` call, and takes the first open ray that scores at least
# r_safe**2. A score lies within the tolerance b (`fan_tolerance`) of the
# ray's exact squared clearance, so a ray near r_safe may fall either way.
# The draws below put a point on that boundary, reach rays across the fan
# past walls and exclusions, and fly far from the origin, where b is widest.

# the fan has 37 rays: 0, then rounds of four up to 36
CHUNK_EDGES = [0, 12, 13, 24, 25, 36]   # ray 0, rounds 3|4 and 6|7, ray 36


def wall(p, rays, blocked, rng, per_ray=8):
    """Points within 0.052 of each blocked ray, 1.5-1.95 m along it. With
    r_safe = 0.1 each point blocks its own ray and no other: two rays of a
    10-degree fan are at least 10 degrees apart, and 1.5 sin(10 deg) - 0.052
    is above 0.2."""
    pts = [p + t * rays[j] + rng.uniform(-0.03, 0.03, 3)
           for j in blocked for t in rng.uniform(1.5, 1.95, per_ray)]
    return np.array(pts).reshape(-1, 3)


@st.composite
def boundary_cases(draw):
    """One point at r_safe (1 + e) from the segment of a chosen ray, which
    the search reaches because a wall blocks the rays before it or they are
    excluded; more exclusions fall on CHUNK_EDGES. e is k 2**-52 with k in
    -4..4, well inside the tolerance, or +-1e-9 or +-1e-7, which near the
    origin lie outside it."""
    walled = draw(st.booleans())
    r_safe = 0.1 if walled else draw(st.sampled_from([0.5, 0.1]))
    params = PcpParams(r_safe=r_safe, v_max=0.3)
    p = draw(vec3(-5.0, 5.0) | vec3(-1e3, 1e3))
    g = p + draw(vec3(-3.0, 3.0))
    assume(norm(g - p) > 1e-3)
    rays = oracle_rays(g - p, DAS_ANGLE_STEP)
    target = draw(st.sampled_from(CHUNK_EDGES) | st.integers(0, 36))
    excluded = draw(st.sets(st.sampled_from(CHUNK_EDGES), max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if walled:
        cloud = wall(p, rays, range(target), rng)
    else:
        cloud = np.zeros((0, 3))
        excluded |= set(range(target))
    normal = np.cross(rays[target], draw(vec3(-1.0, 1.0)))
    assume(norm(normal) > 1e-3)
    t = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
    e = draw(st.integers(-4, 4).map(lambda k: k * 2.0 ** -52)
             | st.sampled_from([-1e-7, -1e-9, 1e-9, 1e-7]))
    point = (p + (t * R_DET) * rays[target]
             + (r_safe * (1.0 + e)) * unit(normal))
    return p, g, np.vstack([cloud, point]), params, excluded, target


@settings(max_examples=300)
@given(boundary_cases())
@example((np.zeros(3), np.array([2.0, 0.0, 0.0]),
          np.array([[1.0, 0.5, 0.0]]), PcpParams(), set(), 0))
@example((np.array([1e3, -1e3, 1e3]), np.array([1e3 + 1.0, -1e3, 1e3]),
          np.array([[1e3 + 1.0, -1e3 + 0.5, 1e3]]), PcpParams(), set(), 0))
def test_das_fan_boundary_within_tolerance(case):
    p, g, cloud, params, excluded, _ = case
    got = das_search(p, g, cloud, params, excluded=excluded)
    assert_das_within_tolerance(got, p, g, cloud, params, excluded,
                                WAYPOINT_DIST)


@pytest.mark.parametrize("p", [np.array([0.5, -0.25, 1.1]),
                               np.array([-987.5, 640.25, 1000.0])])
@pytest.mark.parametrize("first_free", [13, 20, 24, 25, 30, 36, None])
def test_das_fan_decides_walls_without_the_exact_path(p, first_free):
    """Dense walls whose first free ray lies past ray 12, or that leave no
    ray free; every ray's score lies far from r_safe**2, so the search
    returns the oracle's ray."""
    params = PcpParams(r_safe=0.1, v_max=0.3)
    g = p + np.array([1.0, 2.0, -0.5])
    rays = oracle_rays(g - p, DAS_ANGLE_STEP)
    stop = len(rays) if first_free is None else first_free
    blocked = [j for j in range(len(rays)) if j != stop]
    cloud = wall(p, rays, blocked, np.random.default_rng(stop))
    for excluded in (set(), {0}, {12, 13}, {24, 25}):
        got = das_search(p, g, cloud, params, excluded=excluded)
        assert_same_search(got, oracle_das_search(p, g, cloud, params,
                                                  excluded=excluded))
        want = None if first_free in excluded else first_free
        assert (got and got[1]) == want


# -- the PCP's collision-check cloud ------------------------------------------

@st.composite
def scattered(draw, p, max_points):
    """Points around p: uniform ones, some on a 0.1 m lattice (equal
    distances and duplicates), some at exactly R_DET along an axis. The
    uniform ones fill a cube of half side 3 m, or of 1.2 m, which puts
    nearly all of them within R_DET, so more than N_USE can be in reach."""
    n = draw(st.integers(0, max_points))
    half = draw(st.sampled_from([3.0, 1.2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rel = rng.uniform(-half, half, size=(n, 3))
    if draw(st.booleans()):
        rel = np.round(rel, 1)
    extra = draw(st.lists(st.sampled_from(
        [(2.0, 0.0, 0.0), (0.0, -2.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.5, 0.0),
         (0.0, 0.0, 0.0)]), max_size=4))
    return np.vstack([rel, np.array(extra, dtype=float).reshape(-1, 3)]) + p


@st.composite
def pcp_cloud_cases(draw):
    p = draw(vec3(-3.0, 3.0))
    g = p + draw(vec3(-3.0, 3.0))
    pcl4 = draw(st.none() | scattered(p, 150))
    snap = draw(st.sampled_from(["none", "empty", "voxels", "frame"]))
    if snap == "none":
        snap = None
    elif snap == "empty":
        snap = (np.zeros((0, 3)), p)
    else:
        if snap == "voxels" or pcl4 is None:
            centers = (np.floor(draw(scattered(p, 100)) / 0.1) + 0.5) * 0.1
        else:
            # map points that tie with frame points in the merged sort
            centers = pcl4[::2].copy()
        # read-only, as `VoxelMap.occupied_centers` gives them
        centers.flags.writeable = False
        snap = (centers, p)
    return pcl4, snap, p, g, draw(st.integers(0, 10_000))


# points on the axes at five radii: many equal distances, so an unstable
# sort of the frame or of the merged cloud would reorder them
_SHELLS = np.array([np.eye(3)[k % 3] * (1 - 2 * (k % 6 // 3)) * 0.5 * (1 + k % 5)
                    for k in range(60)])


@settings(max_examples=300)
@given(pcp_cloud_cases())
@example((_SHELLS, (_SHELLS[::2], np.zeros(3)), np.zeros(3), np.ones(3), 0))
@example((None, None, np.zeros(3), np.ones(3), 0))
@example((np.zeros((0, 3)), (np.zeros((0, 3)), np.zeros(3)), np.zeros(3),
          np.ones(3), 0))
@example((np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [3.0, 0.0, 0.0]]),
          (np.array([[0.0, 0.0, 2.0]]), np.zeros(3)), np.zeros(3),
          np.array([1.0, 0.0, 0.0]), 5))
def test_pcp_cloud_same_bytes(case):
    pcl4, snap, p, g, steps = case
    sc = Scenario(world=World(), start=(0.0, 0.0, 1.0), goal=(1.0, 0.0, 1.0),
                  seed=3)
    core = _EpisodeCore(sc)
    core.pcp_steps = steps
    if pcl4 is not None:
        core.bb.publish("pcl4", pcl4)
    if snap is not None:
        core.bb.publish("map", snap)
    assert_same_bytes(core._pcp_cloud(p, g),
                      oracle_pcp_cloud(pcl4, snap, p, g, sc.seed + steps))


# -- safety backup -----------------------------------------------------------
#
# `safety_backup` scores its fan in one `_fan_clearance` call and steers
# along the first open ray of the largest score. Where the oracle's widest
# ray leads the runner-up by more than 2b in squared clearance, that is the
# backup's ray too; on a near-tie the backup may take another ray within 2b
# of the best. The draws below tie many rays at one clearance, put a
# runner-up within a few ulps of the leader, give the kernel inf and NaN
# scores, and leave a single ray open.

def wall_behind(p, d, h):
    """A 3 m square wall on a 0.25 m grid, h behind p along the unit d. The
    whole fan lies on the other side of p, so its nearest point, p - h d,
    is every ray's nearest, and every ray ties at that point's distance:
    the wall world's backups, with the drone backing away from the wall."""
    e1 = unit(np.cross(d, [0.0, 0.0, 1.0] if abs(d[2]) < 0.9 else
                       [1.0, 0.0, 0.0]))
    e2 = np.cross(d, e1)
    a, b = (g.ravel() for g in np.meshgrid(*2 * [np.arange(-1.5, 1.51, 0.25)]))
    return p - h * d + a[:, None] * e1 + b[:, None] * e2


def near_tie(p, rays, i, j, k, rng):
    """A `wall` on every ray but i and j, and one point 0.15 m from the far
    end of each of their segments, the one of ray j about k ulps farther: the
    two lead the fan, at clearances a few ulps apart or tied. Wall points lie
    above 0.2 m from rays i and j, and each added point lies farther than
    0.3 m from the other ray's segment."""
    cloud = wall(p, rays, [m for m in range(len(rays)) if m not in (i, j)],
                 rng)
    normal = unit(np.cross(rays[i], rays[j]))
    far = [p + 1.9 * rays[m] + (0.15 * f) * normal
           for m, f in ((i, 1.0), (j, 1.0 + k * 2.0 ** -52))]
    return np.vstack([cloud, far])


@st.composite
def backup_cases(draw):
    """The steer, brake and retreat branches on random clouds, and clouds
    built for the argmax: a wall behind the fan ("behind"), two
    leading rays a few ulps apart ("near-tie"), a point with an inf, NaN or
    1e200 coordinate, whose scores are inf or NaN ("nonfinite"), every
    ray blocked but one ("one-open") or all of them ("all-blocked"), and
    points at the eight infinite corners, which make every ray's clearance
    NaN ("all-NaN"): with no ray to steer along, the backup brakes or, at
    rest, retreats."""
    params = PcpParams()
    p = draw(vec3(-5.0, 5.0))
    branch = draw(st.sampled_from(["steer", "brake", "retreat", "any",
                                   "behind", "near-tie", "nonfinite",
                                   "one-open", "all-blocked", "all-NaN"]))
    if branch == "retreat":
        v = draw(st.sampled_from([np.zeros(3), np.array([0.0, -0.0, 1e-7])]))
    else:
        v = draw(velocities(params.v_max))
    cloud = draw(clouds(p))
    if branch == "brake":
        # an obstacle inside the braking distance
        v = np.array([params.v_max, 0.0, 0.0])
        cloud = np.vstack([p + np.array([0.1, 0.0, 0.0]), cloud])
    elif branch == "retreat":
        cloud = np.vstack([p, cloud])
    elif branch == "steer":
        far = np.linalg.norm(cloud - p, axis=1) > 0.3
        cloud = cloud[far]
    prev = p + draw(vec3(-0.5, 0.5))
    blocked = draw(st.sets(st.integers(0, 36), max_size=8))
    if branch in ("behind", "near-tie"):
        assume(norm(prev - p) > 1e-3)
        # the backup's fan, which points at the previous position
        rays = oracle_rays(_oracle_unit(prev - p), DAS_ANGLE_STEP)
    if branch == "behind":
        cloud = wall_behind(p, rays[0], draw(st.floats(0.3, 1.5)))
    elif branch == "near-tie":
        i, j = draw(st.lists(st.integers(0, 36), min_size=2, max_size=2,
                             unique=True))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        cloud = near_tie(p, rays, i, j, draw(st.integers(-4, 4)), rng)
        blocked -= {i, j}
    elif branch == "nonfinite":
        q = p + draw(vec3(-2.5, 2.5))
        q[draw(st.integers(0, 2))] = draw(st.sampled_from(
            [math.inf, -math.inf, math.nan, 1e200, -1e200]))
        cloud = np.vstack([cloud, q])
    elif branch == "one-open":
        blocked = set(range(37)) - {draw(st.integers(0, 36))}
    elif branch == "all-blocked":
        blocked = set(range(37))
    elif branch == "all-NaN":
        # for every ray, the projection of one of the corners sums inf
        # terms of both signs (or has inf * 0 on a zero component of the
        # ray), so that corner's distance, and the ray's clearance, is NaN
        corners = np.array(np.meshgrid(*3 * [[-math.inf, math.inf]]))
        cloud = np.vstack([cloud[np.linalg.norm(cloud - p, axis=1) > 0.3],
                           corners.reshape(3, -1).T])
    if branch in ("all-blocked", "all-NaN") and draw(st.booleans()):
        v = np.zeros(3)
    return p, v, prev, cloud, params, blocked


def near_tie_case(p, prev, i, j, k, seed, blocked=()):
    """A `backup_cases` draw at rest with a `near_tie` cloud."""
    p, prev = np.array(p, dtype=float), np.array(prev, dtype=float)
    rays = oracle_rays(_oracle_unit(prev - p), DAS_ANGLE_STEP)
    cloud = near_tie(p, rays, i, j, k, np.random.default_rng(seed))
    return p, np.zeros(3), prev, cloud, PcpParams(), set(blocked)


_AHEAD = np.array([-0.1, 0.0, 0.0])    # puts the backup's fan along -x
# a previous position whose unit direction d = unit(unit(prev)) is not a
# fixed point of `unit`
_UNSTEADY = np.array([-0.7511428035313013, 0.2324835005941024,
                      -0.4575866344760682])


@settings(max_examples=100)
@given(backup_cases())
@example((np.zeros(3), np.array([0.1, 0.0, 0.0]), np.array([-0.1, 0.0, 0.0]),
          np.array([[0.4, 0.0, 0.0]]), PcpParams(), set()))
@example((np.zeros(3), np.zeros(3), np.zeros(3), np.zeros((0, 3)),
          PcpParams(), {0}))
@example((np.zeros(3), np.array([1.0, 0.0, 0.0]), np.array([-0.1, 0.0, 0.0]),
          np.array([[0.1, 0.0, 0.0]]), PcpParams(), set()))
@example((np.ones(3), np.zeros(3), np.zeros(3), np.ones((1, 3)),
          PcpParams(), set()))
# all 37 rays tie at the nearest point's distance, 0.8
@example((np.zeros(3), np.array([0.1, 0.0, 0.0]), _AHEAD,
          wall_behind(np.zeros(3), np.array([-1.0, 0.0, 0.0]), 0.8),
          PcpParams(), set()))
# ray 0 wins a tie, and unit(ray 0) differs from it in the last bit
@example((np.zeros(3), np.zeros(3), _UNSTEADY, -_UNSTEADY[None],
          PcpParams(), set()))
# rays 13 and 14 lead, one ulp apart either way; rays 35 and 36 tie
@example(near_tie_case(np.zeros(3), _AHEAD, 13, 14, 1, 0))
@example(near_tie_case(np.zeros(3), _AHEAD, 13, 14, -1, 0))
@example(near_tie_case(np.zeros(3), _AHEAD, 35, 36, 0, 1))
# the kernel scores the runner-up above the leader: ray 7 above ray 27,
# ray 1 above ray 7
@example(near_tie_case([-0.5, -0.5, -2.0], [-1.0, -0.25, -2.5], 27, 7, -1, 0))
@example(near_tie_case([3.5, 1.5, 4.5], [3.375, 1.25, 4.875], 7, 1, -1, 0))
# an inf coordinate: every score is NaN, so the backup retreats; the
# oracle's exact clearances are NaN only on the rays with no z, and it steers
@example((np.zeros(3), np.zeros(3), _AHEAD,
          np.array([[0.0, 0.0, math.inf], [0.5, 0.0, 0.0]]), PcpParams(),
          set()))
# squares that overflow: inf scores and an infinite tolerance
@example((np.zeros(3), np.zeros(3), _AHEAD,
          np.array([[1e200, 0.0, 0.0], [0.0, 0.6, 0.0]]), PcpParams(),
          set()))
# every ray blocked but one, which wins at a lower clearance than others
@example(near_tie_case(np.zeros(3), _AHEAD, 13, 14, 0, 0,
                       set(range(37)) - {17}))
def test_safety_backup_same_bytes(case):
    """The oracle's branch, and its bytes unless the best open ray's exact
    clearance c ties with the runner-up's within 2b in c**2; on such a
    near-tie, a steer along an open ray within 2b of the best. A cloud with
    a non-finite point steers along an open ray with a clearance that is not
    NaN, or brakes or retreats; non-finite points never reach the PCP in a
    flight, where `outlier_filter` raises on them."""
    p, v, prev, cloud, params, blocked = case
    rays = oracle_backup_rays(p, v, prev)
    with np.errstate(invalid="ignore", over="ignore"):
        cmd = safety_backup(p, v, prev, cloud, params, blocked)
        want = oracle_safety_backup(p, v, prev, cloud, params, blocked)
        # the brake or the retreat: the oracle with no ray to steer along
        stop = oracle_safety_backup(p, v, prev, cloud, params,
                                    set(range(len(rays))))
        clear = exact_clearances(p, rays, cloud)
        b = fan_tolerance(p, cloud, R_DET)
    open_rays = [i for i in range(len(rays))
                 if i not in blocked and not math.isnan(clear[i])]
    if not np.isfinite(cloud).all():
        if cmd.mode == "backup_brake":
            assert_same_command(cmd, stop)
        else:
            assert steers_along(cmd, p, v, rays, open_rays, params)
        return
    assert cmd.mode == want[2]
    c2 = [c * c for c in clear]
    top = sorted((c2[i] for i in open_rays), reverse=True) + [-math.inf]
    if cmd.mode == "backup_brake" or top[0] - top[1] > 2.0 * b:
        assert_same_command(cmd, want)
    else:
        near = [i for i in open_rays if c2[i] >= top[0] - 2.0 * b]
        assert steers_along(cmd, p, v, rays, near, params)


def steers_along(cmd, p, v, rays, candidates, params):
    """Whether cmd is the backup's steer along one of the candidate rays."""
    horizon = max(WAYPOINT_DIST / params.v_max, 1e-3)
    return cmd.mode == "backup_steer" and any(
        cmd.a_n.tobytes() == oracle_plan_motion(
            p, v, p + WAYPOINT_DIST * rays[i], horizon, params)[0].tobytes()
        for i in candidates)


@pytest.mark.parametrize("p", [np.array([0.5, -0.25, 1.1]),
                               np.array([-987.5, 640.25, 1000.0])])
@pytest.mark.parametrize("free", [(13,), (20, 36), (0, 24, 25)])
def test_safety_backup_scans_only_the_rays_tied_with_the_best(p, free):
    """Dense walls that leave a few rays free, whose clearances differ by
    far more than the tolerance: the backup steers along the oracle's
    ray."""
    params = PcpParams(r_safe=0.1, v_max=0.3)
    prev = p + np.array([-0.1, 0.2, 0.05])
    rays = oracle_rays(_oracle_unit(prev - p), DAS_ANGLE_STEP)
    cloud = wall(p, rays, [j for j in range(len(rays)) if j not in free],
                 np.random.default_rng(len(free)))
    for blocked in (set(), {0}, {13, 24}):
        cmd = safety_backup(p, np.zeros(3), prev, cloud, params, blocked)
        assert_same_command(cmd, oracle_safety_backup(
            p, np.zeros(3), prev, cloud, params, blocked))


# -- compute_goal ------------------------------------------------------------

@st.composite
def goal_cases(draw):
    p = draw(vec3(-5.0, 5.0))
    v = draw(vec3(-1.0, 1.0))
    n = draw(st.integers(1, 4))
    wps = [p + draw(vec3(-6.0, 6.0)) for _ in range(n)]
    shape = draw(st.sampled_from(["free", "coincident", "collinear"]))
    if shape == "coincident" and n > 1:
        wps[1] = wps[0].copy()
    elif shape == "collinear":
        d = wps[0] - p
        wps = [p + d * k for k in (1.0, 2.0, 3.0)][:n]
        v = d * 0.25
    return p, v, np.array(wps)


@settings(max_examples=300)
@given(goal_cases())
@example((np.zeros(3), np.zeros(3), np.array([[1.0, 0.0, 0.0]])))
@example((np.zeros(3), np.zeros(3), np.zeros((2, 3))))
@example((np.array([-0.0, 0.0, 1.0]), np.array([0.0, -0.0, 0.0]),
          np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]])))
def test_compute_goal_same_bytes(case):
    p, v, wps = case
    assert_same_bytes(compute_goal(p, v, wps),
                      oracle_compute_goal(p, v, wps, KAPPA1, KAPPA2))


@st.composite
def weighted_triangles(draw):
    """compute_goal's triangles under other waypoint weights than its own."""
    p, v, wps = draw(goal_cases())
    kappa1 = draw(st.floats(1.0, 6.0))
    kappa2 = draw(st.floats(0.1, 0.99)) * kappa1
    pt2 = wps[1] if len(wps) > 1 else wps[0]
    return np.array([kappa1 * (wps[0] - p) + p, kappa2 * (pt2 - p) + p, v + p])


@settings(max_examples=300)
@given(weighted_triangles())
# collinear, with an e2p of pure rounding error: compute_goal's triangle
# for the one waypoint (0, 1, 1) at the weights 4.2 and 2.1
@example(np.array([[0.0, 4.2, 4.2], [0.0, 2.1, 2.1], [0.0, 0.0, 0.0]]))
def test_fermat_point_same_bytes(V):
    assert_same_bytes(fermat_point(V), oracle_fermat_point(V))


# -- the shared norm ---------------------------------------------------------

@given(st.lists(st.floats(-1e150, 1e150), min_size=3, max_size=9),
       st.sampled_from([1, 2, 3]))
# a randomized draw (Hypothesis seed 22), here contiguous: drawn as every
# second value of a 9-value list, a view outside norm's contract, its dot
# summed in another order than on the contiguous copy
@example([1582759392.0, 679937741286.0, 4054534433587168.0, 0.0, 33554433.0],
         1)
def test_norm_matches_numpy(values, stride):
    # norm's contract: any layout up to length 3, contiguous beyond
    v = np.array(values)[::stride]
    if len(v) > 3:
        v = v.copy()
    assert norm(v) == np.linalg.norm(v)
    assert unit(v).tobytes() == _oracle_unit(v).tobytes()
