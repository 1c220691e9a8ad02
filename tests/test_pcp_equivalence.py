"""The point-cloud planner returns the same bytes as the straightforward
version it replaced, over generated inputs.

The oracles below are the earlier implementations: every 3-vector norm a
`np.linalg.norm` call, cross products by `np.cross`, the closeness test by
`np.allclose`, the feasibility bisection on numpy arrays, the DAS fan built
whole on every call, and a collision-check cloud that computes each point's
distance anew for every cut and sort.
"""
import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dualnav.geometry import norm, segment_point_distances, unit
from dualnav.pcp import (ETA1, ETA2, OPT_TOL, PcpParams, _feasible, _rays,
                         compute_goal, das_search, plan_motion, safety_backup)
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


def oracle_das_search(p_n, g_n, cloud_sorted, params, waypoint_dist=None,
                      excluded=None):
    p_n = np.asarray(p_n, dtype=float)
    g_n = np.asarray(g_n, dtype=float)
    d = g_n - p_n
    if np.linalg.norm(d) == 0.0:
        return None
    wd = params.waypoint_dist if waypoint_dist is None else waypoint_dist
    for idx, ray in enumerate(oracle_rays(d, params.das_angle_step)):
        if excluded and idx in excluded:
            continue
        end = p_n + params.r_det * ray
        if _oracle_collision_check_segment(p_n, end, cloud_sorted,
                                           params.r_safe) is None:
            return p_n + wd * ray, idx
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
    horizon = max(params.waypoint_dist / params.v_max, 1e-3)
    if min_obs > d_bkd:
        goal_dir = _oracle_unit(np.asarray(p_prev, dtype=float) - p_n)
        if np.linalg.norm(goal_dir) == 0.0:
            goal_dir = (_oracle_unit(v_n) if np.linalg.norm(v_n)
                        else np.array([1.0, 0, 0]))
        best_ray, best_clear = None, -1.0
        rays = oracle_rays(goal_dir, params.das_angle_step)
        for idx, ray in enumerate(rays):
            if idx in blocked_rays:
                continue
            end = p_n + params.r_det * ray
            clear = (float(np.min(segment_point_distances(p_n, end, pts)))
                     if len(pts) else math.inf)
            if clear > best_clear:
                best_ray, best_clear = ray, clear
        w = p_n + params.waypoint_dist * best_ray
        return oracle_plan_motion(p_n, v_n, w, horizon, params)[:2] + (
            "backup_steer",)
    if np.linalg.norm(v_n) > 1e-6:
        a = _oracle_brake_accel(v_n, params.a_max)
        return _oracle_finish(a, v_n, 1e-2, "backup_brake", True, 0)[:3]
    w = np.asarray(p_prev, dtype=float)
    return oracle_plan_motion(p_n, v_n, w, horizon, params)[:2] + (
        "backup_brake",)


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


def oracle_pcp_cloud(pcl4, snap, p, g_n, pp, seed):
    """`_EpisodeCore._pcp_cloud` with the frame, the map snapshot and the
    streamline seed passed in."""
    parts = []
    if pcl4 is not None and len(pcl4):
        d = np.linalg.norm(pcl4 - p, axis=1)
        near = pcl4[d <= pp.r_det]
        if len(near):
            near = near[np.argsort(np.linalg.norm(near - p, axis=1),
                                   kind="stable")]
            d_ft = float(np.linalg.norm(near[-1] - p))
            near = oracle_streamline(near, p, g_n, pp.n_use, d_ft, seed=seed)
            parts.append(near)
    if snap is not None:
        pcl_m = snap[0]
        if len(pcl_m):
            d = np.linalg.norm(pcl_m - p, axis=1)
            parts.append(pcl_m[d <= pp.r_det])
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

angle_steps = (st.sampled_from([math.radians(10.0), math.radians(15.0),
                                math.pi / 2.0]) | st.floats(0.1, 1.6))


@settings(max_examples=200)
@given(vec3(-2.0, 2.0), angle_steps)
@example(np.array([0.0, 0.0, 1.0]), math.radians(10.0))
@example(np.array([0.0, -0.0, -2.0]), math.radians(10.0))
@example(np.zeros(3), math.radians(10.0))
def test_candidate_rays_same_bytes(direction, angle_step):
    got = list(_rays(direction, angle_step))
    want = oracle_rays(direction, angle_step)
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
    params = PcpParams(das_angle_step=draw(angle_steps),
                       r_safe=draw(st.sampled_from([0.5, 0.7])))
    p = draw(vec3(-5.0, 5.0))
    g = p + draw(vec3(-3.0, 3.0))
    excluded = draw(st.sets(st.integers(0, 40), max_size=6))
    wd = draw(st.none() | st.floats(0.03, 0.3))
    return p, g, draw(clouds(p)), params, wd, excluded


@settings(max_examples=200)
@given(das_cases())
@example((np.zeros(3), np.zeros(3), np.zeros((0, 3)), PcpParams(), None, set()))
@example((np.zeros(3), np.array([2.0, 0.0, 0.0]), np.array([[1.0, 0.0, 0.0]]),
          PcpParams(), None, {0, 1}))
def test_das_search_same_bytes(case):
    p, g, cloud, params, wd, excluded = case
    got = das_search(p, g, cloud, params, waypoint_dist=wd, excluded=excluded)
    want = oracle_das_search(p, g, cloud, params, waypoint_dist=wd,
                             excluded=excluded)
    if want is None:
        assert got is None
    else:
        assert got[1] == want[1]
        assert_same_bytes(got[0], want[0])


# -- the PCP's collision-check cloud ------------------------------------------

@st.composite
def scattered(draw, p, max_points):
    """Points around p: uniform ones, some on a 0.1 m lattice (equal
    distances and duplicates), some at exactly r_det along an axis."""
    n = draw(st.integers(0, max_points))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rel = rng.uniform(-3.0, 3.0, size=(n, 3))
    if draw(st.booleans()):
        rel = np.round(rel, 1)
    extra = draw(st.lists(st.sampled_from(
        [(2.0, 0.0, 0.0), (0.0, -2.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.5, 0.0),
         (0.0, 0.0, 0.0)]), max_size=4))
    return np.vstack([rel, np.array(extra, dtype=float).reshape(-1, 3)]) + p


@st.composite
def pcp_cloud_cases(draw):
    pp = PcpParams(r_det=draw(st.sampled_from([2.0, 1.0])),
                   n_use=draw(st.sampled_from([70, 1]) | st.integers(2, 40)))
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
    return pcl4, snap, p, g, pp, draw(st.integers(0, 10_000))


# points on the axes at five radii: many equal distances, so an unstable
# sort of the frame or of the merged cloud would reorder them
_SHELLS = np.array([np.eye(3)[k % 3] * (1 - 2 * (k % 6 // 3)) * 0.5 * (1 + k % 5)
                    for k in range(60)])


@settings(max_examples=300)
@given(pcp_cloud_cases())
@example((_SHELLS, (_SHELLS[::2], np.zeros(3)), np.zeros(3), np.ones(3),
          PcpParams(), 0))
@example((None, None, np.zeros(3), np.ones(3), PcpParams(), 0))
@example((np.zeros((0, 3)), (np.zeros((0, 3)), np.zeros(3)), np.zeros(3),
          np.ones(3), PcpParams(), 0))
@example((np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [3.0, 0.0, 0.0]]),
          (np.array([[0.0, 0.0, 2.0]]), np.zeros(3)), np.zeros(3),
          np.array([1.0, 0.0, 0.0]), PcpParams(n_use=1), 5))
def test_pcp_cloud_same_bytes(case):
    pcl4, snap, p, g, pp, steps = case
    sc = Scenario(world=World(), start=(0.0, 0.0, 1.0), goal=(1.0, 0.0, 1.0),
                  seed=3, pcp_params=pp)
    core = _EpisodeCore(sc)
    core.pcp_steps = steps
    if pcl4 is not None:
        core.bb.publish("pcl4", pcl4)
    if snap is not None:
        core.bb.publish("map", snap)
    assert_same_bytes(core._pcp_cloud(p, g),
                      oracle_pcp_cloud(pcl4, snap, p, g, pp, sc.seed + steps))


# -- safety backup -----------------------------------------------------------

@st.composite
def backup_cases(draw):
    params = PcpParams()
    p = draw(vec3(-5.0, 5.0))
    branch = draw(st.sampled_from(["steer", "brake", "retreat", "any"]))
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
    return p, v, prev, cloud, params, blocked


@settings(max_examples=60)
@given(backup_cases())
@example((np.zeros(3), np.array([0.1, 0.0, 0.0]), np.array([-0.1, 0.0, 0.0]),
          np.array([[0.4, 0.0, 0.0]]), PcpParams(), set()))
@example((np.zeros(3), np.zeros(3), np.zeros(3), np.zeros((0, 3)),
          PcpParams(), {0}))
@example((np.zeros(3), np.array([1.0, 0.0, 0.0]), np.array([-0.1, 0.0, 0.0]),
          np.array([[0.1, 0.0, 0.0]]), PcpParams(), set()))
@example((np.ones(3), np.zeros(3), np.zeros(3), np.ones((1, 3)),
          PcpParams(), set()))
def test_safety_backup_same_bytes(case):
    p, v, prev, cloud, params, blocked = case
    cmd = safety_backup(p, v, prev, cloud, params, blocked)
    assert_same_command(cmd, oracle_safety_backup(p, v, prev, cloud, params,
                                                  blocked))


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
    kappa1 = draw(st.sampled_from([4.2]) | st.floats(1.0, 6.0))
    kappa2 = draw(st.sampled_from([1.5]) | st.floats(0.1, 0.99)) * kappa1
    return p, v, np.array(wps), kappa1, kappa2


@settings(max_examples=300)
@given(goal_cases())
@example((np.zeros(3), np.zeros(3), np.array([[1.0, 0.0, 0.0]]), 4.2, 1.5))
@example((np.zeros(3), np.zeros(3), np.zeros((2, 3)), 4.2, 1.5))
@example((np.array([-0.0, 0.0, 1.0]), np.array([0.0, -0.0, 0.0]),
          np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]), 4.2, 1.5))
def test_compute_goal_same_bytes(case):
    p, v, wps, kappa1, kappa2 = case
    assert_same_bytes(compute_goal(p, v, wps, kappa1, kappa2),
                      oracle_compute_goal(p, v, wps, kappa1, kappa2))


# -- the shared norm ---------------------------------------------------------

@given(st.lists(st.floats(-1e150, 1e150), min_size=3, max_size=9),
       st.sampled_from([1, 2, 3]))
def test_norm_matches_numpy(values, stride):
    v = np.array(values)[::stride]
    assert norm(v) == np.linalg.norm(v)
    assert unit(v).tobytes() == _oracle_unit(v).tobytes()
