import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dualnav.geometry import unit
from dualnav.pcp import (KAPPA2, N_USE, R_DET, WAYPOINT_DIST, PcpParams,
                         _fan_vectors, braking_distance, compute_goal,
                         das_search, fermat_point, hold, plan_motion,
                         safety_backup, streamline)

VELOCITY = st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3).map(
    np.array)
HORIZON = st.floats(1e-3, 1.0)


def brute_median_cost(V, point):
    return float(sum(np.linalg.norm(point - v) for v in V))


def test_params_validation():
    # the braking distance v_max^2 / (2 a_max) must stay within r_safe
    with pytest.raises(ValueError):
        PcpParams(v_max=2.0, a_max=2.0, r_safe=0.5)


@pytest.mark.parametrize("bad", [
    {"a_max": -2.0}, {"a_max": 0.0}, {"a_max": math.nan},
    {"v_max": 0.0}, {"v_max": -1.0}, {"v_max": math.nan},
    {"r_safe": 0.0}, {"r_safe": math.nan}, {"max_opt_iters": 0}])
def test_params_reject_limits_that_break_the_pcp(bad):
    # a_max < 0 makes `hold` speed up, a_max = 0 and v_max = 0 divide by
    # zero and max_opt_iters = 0 returns a = 0 unsolved
    with pytest.raises(ValueError):
        PcpParams(**bad)


def test_fermat_equilateral_centroid():
    V = np.array([[0, 0, 0], [1, 0, 0], [0.5, math.sqrt(3) / 2, 0]])
    f = fermat_point(V)
    assert np.allclose(f, V.mean(axis=0), atol=1e-9)


def test_fermat_obtuse_vertex_rule():
    # angle at the middle vertex is far above 120 degrees
    V = np.array([[0, 0, 0], [1, 0.05, 0], [2, 0, 0]], dtype=float)
    f = fermat_point(V)
    assert np.allclose(f, V[1], atol=1e-12)


def test_fermat_collinear_middle_vertex():
    V = np.array([[0, 0, 0], [1, 0, 0], [3, 0, 0]], dtype=float)
    f = fermat_point(V)
    assert np.allclose(f, V[1])


def test_fermat_coincident_vertices():
    V = np.array([[1, 1, 1], [1, 1, 1], [1, 1, 1]], dtype=float)
    assert np.allclose(fermat_point(V), [1, 1, 1])


def test_fermat_collinear_vertices_with_rounding_noise():
    # e2 runs along e1, so e2p is rounding error that leans on u: the
    # plane basis must be made orthogonal before the middle vertex maps back
    V = np.array([[2.0, 3.0, 2.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.allclose(fermat_point(V), 0.0, atol=1e-12)
    d = np.array([0.0, 1.0, 1.0])
    for k in (2.1, 1.5):
        V = np.array([4.2 * d, k * d, np.zeros(3)])
        assert np.allclose(fermat_point(V), k * d, atol=1e-12)
    assert np.allclose(compute_goal(np.zeros(3), np.zeros(3), [d]),
                       KAPPA2 * d, atol=1e-12)


def test_fermat_3d_plane_invariance():
    rng = np.random.default_rng(2)
    for _ in range(20):
        V = rng.normal(size=(3, 3))
        f = fermat_point(V)
        cost = brute_median_cost(V, f)
        for delta in rng.normal(scale=1e-4, size=(8, 3)):
            assert brute_median_cost(V, f + delta) >= cost - 1e-9


def test_compute_goal_single_waypoint():
    g = compute_goal([0, 0, 0], [0, 0, 0], [[1.0, 0, 0]])
    # all three triangle vertices lie on the x axis; goal stays on it
    assert abs(g[1]) < 1e-9 and abs(g[2]) < 1e-9
    assert g[0] > 0


def test_streamline_caps_and_sorts():
    rng = np.random.default_rng(0)
    p = np.zeros(3)
    pts = rng.uniform(-2, 2, size=(300, 3))
    pts = pts[np.argsort(np.linalg.norm(pts, axis=1))]
    out = pts[streamline(pts, np.linalg.norm(pts - p, axis=1), p, [2.0, 0, 0],
                          seed=1)]
    assert len(out) == N_USE
    d = np.linalg.norm(out - p, axis=1)
    assert np.all(np.diff(d) >= -1e-12)


@given(st.integers(1, 3000))
@example(1)
@example(3000)
def test_streamline_thins_priority_points_evenly(surplus):
    # every point lies ahead of the goal direction, so all L are priority
    # points; picks (L - 1) / (N_USE - 1) > 1 apart never round together
    L = N_USE + surplus
    pts = np.zeros((L, 3))
    pts[:, 0] = np.arange(1.0, L + 1.0)
    out = streamline(pts, pts[:, 0].copy(), np.zeros(3), [1.0, 0, 0])
    assert len(out) == N_USE
    assert np.all(np.diff(out) > 0)
    assert np.array_equal(out, np.round(np.linspace(0, L - 1, N_USE)))


def test_streamline_short_input_passthrough():
    pts = np.ones((5, 3))
    out = pts[streamline(pts, np.full(5, math.sqrt(3.0)), np.zeros(3),
                          np.ones(3))]
    assert len(out) == 5


def test_candidate_rays_structure():
    d = unit([1.0, 0.0, 0.0])
    rays = [d] + [unit(f) for f in _fan_vectors(d)]
    assert np.allclose(rays[0], [1, 0, 0])
    # 9 rounds of 4 rays plus the center ray
    assert len(rays) == 1 + 4 * 9
    for r in rays:
        assert np.linalg.norm(r) == pytest.approx(1.0)
    # first round is the pair of 10-degree horizontal offsets
    assert rays[1][2] == pytest.approx(0.0, abs=1e-12)
    assert rays[2][2] == pytest.approx(0.0, abs=1e-12)
    ang = math.degrees(math.acos(np.clip(np.dot(rays[0], rays[1]), -1, 1)))
    assert ang == pytest.approx(10.0, abs=1e-9)


def test_das_search_direct_free():
    p = PcpParams()
    out = das_search([0, 0, 0], [2, 0, 0], np.zeros((0, 3)), p)
    assert out is not None
    w, idx = out
    assert idx == 0
    assert np.allclose(w, [WAYPOINT_DIST, 0, 0])


def test_das_search_deviates_when_blocked():
    p = PcpParams()
    cloud = np.array([[1.0, 0.0, 0.0]])
    out = das_search([0, 0, 0], [2, 0, 0], cloud, p)
    assert out is not None
    w, idx = out
    assert idx > 0


def test_das_search_respects_exclusions():
    p = PcpParams()
    free = das_search([0, 0, 0], [2, 0, 0], np.zeros((0, 3)), p,
                      excluded={0})
    assert free is not None and free[1] != 0


def test_plan_motion_constraints_and_progress():
    p = PcpParams(v_max=1.0, a_max=2.0)
    rng = np.random.default_rng(4)
    for _ in range(100):
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * rng.uniform(0, p.v_max)
        w = rng.normal(size=3)
        w = w / np.linalg.norm(w) * rng.uniform(0.05, R_DET)
        cmd = plan_motion(np.zeros(3), v, w, 0.05, p)
        assert np.linalg.norm(cmd.a_n) <= p.a_max + 1e-9
        assert np.linalg.norm(v + cmd.a_n * 0.05) <= p.v_max + 1e-9


def test_plan_motion_rejects_bad_horizon():
    with pytest.raises(ValueError):
        plan_motion(np.zeros(3), np.zeros(3), np.ones(3), 0.0, PcpParams())


def test_braking_distance():
    assert braking_distance([1.0, 0, 0], 2.0) == pytest.approx(0.25)


def test_safety_backup_steer_branch():
    p = PcpParams(v_max=1.0, a_max=2.0)
    # slow drone, nearest obstacle farther than the braking distance
    cloud = np.array([[0.4, 0.0, 0.0]])
    cmd = safety_backup([0, 0, 0], [0.1, 0, 0], [-0.1, 0, 0], cloud, p, set())
    assert cmd.mode == "backup_steer"


def test_safety_backup_brake_branch():
    p = PcpParams(v_max=1.35, a_max=2.0)
    cloud = np.array([[0.4, 0.0, 0.0]])
    cmd = safety_backup([0, 0, 0], [1.3, 0, 0], [-0.1, 0, 0], cloud, p, set())
    assert cmd.mode == "backup_brake"
    # braking opposes the velocity
    assert cmd.a_n[0] < 0


def test_safety_backup_brakes_when_every_ray_is_blocked():
    p = PcpParams(v_max=1.0, a_max=2.0)
    # the braking distance fits, as in the steer branch, but no ray is left
    cloud = np.array([[0.4, 0.0, 0.0]])
    fan = _fan_vectors(np.array([1.0, 0, 0]))
    every_ray = set(range(1 + len(fan)))
    cmd = safety_backup([0, 0, 0], [0.1, 0, 0], [-0.1, 0, 0], cloud, p,
                        every_ray)
    assert cmd.mode == "backup_brake"
    assert cmd.a_n.tolist() == [-p.a_max, 0.0, 0.0]
    # at rest it retreats toward the previous position
    cmd = safety_backup([0, 0, 0], [0, 0, 0], [-0.1, 0, 0], cloud, p,
                        every_ray)
    assert cmd.mode == "backup_brake"
    assert cmd.a_n[0] < 0


def test_hold_from_rest_is_zero():
    cmd = hold(np.zeros(3), 0.1, 2.0)
    assert cmd.mode == "hold"
    assert np.all(cmd.a_n == 0.0)


@given(VELOCITY, HORIZON, st.floats(0.0, 10.0))
def test_hold_stops_within_the_horizon_when_it_can(v, t, spare):
    # a_max at least |v| / t: one horizon at the capped rate stops the drone
    a_max = float(np.linalg.norm(v)) / t + spare
    cmd = hold(v, t, a_max)
    assert np.linalg.norm(v + cmd.a_n * t) <= 1e-12


@given(VELOCITY, HORIZON, st.floats(1e-3, 10.0))
def test_hold_never_exceeds_a_max(v, t, a_max):
    cmd = hold(v, t, a_max)
    assert cmd.mode == "hold"
    # the unit direction may round one ulp long
    assert np.linalg.norm(cmd.a_n) <= a_max * (1.0 + 1e-12)
    # braking never reverses the velocity within the horizon
    assert float(np.dot(v + cmd.a_n * t, v)) >= -1e-12
