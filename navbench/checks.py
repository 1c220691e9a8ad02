"""Output checks and behaviour metrics, all computed outside timed sections.

Each check returns a list of failure messages; an empty list means it passed.
"""
from __future__ import annotations

import numpy as np

from dualnav import bench
from dualnav.geometry import min_clearance
from dualnav.sim import check_collision

TOL = 1e-9


def check_flight(run) -> list:
    """Speed limit, ground-truth collision recheck and goal status."""
    sc = run.flight.scenario
    res = run.result
    traj = np.array([row[:7] for row in res.trajectory], dtype=float)
    name = run.flight.name
    errors = []
    speed = np.linalg.norm(traj[:, 4:7], axis=1)
    if np.any(speed > sc.pcp_params.v_max + TOL):
        errors.append(f"{name}: speed {speed.max():.6f} above v_max "
                      f"{sc.pcp_params.v_max}")
    hits = [check_collision(sc.world, row[1:4], sc.drone_radius, row[0])
            for row in traj]
    if res.status == "collision":
        if not hits[-1] or any(hits[:-1]):
            errors.append(f"{name}: collision status disagrees with the "
                          "ground-truth recheck")
    elif any(hits):
        errors.append(f"{name}: ground truth collides but status is "
                      f"{res.status}")
    if res.status == "goal_reached" and np.linalg.norm(
            traj[-1, 1:4] - np.asarray(sc.goal)) >= sc.goal_tol:
        errors.append(f"{name}: goal_reached outside goal_tol")
    return errors


def check_plan(run, dags_params) -> list:
    """Path endpoints, and DAGS clearance and altitude on every 3D path."""
    res = run.result
    if res is None:
        return []
    q = run.query
    errors = []
    wp = res.path.waypoints
    if not np.allclose(wp[0], q.p_n, rtol=0.0, atol=TOL):
        errors.append(f"plan from {q.p_n.tolist()} does not start at p_n")
    if not np.allclose(wp[-1], res.g_l, rtol=0.0, atol=TOL):
        errors.append(f"plan from {q.p_n.tolist()} does not end at g_l")
    for path in (res.path_3d, res.path if res.path.kind == "3D" else None):
        if path is None:
            continue
        if len(q.pcl_lm) and min_clearance(path.waypoints, q.pcl_lm) \
                < dags_params.r_safe - TOL:
            errors.append(f"3D plan from {q.p_n.tolist()} closer than r_safe")
        if dags_params.z_min is not None and np.any(
                path.waypoints[:, 2] < dags_params.z_min - TOL):
            errors.append(f"3D plan from {q.p_n.tolist()} below z_min")
    return errors


def ground_truth_clearance(world, trajectory) -> float:
    """Closest approach of the drone centre to any box over a trajectory."""
    traj = np.array([row[:4] for row in trajectory], dtype=float)
    p = traj[:, 1:4]
    best = np.inf
    for box in world.static:
        lo, hi = box.arrays()
        best = min(best, float(np.min(np.linalg.norm(p - np.clip(p, lo, hi),
                                                     axis=1))))
    for obstacle in world.dynamic:
        for t, pos in zip(traj[:, 0], p):
            box = obstacle.box_at(t)
            if box is not None:
                lo, hi = box.arrays()
                best = min(best, float(np.linalg.norm(
                    pos - np.clip(pos, lo, hi))))
    return best


def flight_quality(runs) -> dict:
    """fail_rate, path_excess over static worlds, min_clearance_m and
    backup_share of one round of flights."""
    etas = []
    for r in runs:
        sc = r.flight.scenario
        if sc.world.dynamic or r.result.status != "goal_reached":
            continue
        oracle = bench.oracle_shortest_path(sc.world, sc.start, sc.goal)
        if oracle is None:
            continue
        # charge the goal-tolerance shortfall, as bench_flight3d does
        final = np.asarray(r.result.trajectory[-1][1:4], dtype=float)
        length = r.result.metrics["trajectory_length"] + float(
            np.linalg.norm(np.asarray(sc.goal) - final))
        etas.append((length - oracle[0]) / oracle[0])
    steps = sum(r.result.metrics["pcp_steps"] for r in runs)
    return {
        "fail_rate": sum(r.result.status != "goal_reached" for r in runs)
        / len(runs),
        "path_excess": float(np.mean(etas)) if etas else float("nan"),
        "min_clearance_m": min(ground_truth_clearance(r.flight.scenario.world,
                                                      r.result.trajectory)
                               for r in runs),
        "backup_share": sum(r.result.metrics["backup_activations"]
                            for r in runs) / max(steps, 1),
    }
