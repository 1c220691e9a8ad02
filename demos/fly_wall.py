"""Fly the wall world with and without the 3D angular search."""
from dataclasses import replace

from dualnav.bench import oracle_shortest_path, scenario
from dualnav.runtime import run_episode


def main():
    sc = scenario("wall", 0)
    oracle = oracle_shortest_path(sc.world, sc.start, sc.goal)
    print(f"oracle shortest path: {oracle[0]:.3f} m")
    for use_dags in (True, False):
        res = run_episode(replace(sc, use_dags=use_dags), mode="virtual_time")
        label = "with 3D search" if use_dags else "2D only"
        print(f"{label}: {res.status}, "
              f"{res.metrics['trajectory_length']:.3f} m in "
              f"{res.metrics['duration']:.1f} s, "
              f"{res.metrics['backup_activations']} backups")
        peak = max(row[3] for row in res.trajectory)
        print(f"  peak altitude {peak:.2f} m")


if __name__ == "__main__":
    main()
