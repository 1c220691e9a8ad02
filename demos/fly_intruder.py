"""Dynamic obstacle demo: a box spawns 1.5 m ahead and crosses at 1 m/s."""
from dualnav.bench import scenario
from dualnav.runtime import run_episode


def main():
    sc = scenario("intruder", 0)
    res = run_episode(sc, mode="virtual_time")
    print(f"status: {res.status}, length "
          f"{res.metrics['trajectory_length']:.3f} m, "
          f"collisions {res.metrics['collisions']}")
    spawn = sc.world.dynamic[0].times[0]
    print(f"intruder spawns at t={spawn:.1f}s; events around it:")
    for t, kind, payload in res.events:
        if spawn - 0.2 <= t <= spawn + 2.0 and kind != "pcp_ray":
            print(f"  t={t:8.3f}  {kind}  {payload}")
    # the PCP logs a ray only when it swerves off ray 0, straight ahead
    reaction = next((t for t, kind, _ in res.events
                     if t >= spawn
                     and kind in ("backup_triggered", "pcp_ray")), None)
    if reaction is not None:
        print(f"first avoidance reaction at t={reaction:.3f}s "
              f"({reaction - spawn:.3f}s after spawn)")


if __name__ == "__main__":
    main()
