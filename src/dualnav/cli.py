"""Command-line benchmark harness."""
from __future__ import annotations

import json
import os

import click

from . import bench
from .runtime import run_episode

# numpy's seed sequences take non-negative integers only
SEED = click.IntRange(min=0)


def _write(out, name, payload):
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, name)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
    click.echo(f"wrote {path}")


@click.group()
def main():
    """Dual-planner navigation benchmarks."""


@main.command("bench-map2d")
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--out", default="out", show_default=True)
@click.option("--trials", default=10, show_default=True)
@click.option("--map-size", default=800, show_default=True)
@click.option("--local-size", default=200, show_default=True)
@click.option("--min-dist", default=500, show_default=True)
def bench_map2d_cmd(seed, out, trials, map_size, local_size, min_dist):
    """Global vs local vs stitched 2D planning study."""
    try:
        result = bench.bench_map2d(map_size=map_size, trials=trials,
                                   seed=seed, local_size=local_size,
                                   min_dist=min_dist)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    _write(out, "bench_map2d.json", result)
    click.echo(json.dumps({k: v for k, v in result.items() if k != "rows"},
                          indent=2))


@main.command("bench-flight3d")
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--out", default="out", show_default=True)
@click.option("--worlds", default=10, show_default=True)
@click.option("--mode", type=click.Choice(["virtual", "wallclock"]),
              default="virtual", show_default=True)
def bench_flight3d_cmd(seed, out, worlds, mode):
    """Full-episode 3D study against the shortest-path oracle."""
    result = bench.bench_flight3d(
        n_worlds=worlds, seed=seed,
        mode="virtual_time" if mode == "virtual" else "wall_clock")
    _write(out, "bench_flight3d.json", result)
    click.echo(json.dumps({"mean_eta": result["mean_eta"],
                           "total_collisions": result["total_collisions"]},
                          indent=2))


@main.command("bench-optimizer")
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--out", default="out", show_default=True)
@click.option("--instances", default=10000, show_default=True)
def bench_optimizer_cmd(seed, out, instances):
    """Motion-optimizer convergence study."""
    result = bench.bench_optimizer(instances=instances, seed=seed)
    _write(out, "bench_optimizer.json", result)
    click.echo(json.dumps(result["table"], indent=2))


@main.command("run")
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--out", default="out", show_default=True)
@click.option("--world", type=click.Choice(["empty", "wall", "random",
                                            "intruder"]),
              default="wall", show_default=True)
@click.option("--mode", type=click.Choice(["virtual", "wallclock"]),
              default="virtual", show_default=True)
@click.option("--no-dags", is_flag=True, default=False)
def run_cmd(seed, out, world, mode, no_dags):
    """Run a single scripted scenario and export its artifacts."""
    if world == "wall":
        w, start, goal = bench.wall_world()
    elif world == "random":
        w, start, goal = bench.random_world_3d(seed)
    elif world == "intruder":
        w, start, goal = bench.intruder_world()
    else:
        from .sim import World
        w, start, goal = World(ground_z=0.0), (0, 0, 1.0), (5, 0, 1.0)
    known = world != "intruder"
    sc = bench.flight_scenario(w, start, goal, seed, use_dags=not no_dags,
                               known_world=known, freeze_map=known)
    res = run_episode(sc, mode="virtual_time" if mode == "virtual"
                      else "wall_clock")
    bench.export_plots([res], out)
    click.echo(json.dumps({"status": res.status, **res.metrics}, indent=2))
    click.echo(json.dumps({"timing": res.timing}, indent=2))


@main.command("export")
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--out", default="out", show_default=True)
@click.option("--worlds", default=3, show_default=True)
def export_cmd(seed, out, worlds):
    """Run a batch of random-world episodes and export plot data."""
    results = []
    for k in range(worlds):
        w, start, goal = bench.random_world_3d(seed * 100 + k)
        sc = bench.flight_scenario(w, start, goal, seed)
        results.append(run_episode(sc))
    files = bench.export_plots(results, out)
    click.echo(json.dumps({"written": len(files)}, indent=2))


if __name__ == "__main__":
    main()
