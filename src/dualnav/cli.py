"""Command-line benchmark harness."""
from __future__ import annotations

import json
import os

import click

from . import bench
from .runtime import run_episode

# numpy's seed sequences take non-negative integers only
SEED = click.IntRange(min=0)
# a count of 0 trials, instances or map cells leaves a mean over nothing
COUNT = click.IntRange(min=1)
# --mode to run_episode's clock
MODES = {"virtual": "virtual_time", "wallclock": "wall_clock"}


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
@click.option("--trials", type=COUNT, default=10, show_default=True)
@click.option("--map-size", type=COUNT, default=800, show_default=True)
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
@click.option("--worlds", type=click.IntRange(min=0), default=10,
              show_default=True)
@click.option("--mode", type=click.Choice(list(MODES)), default="virtual",
              show_default=True)
def bench_flight3d_cmd(seed, out, worlds, mode):
    """Full-episode 3D study against the shortest-path oracle."""
    result = bench.bench_flight3d(n_worlds=worlds, seed=seed,
                                  mode=MODES[mode])
    _write(out, "bench_flight3d.json", result)
    click.echo(json.dumps({"mean_eta": result["mean_eta"],
                           "total_collisions": result["total_collisions"]},
                          indent=2))


@main.command("bench-optimizer")
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--out", default="out", show_default=True)
@click.option("--instances", type=COUNT, default=10000, show_default=True)
def bench_optimizer_cmd(seed, out, instances):
    """Motion-optimizer convergence study."""
    result = bench.bench_optimizer(instances=instances, seed=seed)
    _write(out, "bench_optimizer.json", result)
    click.echo(json.dumps(result["table"], indent=2))


@main.command("run")
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--out", default="out", show_default=True)
@click.option("--world", type=click.Choice(list(bench.SCENARIOS)),
              default="wall", show_default=True)
@click.option("--mode", type=click.Choice(list(MODES)), default="virtual",
              show_default=True)
@click.option("--no-dags", is_flag=True, default=False)
def run_cmd(seed, out, world, mode, no_dags):
    """Fly one catalogue world and export its artifacts."""
    sc = bench.scenario(world, seed, use_dags=not no_dags)
    res = run_episode(sc, mode=MODES[mode])
    bench.export_plots([res], out)
    click.echo(json.dumps({"status": res.status, **res.metrics}, indent=2))
    click.echo(json.dumps({"timing": res.timing}, indent=2))


if __name__ == "__main__":
    main()
