"""Set-up, measurement, checks and reporting of one benchmark run.

navbench/run.py puts the sources on the path and calls main(); see its
docstring for the command line.
"""
import argparse
import json
import resource
import statistics
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from navbench import checks, speed, tracer, workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".navbench_out"
SETUP_REPEATS = 3
# the traced loops and MP calls must account for this share of traced wall time
MIN_ATTRIBUTED = 0.9

# Gated end-to-end metrics, shared by every workload. The measured work is
# gated as wall_ref_s, its host time rescaled to a reference speed (see
# speed.py): on a shared host the same work took up to half as long again
# from run to run, more than any bound may allow. Raw wall_s is printed.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER_EXTRA = ("mp_replans", "mp_replan_failed", "trace.overhead",
                   "trace.attributed_share")


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", ".overhead", "_share")):
        return "ratio"
    if name.endswith("_mean"):
        return "iter"
    return "count"


def _latencies(name, seconds) -> dict:
    """p50, p90, p95 and p99 in ms of one operation's host times."""
    ms = 1e3 * np.asarray(seconds)
    return {f"{name}_ms_p{q}": (float(np.percentile(ms, q)), "ms")
            for q in (50, 90, 95, 99)}


def parse_args(argv):
    ap = argparse.ArgumentParser(
        description="Run one dualnav benchmark workload.")
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Round(NamedTuple):
    wall: float              # host seconds of work
    ref: float | None        # the same, rescaled to the reference speed
    runs: list


def measure(workload, inputs, seconds):
    """Rounds of the fixed set while another whole round fits in the time;
    at least one."""
    rounds = []
    start = time.perf_counter()
    while True:
        clock = speed.SpeedClock()
        with clock.between_ticks():
            clock.start()
            runs = workloads.run_round(workload, inputs, clock.tick)
            clock.stop()
        rounds.append(Round(clock.work_s(), clock.ref_s(), runs))
        if time.perf_counter() - start + clock.work_s() > seconds:
            return rounds


def traced_round(workload, inputs):
    """The set once untraced and once traced, alternating item by item so
    that slow drifts in machine speed fall on both sides alike."""
    tr = tracer.Tracer()
    plain_runs, traced_runs = [], []
    plain_wall = traced_wall = 0.0
    for item in inputs:
        tic = time.perf_counter()
        plain_runs += workloads.run_round(workload, [item])
        plain_wall += time.perf_counter() - tic
        with tracer.trace_dualnav(tr):
            tic = time.perf_counter()
            traced_runs += workloads.run_round(workload, [item])
            traced_wall += time.perf_counter() - tic
    return [Round(plain_wall, None, plain_runs)], traced_runs, traced_wall, tr


def _walls(rounds) -> dict:
    """Median work time over the rounds, raw and rescaled."""
    shown = {"wall_s": (statistics.median(r.wall for r in rounds), "s")}
    if rounds[0].ref is not None:
        shown["wall_ref_s"] = (statistics.median(r.ref for r in rounds), "s")
    return shown


def flight_metrics(rounds):
    walls = [r.wall for r in rounds]
    runs = [r for rnd in rounds for r in rnd.runs]
    pcp = [t for r in runs for t in r.tick_s["pcp"]]
    filt = [t for r in runs for t in r.tick_s["filter"]]
    virtual = sum(r.result.metrics["duration"] for r in runs)
    shown = {
        **_walls(rounds),
        "sim_rtf": (virtual / sum(walls), "virtual_s/s"),
        **_latencies("pcp_tick", pcp),
        **_latencies("filter_tick", filt),
    }
    quality = checks.flight_quality(rounds[0].runs)
    shown["fail_rate"] = (quality["fail_rate"], "ratio")
    shown["path_excess"] = (quality["path_excess"], "ratio")
    shown["min_clearance_m"] = (quality["min_clearance_m"], "m")
    shown["backup_share"] = (quality["backup_share"], "ratio")
    samples = (f"{len(runs)} episodes, {len(pcp)} pcp ticks, "
               f"{len(filt)} filter ticks")
    failed = sum(r.result.status != "goal_reached" for r in runs)
    return shown, samples, len(runs), failed


def mp_metrics(rounds):
    runs = [r for rnd in rounds for r in rnd.runs]
    dags = [r.host_s for r in runs if r.use_dags]
    flat = [r.host_s for r in runs if not r.use_dags]
    failed = sum(r.result is None for r in runs)
    shown = {
        **_walls(rounds),
        "fail_rate": (failed / len(runs), "ratio"),
        **_latencies("plan", dags),
        **_latencies("plan2d", flat),
    }
    samples = f"{len(dags)} plans with DAGS, {len(flat)} without"
    return shown, samples, len(runs), failed


def check_outputs(workload, runs):
    if workload == "mp-replay":
        _, dags = workloads.mp_config()
        return [e for r in runs for e in checks.check_plan(r, dags)]
    return [e for r in runs for e in checks.check_flight(r)]


def main(argv, started: float) -> int:
    """Run the named workload, or all of them one after another in this
    process. `started` is the perf_counter() at process start, so set-up
    time includes the imports."""
    args = parse_args(argv)
    import_s = time.perf_counter() - started
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    passed = [run_workload(wl, args, import_s) for wl in names]
    return 0 if all(passed) else 1


def run_workload(wl, args, import_s: float) -> bool:
    """Set up, measure, check and print one workload; True when all checks
    pass."""
    setups, input_digests = [], set()
    for _ in range(SETUP_REPEATS):
        tic = time.perf_counter()
        inputs = workloads.make_inputs(wl, args.seed)
        workloads.warm_up(wl, inputs)
        setups.append(time.perf_counter() - tic)
        input_digests.add(workloads.inputs_digest(wl, inputs))
    setup_s = import_s + statistics.median(setups)

    errors = []
    if len(input_digests) != 1:
        errors.append("one seed generated different inputs")
    if args.trace:
        rounds, traced_runs, traced_wall, tr = traced_round(wl, inputs)
    else:
        rounds = measure(wl, inputs, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digests = workloads.run_digests(wl, rounds[0].runs)
    for rnd in rounds[1:]:
        if workloads.run_digests(wl, rnd.runs) != digests:
            errors.append("a repeated round changed its outputs")
    errors += check_outputs(wl, rounds[0].runs)
    if wl == "mp-replay":
        shown, samples, attempted, failed = mp_metrics(rounds)
    else:
        shown, samples, attempted, failed = flight_metrics(rounds)
    shown = {"setup_s": (setup_s, "s"), **shown,
             "peak_rss_mb": (peak_rss_mb, "MB")}

    print(f"workload {wl} seed {args.seed} rounds {len(rounds)} ({samples})")
    for name, (value, unit) in shown.items():
        print(f"metric {name} {value:.6g} {unit}")
    for name, digest in digests.items():
        print(f"digest {name} {digest}")

    if args.trace:
        traced_digests = workloads.run_digests(wl, traced_runs)
        if traced_digests != digests:
            errors.append("tracing changed the outputs")
        # the self times of all spans, loops and the layers under them, must
        # add up to (nearly all of) the traced wall time
        attributed = sum(e["self_s"] for e in tr.summary().values()) \
            / traced_wall
        if not MIN_ATTRIBUTED <= attributed <= 1.0 + 1e-9:
            errors.append(f"span self times cover {attributed:.3f} of the "
                          "traced wall time")
        layer = tracer.layer_metrics(tr)
        replans = [payload["ok"] for r in traced_runs if wl != "mp-replay"
                   for _, kind, payload in r.result.events
                   if kind == "mp_replan"]
        layer["mp_replans"] = float(len(replans))
        layer["mp_replan_failed"] = float(replans.count(False))
        layer["trace.overhead"] = traced_wall / rounds[0].wall
        layer["trace.attributed_share"] = attributed
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{wl}-seed{args.seed}.csv"
        tr.write_spans(str(spans))
        print(f"trace overhead {layer['trace.overhead']:.4f} "
              f"(traced {traced_wall:.3f} s / untraced {rounds[0].wall:.3f} s), "
              f"spans {len(tr.spans)} written to {spans.relative_to(ROOT)}")
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in layer.items()}
    else:
        metrics = {name: {"value": shown[name][0], "unit": unit}
                   for name, unit in END_TO_END}

    for e in errors:
        print(f"check failed: {e}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return not errors

