"""Outside-in span tracer.

The tracer wraps dualnav's public functions from outside the package: every
module attribute that is bound to a traced function is replaced by a wrapper,
so both `module.f` and the `from .module import f` copies held by callers
record a span. Spans stay in memory while the run goes on; self times are
derived from the span tree afterwards, and the spans can be written out when
the run ends.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Records one span per traced call plus named counters.

    A span is [name_id, parent_index, start, end]; parent_index is -1 for a
    root span. `clock` is injectable so tests can drive it by hand.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: defaultdict = defaultdict(float)
        self._restore: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None):
        """Wrapper of fn that records a span named `name`.

        count(counts, result, *args, **kwargs) runs after the span has ended,
        so counter bookkeeping is never charged to the traced function.
        """
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, self.clock
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [nid, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                count(counts, result, *args, **kwargs)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install_function(self, module, attr: str, name: str, count=None):
        """Trace module.attr at every dualnav module attribute bound to it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, count)
        for mod in _dualnav_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install_method(self, cls, attr: str, name: str, count=None):
        """Trace a method (or __init__) on the class itself."""
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, count))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, and all durations.

        Self time is the span's duration minus the durations of its direct
        children, so the self times of all spans add up to the total time of
        the root spans.
        """
        child = np.zeros(len(self.spans))
        for nid, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        for idx, (nid, parent, t0, t1) in enumerate(self.spans):
            entry = out.get(self.names[nid])
            if entry is None:
                entry = out[self.names[nid]] = {
                    "calls": 0, "total_s": 0.0, "self_s": 0.0,
                    "durations": []}
            dur = t1 - t0
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child[idx]
            entry["durations"].append(dur)
        return out

    def write_spans(self, path: str) -> None:
        """One CSV line per span: index, name, parent index, start, end."""
        with open(path, "w") as f:
            f.write("index,name,parent,start_s,end_s\n")
            for idx, (nid, parent, t0, t1) in enumerate(self.spans):
                f.write("%d,%s,%d,%.9f,%.9f\n"
                        % (idx, self.names[nid], parent, t0, t1))


def _dualnav_modules():
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "dualnav"
                                    or key.startswith("dualnav."))]


# -- the dualnav layers -------------------------------------------------------

def _sense(counts, result, world, position, yaw, sensor, time, seed):
    counts["sense.boxes_tested"] += len(world.static) + sum(
        1 for d in world.dynamic if time >= d.times[0])
    counts["sense.points_out"] += len(result)


def _voxel(counts, result, cloud, voxel_size):
    counts["voxel_downsample.points_in"] += len(cloud)
    counts["voxel_downsample.points_out"] += len(result)


def _outlier(counts, result, cloud, radius, min_neighbors):
    counts["outlier_filter.points_in"] += len(cloud)
    counts["outlier_filter.points_out"] += len(result)


def _integrate(counts, result, vmap, cloud):
    counts["integrate.points_in"] += len(cloud)


def _occupied(counts, result, vmap):
    counts["occupied_centers.voxels_out"] += len(result)
    counts["map_voxels"] = max(counts["map_voxels"], len(result))


def _min_clearance(counts, result, waypoints, points):
    counts["geometry.min_clearance.points_in"] += len(points)


def _plan_final(counts, result, *args, **kwargs):
    counts["plan_final_path.failed"] += result is None


def _dags(counts, result, *args, **kwargs):
    counts["dags_search.accepted"] += result is not None


def _das(counts, result, *args, **kwargs):
    counts["das_search.found"] += result is not None


def _plan_motion(counts, result, *args, **kwargs):
    counts["plan_motion.converged"] += bool(result.converged)
    counts["plan_motion.iterations"] += result.iterations


def _backup(counts, result, *args, **kwargs):
    counts["safety_backup.brakes"] += result.mode == "backup_brake"


# (module, function, span name, counter)
FUNCTIONS = (
    ("sim", "sense", "sense", _sense),
    ("sim", "step_dynamics", "step_dynamics", None),
    ("sim", "check_collision", "check_collision", None),
    ("pcl", "distance_filter", "distance_filter", None),
    ("pcl", "voxel_downsample", "voxel_downsample", _voxel),
    ("pcl", "outlier_filter", "outlier_filter", _outlier),
    ("pcl", "body_to_earth", "body_to_earth", None),
    ("mapping", "local_map", "local_map", None),
    ("mapping", "project_2d", "project_2d", None),
    ("mapping", "inflate", "inflate", None),
    ("mapping", "downsample", "downsample", None),
    ("geometry", "min_clearance", "geometry.min_clearance", _min_clearance),
    ("jps", "jps_search", "jps_search", None),
    ("jps", "line_is_free", "line_is_free", None),
    ("map_planner", "plan_final_path", "plan_final_path", _plan_final),
    ("map_planner", "cast_local_goal", "cast_local_goal", None),
    ("map_planner", "stitched_plan", "stitched_plan", None),
    ("map_planner", "shortcut_cells", "shortcut_cells", None),
    ("map_planner", "dags_search", "dags_search", _dags),
    ("pcp", "compute_goal", "compute_goal", None),
    ("pcp", "streamline", "streamline", None),
    ("pcp", "das_search", "das_search", _das),
    ("pcp", "plan_motion", "plan_motion", _plan_motion),
    ("pcp", "safety_backup", "safety_backup", _backup),
)

# (module, class, method, span name, counter); the runtime's loop bodies are
# the methods its schedulers dispatch
METHODS = (
    ("mapping", "VoxelMap", "integrate", "integrate", _integrate),
    ("mapping", "VoxelMap", "occupied_centers", "occupied_centers", _occupied),
    ("jps", "JpsGrid", "__init__", "JpsGrid", None),
    ("runtime", "_EpisodeCore", "filter_step", "filter_tick", None),
    ("runtime", "_EpisodeCore", "mapping_step", "mapping_tick", None),
    ("runtime", "_EpisodeCore", "mp_step", "mp_tick", None),
    ("runtime", "_EpisodeCore", "pcp_step", "pcp_tick", None),
    ("runtime", "_EpisodeCore", "sim_step", "sim_tick", None),
)

LOOPS = ("filter", "mapping", "mp", "pcp", "sim")


def trace_dualnav(tracer: Tracer | None = None) -> Tracer:
    """Install a tracer on every dualnav layer; use it as a context manager
    so the original functions come back when the traced section ends."""
    import importlib

    tracer = tracer or Tracer()
    for mod_name, attr, name, count in FUNCTIONS:
        module = importlib.import_module("dualnav." + mod_name)
        tracer.install_function(module, attr, name, count)
    for mod_name, cls_name, attr, name, count in METHODS:
        module = importlib.import_module("dualnav." + mod_name)
        tracer.install_method(getattr(module, cls_name), attr, name, count)
    return tracer


def _pct(values, q) -> float:
    return 1e3 * float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from a finished traced section, in the benchmark's
    names. Layers that did not run report zero."""
    s = tracer.summary()
    c = tracer.counts

    def get(name):
        return s.get(name, {"calls": 0, "self_s": 0.0, "durations": []})

    def calls(name):
        return float(get(name)["calls"])

    def self_ms(name):
        return 1e3 * get(name)["self_s"]

    def ratio(num, den):
        return float(num) / den if den else 0.0

    m = {}
    for loop in LOOPS:
        d = get(loop + "_tick")["durations"]
        m[loop + "_tick.p50_ms"] = _pct(d, 50)
        m[loop + "_tick.p99_ms"] = _pct(d, 99)
        m[loop + "_tick.self_ms"] = self_ms(loop + "_tick")
    m["sense.calls"] = calls("sense")
    m["sense.self_ms"] = self_ms("sense")
    m["sense.boxes_tested"] = c["sense.boxes_tested"]
    m["sense.points_out"] = c["sense.points_out"]
    m["step_dynamics.self_ms"] = self_ms("step_dynamics")
    m["check_collision.self_ms"] = self_ms("check_collision")
    m["distance_filter.self_ms"] = self_ms("distance_filter")
    m["voxel_downsample.self_ms"] = self_ms("voxel_downsample")
    m["voxel_downsample.points_in"] = c["voxel_downsample.points_in"]
    m["voxel_downsample.points_out"] = c["voxel_downsample.points_out"]
    m["outlier_filter.self_ms"] = self_ms("outlier_filter")
    m["outlier_filter.keep_ratio"] = ratio(c["outlier_filter.points_out"],
                                           c["outlier_filter.points_in"])
    m["body_to_earth.self_ms"] = self_ms("body_to_earth")
    m["compute_goal.self_ms"] = self_ms("compute_goal")
    m["streamline.self_ms"] = self_ms("streamline")
    m["das_search.calls"] = calls("das_search")
    m["das_search.self_ms"] = self_ms("das_search")
    m["das_search.found_ratio"] = ratio(c["das_search.found"],
                                        calls("das_search"))
    m["plan_motion.calls"] = calls("plan_motion")
    m["plan_motion.self_ms"] = self_ms("plan_motion")
    m["plan_motion.converged_ratio"] = ratio(c["plan_motion.converged"],
                                             calls("plan_motion"))
    m["plan_motion.iterations_mean"] = ratio(c["plan_motion.iterations"],
                                             calls("plan_motion"))
    m["safety_backup.calls"] = calls("safety_backup")
    m["safety_backup.self_ms"] = self_ms("safety_backup")
    m["safety_backup.brake_ratio"] = ratio(c["safety_backup.brakes"],
                                           calls("safety_backup"))
    m["integrate.self_ms"] = self_ms("integrate")
    m["integrate.points_in"] = c["integrate.points_in"]
    m["occupied_centers.calls"] = calls("occupied_centers")
    m["occupied_centers.self_ms"] = self_ms("occupied_centers")
    m["occupied_centers.voxels_out"] = c["occupied_centers.voxels_out"]
    m["local_map.self_ms"] = self_ms("local_map")
    m["project_2d.self_ms"] = self_ms("project_2d")
    m["inflate.self_ms"] = self_ms("inflate")
    m["downsample.self_ms"] = self_ms("downsample")
    m["map_voxels"] = c["map_voxels"]
    m["geometry.min_clearance.calls"] = calls("geometry.min_clearance")
    m["geometry.min_clearance.self_ms"] = self_ms("geometry.min_clearance")
    m["geometry.min_clearance.points_in"] = c[
        "geometry.min_clearance.points_in"]
    m["plan_final_path.calls"] = calls("plan_final_path")
    m["plan_final_path.self_ms"] = self_ms("plan_final_path")
    m["plan_final_path.fail_ratio"] = ratio(c["plan_final_path.failed"],
                                            calls("plan_final_path"))
    m["cast_local_goal.self_ms"] = self_ms("cast_local_goal")
    m["stitched_plan.self_ms"] = self_ms("stitched_plan")
    m["shortcut_cells.self_ms"] = self_ms("shortcut_cells")
    m["dags_search.calls"] = calls("dags_search")
    m["dags_search.self_ms"] = self_ms("dags_search")
    m["dags_search.accept_ratio"] = ratio(c["dags_search.accepted"],
                                          calls("dags_search"))
    m["JpsGrid.builds"] = calls("JpsGrid")
    m["JpsGrid.self_ms"] = self_ms("JpsGrid")
    m["jps_search.calls"] = calls("jps_search")
    m["jps_search.self_ms"] = self_ms("jps_search")
    m["line_is_free.calls"] = calls("line_is_free")
    m["line_is_free.self_ms"] = self_ms("line_is_free")
    return m
