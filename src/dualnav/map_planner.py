"""Low-frequency map planner: local-goal casting, stitched dual-resolution 2D
search, chord-shortcut optimization, the two-round discrete angular 3D search
and the final path selection."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .geometry import (direction_from_angles, path_clears, path_length,
                       row_norms, segment_point_distances, spherical_angles,
                       wrap_angle)
from .jps import jps_search, line_is_free
from .mapping import (H_MS, GridMap2D, LocalMapParams, cut_center, downsample,
                      inflate)


@dataclass
class PlanPath:
    waypoints: np.ndarray       # (N, 3), Earth frame
    kind: str = "2D-lifted"     # "2D-lifted" or "3D"

    def __post_init__(self):
        wp = np.asarray(self.waypoints, dtype=float).reshape(-1, 3)
        if len(wp) == 0:
            raise ValueError("a path needs at least one waypoint")
        # a step's norm is at least its largest coordinate difference (less
        # a rounding error), so when every step has one above 2e-12, every
        # norm is above 1e-12 and the loop would drop nothing
        if len(wp) > 1 and not (
                np.abs(wp[1:] - wp[:-1]).max(axis=1) > 2e-12).all():
            keep = [0]
            for idx in range(1, len(wp)):
                if np.linalg.norm(wp[idx] - wp[keep[-1]]) > 1e-12:
                    keep.append(idx)
            wp = wp[keep]
        self.waypoints = wp

    def length(self) -> float:
        return path_length(self.waypoints)


ALPHA_RES = math.radians(10.0)  # DAGS's angular cell side
R_SAFE = 0.5                    # DAGS's clearance from the cloud, m


@dataclass
class DagsParams:
    z_min: float | None = None            # minimum allowed flight altitude
    r_safe: ClassVar[float] = R_SAFE      # read by checks of a DAGS path

    def __post_init__(self):
        # a NaN z_min never rejects a path
        if self.z_min is not None and not math.isfinite(self.z_min):
            raise ValueError("z_min must be finite or None")


def cast_local_goal(p_n, global_goal, params: LocalMapParams,
                    map_1_inflated: GridMap2D):
    """Cast the global goal into the local cuboid and onto the 2D grid.

    Returns (g_l, cell). When the projected cell is occupied in the inflated
    map, the nearest free cell on the map edge is substituted.
    """
    p = np.asarray(p_n, dtype=float).tolist()
    g = np.asarray(global_goal, dtype=float).tolist()
    half = (params.l_ms / 2.0, params.l_ms / 2.0, H_MS / 2.0)
    d = [gi - pi for gi, pi in zip(g, p)]
    if all(abs(di) <= hi + 1e-12 for di, hi in zip(d, half)):
        g_l = g
    else:
        faces = [hi / abs(di) if di != 0.0 else math.inf
                 for di, hi in zip(d, half)]
        # a NaN offset gives a NaN t, as np.min would
        t = math.nan if any(f != f for f in faces) else min(faces)
        g_l = [pi + t * di for pi, di in zip(p, d)]
    # the cell of g_l, floor((g_l - origin) / resolution) on each axis,
    # clamped to that axis's size
    ox, oy = map_1_inflated.origin.tolist()
    res = map_1_inflated.resolution
    nx, ny = map_1_inflated.cells.shape
    cell = (min(max(math.floor((g_l[0] - ox) / res), 0), nx - 1),
            min(max(math.floor((g_l[1] - oy) / res), 0), ny - 1))
    if map_1_inflated.cells[cell]:
        cell = _nearest_free_edge_cell(map_1_inflated, cell) or cell
    return np.array(g_l), cell


@functools.lru_cache(maxsize=8)
def _edge_index(n: int, m: int):
    """x and y indices of an n x m grid's edge cells: (x, 0) and (x, m - 1)
    for each x, then (0, y) and (n - 1, y) for each inner y."""
    ex = np.concatenate([np.repeat(np.arange(n), 2),
                         np.tile([0, n - 1], max(m - 2, 0))])
    ey = np.concatenate([np.tile([0, m - 1], n),
                         np.repeat(np.arange(1, m - 1), 2)])
    for a in (ex, ey):
        a.flags.writeable = False
    return ex, ey


def _nearest_free_edge_cell(grid: GridMap2D, ref):
    """Free edge cell nearest ref, the first in edge order on ties; None
    when every edge cell is occupied."""
    ex, ey = _edge_index(*grid.cells.shape)
    free = grid.cells[ex, ey] == 0
    if not free.any():
        return None
    fx, fy = ex[free], ey[free]
    i = int(np.argmin((fx - ref[0]) ** 2 + (fy - ref[1]) ** 2))
    return int(fx[i]), int(fy[i])


def shortcut_cells(path: list, cells: np.ndarray) -> list:
    """Waypoint deletion loop: repeatedly drop the intermediate waypoint when
    the chord two positions ahead is collision-free on the grid.

    Every merged edge is a chord that was itself rasterization-checked, so
    the output is collision-free whenever the input is.
    """
    path = list(path)
    ck = 0
    while ck < len(path) - 2:
        if line_is_free(cells, path[ck], path[ck + 2]):
            del path[ck + 1]
        else:
            ck += 1
    return path


def _coarse_to_fine_center(cell, h):
    return (cell[0] * h + h / 2.0, cell[1] * h + h / 2.0)


def _exempt_start(grid: GridMap2D, start) -> GridMap2D:
    """The grid with the start cell free: the grid itself when it is, else a
    private copy with that cell freed, so the shared grid and its jump
    tables stay as they are."""
    if not grid.cells[start[0], start[1]]:
        return grid
    cells = grid.cells.copy()
    cells[start[0], start[1]] = 0
    return replace(grid, cells=cells)


def _search_with_fallback(grid: GridMap2D, start, goal, ref=None,
                          boundary_only=False):
    """JPS cells from start to goal when the goal is free and reachable,
    else to the free cell nearest ref (default: the goal) that start can
    reach, on the grid boundary only if asked; None when there is none."""
    cells = grid.cells
    res = None
    if cells[goal[0], goal[1]] == 0:
        res = jps_search(grid.jump_tables, start, goal)
    if res is None:
        goal = _nearest_reachable(cells, start, goal if ref is None else ref,
                                  boundary_only=boundary_only)
        if goal is None:
            return None
        res = jps_search(grid.jump_tables, start, goal)
    return None if res is None else res[0]


def stitched_plan(map_1b: GridMap2D, map_c_inflated: GridMap2D,
                  goal_cell_fine, params: LocalMapParams,
                  start_cell_fine=None):
    """Path_1 on the dual-resolution stitched map.

    Plans the coarse path on Map_1b, cuts it at the Map_c boundary, replans
    the inside portion at full resolution and concatenates, shortcutting each
    portion on its own grid. A search whose goal is blocked or unreachable
    plans to the nearest free cell the start can reach instead (conservative
    pooling can block or isolate the coarse goal cell while the fine goal
    cell is free); the crossing g_ist falls back to the nearest reachable
    Map_c boundary cell. When the drone's own coarse cell is centred outside
    Map_c, the coarse path starts from the drone's fine cell instead of that
    cell's centre. Returns the path in Earth XY (z = 0) or None on failure.
    """
    h = params.h
    i, m = params.i, params.m
    lo = i // 2 - m // 2
    start_fine = (i // 2, i // 2) if start_cell_fine is None else start_cell_fine
    gx, gy = goal_cell_fine

    start_c = (start_fine[0] - lo, start_fine[1] - lo)
    grid_c = _exempt_start(map_c_inflated, start_c)

    inside = lo <= gx < lo + m and lo <= gy < lo + m
    coarse_rest: list = []
    goal_end: list = []
    if inside:
        fine_path = _search_with_fallback(grid_c, start_c, (gx - lo, gy - lo))
        if fine_path is None:
            return None
    else:
        start_b = (start_fine[0] // h, start_fine[1] // h)
        path_b = _search_with_fallback(_exempt_start(map_1b, start_b),
                                       start_b, (gx // h, gy // h))
        if path_b is None:
            return None
        if not _coarse_inside(path_b[0], h, lo, m):
            # the drone's own coarse cell is centred outside Map_c: the
            # drone's fine cell stands in for it, so the plan does not
            # detour through that centre
            path_b = path_b[1:]
        k = next((idx for idx, c in enumerate(path_b)
                  if not _coarse_inside(c, h, lo, m)), len(path_b))
        prev_f = (_coarse_to_fine_center(path_b[k - 1], h) if k
                  else (start_fine[0] + 0.5, start_fine[1] + 0.5))
        if k < len(path_b):
            cross = segment_box_exit(
                prev_f, _coarse_to_fine_center(path_b[k], h), lo, lo + m)
        elif not path_b:
            # no coarse cell beyond the drone's own (the goal's, or the only
            # one it reaches): cut toward the goal's fine cell and end there
            goal_end = [(gx - lo, gy - lo)]
            cross = segment_box_exit(prev_f, (gx + 0.5, gy + 0.5), lo, lo + m)
        else:
            # numerically inside after all; plan fine directly to the goal
            cross = prev_f
        cand = (min(max(int(round(cross[0] - lo)), 0), m - 1),
                min(max(int(round(cross[1] - lo)), 0), m - 1))
        fine_path = _search_with_fallback(
            grid_c, start_c, cand, ref=(cross[0] - lo, cross[1] - lo),
            boundary_only=True)
        if fine_path is None:
            return None
        coarse_rest = path_b[k:]

    fine_sc = shortcut_cells(fine_path, grid_c.cells)
    coarse_sc = (shortcut_cells(coarse_rest, map_1b.cells)
                 if len(coarse_rest) > 2 else coarse_rest)

    fine = np.array(fine_sc + goal_end, dtype=float)
    coarse = np.array(coarse_sc, dtype=float).reshape(-1, 2)
    # each grid's cell centres, origin + (cell + 0.5) * resolution
    xy = np.concatenate([
        map_c_inflated.origin + (fine + 0.5) * map_c_inflated.resolution,
        map_1b.origin + (coarse + 0.5) * map_1b.resolution])
    return PlanPath(np.column_stack([xy, np.zeros(len(xy))]),
                    kind="2D-lifted")


def _coarse_inside(cell, h, lo, m):
    cx, cy = _coarse_to_fine_center(cell, h)
    return lo <= cx < lo + m and lo <= cy < lo + m


def segment_box_exit(a, b, lo, hi):
    """Intersection of segment a->b (a inside) with the square [lo, hi]^2."""
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    t = 1.0
    for p0, d in ((ax, dx), (ay, dy)):
        if d > 0:
            t = min(t, (hi - p0) / d)
        elif d < 0:
            t = min(t, (lo - p0) / d)
    return ax + t * dx, ay + t * dy


def nearest_free_in_grid(cells: np.ndarray, ref):
    """Free cell nearest to ref, the first in index order on ties; None if
    the grid has no free cell.

    The free cells come in row-major order as flat indices, split into
    (x, y) by one divmod, and each squared distance is (x - rx)**2 +
    (y - ry)**2, the sum over the two axes in the same order as a row sum.
    """
    free = np.flatnonzero(cells == 0)
    if len(free) == 0:
        return None
    rx, ry = np.asarray(ref)
    x, y = np.divmod(free, cells.shape[1])
    i = int(np.argmin((x - rx) ** 2 + (y - ry) ** 2))
    return int(x[i]), int(y[i])


def _nearest_reachable(cells: np.ndarray, start, ref, boundary_only=False):
    """Nearest free cell to ref within start's 8-connected free component,
    on the grid's boundary only if asked; None when start is off the grid
    or occupied.

    The component is a scanline flood fill over runs of free cells (Rosenfeld
    and Pfaltz's run-based labelling, from one seed). Each row of the grid
    (a fixed first index) is cut into its maximal runs of free cells, found
    by one difference over the flat grid with a blocked column after each
    row. A run [a, b) joins every run [c, d) of the row above or below with
    c <= b and d >= a: the runs that overlap it or touch it at a corner,
    which are its 8-connected neighbours. The runs are numbered in
    row-major order, so their flat start and end indices both ascend, and
    the neighbours of a run in either row are one range of run numbers,
    found by two binary searches over all runs at once. The fill visits
    each run of the component once. Its cells are exactly the start's
    8-connected component of free cells, and `nearest_free_in_grid` picks
    the cell as before.
    """
    n, m = cells.shape
    if not (0 <= start[0] < n and 0 <= start[1] < m) \
            or cells[start[0], start[1]] != 0:
        return None
    w = m + 1
    free = np.zeros(n * w + 1, dtype=np.int8)
    grid = free[1:].reshape(n, w)[:, :m]
    np.equal(cells, 0, out=grid)
    # flat indices of each run's first cell and of the cell past its last,
    # alternating
    edges = np.flatnonzero(free[1:] != free[:-1])
    first, last = edges[::2], edges[1::2]
    lo = np.searchsorted(last, np.concatenate((first + w, first - w)))
    hi = np.searchsorted(first, np.concatenate((last + w, last - w)),
                         side="right")
    runs = len(first)
    lo_below, lo_above = lo[:runs].tolist(), lo[runs:].tolist()
    hi_below, hi_above = hi[:runs].tolist(), hi[runs:].tolist()
    # the start's run is the first to end past it
    k = int(np.searchsorted(last, start[0] * w + start[1], side="right"))
    seen = bytearray(runs)
    seen[k] = 1
    todo = [k]
    while todo:
        k = todo.pop()
        for j in range(lo_below[k], hi_below[k]):
            if not seen[j]:
                seen[j] = 1
                todo.append(j)
        for j in range(lo_above[k], hi_above[k]):
            if not seen[j]:
                seen[j] = 1
                todo.append(j)
    if 0 in seen:
        # the flat grid again, free only on the component's runs
        paint = np.zeros(2 * runs + 1, dtype=bool)
        paint[1::2] = np.frombuffer(seen, dtype=bool)
        ends = np.concatenate(([0], edges, [n * w]))
        grid = np.repeat(paint, ends[1:] - ends[:-1]).reshape(n, w)[:, :m]
    mask = grid.view(bool)
    if boundary_only:
        mask[1:-1, 1:-1] = False
    return nearest_free_in_grid(~mask, ref)


def angular_cells(offsets, az_g, el_g):
    """Goal-relative direction cells of the points at `offsets` (the columns
    dx, dy, dz from the search origin), and the edge cell DAGS steers by.

    A point's azimuth relative to the goal direction (az_g, el_g), wrapped
    to [-pi, pi], and its relative elevation are floored in units of
    ALPHA_RES to the integer cell (a, b). The occupied cells are marked on
    a dense grid over the keys' range with a free border: both relative
    angles lie in [-pi, pi], so an axis spans at most 2 pi / ALPHA_RES + 2
    = 38 keys, and the grid has at most 40 x 40 cells. An occupied
    cell is an edge cell when one of its four neighbours is free. The
    chosen cell is the edge cell of least (hypot(ca, cb), -cb, (a, b)),
    where (ca, cb) is its centre: the nearest to the goal direction, and of
    two such the higher one (climb over an obstacle rather than duck under
    it).

    Returns each point's grid key, the chosen cell's key and the cell.
    """
    dx, dy, dz = offsets
    az = np.arctan2(dy, dx)
    el = np.arctan2(dz, np.hypot(dx, dy))
    ka = np.floor(wrap_angle(az - az_g) / ALPHA_RES).astype(np.int64)
    kb = np.floor((el - el_g) / ALPHA_RES).astype(np.int64)
    a0, b0 = int(ka.min()) - 1, int(kb.min()) - 1
    nb = int(kb.max()) - b0 + 2
    keys = (ka - a0) * nb + (kb - b0)
    grid = np.zeros((int(ka.max()) - a0 + 2) * nb, dtype=bool)
    grid[keys] = True
    occ = np.flatnonzero(grid)
    edge = occ[~(grid[occ - nb] & grid[occ + nb]
                 & grid[occ - 1] & grid[occ + 1])]

    def rank(cell):
        ca, cb = (cell[0] + 0.5) * ALPHA_RES, (cell[1] + 0.5) * ALPHA_RES
        return math.hypot(ca, cb), -cb, cell

    cell = min(zip((edge // nb + a0).tolist(), (edge % nb + b0).tolist()),
               key=rank)
    return keys, (cell[0] - a0) * nb + (cell[1] - b0), cell


def dags_search(pcl_lm: np.ndarray, p_n, g_l, improved_2d: PlanPath,
                params: DagsParams):
    """Two-round angular search for a 3D path over/around nearby obstacles.

    The cloud is read once as three columns. Its offsets from p_n give the
    near/far split and the first graph, whose origin is p_n; a second graph
    forms offsets of its own only when it starts from a turning point.
    Returns a clearance-validated PlanPath(3D) or None.
    """
    p_n = np.asarray(p_n, dtype=float)
    g_l = np.asarray(g_l, dtype=float)
    pts = np.asarray(pcl_lm, dtype=float).reshape(-1, 3)
    cols = np.ascontiguousarray(pts.T)

    wp = improved_2d.waypoints
    jp1 = wp[1] if len(wp) > 1 else wp[0]
    jp1 = np.array([jp1[0], jp1[1], p_n[2]])
    split_r = float(np.linalg.norm(p_n - jp1))

    rel = cols - p_n[:, None]
    dist = row_norms(rel.T)
    tps = []
    origin = p_n
    for sel in (np.flatnonzero(dist < split_r),
                np.flatnonzero(dist >= split_r)):
        if len(sel) == 0:
            continue
        subset = np.take(cols, sel, axis=1)
        # a round only steers when its point subset actually blocks the
        # direct run to the local goal
        if path_clears((origin, g_l), subset.T, R_SAFE):
            continue
        az_g, el_g = spherical_angles(g_l - origin)
        offsets = (np.take(rel, sel, axis=1) if origin is p_n
                   else subset - origin[:, None])
        keys, key, (a, b) = angular_cells(offsets, az_g, el_g)
        members = pts[sel[keys == key]]
        d_seg = segment_point_distances(origin, g_l, members)
        p_eg = members[int(np.argmax(d_seg))]
        l_tp = float(np.linalg.norm(p_n - p_eg))
        if R_SAFE > l_tp:
            return None
        alpha_safe = math.asin(R_SAFE / l_tp)
        ca, cb = (a + 0.5) * ALPHA_RES, (b + 0.5) * ALPHA_RES
        norm = math.hypot(ca, cb)           # >= ALPHA_RES / 2 > 0
        scale = (norm + alpha_safe) / norm
        tp = origin + l_tp * direction_from_angles(az_g + ca * scale,
                                                   el_g + cb * scale)
        tps.append(tp)
        origin = tp

    path = PlanPath(np.array([p_n] + tps + [g_l]), kind="3D")
    if not path_clears(path.waypoints, cols.T, R_SAFE):
        return None
    if params.z_min is not None and np.any(path.waypoints[:, 2] < params.z_min):
        return None
    return path


def select_final_path(lifted: PlanPath, path_3d: PlanPath | None) -> PlanPath:
    """Shorter of the lifted 2D path and the 3D candidate; ties go to 2D."""
    if path_3d is None or path_3d.length() >= lifted.length():
        return lifted
    return path_3d


def lift_path(path_2d: PlanPath, z_start: float, z_goal: float) -> PlanPath:
    wp = path_2d.waypoints.copy()
    seg = row_norms(np.diff(wp[:, :2], axis=0))
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    total = arc[-1]
    frac = arc / total if total > 0 else np.zeros_like(arc)
    wp[:, 2] = z_start + frac * (z_goal - z_start)
    return PlanPath(wp, kind="2D-lifted")


@dataclass
class MapPlanResult:
    path: PlanPath
    g_l: np.ndarray
    path_3d: PlanPath | None = None


@functools.lru_cache(maxsize=1)
def snapshot_grids(map_1: GridMap2D, k: int, m: int, h: int):
    """Inflated Map_1, inflated Map_c and Map_1b of one Map_1 snapshot.

    Only the latest snapshot is kept, so memory stays flat however many maps
    a caller holds. The memo keys on the map object itself (a GridMap2D
    hashes by identity) and holds a strong reference to it, so one object's
    grids never go to another that reuses its id. Every query gets the same
    grids, so their cells are read-only, and each grid keeps the jump tables
    its searches build.
    """
    grids = (inflate(map_1, k), inflate(cut_center(map_1, m), k),
             downsample(map_1, h))
    for grid in grids:
        grid.cells.flags.writeable = False
    return grids


def plan_final_path(p_n, global_goal, pcl_lm, map_1: GridMap2D,
                    params: LocalMapParams, dags_params: DagsParams,
                    use_dags: bool = True):
    """Full MP cycle from one map snapshot. Returns MapPlanResult, or None
    when the stitched search fails or reaches only the drone's own cell.

    Repeated queries on the same Map_1 object derive its grids and jump
    tables once."""
    p_n = np.asarray(p_n, dtype=float)
    global_goal = np.asarray(global_goal, dtype=float)
    map_1_infl, map_c, map_1b = snapshot_grids(
        map_1, params.k, params.m, params.h)
    g_l, g_cell = cast_local_goal(p_n, global_goal, params, map_1_infl)
    path_2d = stitched_plan(map_1b, map_c, g_cell, params)
    if path_2d is None or len(path_2d.waypoints) < 2:
        # a one-cell plan (the drone's cell walled in) goes nowhere
        return None
    # pin the path endpoints to the true drone/goal XY, not cell centers
    wp = path_2d.waypoints.copy()
    wp[0, :2] = p_n[:2]
    wp[-1, :2] = g_l[:2]
    lifted = lift_path(PlanPath(wp), p_n[2], g_l[2])
    path_3d = None
    if use_dags and len(np.asarray(pcl_lm).reshape(-1, 3)):
        path_3d = dags_search(pcl_lm, p_n, g_l, lifted, dags_params)
    return MapPlanResult(path=select_final_path(lifted, path_3d), g_l=g_l,
                         path_3d=path_3d)
