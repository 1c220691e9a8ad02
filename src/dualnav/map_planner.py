"""Low-frequency map planner: local-goal casting, stitched dual-resolution 2D
search, chord-shortcut optimization, the two-round discrete angular 3D search
and the final path selection."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from scipy.ndimage import label

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


@dataclass
class DagsParams:
    alpha_res: float = math.radians(10.0)
    r_safe: float = 0.5
    z_min: float | None = None            # minimum allowed flight altitude

    def __post_init__(self):
        if not (0.0 < self.alpha_res <= math.pi / 4):
            raise ValueError("alpha_res must be in (0, pi/4]")
        if self.r_safe <= 0:
            raise ValueError("r_safe must be > 0")


def cast_local_goal(p_n, global_goal, params: LocalMapParams,
                    map_1_inflated: GridMap2D):
    """Cast the global goal into the local cuboid and onto the 2D grid.

    Returns (g_l, cell). When the projected cell is occupied in the inflated
    map, the nearest free cell on the map edge is substituted.
    """
    p = np.asarray(p_n, dtype=float)
    g = np.asarray(global_goal, dtype=float)
    half = np.array([params.l_ms / 2.0, params.l_ms / 2.0, H_MS / 2.0])
    d = g - p
    if np.all(np.abs(d) <= half + 1e-12):
        g_l = g.copy()
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            t_faces = np.where(d != 0.0, half / np.abs(d), np.inf)
        t = float(np.min(t_faces))
        g_l = p + t * d
    cell = map_1_inflated.world_to_cell(g_l[:2])
    n = map_1_inflated.cells.shape[0]
    cell = (min(max(cell[0], 0), n - 1), min(max(cell[1], 0), n - 1))
    if not map_1_inflated.is_free(cell):
        cell = _nearest_free_edge_cell(map_1_inflated, cell) or cell
    return g_l, cell


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

    pts = [np.append(map_c_inflated.cell_center(c), 0.0)
           for c in fine_sc + goal_end]
    pts += [np.append(map_1b.cell_center(c), 0.0) for c in coarse_sc]
    return PlanPath(np.array(pts), kind="2D-lifted")


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
    the grid has no free cell."""
    free = np.argwhere(cells == 0)
    if len(free) == 0:
        return None
    d = np.sum((free - np.asarray(ref)) ** 2, axis=1)
    x, y = free[int(np.argmin(d))]
    return int(x), int(y)


def _nearest_reachable(cells: np.ndarray, start, ref, boundary_only=False):
    """Nearest free cell to ref within start's 8-connected free component."""
    lab, _ = label(cells == 0, structure=np.ones((3, 3), dtype=int))
    comp = lab[start[0], start[1]]
    if comp == 0:
        return None
    mask = lab == comp
    if boundary_only:
        inner = np.zeros_like(mask)
        inner[1:-1, 1:-1] = True
        mask &= ~inner
    return nearest_free_in_grid(~mask, ref)


class AngularGraph:
    """Goal-relative discretized direction cells for one search round.

    Each point's direction from the origin is taken relative to the goal
    direction: azimuth difference wrapped to (-pi, pi], elevation difference
    as is. Both are floored in units of alpha_res to the integer cell key
    (a, b). `cells` is the set of keys that hold at least one point, found
    with one np.unique over a packed scalar key (the key stays inside int64
    for any alpha_res above about 1e-9 rad); `members(cell)` gives the
    indices of a cell's points in ascending order.
    """

    def __init__(self, points: np.ndarray, origin, goal, alpha_res: float):
        self.alpha_res = alpha_res
        self.az_g, self.el_g = spherical_angles(np.asarray(goal) - np.asarray(origin))
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        ox, oy, oz = np.asarray(origin, dtype=float).tolist()
        dx, dy, dz = pts[:, 0] - ox, pts[:, 1] - oy, pts[:, 2] - oz
        az = np.arctan2(dy, dx)
        el = np.arctan2(dz, np.hypot(dx, dy))
        rel_az = wrap_angle(az - self.az_g)
        self._ka = np.floor(rel_az / alpha_res).astype(np.int64)
        self._kb = np.floor((el - self.el_g) / alpha_res).astype(np.int64)
        self.cells: set = set()
        if len(pts):
            a0, b0 = self._ka.min(), self._kb.min()
            nb = self._kb.max() - b0 + 1
            keys = np.unique((self._ka - a0) * nb + (self._kb - b0))
            self.cells = set(zip((keys // nb + a0).tolist(),
                                 (keys % nb + b0).tolist()))

    def members(self, cell) -> np.ndarray:
        return np.flatnonzero((self._ka == cell[0]) & (self._kb == cell[1]))

    def edge_cells(self):
        out = []
        for (a, b) in self.cells:
            for na, nb in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)):
                if (na, nb) not in self.cells:
                    out.append((a, b))
                    break
        return out

    def cell_center_angles(self, cell):
        return ((cell[0] + 0.5) * self.alpha_res,
                (cell[1] + 0.5) * self.alpha_res)

    def min_norm_edge_cell(self):
        best, best_key = None, None
        for cell in self.edge_cells():
            ca, cb = self.cell_center_angles(cell)
            # ties between symmetric cells prefer the higher elevation (climb
            # over an obstacle rather than duck under it)
            key = (math.hypot(ca, cb), -cb, cell)
            if best_key is None or key < best_key:
                best, best_key = cell, key
        return best


def dags_search(pcl_lm: np.ndarray, p_n, g_l, improved_2d: PlanPath,
                params: DagsParams):
    """Two-round angular search for a 3D path over/around nearby obstacles.

    Returns a clearance-validated PlanPath(3D) or None.
    """
    p_n = np.asarray(p_n, dtype=float)
    g_l = np.asarray(g_l, dtype=float)
    pts = np.asarray(pcl_lm, dtype=float).reshape(-1, 3)

    wp = improved_2d.waypoints
    jp1 = wp[1] if len(wp) > 1 else wp[0]
    jp1 = np.array([jp1[0], jp1[1], p_n[2]])
    split_r = float(np.linalg.norm(p_n - jp1))

    if len(pts):
        dist = row_norms(pts - p_n)
        subsets = [pts[dist < split_r], pts[dist >= split_r]]
    else:
        subsets = [pts, pts]

    tps = []
    origin = p_n
    for subset in subsets:
        if len(subset) == 0:
            continue
        # a round only steers when its point subset actually blocks the
        # direct run to the local goal
        if path_clears((origin, g_l), subset, params.r_safe):
            continue
        graph = AngularGraph(subset, origin, g_l, params.alpha_res)
        cell = graph.min_norm_edge_cell()
        if cell is None:
            continue
        members = subset[graph.members(cell)]
        d_seg = segment_point_distances(origin, g_l, members)
        p_eg = members[int(np.argmax(d_seg))]
        l_tp = float(np.linalg.norm(p_n - p_eg))
        if params.r_safe > l_tp:
            return None
        alpha_safe = math.asin(params.r_safe / l_tp)
        ca, cb = graph.cell_center_angles(cell)
        norm = math.hypot(ca, cb)
        scale = (norm + alpha_safe) / norm if norm > 0 else 0.0
        rel = (ca * scale, cb * scale)
        az = graph.az_g + rel[0]
        el = graph.el_g + rel[1]
        tp = origin + l_tp * direction_from_angles(az, el)
        tps.append(tp)
        origin = tp

    candidate = [p_n] + tps + [g_l]
    path = PlanPath(np.array(candidate), kind="3D")
    if not path_clears(path.waypoints, pts, params.r_safe):
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
