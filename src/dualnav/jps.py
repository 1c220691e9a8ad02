"""Jump point search on 8-connected binary grids.

Cost model: 1 per straight move, sqrt(2) per diagonal; a diagonal move only
requires the destination cell to be free. Straight scans are O(1) per jump,
so replanning stays cheap even on large maps: for each of the four cardinal
directions d, JpsGrid keeps two tables, keyed by d, that give for every cell
the index along d's axis of the first blocked cell and of the first
forced-neighbor cell at or beyond it when moving along d (-1 or n, one past
the grid edge, when there is none). A cell is forced for d when a side cell
is blocked and the cell one step on from that side cell along d is free.
"""
from __future__ import annotations

import heapq
import math

import numpy as np

SQRT2 = math.sqrt(2.0)
_CARDINALS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_ALL_DIRS = [*_CARDINALS, (1, 1), (1, -1), (-1, 1), (-1, -1)]


def _first_along(mask: np.ndarray, coord: np.ndarray, axis: int, step: int):
    """Index along axis of the first True cell at or beyond each cell when
    moving by step (+1 or -1), given each cell's index coord along axis; -1
    or n (one past the grid edge) when there is none."""
    if step > 0:
        idx = np.where(mask, coord, mask.shape[axis])
        return np.flip(np.minimum.accumulate(np.flip(idx, axis), axis), axis)
    return np.maximum.accumulate(np.where(mask, coord, -1), axis)


class JpsGrid:
    """Precomputed jump tables for one binary occupancy grid (1 = blocked)."""

    def __init__(self, cells: np.ndarray):
        cells = np.asarray(cells)
        I, J = cells.shape
        F = np.zeros((I + 2, J + 2), dtype=bool)      # free, padded blocked
        F[1:-1, 1:-1] = cells == 0
        self.free = F[1:-1, 1:-1]
        self._F = F

        B = ~F                                        # blocked, padding too

        def at(P, ox, oy):
            """The padded grid P at offset (ox, oy) from each cell."""
            return P[1 + ox:I + 1 + ox, 1 + oy:J + 1 + oy]

        blocked = ~self.free
        coords = (np.arange(I, dtype=np.int32)[:, None],
                  np.arange(J, dtype=np.int32))
        self.first_blocked = {}
        self.first_forced = {}
        for dx, dy in _CARDINALS:
            sx, sy = abs(dy), abs(dx)                 # side offset
            forced = ((at(B, -sx, -sy) & at(F, dx - sx, dy - sy))
                      | (at(B, sx, sy) & at(F, dx + sx, dy + sy)))
            axis = 0 if dx else 1
            step = dx + dy
            self.first_blocked[dx, dy] = _first_along(blocked, coords[axis],
                                                      axis, step)
            self.first_forced[dx, dy] = _first_along(forced, coords[axis],
                                                     axis, step)

    def jump_cardinal(self, blocked, forced, x, y, dx, dy, gx, gy):
        """First jump point strictly beyond (x, y) along a cardinal direction
        d = (dx, dy), given d's first-blocked and first-forced tables."""
        x0, y0 = x + dx, y + dy
        if not self._F[x0 + 1, y0 + 1]:
            return None
        block = blocked.item(x0, y0)
        f = forced.item(x0, y0)
        # c and g: the first cell's and the goal's index along the axis of
        # travel, s: the direction of travel along it
        c, s, g, on_ray = (x0, dx, gx, y == gy) if dx else (y0, dy, gy, x == gx)
        free_run = (block - c) * s
        if on_ray and 0 <= (g - c) * s < free_run:
            return gx, gy
        if (f - c) * s < free_run:
            return (f, y) if dx else (x, f)
        return None

    def jump_diagonal(self, x, y, dx, dy, gx, gy):
        F = self._F
        jump_cardinal = self.jump_cardinal
        # the tables of the two cardinal scans, fetched once per walk
        bx, fx = self.first_blocked[dx, 0], self.first_forced[dx, 0]
        by, fy = self.first_blocked[0, dy], self.first_forced[0, dy]
        cx, cy = x, y
        while True:
            cx += dx
            cy += dy
            if not F[cx + 1, cy + 1]:
                return None
            if cx == gx and cy == gy:
                return cx, cy
            # forced neighbor at the diagonal node itself
            if (not F[cx - dx + 1, cy + 1] and F[cx - dx + 1, cy + dy + 1]) or \
               (not F[cx + 1, cy - dy + 1] and F[cx + dx + 1, cy - dy + 1]):
                return cx, cy
            if jump_cardinal(bx, fx, cx, cy, dx, 0, gx, gy) is not None:
                return cx, cy
            if jump_cardinal(by, fy, cx, cy, 0, dy, gx, gy) is not None:
                return cx, cy

    def jump(self, x, y, dx, dy, gx, gy):
        if dx != 0 and dy != 0:
            return self.jump_diagonal(x, y, dx, dy, gx, gy)
        return self.jump_cardinal(self.first_blocked[dx, dy],
                                  self.first_forced[dx, dy],
                                  x, y, dx, dy, gx, gy)


def _successor_dirs(grid: JpsGrid, x, y, dx, dy):
    """Pruned expansion directions for a node entered moving (dx, dy)."""
    if dx == 0 and dy == 0:
        return _ALL_DIRS
    F = grid._F
    dirs = [(dx, dy)]
    if dx != 0 and dy != 0:
        dirs.append((dx, 0))
        dirs.append((0, dy))
        if not F[x - dx + 1, y + 1] and F[x - dx + 1, y + dy + 1]:
            dirs.append((-dx, dy))
        if not F[x + 1, y - dy + 1] and F[x + dx + 1, y - dy + 1]:
            dirs.append((dx, -dy))
    else:
        sx, sy = abs(dy), abs(dx)                     # side offset
        if not F[x - sx + 1, y - sy + 1] and F[x - sx + dx + 1, y - sy + dy + 1]:
            dirs.append((dx - sx, dy - sy))
        if not F[x + sx + 1, y + sy + 1] and F[x + sx + dx + 1, y + sy + dy + 1]:
            dirs.append((dx + sx, dy + sy))
    return dirs


def _octile(x, y, gx, gy):
    ax, ay = abs(x - gx), abs(y - gy)
    return max(ax, ay) + (SQRT2 - 1.0) * min(ax, ay)


def jps_search(grid: JpsGrid, start, goal):
    """Optimal 8-connected path as a jump-point sequence on the grid whose
    jump tables are given.

    Returns (waypoints, cost) with waypoints a list of (ix, iy) cells, or None
    when the goal is unreachable. Start and goal must be free cells.
    """
    start = (int(start[0]), int(start[1]))
    goal = (int(goal[0]), int(goal[1]))
    if not grid.free[start] or not grid.free[goal]:
        return None
    if start == goal:
        return [start], 0.0
    gx, gy = goal
    g_best = {start: 0.0}
    parent = {}
    counter = 0
    open_heap = [(_octile(*start, gx, gy), 0, start, (0, 0))]
    while open_heap:
        f, _, node, indir = heapq.heappop(open_heap)
        x, y = node
        g_here = g_best.get(node)
        if g_here is None or f - _octile(x, y, gx, gy) > g_here + 1e-9:
            continue
        if node == goal:
            path = [node]
            while node in parent:
                node = parent[node]
                path.append(node)
            path.reverse()
            return path, g_here
        for dx, dy in _successor_dirs(grid, x, y, *indir):
            jp = grid.jump(x, y, dx, dy, gx, gy)
            if jp is None:
                continue
            step = max(abs(jp[0] - x), abs(jp[1] - y))
            cost = g_here + (SQRT2 * step if dx != 0 and dy != 0 else float(step))
            if cost < g_best.get(jp, math.inf) - 1e-12:
                g_best[jp] = cost
                parent[jp] = (x, y)
                counter += 1
                heapq.heappush(
                    open_heap,
                    (cost + _octile(jp[0], jp[1], gx, gy), counter, jp,
                     (dx, dy)),
                )
    return None


def traversed_cells(a, b):
    """Supercover traversal: every cell whose closed unit square the segment
    between the centers of cells a and b touches."""
    x0, y0 = a[0] + 0.5, a[1] + 0.5
    x1, y1 = b[0] + 0.5, b[1] + 0.5
    cx, cy = int(a[0]), int(a[1])
    ex, ey = int(b[0]), int(b[1])
    cells = [(cx, cy)]
    dx, dy = x1 - x0, y1 - y0
    n = abs(ex - cx) + abs(ey - cy)
    sx = 1 if dx > 0 else -1
    sy = 1 if dy > 0 else -1
    tdx = abs(1.0 / dx) if dx != 0 else math.inf
    tdy = abs(1.0 / dy) if dy != 0 else math.inf
    # distance to the first vertical/horizontal grid line
    tx = ((cx + (sx > 0)) - x0) / dx if dx != 0 else math.inf
    ty = ((cy + (sy > 0)) - y0) / dy if dy != 0 else math.inf
    for _ in range(n):
        if abs(tx - ty) < 1e-12:
            # exact corner crossing: include both side cells
            cells.append((cx + sx, cy))
            cells.append((cx, cy + sy))
            cx += sx
            cy += sy
            tx += tdx
            ty += tdy
            cells.append((cx, cy))
        elif tx < ty:
            cx += sx
            tx += tdx
            cells.append((cx, cy))
        else:
            cy += sy
            ty += tdy
            cells.append((cx, cy))
        if (cx, cy) == (ex, ey):
            break
    return cells


def line_is_free(cells_grid: np.ndarray, a, b) -> bool:
    """True when the chord between cell centers a and b touches no occupied cell."""
    I, J = cells_grid.shape
    for x, y in traversed_cells(a, b):
        if 0 <= x < I and 0 <= y < J and cells_grid[x, y]:
            return False
    return True
