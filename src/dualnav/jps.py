"""Jump point search on 8-connected binary grids.

Cost model: 1 per straight move, sqrt(2) per diagonal; a diagonal move only
requires the destination cell to be free. Straight scans are O(1) per jump,
so replanning stays cheap even on large maps.

Flat layout. JpsGrid pads an I x J grid with one blocked cell on every side
and numbers the padded cells row by row: cell (x, y), padding included from
(-1, -1) to (I, J), has the flat index (x + 1) * W + y + 1 with W = J + 2,
so a step (dx, dy) adds dx * W + dy and no jump checks bounds. `_F` holds
the padded grid as `bytes`, 1 for a free cell and 0 for a blocked or padded
one. For each of the four cardinal directions d, two flat int32 memoryviews
over the same layout, keyed by d, give at every cell the index along d's
axis, in grid coordinates, of the first cell at or beyond it when moving
along d that is:

- `first_blocked[d]`: blocked;
- `first_forced[d]`: forced for d, that is a side cell is blocked and the
  cell one step on from that side cell along d is free.

The padding counts as both, so a run that meets no such cell ends at -1 or
n, one past the grid edge, and a padded or blocked cell's run is empty: a
cardinal jump needs no free-cell test of its own. The tables, `_F` and
`free` are read-only, so one JpsGrid serves every search on its grid.
"""
from __future__ import annotations

import heapq
import math

import numpy as np

SQRT2 = math.sqrt(2.0)
_CARDINALS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_ALL_DIRS = [*_CARDINALS, (1, 1), (1, -1), (-1, 1), (-1, -1)]
# buffer formats whose items a memoryview reads as numbers
_NUMERIC = frozenset("?bBhHiIlLqQnNefd")


class JpsGrid:
    """Precomputed jump tables for one binary occupancy grid (1 = blocked)."""

    def __init__(self, cells: np.ndarray):
        cells = np.asarray(cells)
        I, J = cells.shape
        F = np.zeros((I + 2, J + 2), dtype=bool)      # free, padded blocked
        F[1:-1, 1:-1] = cells == 0
        F.flags.writeable = False
        self.shape = (I, J)
        self.free = F[1:-1, 1:-1]
        self._F = F.tobytes()
        self._W = W = J + 2

        # masks[k]: the blocked and the forced cells of direction k, the
        # padding counted as both, over the flat layout. The forced cells
        # are found on [lo, hi), where every cell has its eight neighbors,
        # by flat offsets: s to a side cell, e one step along k
        size = (I + 2) * W
        lo, hi = W + 1, size - W - 1
        Ff = F.reshape(-1)
        Bf = ~Ff
        pad = np.ones((I + 2, J + 2), dtype=bool)
        pad[1:-1, 1:-1] = False
        pad = pad.reshape(-1)[lo:hi]
        masks = np.ones((4, 2, size), dtype=bool)
        masks[:, 0] = Bf
        for k, (dx, dy) in enumerate(_CARDINALS):
            s, e = abs(dy) * W + abs(dx), dx * W + dy
            forced = masks[k, 1, lo:hi]
            np.logical_and(Bf[lo - s:hi - s], Ff[lo - s + e:hi - s + e],
                           out=forced)
            forced |= Bf[lo + s:hi + s] & Ff[lo + s + e:hi + s + e]
            forced |= pad
        masks = masks.reshape(4, 2, I + 2, J + 2)
        # each cell's index along an axis plus one, its padded index
        pos = (np.arange(I + 2, dtype=np.int32)[:, None],
               np.arange(J + 2, dtype=np.int32))
        tables = np.empty((4, 2, I + 2, J + 2), dtype=np.int32)
        for k, (dx, dy) in enumerate(_CARDINALS):
            axis = 1 if dx else 2                     # of the (2, I+2, J+2)
            t = tables[k]
            if dx + dy > 0:
                # marked cells hold n + 1 - index, 1 at the far padding, and
                # the rest 0: the largest value at or beyond a cell is the
                # nearest marked cell's
                n = I if dx else J
                rev = t[:, ::-1] if dx else t[:, :, ::-1]
                np.multiply(masks[k], n + 2 - pos[axis - 1], out=t)
                np.maximum.accumulate(rev, axis=axis, out=rev)
                np.subtract(n + 1, t, out=t)
            else:
                # marked cells hold index + 1, 0 at the near padding, and
                # the rest 0
                np.multiply(masks[k], pos[axis - 1], out=t)
                np.maximum.accumulate(t, axis=axis, out=t)
                t -= 1
        tables.flags.writeable = False
        flat = memoryview(tables.reshape(-1))
        views = [flat[i * size:(i + 1) * size] for i in range(8)]
        self.first_blocked = dict(zip(_CARDINALS, views[0::2]))
        self.first_forced = dict(zip(_CARDINALS, views[1::2]))

    def jump_cardinal(self, x, y, dx, dy, gx, gy):
        """First jump point strictly beyond (x, y) along a cardinal direction
        d = (dx, dy): the goal or the first forced cell, whichever comes
        first, when it comes before the first blocked cell; else None."""
        p = (x + dx + 1) * self._W + y + dy + 1
        block = self.first_blocked[dx, dy][p]
        f = self.first_forced[dx, dy][p]
        # c and g: the first cell's and the goal's index along the axis of
        # travel, s: the direction of travel along it
        c, s, g, on_ray = (x + dx, dx, gx, y == gy) if dx else \
            (y + dy, dy, gy, x == gx)
        free_run = (block - c) * s
        if on_ray and 0 <= (g - c) * s < free_run:
            return gx, gy
        if (f - c) * s < free_run:
            return (f, y) if dx else (x, f)
        return None

    def jump_diagonal(self, x, y, dx, dy, gx, gy):
        """First jump point along a diagonal d = (dx, dy) from (x, y): the
        goal, a cell with a forced neighbor, or a cell from which one of the
        cardinal directions (dx, 0) and (0, dy) has a jump point; None when
        the walk meets a blocked cell first."""
        F = self._F
        # the tables of the two cardinal scans, fetched once per walk
        bx, fx = self.first_blocked[dx, 0], self.first_forced[dx, 0]
        by, fy = self.first_blocked[0, dy], self.first_forced[0, dy]
        ux = dx * self._W                             # flat step along x
        p = (x + 1) * self._W + y + 1
        while True:
            x += dx
            y += dy
            p += ux + dy
            if not F[p]:
                return None
            if x == gx and y == gy:
                return x, y
            # forced neighbor at the diagonal node itself
            if (not F[p - ux] and F[p - ux + dy]) or \
               (not F[p - dy] and F[p + ux - dy]):
                return x, y
            # jump_cardinal along (dx, 0), then along (0, dy)
            q, c = p + ux, x + dx
            run = (bx[q] - c) * dx
            if (fx[q] - c) * dx < run or \
               (y == gy and 0 <= (gx - c) * dx < run):
                return x, y
            q, c = p + dy, y + dy
            run = (by[q] - c) * dy
            if (fy[q] - c) * dy < run or \
               (x == gx and 0 <= (gy - c) * dy < run):
                return x, y


def jps_search(grid: JpsGrid, start, goal):
    """Optimal 8-connected path as a jump-point sequence on the grid whose
    jump tables are given.

    Returns (waypoints, cost) with waypoints a list of (ix, iy) cells, or None
    when start or goal lies outside the grid or on a blocked cell, or when
    the goal is unreachable.
    """
    sx, sy = int(start[0]), int(start[1])
    gx, gy = int(goal[0]), int(goal[1])
    I, J = grid.shape
    if not (0 <= sx < I and 0 <= sy < J and 0 <= gx < I and 0 <= gy < J):
        return None
    F, W = grid._F, grid._W
    if not F[(sx + 1) * W + sy + 1] or not F[(gx + 1) * W + gy + 1]:
        return None
    start, goal = (sx, sy), (gx, gy)
    if start == goal:
        return [start], 0.0
    jump_cardinal, jump_diagonal = grid.jump_cardinal, grid.jump_diagonal
    oct_k = SQRT2 - 1.0
    heappush, heappop = heapq.heappush, heapq.heappop
    g_best = {start: 0.0}
    parent = {}
    counter = 0
    # an entry is (f, counter, node, entry direction, octile heuristic)
    ax, ay = abs(sx - gx), abs(sy - gy)
    h = ax + oct_k * ay if ax >= ay else ay + oct_k * ax
    open_heap = [(h, 0, start, 0, 0, h)]
    while open_heap:
        f, _, node, dx, dy, h = heappop(open_heap)
        g_here = g_best[node]
        if f - h > g_here + 1e-9:
            continue
        if node == goal:
            path = [node]
            while node in parent:
                node = parent[node]
                path.append(node)
            path.reverse()
            return path, g_here
        x, y = node
        # the pruned expansion directions for a node entered moving (dx, dy)
        if dx == 0 and dy == 0:
            dirs = _ALL_DIRS
        else:
            p = (x + 1) * W + y + 1
            ux = dx * W
            dirs = [(dx, dy)]
            if dx != 0 and dy != 0:
                dirs.append((dx, 0))
                dirs.append((0, dy))
                if not F[p - ux] and F[p - ux + dy]:
                    dirs.append((-dx, dy))
                if not F[p - dy] and F[p + ux - dy]:
                    dirs.append((dx, -dy))
            else:
                ox, oy = abs(dy), abs(dx)             # side offset
                q = p - ox * W - oy
                if not F[q] and F[q + ux + dy]:
                    dirs.append((dx - ox, dy - oy))
                q = p + ox * W + oy
                if not F[q] and F[q + ux + dy]:
                    dirs.append((dx + ox, dy + oy))
        for dx, dy in dirs:
            if dx != 0 and dy != 0:
                jp = jump_diagonal(x, y, dx, dy, gx, gy)
                if jp is None:
                    continue
                cost = g_here + SQRT2 * abs(jp[0] - x)
            else:
                jp = jump_cardinal(x, y, dx, dy, gx, gy)
                if jp is None:
                    continue
                cost = g_here + (abs(jp[0] - x) + abs(jp[1] - y))
            if cost < g_best.get(jp, math.inf) - 1e-12:
                g_best[jp] = cost
                parent[jp] = node
                counter += 1
                ax, ay = abs(jp[0] - gx), abs(jp[1] - gy)
                h = ax + oct_k * ay if ax >= ay else ay + oct_k * ax
                heappush(open_heap, (cost + h, counter, jp, dx, dy, h))
    return None


def traversed_cells(a, b):
    """Supercover traversal: every cell whose closed unit square the segment
    between the centers of cells a and b touches, in order from a, one at a
    time."""
    x0, y0 = a[0] + 0.5, a[1] + 0.5
    x1, y1 = b[0] + 0.5, b[1] + 0.5
    cx, cy = int(a[0]), int(a[1])
    ex, ey = int(b[0]), int(b[1])
    yield cx, cy
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
            yield cx + sx, cy
            yield cx, cy + sy
            cx += sx
            cy += sy
            tx += tdx
            ty += tdy
        elif tx < ty:
            cx += sx
            tx += tdx
        else:
            cy += sy
            ty += tdy
        yield cx, cy
        if cx == ex and cy == ey:
            return


def line_is_free(cells_grid: np.ndarray, a, b) -> bool:
    """True when the chord between cell centers a and b touches no occupied
    cell. The walk reads each cell of traversed_cells(a, b) as it reaches it
    and stops at the first occupied one; cells off the grid count as free."""
    occ = memoryview(cells_grid)
    if occ.format not in _NUMERIC:
        occ = memoryview(np.asarray(cells_grid) != 0)
    I, J = occ.shape
    for x, y in traversed_cells(a, b):
        if 0 <= x < I and 0 <= y < J and occ[x, y]:
            return False
    return True
