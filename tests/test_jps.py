"""Jump point search: costs against Dijkstra, jumps and jump tables against
the earlier per-direction implementation, chord checks against the earlier
list-then-check one, and a lock on the search's paths.

The oracles below are a Dijkstra search over the same 8-connected graph
(`dijkstra_cost`, also used by acceptance criterion 1), the earlier
`JpsGrid`, which kept eight named numpy tables and wrote each cardinal jump
out once per direction, and the earlier `traversed_cells` and
`line_is_free`, which listed the whole chord and then read the grid's numpy
scalars.
"""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_array_equal
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from dualnav.jps import (SQRT2, JpsGrid, jps_search, line_is_free,
                         traversed_cells)

# -- oracles -----------------------------------------------------------------


def dijkstra_cost(cells, start, goal):
    """8-connected reference cost with the same corner-cutting rule."""
    n, m = cells.shape
    free = cells == 0
    nid = -np.ones((n, m), dtype=np.int64)
    nid[free] = np.arange(int(free.sum()))
    rows, cols, data = [], [], []
    for dx, dy in ((1, 0), (0, 1), (1, 1), (1, -1)):
        sa = (slice(max(dx, 0), n + min(dx, 0)),
              slice(max(dy, 0), m + min(dy, 0)))
        sb = (slice(max(-dx, 0), n + min(-dx, 0)),
              slice(max(-dy, 0), m + min(-dy, 0)))
        ok = free[sa] & free[sb]
        rows.append(nid[sa][ok])
        cols.append(nid[sb][ok])
        w = SQRT2 if dx and dy else 1.0
        data.append(np.full(int(ok.sum()), w))
    graph = csr_matrix((np.concatenate(data),
                        (np.concatenate(rows), np.concatenate(cols))),
                       shape=(int(free.sum()),) * 2)
    if not free[start] or not free[goal]:
        return None
    dist = dijkstra(graph, directed=False, indices=nid[start])
    d = dist[nid[goal]]
    return None if not np.isfinite(d) else float(d)


_BIG = 1 << 30


class _OracleJpsGrid:
    """The earlier JpsGrid: eight named tables, one branch per direction."""

    def __init__(self, cells):
        cells = np.asarray(cells)
        self.shape = cells.shape
        I, J = cells.shape
        F = np.zeros((I + 2, J + 2), dtype=bool)
        F[1:-1, 1:-1] = cells == 0
        self.free = F[1:-1, 1:-1]
        self._F = F

        blk = ~F
        f_py = (blk[:-2, 1:-1] & F[:-2, 2:]) | (blk[2:, 1:-1] & F[2:, 2:])
        f_my = (blk[:-2, 1:-1] & F[:-2, :-2]) | (blk[2:, 1:-1] & F[2:, :-2])
        f_px = (blk[1:-1, :-2] & F[2:, :-2]) | (blk[1:-1, 2:] & F[2:, 2:])
        f_mx = (blk[1:-1, :-2] & F[:-2, :-2]) | (blk[1:-1, 2:] & F[:-2, 2:])

        blocked = ~self.free
        yy = np.broadcast_to(np.arange(J), (I, J))
        xx = np.broadcast_to(np.arange(I)[:, None], (I, J))

        def suffix_min(mask, coord, axis):
            idx = np.where(mask, coord, _BIG)
            return np.flip(np.minimum.accumulate(np.flip(idx, axis), axis), axis)

        def prefix_max(mask, coord, axis):
            idx = np.where(mask, coord, -_BIG)
            return np.maximum.accumulate(idx, axis)

        self.nb_py = suffix_min(blocked, yy, 1)
        self.nb_my = prefix_max(blocked, yy, 1)
        self.nb_px = suffix_min(blocked, xx, 0)
        self.nb_mx = prefix_max(blocked, xx, 0)
        self.nf_py = suffix_min(f_py, yy, 1)
        self.nf_my = prefix_max(f_my, yy, 1)
        self.nf_px = suffix_min(f_px, xx, 0)
        self.nf_mx = prefix_max(f_mx, xx, 0)

    def jump_cardinal(self, x, y, dx, dy, gx, gy):
        I, J = self.shape
        if dy != 0:
            y0 = y + dy
            if y0 < 0 or y0 >= J or not self.free[x, y0]:
                return None
            if dy > 0:
                limit = self.nb_py[x, y0]
                if x == gx and y0 <= gy < limit:
                    return gx, gy
                f = self.nf_py[x, y0]
                if f < limit:
                    return x, int(f)
            else:
                limit = self.nb_my[x, y0]
                if x == gx and limit < gy <= y0:
                    return gx, gy
                f = self.nf_my[x, y0]
                if f > limit:
                    return x, int(f)
            return None
        x0 = x + dx
        if x0 < 0 or x0 >= I or not self.free[x0, y]:
            return None
        if dx > 0:
            limit = self.nb_px[x0, y]
            if y == gy and x0 <= gx < limit:
                return gx, gy
            f = self.nf_px[x0, y]
            if f < limit:
                return int(f), y
        else:
            limit = self.nb_mx[x0, y]
            if y == gy and limit < gx <= x0:
                return gx, gy
            f = self.nf_mx[x0, y]
            if f > limit:
                return int(f), y
        return None

    def jump_diagonal(self, x, y, dx, dy, gx, gy):
        free = self.free
        F = self._F
        I, J = self.shape
        cx, cy = x, y
        while True:
            cx += dx
            cy += dy
            if cx < 0 or cx >= I or cy < 0 or cy >= J or not free[cx, cy]:
                return None
            if cx == gx and cy == gy:
                return cx, cy
            if (not F[cx - dx + 1, cy + 1] and F[cx - dx + 1, cy + dy + 1]) or \
               (not F[cx + 1, cy - dy + 1] and F[cx + dx + 1, cy - dy + 1]):
                return cx, cy
            if self.jump_cardinal(cx, cy, dx, 0, gx, gy) is not None:
                return cx, cy
            if self.jump_cardinal(cx, cy, 0, dy, gx, gy) is not None:
                return cx, cy


def oracle_traversed_cells(a, b):
    """The earlier supercover traversal, which built the whole list."""
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
    tx = ((cx + (sx > 0)) - x0) / dx if dx != 0 else math.inf
    ty = ((cy + (sy > 0)) - y0) / dy if dy != 0 else math.inf
    for _ in range(n):
        if abs(tx - ty) < 1e-12:
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


def oracle_line_is_free(cells_grid, a, b):
    """The earlier chord check: the whole traversal, then numpy reads."""
    I, J = cells_grid.shape
    for x, y in oracle_traversed_cells(a, b):
        if 0 <= x < I and 0 <= y < J and cells_grid[x, y]:
            return False
    return True


# -- generated grids ---------------------------------------------------------

DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))


@st.composite
def grids(draw, max_side=12):
    """Binary grids of 1..max_side cells a side, 1 x n and n x 1 included."""
    shape = (draw(st.integers(1, max_side)), draw(st.integers(1, max_side)))
    density = draw(st.sampled_from([0.0, 0.15, 0.3, 0.5]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    return (rng.random(shape) < density).astype(np.uint8)


def _row(*cells):
    return np.array([cells], dtype=np.uint8)


@given(grids(max_side=20), st.integers(0, 19), st.integers(0, 19))
@example(_row(0, 0, 0, 0, 0, 0), 0, 4)               # 1 x n, open
@example(_row(0, 0, 1, 0, 0, 0).T, 4, 0)             # n x 1, goal beyond a block
@example(_row(0, 0, 1, 0, 0, 0), 0, 2)               # goal on a blocked cell
@example(np.array([[0, 0, 0], [0, 1, 0], [0, 0, 0]], np.uint8), 2, 2)
def test_jump_matches_oracle(cells, gi, gj):
    I, J = cells.shape
    gx, gy = gi % I, gj % J
    grid, oracle = JpsGrid(cells), _OracleJpsGrid(cells)
    for x in range(I):
        for y in range(J):
            # the drawn goal, goals on each ray from (x, y) and on the edges
            t = gx - x
            goals = {(gx, gy), (x, gy), (gx, y), (0, y), (I - 1, y), (x, 0),
                     (x, J - 1), (gx, min(max(y + t, 0), J - 1)),
                     (gx, min(max(y - t, 0), J - 1))}
            for goal in goals:
                for dx, dy in DIRS:
                    jump = "jump_diagonal" if dx and dy else "jump_cardinal"
                    got = getattr(grid, jump)(x, y, dx, dy, *goal)
                    assert got == getattr(oracle, jump)(x, y, dx, dy, *goal)
                    assert got is None or all(type(v) is int for v in got)


# the oracle's table names for each cardinal direction
ORACLE_TABLES = {(1, 0): ("nb_px", "nf_px"), (-1, 0): ("nb_mx", "nf_mx"),
                 (0, 1): ("nb_py", "nf_py"), (0, -1): ("nb_my", "nf_my")}


@given(grids(max_side=20))
@example(np.zeros((1, 9), np.uint8))                 # 1 x n
@example(np.zeros((9, 1), np.uint8))                 # n x 1
@example(np.zeros((6, 8), np.uint8))                 # all free
@example(np.ones((6, 8), np.uint8))                  # all blocked
@example(np.ones((1, 1), np.uint8))
def test_tables_match_oracle(cells):
    """The flat tables hold the oracle's eight tables on the grid's cells,
    with its out-of-grid marker as -1 or n, and on the padding each cell's
    own index, so a run from a padded cell is empty."""
    I, J = cells.shape
    grid, oracle = JpsGrid(cells), _OracleJpsGrid(cells)
    assert grid._F == np.pad(cells == 0, 1).tobytes()
    ring = ~np.pad(np.ones((I, J), bool), 1)
    for (dx, dy), names in ORACLE_TABLES.items():
        n = I if dx else J
        own = np.broadcast_to(np.arange(-1, n + 1)[:, None] if dx
                              else np.arange(-1, n + 1), ring.shape)
        for table, name in zip((grid.first_blocked[dx, dy],
                                grid.first_forced[dx, dy]), names):
            assert table.readonly and table.format == "i"
            flat = np.asarray(table).reshape(I + 2, J + 2)
            assert_array_equal(flat[1:-1, 1:-1],
                               np.clip(getattr(oracle, name), -1, n))
            assert_array_equal(flat[ring], own[ring])


@pytest.mark.parametrize("start, goal", [
    ((-1, 2), (3, 3)), ((3, 3), (-1, 2)), ((1, 1), (5, 1)), ((5, 1), (1, 1)),
    ((2, -1), (2, 2)), ((2, 2), (2, 5)), ((-1, -1), (0, 0)), ((5, 5), (4, 4)),
    ((2, -3), (2, 2)), ((2, 2), (2, 7)), ((-3, 2), (2, 2)), ((2, 2), (9, 2)),
])
def test_off_grid_start_or_goal_returns_none(start, goal):
    """An endpoint off the 5 x 5 grid gives None: a negative index must not
    wrap round to the far edge, one past the edge must not raise, and one
    further off must not land on a cell of a neighboring row."""
    assert jps_search(JpsGrid(np.zeros((5, 5), np.uint8)), start, goal) \
        is None


def _layouts(cells):
    """The grid as line_is_free's callers may pass it: uint8, bool, int64,
    float, big-endian, Fortran-ordered and a strided view."""
    big = np.ones((2 * cells.shape[0], 2 * cells.shape[1]), np.uint8)
    big[::2, ::2] = cells
    return (cells, cells.astype(bool), cells.astype(np.int64),
            cells.astype(float), cells.astype(">i4"), np.asfortranarray(cells),
            big[::2, ::2])


@st.composite
def chords(draw):
    """A grid and chord endpoints up to three cells off it; a third of the
    chords run at 45 degrees, through exact corner crossings."""
    cells = draw(grids(max_side=14))
    I, J = cells.shape
    a = (draw(st.integers(-3, I + 2)), draw(st.integers(-3, J + 2)))
    if draw(st.integers(0, 2)) == 0:
        k = draw(st.integers(-12, 12))
        b = (a[0] + k, a[1] + draw(st.sampled_from((k, -k))))
    else:
        b = (draw(st.integers(-3, I + 2)), draw(st.integers(-3, J + 2)))
    return cells, a, b


@given(chords())
@example((np.zeros((4, 4), np.uint8), (0, 0), (3, 3)))
@example((np.eye(4, dtype=np.uint8)[::-1].copy(), (0, 0), (3, 3)))
@example((np.ones((3, 3), np.uint8), (-2, -2), (-2, -2)))
def test_line_is_free_matches_oracle(case):
    cells, a, b = case
    assert list(traversed_cells(a, b)) == oracle_traversed_cells(a, b)
    want = oracle_line_is_free(cells, a, b)
    for grid in _layouts(cells):
        assert line_is_free(grid, a, b) is want


@given(grids(max_side=16), st.integers(0, 255), st.integers(0, 255))
@example(_row(0, 1, 0), 0, 1)                        # unreachable
@example(np.zeros((1, 7), np.uint8), 0, 6)
def test_cost_matches_dijkstra(cells, i, j):
    free = [tuple(int(v) for v in c) for c in np.argwhere(cells == 0)]
    if not free:
        return
    start, goal = free[i % len(free)], free[j % len(free)]
    ref = dijkstra_cost(cells, start, goal)
    res = jps_search(JpsGrid(cells), start, goal)
    if ref is None:
        assert res is None
    else:
        assert res is not None
        assert res[1] == pytest.approx(ref, abs=1e-9)


SEARCH_GOLDEN = \
    "464301a9cf204dc35bdfe00339e8452878ce9ba0e555ba5d9a455fc655a9bce8"


def test_search_paths_digest():
    """Paths and costs on seeded non-square grids; the successor order sets
    the heap's tie-breaks, so this also locks which of equal paths wins."""
    h = hashlib.sha256()
    rng = np.random.default_rng(9)
    for shape in ((7, 23), (23, 7), (1, 30), (30, 1), (16, 41), (41, 16)):
        for density in (0.0, 0.1, 0.25, 0.4):
            cells = (rng.random(shape) < density).astype(np.uint8)
            grid = JpsGrid(cells)
            free = np.argwhere(cells == 0)
            for start, goal in free[rng.integers(len(free), size=(16, 2))]:
                h.update(repr(jps_search(grid, start, goal)).encode())
    assert h.hexdigest() == SEARCH_GOLDEN


# -- fixed cases -------------------------------------------------------------


def random_grid(rng, size, density):
    cells = (rng.random((size, size)) < density).astype(np.uint8)
    return cells


def test_straight_line_cost():
    cells = np.zeros((10, 10), dtype=np.uint8)
    path, cost = jps_search(JpsGrid(cells), (0, 0), (0, 9))
    assert cost == pytest.approx(9.0)
    path, cost = jps_search(JpsGrid(cells), (0, 0), (9, 9))
    assert cost == pytest.approx(9 * SQRT2)


def test_unreachable_returns_none():
    cells = np.zeros((5, 5), dtype=np.uint8)
    cells[2, :] = 1
    assert jps_search(JpsGrid(cells), (0, 0), (4, 4)) is None


def test_start_equals_goal():
    cells = np.zeros((3, 3), dtype=np.uint8)
    assert jps_search(JpsGrid(cells), (1, 1), (1, 1)) == ([(1, 1)], 0.0)


def test_matches_dijkstra_small():
    rng = np.random.default_rng(11)
    for _ in range(25):
        cells = random_grid(rng, 20, 0.25)
        cells[0, 0] = 0
        cells[19, 19] = 0
        ref = dijkstra_cost(cells, (0, 0), (19, 19))
        res = jps_search(JpsGrid(cells), (0, 0), (19, 19))
        if ref is None:
            assert res is None
        else:
            assert res is not None
            assert res[1] == pytest.approx(ref, abs=1e-9)


def test_traversed_cells_supercover():
    cells = list(traversed_cells((0, 0), (2, 1)))
    assert (0, 0) in cells and (2, 1) in cells
    assert len(cells) >= 4
    # exact corner crossing includes both side cells
    corner = list(traversed_cells((0, 0), (2, 2)))
    assert (1, 0) in corner and (0, 1) in corner


def test_line_is_free_blocked():
    cells = np.zeros((5, 5), dtype=np.uint8)
    cells[2, 2] = 1
    assert not line_is_free(cells, (0, 0), (4, 4))
    assert line_is_free(cells, (0, 4), (0, 0))


def test_path_cost_consistency():
    rng = np.random.default_rng(23)
    for _ in range(10):
        cells = random_grid(rng, 25, 0.2)
        cells[0, 0] = cells[24, 24] = 0
        res = jps_search(JpsGrid(cells), (0, 0), (24, 24))
        if res is None:
            continue
        path, cost = res
        total = 0.0
        for a, b in zip(path, path[1:]):
            dx, dy = abs(b[0] - a[0]), abs(b[1] - a[1])
            assert dx == 0 or dy == 0 or dx == dy     # jump segments are octile
            total += SQRT2 * dx if dx == dy else float(dx + dy)
        assert total == pytest.approx(cost)
        for node in path:
            assert cells[node[0], node[1]] == 0
