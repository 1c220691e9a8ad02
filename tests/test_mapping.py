import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.ndimage import maximum_filter

from dualnav import jps
from dualnav.mapping import (GridMap2D, LocalMapParams, VoxelMap, cut_center,
                             downsample, inflate, local_map, project_2d)


def test_params_validation():
    with pytest.raises(ValueError):
        LocalMapParams(i=100, m=60)          # violates i*j > 3*m*n
    with pytest.raises(ValueError):
        LocalMapParams(k=2)
    with pytest.raises(ValueError):
        LocalMapParams(i=2, m=0, k=1)       # no Map_c cells
    p = LocalMapParams()
    assert p.h == 2
    # one Map_1 cell per voxel, so the side follows from i and the voxel
    assert p.resolution == 0.2 and p.l_ms == 20.0
    assert LocalMapParams(i=40, m=20, voxel_size=1.0).l_ms == 40.0


@pytest.mark.parametrize("make", [
    VoxelMap, lambda size: LocalMapParams(voxel_size=size)],
    ids=["VoxelMap", "LocalMapParams"])
@pytest.mark.parametrize("size", [0.0, -0.2, math.nan, math.inf, -math.inf])
def test_unusable_voxel_sizes_are_rejected(make, size):
    # a size of 0 or NaN floors every point into one voxel, and a NaN size
    # marks no cell of Map_1, so obstacles vanish from it
    with pytest.raises(ValueError):
        make(size)


@pytest.mark.parametrize("bad", [{"i": 0}, {"i": -100}, {"i": -100, "m": 50}])
def test_map_sizes_below_one_cell_are_rejected(bad):
    # i = -100 passes i*j > 3*m*n and failed only later, in np.zeros
    with pytest.raises(ValueError):
        LocalMapParams(**bad)


def test_voxel_map_integrate_and_centers():
    vm = VoxelMap(voxel_size=0.2)
    vm.integrate(np.array([[0.05, 0.05, 0.05], [0.07, 0.02, 0.01],
                           [1.0, 1.0, 1.0]]))
    centers = vm.occupied_centers()
    assert len(centers) == 2
    assert np.allclose(centers[0], [0.1, 0.1, 0.1])
    assert list(vm.occupied) == [(0, 0, 0), (5, 5, 5)]


def test_occupied_centers_cached_until_a_voxel_is_added():
    vm = VoxelMap(0.2)
    assert vm.occupied_centers().shape == (0, 3)
    vm.integrate(np.array([[0.05, 0.05, 0.05], [1.0, 1.0, 1.0]]))
    first = vm.occupied_centers()
    assert not first.flags.writeable
    vm.integrate(np.array([[0.06, 0.06, 0.06]]))     # same voxel: no change
    assert vm.occupied_centers() is first
    vm.integrate(np.array([[-1.0, 0.0, 0.0]]))
    grown = vm.occupied_centers()
    idx = np.array(list(vm.occupied.keys()), dtype=float)
    assert grown.tobytes() == ((idx + 0.5) * 0.2).tobytes()
    assert len(grown) == 3 and not grown.flags.writeable


def test_local_map_cuboid():
    vm = VoxelMap(voxel_size=0.2)
    vm.integrate(np.array([[0.5, 0.5, 0.5], [30.0, 0.0, 0.0], [0.0, 0.0, 9.0]]))
    params = LocalMapParams()
    out = local_map(vm, (0.0, 0.0, 0.5), params)
    assert len(out) == 1
    assert np.allclose(out[0], [0.5, 0.5, 0.5], atol=0.11)


def test_project_2d_centers_drone():
    params = LocalMapParams()
    g = project_2d(np.array([[0.0, 0.0, 1.0]]), (0.0, 0.0, 1.0), params)
    # the drone's cell: floor((xy - origin) / resolution)
    cell = tuple(np.floor(-g.origin / g.resolution).astype(int))
    assert cell == (params.i // 2, params.i // 2)
    assert g.cells[cell] == 1
    assert g.cells.sum() == 1


def test_cut_center_alignment():
    params = LocalMapParams()
    g = project_2d(np.array([[0.0, 0.0, 1.0]]), (0.0, 0.0, 1.0), params)
    c = cut_center(g, params.m)
    # the drone's cell: floor((xy - origin) / resolution)
    cell = tuple(np.floor(-c.origin / c.resolution).astype(int))
    assert cell == (params.m // 2, params.m // 2)
    assert c.cells[cell] == 1


def test_inflate_chebyshev():
    g = GridMap2D(origin=np.zeros(2), resolution=1.0,
                  cells=np.zeros((7, 7), dtype=np.uint8))
    g.cells[3, 3] = 1
    out = inflate(g, 3)
    assert out.cells.sum() == 9
    assert out.cells[2:5, 2:5].all()


@st.composite
def uint8_grids(draw):
    """uint8 grids of 1 x n, n x 1 and larger shapes, sparse or dense, of
    0/1 cells or of any byte."""
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.random(shape) < draw(st.floats(0.0, 0.5))
    if draw(st.booleans()):
        return cells.astype(np.uint8)
    return np.where(cells, rng.integers(0, 256, shape), 0).astype(np.uint8)


@given(uint8_grids(), st.sampled_from([1, 3, 5, 7, 9]))
def test_inflate_matches_maximum_filter(cells, k):
    g = GridMap2D(origin=np.array([1.5, -2.0]), resolution=0.2, cells=cells)
    out = inflate(g, k)
    want = maximum_filter(cells, size=k, mode="constant", cval=0)
    assert out.cells.dtype == np.uint8 and out.cells.flags.writeable
    assert out.cells.tobytes() == want.tobytes()
    assert out.cells.shape == want.shape
    assert out.origin.tolist() == [1.5, -2.0] and out.resolution == 0.2


def test_inflate_kernel_wider_than_the_grid():
    cells = np.zeros((1, 4), dtype=np.uint8)
    cells[0, 0] = 1
    g = GridMap2D(origin=np.zeros(2), resolution=1.0, cells=cells)
    assert inflate(g, 9).cells.tolist() == [[1, 1, 1, 1]]
    assert inflate(g, 5).cells.tolist() == [[1, 1, 1, 0]]


def test_downsample_half_rounds_up():
    g = GridMap2D(origin=np.zeros(2), resolution=1.0,
                  cells=np.zeros((4, 4), dtype=np.uint8))
    g.cells[0, 0] = 1
    g.cells[0, 1] = 1          # half of the first 2x2 block
    out = downsample(g, 2)
    assert out.cells.shape == (2, 2)
    assert out.cells[0, 0] == 1
    assert out.cells.sum() == 1
    assert out.resolution == pytest.approx(2.0)


def test_downsample_padding():
    g = GridMap2D(origin=np.zeros(2), resolution=1.0,
                  cells=np.ones((3, 3), dtype=np.uint8))
    out = downsample(g, 2)
    assert out.cells.shape == (2, 2)
    assert out.cells[0, 0] == 1
    # the padded corner block holds a single occupied cell out of four
    assert out.cells[1, 1] == 0


def _float_mean_downsample(cells, h):
    """downsample's block rule before it counted cells: the float mean of
    each zero-padded h x h block against 0.5 - 1e-12."""
    i, j = cells.shape
    ni, nj = -(-i // h), -(-j // h)
    padded = np.zeros((ni * h, nj * h), dtype=np.uint8)
    padded[:i, :j] = cells
    means = padded.reshape(ni, h, nj, h).astype(float).mean(axis=(1, 3))
    return (means >= 0.5 - 1e-12).astype(np.uint8)


@given(st.integers(1, 39), st.integers(1, 119), st.integers(1, 119),
       st.sampled_from(["random", "checker"]), st.floats(0.0, 1.0),
       st.integers(0, 2**32 - 1))
# blocks of exactly half their cells, and sides no multiple of h
@example(2, 6, 6, "checker", 0.0, 0)
@example(3, 7, 5, "random", 0.5, 0)
def test_downsample_matches_float_mean(h, rows, cols, pattern, density, seed):
    if pattern == "checker":
        cells = np.add.outer(np.arange(rows), np.arange(cols)) % 2
    else:
        rng = np.random.default_rng(seed)
        cells = rng.random((rows, cols)) < density
    grid = GridMap2D(origin=np.zeros(2), resolution=0.2,
                     cells=cells.astype(np.uint8))
    out = downsample(grid, h).cells
    want = _float_mean_downsample(grid.cells, h)
    assert out.dtype == want.dtype and np.array_equal(out, want)


def test_jump_tables_built_once_and_freeze_the_cells(monkeypatch):
    builds = []
    init = jps.JpsGrid.__init__

    def counted(self, cells):
        builds.append(cells)
        init(self, cells)
    monkeypatch.setattr(jps.JpsGrid, "__init__", counted)
    grid = GridMap2D(origin=np.zeros(2), resolution=1.0,
                     cells=np.zeros((8, 8), dtype=np.uint8))
    grid.cells[3, 3] = 1            # writable until the tables exist
    tables = grid.jump_tables
    assert grid.jump_tables is tables and len(builds) == 1
    assert builds[0] is grid.cells and not tables.free[3, 3]
    # a write now would leave the tables stale, so it raises
    with pytest.raises(ValueError):
        grid.cells[0, 0] = 1
    assert tables.free[0, 0]
