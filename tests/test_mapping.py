import numpy as np
import pytest

from dualnav.mapping import (GridMap2D, LocalMapParams, VoxelMap, cut_center,
                             downsample, inflate, local_map, project_2d)


def test_params_validation():
    with pytest.raises(ValueError):
        LocalMapParams(i=100, m=60)          # violates i*j > 3*m*n
    with pytest.raises(ValueError):
        LocalMapParams(k=2)
    p = LocalMapParams()
    assert p.h == 2
    # one Map_1 cell per voxel, so the side follows from i and the voxel
    assert p.resolution == 0.2 and p.l_ms == 20.0
    assert LocalMapParams(i=40, m=20, voxel_size=1.0).l_ms == 40.0


def test_voxel_map_integrate_and_centers():
    vm = VoxelMap(voxel_size=0.2)
    vm.integrate(np.array([[0.05, 0.05, 0.05], [0.07, 0.02, 0.01],
                           [1.0, 1.0, 1.0]]))
    centers = vm.occupied_centers()
    assert len(centers) == 2
    assert np.allclose(centers[0], [0.1, 0.1, 0.1])
    assert vm.occupied[(0, 0, 0)] == 2


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
    cell = g.world_to_cell((0.0, 0.0))
    assert cell == (params.i // 2, params.i // 2)
    assert g.cells[cell] == 1
    assert g.cells.sum() == 1


def test_cut_center_alignment():
    params = LocalMapParams()
    g = project_2d(np.array([[0.0, 0.0, 1.0]]), (0.0, 0.0, 1.0), params)
    c = cut_center(g, params.m)
    cell = c.world_to_cell((0.0, 0.0))
    assert cell == (params.m // 2, params.m // 2)
    assert c.cells[cell] == 1


def test_inflate_chebyshev():
    g = GridMap2D(origin=np.zeros(2), resolution=1.0,
                  cells=np.zeros((7, 7), dtype=np.uint8))
    g.cells[3, 3] = 1
    out = inflate(g, 3)
    assert out.cells.sum() == 9
    assert out.cells[2:5, 2:5].all()


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
