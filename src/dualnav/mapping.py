"""Occupancy voxel map and the 2D grid maps derived from it.

The voxel map is a sparse set of occupied integer indices. The 2D products are
the local projection grid, its inflated center cut and its downsampled coarse
version, built with the convolution semantics of the map-processing stage.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .jps import JpsGrid
from .pcl import VOXEL_SIZE


H_MS = 6.0      # local map height, meters


def _check_voxel_size(voxel_size):
    # a size of 0 or NaN floors every point into one voxel, and a NaN
    # size marks no cell of Map_1
    if not 0.0 < voxel_size < math.inf:
        raise ValueError("voxel_size must be finite and > 0")


@dataclass
class LocalMapParams:
    i: int = 100            # Map_1 cells per side (i == j)
    m: int = 50             # Map_c cells per side (m == n)
    k: int = 3              # inflation kernel, cells (odd)
    voxel_size: float = VOXEL_SIZE

    def __post_init__(self):
        _check_voxel_size(self.voxel_size)
        if self.i < 1 or self.m < 1:
            raise ValueError("Map_1 and Map_c need i, m >= 1 cells per side")
        if self.i * self.i <= 3 * self.m * self.m:
            raise ValueError("need i*j > 3*m*n")
        if self.k % 2 == 0 or self.k < 1:
            raise ValueError("inflation kernel k must be odd and >= 1")

    @property
    def h(self) -> int:
        # downsample kernel size from the map-size ratio, rounded to nearest
        return int(round(self.i * self.i / (2.0 * self.m * self.m)))

    @property
    def l_ms(self) -> float:
        """Local map square side, meters: Map_1 has one cell per voxel."""
        return self.i * self.voxel_size

    @property
    def resolution(self) -> float:
        return self.voxel_size


@dataclass(eq=False)
class GridMap2D:
    """A 2D grid snapshot. The map planner memoizes the grids it derives
    from a Map_1 by the object's identity, so equality and hashing are by
    identity too."""

    origin: np.ndarray          # Earth XY of the (0,0) cell corner
    resolution: float
    cells: np.ndarray           # uint8, indexed [ix, iy], 1 = occupied

    @functools.cached_property
    def jump_tables(self) -> JpsGrid:
        """The JPS jump tables of the cells, built on first use. The cells
        turn read-only first, so a later write raises instead of leaving
        the tables stale."""
        self.cells.flags.writeable = False
        return JpsGrid(self.cells)


@dataclass
class VoxelMap:
    voxel_size: float
    # the occupied index tuples, in insertion order (the values are None)
    occupied: dict = field(default_factory=dict, init=False)
    _centers: np.ndarray | None = field(default=None, init=False, repr=False,
                                        compare=False)

    def __post_init__(self):
        _check_voxel_size(self.voxel_size)

    def integrate(self, cloud: np.ndarray) -> None:
        """Mark the voxel of every point occupied. Occupied never clears."""
        cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
        if len(cloud) == 0:
            return
        indices = np.floor(cloud / self.voxel_size).astype(np.int64)
        self.occupied.update(dict.fromkeys(map(tuple, indices.tolist())))

    def occupied_centers(self) -> np.ndarray:
        """Pcl_m: centers of all occupied voxels, in insertion order.

        The array is read-only and cached until the number of occupied
        voxels changes; no voxel is ever removed, so that count changes
        exactly when the set does.
        """
        if self._centers is None or len(self._centers) != len(self.occupied):
            if self.occupied:
                idx = np.array(list(self.occupied.keys()), dtype=float)
                centers = (idx + 0.5) * self.voxel_size
            else:
                centers = np.zeros((0, 3))
            centers.flags.writeable = False
            self._centers = centers
        return self._centers


def local_map(vmap: VoxelMap, center, params: LocalMapParams) -> np.ndarray:
    """Pcl_lm: occupied voxel centers inside the closed local cuboid."""
    return cuboid_cut(vmap.occupied_centers(), center, params)


def cuboid_cut(centers: np.ndarray, center, params: LocalMapParams) -> np.ndarray:
    """The rows of centers inside the closed local cuboid around center."""
    if len(centers) == 0:
        return centers
    c = np.asarray(center, dtype=float)
    half_xy = params.l_ms / 2.0
    half_z = H_MS / 2.0
    d = np.abs(centers - c)
    keep = (d[:, 0] <= half_xy) & (d[:, 1] <= half_xy) & (d[:, 2] <= half_z)
    return centers[keep]


def grid_origin(center, n_cells: int, resolution: float) -> np.ndarray:
    """Origin placing the map center (the drone) at the middle cell's center."""
    c = np.asarray(center, dtype=float)[:2]
    return c - resolution * (n_cells // 2 + 0.5)


def project_2d(pcl_lm: np.ndarray, center, params: LocalMapParams) -> GridMap2D:
    """Map_1: binary ground-plane projection of the local map; its cells are
    read-only."""
    res = params.resolution
    origin = grid_origin(center, params.i, res)
    cells = np.zeros((params.i, params.i), dtype=np.uint8)
    pts = np.asarray(pcl_lm, dtype=float).reshape(-1, 3)
    if len(pts):
        idx = np.floor((pts[:, :2] - origin) / res).astype(int)
        ok = (idx[:, 0] >= 0) & (idx[:, 0] < params.i) & \
             (idx[:, 1] >= 0) & (idx[:, 1] < params.i)
        idx = idx[ok]
        cells[idx[:, 0], idx[:, 1]] = 1
    cells.flags.writeable = False
    return GridMap2D(origin=origin, resolution=res, cells=cells)


def cut_center(map_1: GridMap2D, m: int) -> GridMap2D:
    """Map_c before inflation: the centered m x m window of Map_1."""
    i = map_1.cells.shape[0]
    lo = i // 2 - m // 2
    cells = map_1.cells[lo:lo + m, lo:lo + m].copy()
    origin = map_1.origin + lo * map_1.resolution
    return GridMap2D(origin=origin, resolution=map_1.resolution, cells=cells)


def inflate(grid: GridMap2D, k: int) -> GridMap2D:
    """Mark every cell within Chebyshev radius k//2 of an obstacle occupied.

    A k x k maximum filter with zeros beyond the edges, taken as the
    maximum of the k shifted views of a zero-padded copy along one axis,
    then along the other. The maximum over a square window is the maximum
    over its rows of the maximum over its columns, and integer maxima are
    exact in any order, so this is the direct k x k window maximum for any
    integer grid and any odd k, wider than the grid included.
    """
    if k % 2 == 0 or k < 1:
        raise ValueError("inflation kernel k must be odd and >= 1")
    n, m = grid.cells.shape
    r = k // 2
    padded = np.zeros((n + 2 * r, m + 2 * r), dtype=grid.cells.dtype)
    padded[r:r + n, r:r + m] = grid.cells
    rows = padded[:n].copy()
    for s in range(1, k):
        np.maximum(rows, padded[s:s + n], out=rows)
    cells = rows[:, :m].copy()
    for s in range(1, k):
        np.maximum(cells, rows[:, s:s + m], out=cells)
    return GridMap2D(origin=grid.origin.copy(), resolution=grid.resolution,
                     cells=cells.astype(np.uint8, copy=False))


def downsample(grid: GridMap2D, h: int) -> GridMap2D:
    """Map_1b: a block of h x h cells is occupied when at least half of its
    cells are (a tie counts as occupied, which is conservative).

    The input is first zero-padded at the high-index side of each axis to
    the next multiple of h.
    """
    i, j = grid.cells.shape
    ni, nj = -(-i // h), -(-j // h)
    padded = np.zeros((ni * h, nj * h), dtype=np.uint8)
    padded[:i, :j] = grid.cells
    counts = padded.reshape(ni, h, nj, h).sum(axis=(1, 3))
    cells = (2 * counts >= h * h).astype(np.uint8)
    return GridMap2D(origin=grid.origin.copy(), resolution=grid.resolution * h,
                     cells=cells)
