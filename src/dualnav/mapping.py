"""Occupancy voxel map and the 2D grid maps derived from it.

The voxel map is a sparse set of occupied integer indices. The 2D products are
the local projection grid, its inflated center cut and its downsampled coarse
version, built with the convolution semantics of the map-processing stage.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import maximum_filter


@dataclass
class LocalMapParams:
    h_ms: float = 6.0       # local map height, meters
    i: int = 100            # Map_1 cells per side (i == j)
    m: int = 50             # Map_c cells per side (m == n)
    k: int = 3              # inflation kernel, cells (odd)
    voxel_size: float = 0.2

    def __post_init__(self):
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


@dataclass
class GridMap2D:
    origin: np.ndarray          # Earth XY of the (0,0) cell corner
    resolution: float
    cells: np.ndarray           # uint8, indexed [ix, iy], 1 = occupied

    def world_to_cell(self, xy) -> tuple[int, int]:
        rel = (np.asarray(xy, dtype=float) - self.origin) / self.resolution
        return int(np.floor(rel[0])), int(np.floor(rel[1]))

    def cell_center(self, cell) -> np.ndarray:
        return self.origin + (np.asarray(cell, dtype=float) + 0.5) * self.resolution

    def in_bounds(self, cell) -> bool:
        return 0 <= cell[0] < self.cells.shape[0] and 0 <= cell[1] < self.cells.shape[1]

    def is_free(self, cell) -> bool:
        return self.in_bounds(cell) and self.cells[cell[0], cell[1]] == 0


@dataclass
class VoxelMap:
    voxel_size: float = 0.2
    occupied: dict = field(default_factory=dict)   # index tuple -> hit count
    _centers: np.ndarray | None = field(default=None, init=False, repr=False,
                                        compare=False)

    def integrate(self, cloud: np.ndarray) -> None:
        """Mark the voxel of every point occupied. Occupied never clears."""
        cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
        if len(cloud) == 0:
            return
        indices = np.floor(cloud / self.voxel_size).astype(np.int64)
        occ = self.occupied
        for ix, iy, iz in indices:
            key = (int(ix), int(iy), int(iz))
            occ[key] = occ.get(key, 0) + 1

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
    centers = vmap.occupied_centers()
    if len(centers) == 0:
        return centers
    c = np.asarray(center, dtype=float)
    half_xy = params.l_ms / 2.0
    half_z = params.h_ms / 2.0
    d = np.abs(centers - c)
    keep = (d[:, 0] <= half_xy) & (d[:, 1] <= half_xy) & (d[:, 2] <= half_z)
    return centers[keep]


def grid_origin(center, n_cells: int, resolution: float) -> np.ndarray:
    """Origin placing the map center (the drone) at the middle cell's center."""
    c = np.asarray(center, dtype=float)[:2]
    return c - resolution * (n_cells // 2 + 0.5)


def project_2d(pcl_lm: np.ndarray, center, params: LocalMapParams) -> GridMap2D:
    """Map_1: binary ground-plane projection of the local map."""
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
    return GridMap2D(origin=origin, resolution=res, cells=cells)


def cut_center(map_1: GridMap2D, m: int) -> GridMap2D:
    """Map_c before inflation: the centered m x m window of Map_1."""
    i = map_1.cells.shape[0]
    lo = i // 2 - m // 2
    cells = map_1.cells[lo:lo + m, lo:lo + m].copy()
    origin = map_1.origin + lo * map_1.resolution
    return GridMap2D(origin=origin, resolution=map_1.resolution, cells=cells)


def inflate(grid: GridMap2D, k: int) -> GridMap2D:
    """Mark every cell within Chebyshev radius k//2 of an obstacle occupied."""
    if k % 2 == 0 or k < 1:
        raise ValueError("inflation kernel k must be odd and >= 1")
    cells = maximum_filter(grid.cells, size=k, mode="constant", cval=0)
    return GridMap2D(origin=grid.origin.copy(), resolution=grid.resolution,
                     cells=cells.astype(np.uint8))


def downsample(grid: GridMap2D, h: int) -> GridMap2D:
    """Map_1b: h x h mean pooling with round-half-away-from-zero.

    The input is first zero-padded at the high-index side of each axis to
    the next multiple of h.
    """
    i, j = grid.cells.shape
    ni, nj = -(-i // h), -(-j // h)
    padded = np.zeros((ni * h, nj * h), dtype=np.uint8)
    padded[:i, :j] = grid.cells
    blocks = padded.reshape(ni, h, nj, h).astype(float)
    means = blocks.mean(axis=(1, 3))
    # half away from zero: a block with exactly half its cells occupied counts
    # as occupied (conservative)
    cells = (means >= 0.5 - 1e-12).astype(np.uint8)
    return GridMap2D(origin=grid.origin.copy(), resolution=grid.resolution * h,
                     cells=cells)
