"""Voxel cost maps: occupancy, exact nearest-occupied-voxel transform, Gaussian decay.

Cost is exp(-d^2 / (2 sigma^2)) with sigma = inflation_radius / 2, so occupied
voxels are exactly 1.0 and cost decays monotonically with clearance.  d is the
exact Euclidean distance to the nearest occupied voxel.  ``build_cost_map``
takes the per-axis offset to that voxel from the feature transform and looks
the cost up in a table indexed by ``|offset|``, built once per grid shape,
voxel size and inflation radius; the result is byte for byte
``cost_from_distance(distance_grid(occ, voxel_size), inflation_radius)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import ndimage

from .errors import DecoError, DegenerateBounds


@dataclass(frozen=True)
class Bounds:
    """Axis-aligned box: cost-map extents and the simulator's geometry."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if np.any(hi <= lo):
            raise ValueError(f"degenerate box: {lo} .. {hi}")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float)
        return bool(np.all(p >= self.lower) and np.all(p <= self.upper))


@lru_cache(maxsize=256)
def _segment_fractions(n: int) -> np.ndarray:
    """The n + 1 sample positions along a segment, as an (n + 1, 1) column."""
    fractions = np.linspace(0.0, 1.0, n + 1)[:, None]
    fractions.flags.writeable = False
    return fractions


class CostMap:
    def __init__(self, origin, voxel_size: float, cost: np.ndarray,
                 collision_threshold: float, inflation_radius: float):
        self.origin = np.asarray(origin, dtype=float)
        self.voxel_size = float(voxel_size)
        # a one-voxel border of cost 1.0 answers every point outside the map:
        # lookups clip their index into it instead of masking
        self._padded = np.pad(cost, 1, constant_values=1.0)
        self.cost = self._padded[1:-1, 1:-1, 1:-1]
        self.dims = cost.shape
        self._max_index = np.asarray(self.dims, dtype=float)
        self.collision_threshold = float(collision_threshold)
        self.inflation_radius = float(inflation_radius)

    @property
    def upper(self) -> np.ndarray:
        return self.origin + np.asarray(self.dims) * self.voxel_size

    def voxel_center(self, index) -> np.ndarray:
        return self.origin + (np.asarray(index, dtype=float) + 0.5) * self.voxel_size

    def cost_at(self, points):
        """Cost of the voxel containing each point; outside the map counts as occupied.

        One point gives a float, an (N, 3) array gives N costs.
        """
        p = np.asarray(points, dtype=float)
        idx = np.minimum(np.maximum(np.floor((p - self.origin) / self.voxel_size), -1.0),
                         self._max_index).astype(int) + 1
        if p.ndim == 1:
            i, j, k = idx.tolist()
            return float(self._padded[i, j, k])
        return self._padded[idx[:, 0], idx[:, 1], idx[:, 2]]

    def is_free(self, point) -> bool:
        return self.cost_at(point) < self.collision_threshold

    def segment_free(self, a, b) -> bool:
        """Sample the segment at voxel_size/2 and test every sample."""
        a = np.asarray(a, dtype=float)
        d = np.asarray(b, dtype=float) - a
        # the sqrt of the dot product is what np.linalg.norm computes for a vector
        n = max(1, math.ceil(math.sqrt(d.dot(d)) / (self.voxel_size / 2.0)))
        samples = a + _segment_fractions(n) * d
        return bool((self.cost_at(samples) < self.collision_threshold).all())

    def export(self, header_path, grid_path):
        """JSON header plus a flat little-endian float32 grid, x-fastest order."""
        header = {"origin": [float(v) for v in self.origin],
                  "voxel_size": self.voxel_size,
                  "dims": list(self.dims),
                  "collision_threshold": self.collision_threshold,
                  "inflation_radius": self.inflation_radius}
        with open(header_path, "w") as fh:
            json.dump(header, fh, indent=2)
        flat = np.transpose(self.cost, (2, 1, 0)).ravel().astype("<f4")
        with open(grid_path, "wb") as fh:
            fh.write(flat.tobytes())

    @classmethod
    def load(cls, header_path, grid_path) -> "CostMap":
        with open(header_path) as fh:
            header = json.load(fh)
        dims = header["dims"]
        expected = 4 * dims[0] * dims[1] * dims[2]
        raw = np.fromfile(grid_path, dtype=np.uint8)
        if raw.size != expected:
            raise DecoError(f"cost-map grid {grid_path} has {raw.size} bytes, "
                            f"header dims {dims} need {expected}")
        flat = raw.view("<f4").astype(float)
        cost = np.transpose(flat.reshape(dims[2], dims[1], dims[0]), (2, 1, 0))
        return cls(header["origin"], header["voxel_size"], cost,
                   header["collision_threshold"], header["inflation_radius"])


def occupancy_from_points(points, bounds: Bounds, voxel_size: float) -> tuple[np.ndarray, np.ndarray, tuple]:
    extent = bounds.upper - bounds.lower
    if np.any(extent < voxel_size):
        raise DegenerateBounds(f"bounds extent {extent} smaller than voxel size {voxel_size}")
    dims = tuple(int(np.ceil(e / voxel_size)) for e in extent)
    occ = np.zeros(dims, dtype=bool)
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts):
        idx = np.floor((pts - bounds.lower) / voxel_size).astype(int)
        inside = np.all((idx >= 0) & (idx < np.asarray(dims)), axis=1)
        idx = idx[inside]
        occ[idx[:, 0], idx[:, 1], idx[:, 2]] = True
    return occ, bounds.lower.copy(), dims


def distance_grid(occupancy: np.ndarray, voxel_size: float) -> np.ndarray:
    """Exact Euclidean distance (m) from each voxel to the nearest occupied voxel.

    ``build_cost_map`` does not call it; it is the float reference that the
    cost table is checked against.
    """
    if not occupancy.any():
        return np.full(occupancy.shape, np.inf)
    return ndimage.distance_transform_edt(~occupancy, sampling=voxel_size)


def cost_from_distance(dist: np.ndarray, inflation_radius: float) -> np.ndarray:
    if inflation_radius <= 0:
        return np.where(dist <= 0, 1.0, 0.0)
    sigma = inflation_radius / 2.0
    with np.errstate(over="ignore"):
        cost = np.exp(-np.square(dist) / (2.0 * sigma * sigma))
    cost[dist <= 0] = 1.0
    cost[~np.isfinite(dist)] = 0.0
    return np.clip(cost, 0.0, 1.0)


@lru_cache(maxsize=4)
def _offset_cost_table(dims: tuple, voxel_size: float,
                       inflation_radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Each voxel's index, and the cost of every per-axis |offset| to the nearest
    occupied voxel, flattened in C order.

    Offsets along an axis stay below the grid's length there, so the table has
    the grid's shape.  The distance of an offset is computed as scipy's
    ``distance_transform_edt`` computes it, sqrt(((dx s)^2 + (dy s)^2) + (dz s)^2),
    so a looked-up cost is the bytes ``cost_from_distance`` gives the EDT.
    Keyed only by map parameters; both arrays are read-only.
    """
    sq = [np.square(np.arange(n, dtype=float) * voxel_size) for n in dims]
    dist = np.sqrt((sq[0][:, None, None] + sq[1][None, :, None]) + sq[2][None, None, :])
    table = cost_from_distance(dist, inflation_radius).ravel()
    indices = np.indices(dims, dtype=np.int32)
    table.flags.writeable = False
    indices.flags.writeable = False
    return indices, table


def build_cost_map(points, bounds: Bounds, voxel_size: float = 0.02,
                   inflation_radius: float = 0.05,
                   collision_threshold: float = 0.5) -> CostMap:
    """Cost map of a point cloud: voxelise, find each voxel's nearest occupied
    voxel, and look its cost up by the per-axis offset to it.

    The feature transform gets ``sampling=voxel_size`` so that ties between
    equally near voxels resolve as in ``distance_grid``.  An empty cloud gives
    an all-zero grid.
    """
    if voxel_size <= 0:
        raise ValueError("voxel_size must be positive")
    if inflation_radius < 0:
        raise ValueError("inflation_radius must be non-negative")
    occ, origin, dims = occupancy_from_points(points, bounds, voxel_size)
    if not occ.any():
        return CostMap(origin, voxel_size, np.zeros(dims), collision_threshold, inflation_radius)
    indices, table = _offset_cost_table(dims, float(voxel_size), float(inflation_radius))
    offset = ndimage.distance_transform_edt(~occ, sampling=voxel_size, return_distances=False,
                                            return_indices=True)
    offset -= indices
    np.abs(offset, out=offset)
    flat = (offset[0] * dims[1] + offset[1]) * dims[2] + offset[2]
    cost = table.take(flat)
    return CostMap(origin, voxel_size, cost, collision_threshold, inflation_radius)
