"""Voxel cost maps: occupancy, exact distance transform, Gaussian decay.

Cost is exp(-d^2 / (2 sigma^2)) with sigma = inflation_radius / 2, so occupied
voxels are exactly 1.0 and cost decays monotonically with clearance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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

    def intersects_samples(self, samples: np.ndarray) -> bool:
        return bool(np.any(np.all((samples >= self.lower) & (samples <= self.upper), axis=1)))


class CostMap:
    def __init__(self, origin, voxel_size: float, cost: np.ndarray,
                 collision_threshold: float = 0.5, inflation_radius: float = 0.05):
        self.origin = np.asarray(origin, dtype=float)
        self.voxel_size = float(voxel_size)
        self.cost = cost
        self.dims = cost.shape
        self.collision_threshold = float(collision_threshold)
        self.inflation_radius = float(inflation_radius)

    @property
    def upper(self) -> np.ndarray:
        return self.origin + np.asarray(self.dims) * self.voxel_size

    def voxel_index(self, point):
        idx = np.floor((np.asarray(point, dtype=float) - self.origin) / self.voxel_size).astype(int)
        return tuple(idx)

    def voxel_center(self, index) -> np.ndarray:
        return self.origin + (np.asarray(index, dtype=float) + 0.5) * self.voxel_size

    def cost_at(self, point) -> float:
        """Cost of the voxel containing the point; outside the map counts as occupied."""
        idx = self.voxel_index(point)
        if not all(0 <= i < d for i, d in zip(idx, self.dims)):
            return 1.0
        return float(self.cost[idx])

    def is_free(self, point) -> bool:
        return self.cost_at(point) < self.collision_threshold

    def segment_free(self, a, b, resolution: float | None = None) -> bool:
        """Sample the segment at voxel_size/2 (default) and test every sample."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        res = resolution if resolution is not None else self.voxel_size / 2.0
        length = float(np.linalg.norm(b - a))
        n = max(1, int(np.ceil(length / res)))
        for t in np.linspace(0.0, 1.0, n + 1):
            if not self.is_free(a + t * (b - a)):
                return False
        return True

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
    """Exact Euclidean distance (m) from each voxel to the nearest occupied voxel."""
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


def build_cost_map(points, bounds: Bounds, voxel_size: float = 0.02,
                   inflation_radius: float = 0.05,
                   collision_threshold: float = 0.5) -> CostMap:
    if voxel_size <= 0:
        raise ValueError("voxel_size must be positive")
    if inflation_radius < 0:
        raise ValueError("inflation_radius must be non-negative")
    occ, origin, _dims = occupancy_from_points(points, bounds, voxel_size)
    dist = distance_grid(occ, voxel_size)
    cost = cost_from_distance(dist, inflation_radius)
    return CostMap(origin, voxel_size, cost, collision_threshold, inflation_radius)
