"""Voxel cost maps: occupancy, a dilated ``blocked`` grid, and a Gaussian cost grid.

Cost is exp(-d^2 / (2 sigma^2)) with sigma = inflation_radius / 2, so occupied
voxels are exactly 1.0 and cost decays monotonically with clearance.  d is the
exact Euclidean distance to the nearest occupied voxel.  The cost grid is
looked up in a table indexed by the per-axis ``|offset|`` to that voxel, which
the feature transform gives; the table is built once per grid shape, voxel
size and inflation radius, and the result is byte for byte
``cost_from_distance(distance_grid(occ, voxel_size), inflation_radius)``.

The planner mostly asks whether a voxel's cost is at or above the collision
threshold.  That holds exactly when some occupied voxel lies at an offset whose
table cost reaches the threshold: the nearest occupied voxel is at least as
near, and cost does not rise as distance falls.  ``build_cost_map`` answers
free/blocked by dilating the occupancy with that set of offsets.

Most of a cloud does not move from one map to the next.  A ``FixedLayer``
holds that part of the cloud, its occupancy and its dilated ``blocked`` grid,
built once by ``fixed_layer``; ``build_cost_map`` voxelises and dilates only
the points after it and ORs them into copies of its grids.  Dilation
distributes over union, so the map is byte for byte the map of the whole cloud.

Free/blocked questions come in batches, in single segments and in single
points.  ``is_free`` answers an (N, 3) array of points with one lookup; the
planner asks it once for a transition's anchors.  ``segment_free``, asked leg
by leg by the planner and segment by segment by the search, walks its samples
in plain floats and stops at the first blocked one; ``is_free`` of one point
is that walk of one sample.  Either way a point outside the map, or with a NaN
coordinate, is blocked.  Points are read by ``geometry.as_points``, so one
that is not three coordinates is an ``InvalidMapParameter`` naming its shape.

Cost values are read near obstacles, by the chaining-pose gradient.  Until the
cost grid is built, ``cost_at`` answers a point from the 5x5x5 window of the
occupancy around its voxel: every offset of squared voxel length n <= 8 lies in
that window, so the nearest occupied voxel found there is the true nearest.
Its table cost is scipy's bytes whenever all offsets of that n share one table
cost, whichever of them the feature transform picks; the largest n up to
which that holds is derived per map parameters.  Only a point with no such
voxel makes the map compute its whole cost grid, as ``cost`` and ``export`` do.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DecoError, DegenerateBounds, InvalidInput, InvalidMapParameter
from .geometry import as_points, vector_norm


@dataclass(frozen=True)
class Bounds:
    """Axis-aligned box: cost-map extents and the simulator's geometry.

    Boxes compare and hash by ``corners``, six Python floats ``(x0, y0, z0,
    x1, y1, z1)`` also kept as the read-only arrays ``lower`` and ``upper``;
    ``contains``, ``holds`` and the simulator's collision prefilter compare them.
    """

    lower: np.ndarray = field(compare=False)
    upper: np.ndarray = field(compare=False)
    corners: tuple = field(init=False, repr=False)

    def __post_init__(self):
        lo = as_points(self.lower, "lower corner", DegenerateBounds, one=True, finite=True).copy()
        hi = as_points(self.upper, "upper corner", DegenerateBounds, one=True, finite=True).copy()
        corners = tuple(lo.tolist() + hi.tolist())
        x0, y0, z0, x1, y1, z1 = corners
        if not (x0 < x1 and y0 < y1 and z0 < z1):
            raise DegenerateBounds(f"degenerate box: {lo} .. {hi}")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "corners", corners)

    def contains(self, point) -> bool:
        """The point lies in the closed box; a NaN coordinate is outside."""
        return self.holds(*as_points(point, "point", InvalidInput, one=True).tolist())

    def holds(self, x: float, y: float, z: float) -> bool:
        """``contains`` of a point its caller holds as three floats, unchecked."""
        x0, y0, z0, x1, y1, z1 = self.corners
        return x0 <= x <= x1 and y0 <= y <= y1 and z0 <= z <= z1


# the offset of a one-point walk: its only sample, a + 1.0 * 0.0, indexes as a
_NO_OFFSET = (0.0, 0.0, 0.0)


@lru_cache(maxsize=256)
def segment_fractions(n: int) -> np.ndarray:
    """The n + 1 sample positions along a segment, ``np.linspace(0, 1, n + 1)``,
    as a read-only (n + 1, 1) column shared by every segment of n steps."""
    fractions = np.linspace(0.0, 1.0, n + 1)[:, None]
    fractions.flags.writeable = False
    return fractions


class CostMap:
    """A voxel cost grid and the padded boolean ``blocked`` grid of
    ``~(cost < collision_threshold)`` that answers ``is_free`` and ``segment_free``.

    A one-voxel border of cost 1.0, blocked, answers every point outside the
    map: lookups clip their index into it instead of masking.  A map built from
    an explicit grid is checked as ``build_cost_map`` checks its parameters,
    its origin must be three finite coordinates, and it derives ``blocked``
    from the grid.  A map from ``build_cost_map`` is given ``blocked`` and
    keeps its occupancy, each the union of its fixed layer's grid and that of
    the moving points: ``cost_at`` answers from the occupancy window around
    each point while it can, and the first read that it cannot answer, or of
    ``cost`` or ``export``, computes the cost grid from the occupancy.  The
    grids are read-only, so they cannot drift apart.
    """

    def __init__(self, origin, voxel_size: float, cost, collision_threshold: float,
                 inflation_radius: float):
        cost = np.asarray(cost, dtype=float)
        origin = as_points(origin, "origin", InvalidMapParameter, one=True, finite=True)
        _check_scalars(voxel_size, inflation_radius, collision_threshold)
        if cost.ndim != 3:
            raise InvalidMapParameter(f"cost grid must be 3-D, got shape {cost.shape}")
        self._set_parameters(origin, voxel_size, cost.shape, collision_threshold,
                             inflation_radius)
        self._occupancy = self._window_occupancy = None
        self._set_cost(cost)
        self.blocked = ~(self._padded < self.collision_threshold)
        self.blocked.flags.writeable = False

    @classmethod
    def _from_occupancy(cls, origin, voxel_size: float, occupancy: np.ndarray,
                        blocked: np.ndarray, collision_threshold: float,
                        inflation_radius: float) -> "CostMap":
        """A map that answers free/blocked from ``blocked`` (padded) and cost
        values from ``occupancy``."""
        cmap = cls.__new__(cls)
        cmap._set_parameters(origin, voxel_size, occupancy.shape, collision_threshold,
                             inflation_radius)
        cmap._occupancy = occupancy
        cmap._window_occupancy = None
        cmap._padded = None
        cmap.blocked = blocked
        return cmap

    def _set_parameters(self, origin, voxel_size, dims, collision_threshold, inflation_radius):
        self.origin = np.asarray(origin, dtype=float)
        self.voxel_size = float(voxel_size)
        self.dims = dims
        self._max_index = np.asarray(dims, dtype=float)
        self.collision_threshold = float(collision_threshold)
        self.inflation_radius = float(inflation_radius)

    def _set_cost(self, cost: np.ndarray):
        self._padded = np.pad(cost, 1, constant_values=1.0)
        self._padded.flags.writeable = False

    def _padded_cost(self) -> np.ndarray:
        if self._padded is None:
            self._set_cost(_nearest_voxel_cost(self._occupancy, self.voxel_size,
                                               self.inflation_radius))
            self._occupancy = self._window_occupancy = None
        return self._padded

    @property
    def cost(self) -> np.ndarray:
        return self._padded_cost()[1:-1, 1:-1, 1:-1]

    @property
    def upper(self) -> np.ndarray:
        return self.origin + np.asarray(self.dims) * self.voxel_size

    def _lookup(self, padded: np.ndarray, p: np.ndarray):
        """Entries of a padded grid at the voxels holding the checked points:
        one point gives a scalar, an (N, 3) array gives N entries.  An index
        outside the map is clipped into the border; a NaN coordinate reads it too."""
        # fmax sends NaN to the border, with the points below the map
        idx = np.minimum(np.fmax(np.floor((p - self.origin) / self.voxel_size), -1.0),
                         self._max_index).astype(int) + 1
        if p.ndim == 1:
            i, j, k = idx.tolist()
            return padded[i, j, k]
        return padded[idx[:, 0], idx[:, 1], idx[:, 2]]

    def _window_cost(self, p: np.ndarray):
        """Costs of the points from the occupancy window around each voxel, or
        None when a point inside the map has no occupied voxel at an exact offset.

        The window grid is the occupancy padded by two voxels, flattened, then
        the run of occupied cells that a point outside the map reads.
        """
        shifts, costs, centres, tail = _exact_window(self.dims, self.voxel_size,
                                                     self.inflation_radius)[1:]
        if self._window_occupancy is None:
            shape = [n + 4 for n in self.dims]
            size = math.prod(shape)
            grid = np.zeros(size + tail, dtype=bool)
            grid[:size].reshape(shape)[2:-2, 2:-2, 2:-2] = self._occupancy
            grid[size:] = True
            self._window_occupancy = grid
        block = self._window_occupancy[self._lookup(centres, p)[..., None] + shifts]
        if not block.any(axis=-1).all():
            return None
        # shifts run nearest first, so the first hit is the nearest occupied voxel
        return costs[block.argmax(axis=-1)]

    def cost_at(self, points):
        """Cost of the voxel containing each point; outside the map counts as occupied.

        One point gives a float, an (N, 3) array gives N costs.  A map built
        from occupancy answers from the window around each point until a point
        needs the whole cost grid.
        """
        p = as_points(points, "points", InvalidMapParameter)
        cost = None if self._padded is not None else self._window_cost(p)
        if cost is None:
            cost = self._lookup(self._padded_cost(), p)
        return float(cost) if cost.ndim == 0 else cost

    def is_free(self, points):
        """Each point's voxel is not blocked: its cost is below the threshold,
        read from ``blocked`` without computing the cost grid.  One point gives
        a bool from the float walk of ``segment_free``; an (N, 3) array gives N
        bools from one lookup."""
        p = as_points(points, "points", InvalidMapParameter)
        if p.ndim == 1:
            return self._walk_free(p.tolist(), _NO_OFFSET, 0)
        return ~self._lookup(self.blocked, p)

    def segment_free(self, a, b) -> bool:
        """Sample the segment at voxel_size/2 and test every sample against ``blocked``.

        The samples are ``a + segment_fractions(n) * (b - a)``, with ``n`` from
        the segment's ``vector_norm``, walked as ``_walk_free`` walks them.  A
        segment whose length is not finite has a sample that is not finite, so
        it is blocked.
        """
        a = as_points(a, "segment endpoint a", InvalidMapParameter, one=True)
        b = as_points(b, "segment endpoint b", InvalidMapParameter, one=True)
        d = b - a
        length = vector_norm(d)
        if not math.isfinite(length):
            return False
        n = max(1, math.ceil(length / (self.voxel_size / 2.0)))
        return self._walk_free(a.tolist(), d.tolist(), n)

    def _walk_free(self, a: list, d: list, n: int) -> bool:
        """No sample ``a + f * d`` is blocked, f running over ``segment_fractions(n)``.

        The samples are walked in plain floats from ``a``, and the walk stops at
        the first blocked one.  n = 0 walks only the last sample, ``a + d``;
        ``is_free`` asks that of one point with d = 0.  Each coordinate is
        indexed as ``_lookup`` indexes it: a NaN or one outside the map reads
        the border.
        """
        (ax, ay, az), (dx, dy, dz) = a, d
        (ox, oy, oz), size = self.origin.tolist(), self.voxel_size
        nx, ny, nz = self.dims
        blocked = self.blocked
        # segment_fractions(n) is np.linspace(0, 1, n + 1): i * (1 / n), then exactly 1
        step = 1.0 / n if n else 0.0
        for i in range(n + 1):
            f = i * step if i < n else 1.0
            x = (ax + f * dx - ox) / size
            y = (ay + f * dy - oy) / size
            z = (az + f * dz - oz) / size
            if blocked[int(x) + 1 if 0.0 <= x < nx else (nx + 1 if x >= nx else 0),
                       int(y) + 1 if 0.0 <= y < ny else (ny + 1 if y >= ny else 0),
                       int(z) + 1 if 0.0 <= z < nz else (nz + 1 if z >= nz else 0)]:
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


def occupancy_from_points(points, bounds: Bounds, voxel_size: float) -> np.ndarray:
    """Occupancy grid of the voxels of ``bounds`` that hold a point, with
    origin ``bounds.lower``; points outside the bounds, or not finite, are left out."""
    x0, y0, z0, x1, y1, z1 = bounds.corners
    extent = (x1 - x0, y1 - y0, z1 - z0)
    if min(extent) < voxel_size:
        raise DegenerateBounds(f"bounds extent {extent} smaller than voxel size {voxel_size}")
    dims = tuple(math.ceil(e / voxel_size) for e in extent)
    occ = np.zeros(dims, dtype=bool)
    pts = as_points(points, "points", InvalidMapParameter, one=False)
    # integral float indices: the comparisons also drop NaN and infinity
    i, j, k = np.floor((pts - bounds.lower) / voxel_size).T
    inside = (i >= 0) & (i < dims[0]) & (j >= 0) & (j < dims[1]) & (k >= 0) & (k < dims[2])
    flat = (i * dims[1] + j) * dims[2] + k
    occ.ravel()[flat[inside].astype(np.intp)] = True
    return occ


def distance_grid(occupancy: np.ndarray, voxel_size: float) -> np.ndarray:
    """Exact Euclidean distance (m) from each voxel to the nearest occupied voxel.

    ``build_cost_map`` does not call it; it is the float reference that the
    cost table is checked against.
    """
    from scipy import ndimage

    if not occupancy.any():
        return np.full(occupancy.shape, np.inf)
    return ndimage.distance_transform_edt(~occupancy, sampling=voxel_size)


def cost_from_distance(dist: np.ndarray, inflation_radius: float) -> np.ndarray:
    sigma = inflation_radius / 2.0
    spread = 2.0 * sigma * sigma
    # a radius so small that the spread underflows to 0 is a step as well
    if inflation_radius <= 0 or spread == 0:
        return np.where(dist <= 0, 1.0, 0.0)
    with np.errstate(over="ignore"):
        cost = np.exp(-np.square(dist) / spread)
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


@lru_cache(maxsize=4)
def _blocking_offsets(dims: tuple, voxel_size: float, inflation_radius: float,
                      collision_threshold: float) -> tuple[tuple[int, int, int], np.ndarray]:
    """The offsets at which an occupied voxel blocks a voxel, as flat shifts in
    a grid padded by ``pad`` voxels on each side.

    An offset blocks when its table cost is at least the threshold.  Cost does
    not rise with any ``|offset|``, so the largest blocking ``|offset|`` along
    an axis lies on the axis itself; ``pad`` is that reach, and at least one
    voxel for the map's border.  Keyed only by map parameters; the shifts are
    read-only.
    """
    table = _offset_cost_table(dims, voxel_size, inflation_radius)[1].reshape(dims)
    blocking = table >= collision_threshold
    reach = [int(blocking[:, 0, 0].sum()) - 1, int(blocking[0, :, 0].sum()) - 1,
             int(blocking[0, 0, :].sum()) - 1]
    signed = [np.arange(-r, r + 1) for r in reach]
    offsets = np.nonzero(blocking[np.ix_(*map(np.abs, signed))])
    pad = tuple(max(r, 1) for r in reach)
    shape = [n + 2 * p for n, p in zip(dims, pad)]
    dx, dy, dz = (s[o] for s, o in zip(signed, offsets))
    shifts = (dx * shape[1] + dy) * shape[2] + dz
    shifts.flags.writeable = False
    return pad, shifts


@lru_cache(maxsize=4)
def _exact_window(dims: tuple, voxel_size: float, inflation_radius: float):
    """The exact-window limit N*, and what ``CostMap.cost_at`` reads the
    occupancy window with.

    Every offset with squared voxel length n <= 8 has each component <= 2, so
    it lies in the 5x5x5 window.  N* is the largest n <= 8 such that, for every
    m <= n, all offsets of squared length m share one table cost, byte for
    byte: the feature transform may pick any of them, and the cost is the same.
    Offsets that cannot reach from one voxel of the map to another are left out.

    Returns N*; the offsets of n <= N*, nearest first, as shifts of a flat
    index into the occupancy padded by two voxels, and their table costs; the
    one-voxel padded grid of each voxel's flat window centre; and the length of
    the run of occupied cells stored after the padded occupancy.  The border's
    centre lies in that run, so a point outside the map hits offset (0, 0, 0)
    first, and its table cost is 1.0.  Keyed only by map parameters; the arrays
    are read-only.
    """
    table = _offset_cost_table(dims, voxel_size, inflation_radius)[1].reshape(dims)
    offsets = np.indices((5, 5, 5)).reshape(3, -1).T - 2
    offsets = offsets[(np.abs(offsets) < np.asarray(dims)).all(axis=1)]
    n = np.square(offsets).sum(axis=1)
    order = np.argsort(n, kind="stable")
    offsets, n = offsets[order], n[order]
    costs = table[tuple(np.abs(offsets).T)]
    limit = 8
    for m in range(1, 9):
        if np.unique(costs[n == m].view(np.uint64)).size > 1:
            limit = m - 1
            break
    exact = n <= limit
    padded = [d + 4 for d in dims]
    strides = np.array([padded[1] * padded[2], padded[2], 1])
    shifts = offsets[exact].dot(strides)
    tail = int(shifts.max() - shifts.min()) + 1
    centres = np.full([d + 2 for d in dims], math.prod(padded) - shifts.min())
    centres[1:-1, 1:-1, 1:-1] = np.tensordot(strides, np.indices(dims) + 2, axes=1)
    costs = costs[exact]
    for array in (shifts, costs, centres):
        array.flags.writeable = False
    return limit, shifts, costs, centres, tail


# bound on the indices one scatter of ``_dilate`` sets
_SCATTER_INDICES = 1 << 20


def _dilate(occupancy: np.ndarray, parameters: tuple, base: np.ndarray) -> np.ndarray:
    """``base``, a grid padded by one voxel, OR ``occupancy`` dilated by the
    offsets that block at the map ``parameters``.

    Every occupied voxel plus every offset is set in one scatter into a grid
    padded by the offsets' reach, so no shift wraps into a neighbouring row;
    the result is that grid's window of one voxel around the map, read-only.
    Voxels are scattered in chunks that bound the index array.
    """
    dims = occupancy.shape
    pad, shifts = _blocking_offsets(dims, *parameters[1:])
    shape = tuple(n + 2 * p for n, p in zip(dims, pad))
    grid = np.zeros(shape, dtype=bool)
    window = grid[pad[0] - 1:pad[0] + dims[0] + 1,
                  pad[1] - 1:pad[1] + dims[1] + 1,
                  pad[2] - 1:pad[2] + dims[2] + 1]
    window[...] = base
    rest, k = np.divmod(np.flatnonzero(occupancy), dims[2])
    i, j = np.divmod(rest, dims[1])
    starts = ((i + pad[0]) * shape[1] + j + pad[1]) * shape[2] + k + pad[2]
    flat = grid.ravel()
    chunk = max(1, _SCATTER_INDICES // len(shifts))
    for first in range(0, len(starts), chunk):
        flat[starts[first:first + chunk, None] + shifts] = True
    window.flags.writeable = False
    return window


def _nearest_voxel_cost(occupancy: np.ndarray, voxel_size: float,
                        inflation_radius: float) -> np.ndarray:
    """Cost grid of an occupancy grid: find each voxel's nearest occupied voxel
    and look its cost up by the per-axis offset to it.

    The feature transform gets ``sampling=voxel_size`` so that ties between
    equally near voxels resolve as in ``distance_grid``.  An empty grid gives
    all zeros.
    """
    # imported here: a map computes its cost grid only when a read needs it,
    # which no transition of the task suite does, and scipy.ndimage doubles
    # the time and memory that importing deco takes
    from scipy import ndimage

    dims = occupancy.shape
    if not occupancy.any():
        return np.zeros(dims)
    indices, table = _offset_cost_table(dims, voxel_size, inflation_radius)
    offset = ndimage.distance_transform_edt(~occupancy, sampling=voxel_size,
                                            return_distances=False, return_indices=True)
    offset -= indices
    np.abs(offset, out=offset)
    flat = (offset[0] * dims[1] + offset[1]) * dims[2] + offset[2]
    return table.take(flat)


def _check_scalars(voxel_size, inflation_radius, collision_threshold):
    """Raise ``InvalidMapParameter`` naming a parameter out of range or not finite."""
    if not (math.isfinite(voxel_size) and voxel_size > 0):
        raise InvalidMapParameter(f"voxel_size must be positive and finite, got {voxel_size}")
    if not (math.isfinite(inflation_radius) and inflation_radius >= 0):
        raise InvalidMapParameter(
            f"inflation_radius must be non-negative and finite, got {inflation_radius}")
    if not 0 < collision_threshold <= 1:
        raise InvalidMapParameter(
            f"collision_threshold must be in (0, 1], got {collision_threshold}")


def _map_parameters(bounds: Bounds, voxel_size, inflation_radius,
                    collision_threshold) -> tuple:
    """The parameters a map is built with, checked, as one comparable tuple."""
    _check_scalars(voxel_size, inflation_radius, collision_threshold)
    return (bounds.corners, float(voxel_size), float(inflation_radius),
            float(collision_threshold))


@dataclass(frozen=True, eq=False)
class FixedLayer:
    """The part of a cloud that does not move, voxelised and dilated once.

    ``points`` is the read-only block every cloud it serves starts with;
    ``occupancy`` and ``blocked`` (padded, border included) are its read-only
    grids for the map parameters in ``parameters``.
    """

    points: np.ndarray
    parameters: tuple
    occupancy: np.ndarray
    blocked: np.ndarray


def _layered_grids(points: np.ndarray, bounds: Bounds, parameters: tuple,
                   fixed: FixedLayer | None) -> tuple[np.ndarray, np.ndarray]:
    """The occupancy and padded ``blocked`` grids of a cloud that starts with
    the points of ``fixed``: only the points after them are voxelised and
    dilated, and ORed into copies of its grids.  Without ``fixed`` the grids
    start empty, inside a blocked border."""
    count = 0
    if fixed is not None:
        if fixed.parameters != parameters:
            raise DecoError(f"fixed layer built with map parameters {fixed.parameters}, "
                            f"not {parameters}")
        count = len(fixed.points)
        if not np.array_equal(points[:count], fixed.points):
            raise DecoError(f"point cloud does not start with the {count} points "
                            "of its fixed layer")
    occ = occupancy_from_points(points[count:], bounds, parameters[1])
    if fixed is None:
        base = np.ones(tuple(n + 2 for n in occ.shape), dtype=bool)
        base[1:-1, 1:-1, 1:-1] = False
    else:
        base = fixed.blocked
    blocked = _dilate(occ, parameters, base)
    if fixed is not None:
        np.logical_or(occ, fixed.occupancy, out=occ)
    return occ, blocked


def fixed_layer(points, bounds: Bounds, voxel_size: float = 0.02,
                inflation_radius: float = 0.05, collision_threshold: float = 0.5) -> FixedLayer:
    """The fixed part of the maps built with these parameters from clouds that
    start with ``points``; ``build_cost_map`` adds the rest of each cloud."""
    parameters = _map_parameters(bounds, voxel_size, inflation_radius, collision_threshold)
    points = as_points(points, "points", InvalidMapParameter, one=False)
    if points.flags.writeable:
        points = points.copy()
        points.flags.writeable = False
    occ, blocked = _layered_grids(points, bounds, parameters, None)
    occ.flags.writeable = False
    return FixedLayer(points, parameters, occ, blocked)


def build_cost_map(points, bounds: Bounds, voxel_size: float = 0.02,
                   inflation_radius: float = 0.05, collision_threshold: float = 0.5,
                   fixed: FixedLayer | None = None) -> CostMap:
    """Cost map of a point cloud: voxelise it and dilate the occupancy by the
    offsets whose table cost reaches ``collision_threshold`` into the map's
    ``blocked`` grid.  Cost values come from the occupancy window near
    obstacles; the cost grid itself is computed only when a read needs it.

    ``fixed`` is the part of the cloud that does not move, built by
    ``fixed_layer`` with the same parameters; the cloud must start with its
    points.  Only the points after them are voxelised and dilated, and ORed
    into copies of its grids: dilation distributes over union, so the map is
    the map of the whole cloud.  Without ``fixed`` the fixed part is empty.
    """
    parameters = _map_parameters(bounds, voxel_size, inflation_radius, collision_threshold)
    occ, blocked = _layered_grids(as_points(points, "points", InvalidMapParameter, one=False),
                                  bounds, parameters, fixed)
    return CostMap._from_occupancy(bounds.lower.copy(), voxel_size, occ, blocked,
                                   collision_threshold, inflation_radius)
