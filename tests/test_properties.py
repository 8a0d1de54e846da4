"""Property tests of the cost map, the voxel lookup, the segment check and the RRT planner.

Each property is checked against a reference written here with plain Python
arithmetic on the cost grid, not against other ``CostMap`` methods; the
planner's determinism is checked by comparing two calls byte for byte.  The
examples are derandomized, so every run checks the same cases.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from deco.chaining import rrt_path
from deco.costmap import Bounds, CostMap, build_cost_map

PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)


def reference_cost(cost, origin, voxel, point) -> float:
    """Cost of the voxel holding the point, 1.0 outside the grid."""
    idx = [math.floor((float(p) - float(o)) / voxel) for p, o in zip(point, origin)]
    if all(0 <= i < d for i, d in zip(idx, cost.shape)):
        return float(cost[idx[0], idx[1], idx[2]])
    return 1.0


def reference_segment_free(cost, origin, voxel, threshold, a, b) -> bool:
    """Every sample at voxel/2 along the segment is below the threshold."""
    length = math.dist(a, b)
    n = max(1, math.ceil(length / (voxel / 2)))
    for s in range(n + 1):
        t = s / n
        point = [p + t * (q - p) for p, q in zip(a, b)]
        if reference_cost(cost, origin, voxel, point) >= threshold:
            return False
    return True


@st.composite
def cost_maps(draw):
    dims = tuple(draw(st.integers(1, 6)) for _ in range(3))
    voxel = draw(st.sampled_from([0.02, 0.05, 0.1, 0.25]))
    origin = [draw(st.floats(-1.0, 1.0)) for _ in range(3)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    threshold = draw(st.sampled_from([0.3, 0.5, 0.9]))
    # high powers leave few voxels above the threshold, so segments can pass
    cost = rng.random(dims) ** draw(st.sampled_from([1, 4, 16]))
    return CostMap(origin, voxel, cost, threshold, 0.05)


@st.composite
def probe_points(draw, cmap):
    """Points inside the map, on voxel faces, below ``origin`` and at or above ``upper``."""
    points = []
    for _ in range(draw(st.integers(1, 12))):
        point = []
        for axis in range(3):
            index = draw(st.integers(-2, cmap.dims[axis] + 1))
            frac = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0, exclude_max=True))
            point.append(cmap.origin[axis] + (index + frac) * cmap.voxel_size)
        points.append(point)
    points.append(list(cmap.upper))
    points.append(list(cmap.origin))
    return np.array(points)


@PROPERTY_SETTINGS
@given(st.data())
def test_cost_at_matches_direct_grid_indexing(data):
    cmap = data.draw(cost_maps())
    points = data.draw(probe_points(cmap))
    expected = [reference_cost(cmap.cost, cmap.origin, cmap.voxel_size, p) for p in points]
    batched = cmap.cost_at(points)
    assert batched.shape == (len(points),)
    assert batched.tolist() == expected
    assert [cmap.cost_at(p) for p in points] == expected


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(st.data())
def test_segment_free_matches_dense_reference(data):
    cmap = data.draw(cost_maps())
    # mostly inside the map, sometimes up to one voxel outside it
    margin = data.draw(st.sampled_from([0.0, 0.0, 0.0, cmap.voxel_size]))
    lo, hi = cmap.origin - margin, cmap.upper + margin
    a, b = ([data.draw(st.floats(float(l), float(h))) for l, h in zip(lo, hi)]
            for _ in range(2))
    expected = reference_segment_free(cmap.cost, cmap.origin, cmap.voxel_size,
                                      cmap.collision_threshold, a, b)
    assert cmap.segment_free(a, b) == expected


WALL_DIMS = (8, 8, 8)
WALL_VOXEL = 0.05


@st.composite
def wall_scenes(draw):
    """A wall across x with one open voxel; a and b lie on either side of it."""
    cost = np.zeros(WALL_DIMS)
    wall = draw(st.integers(3, 4))
    cost[wall] = 1.0
    cost[wall, draw(st.integers(0, 7)), draw(st.integers(0, 7))] = 0.0
    cmap = CostMap([0.0, 0.0, 0.0], WALL_VOXEL, cost, 0.5, 0.05)

    def free_point(x_lo, x_hi):
        voxel = [draw(st.integers(x_lo, x_hi)), draw(st.integers(0, 7)), draw(st.integers(0, 7))]
        frac = [draw(st.floats(0.1, 0.9)) for _ in range(3)]
        return np.array([(i + f) * WALL_VOXEL for i, f in zip(voxel, frac)])

    return cmap, free_point(0, wall - 1), free_point(wall + 1, 7)


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(wall_scenes(), st.integers(0, 1000))
def test_rrt_path_keeps_endpoints_and_every_segment_is_free(scene, seed):
    cmap, a, b = scene
    path = rrt_path(a, b, cmap, seed)
    assert np.array_equal(path[0], a)
    assert np.array_equal(path[-1], b)
    for p, q in zip(path, path[1:]):
        assert reference_segment_free(cmap.cost, cmap.origin, cmap.voxel_size,
                                      cmap.collision_threshold, list(p), list(q))


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(wall_scenes(), st.integers(0, 1000))
def test_rrt_path_is_byte_identical_for_one_seed(scene, seed):
    cmap, a, b = scene
    first, second = rrt_path(a, b, cmap, seed), rrt_path(a, b, cmap, seed)
    assert [w.tobytes() for w in first] == [w.tobytes() for w in second]


MAP_BOUNDS = Bounds((0.0, 0.0, 0.0), (0.4, 0.4, 0.4))


def sample_box_faces(lower, upper, spacing) -> np.ndarray:
    """Cell midpoints of a grid of at most ``spacing`` on each of the six faces."""
    points = []
    for axis in range(3):
        u, v = (axis + 1) % 3, (axis + 2) % 3
        nu = math.ceil((upper[u] - lower[u]) / spacing)
        nv = math.ceil((upper[v] - lower[v]) / spacing)
        for w in (lower[axis], upper[axis]):
            for i in range(nu):
                for j in range(nv):
                    point = [0.0, 0.0, 0.0]
                    point[axis] = w
                    point[u] = lower[u] + (i + 0.5) * (upper[u] - lower[u]) / nu
                    point[v] = lower[v] + (j + 0.5) * (upper[v] - lower[v]) / nv
                    points.append(point)
    return np.array(points)


def box_surface_distance(point, lower, upper) -> float:
    """Distance from a point to the surface of the box, inside or outside it."""
    outside = [max(lo - p, 0.0, p - hi) for p, lo, hi in zip(point, lower, upper)]
    if any(outside):
        return math.hypot(*outside)
    return min(min(p - lo, hi - p) for p, lo, hi in zip(point, lower, upper))


@st.composite
def boxes(draw):
    voxel = draw(st.sampled_from([0.02, 0.025, 0.04]))
    lower = [draw(st.floats(0.02, 0.25)) for _ in range(3)]
    upper = [lo + draw(st.floats(0.004, 0.12)) for lo in lower]
    return voxel, lower, upper


@settings(PROPERTY_SETTINGS, max_examples=20)
@given(boxes())
def test_build_cost_map_distance_matches_analytic_box_distance(box):
    """The distance each voxel's cost encodes is within voxel_size * sqrt(3) of the box.

    An occupied voxel's centre lies within half a voxel diagonal of a surface
    sample, and every surface point lies within half a sample-cell diagonal
    (at most voxel_size / (2 * sqrt(2))) of a sample, which together stay below
    the bound.
    """
    voxel, lower, upper = box
    cmap = build_cost_map(sample_box_faces(lower, upper, voxel / 2), MAP_BOUNDS, voxel)
    sigma = cmap.inflation_radius / 2
    for index in np.ndindex(*cmap.dims):
        cost = float(cmap.cost[index])
        # invert cost = exp(-d^2 / (2 sigma^2)); cost 1.0 marks an occupied voxel
        encoded = sigma * math.sqrt(-2.0 * math.log(cost))
        centre = [o + (i + 0.5) * voxel for o, i in zip(cmap.origin, index)]
        exact = box_surface_distance(centre, lower, upper)
        assert abs(encoded - exact) <= voxel * math.sqrt(3), (index, encoded, exact)
