import json
import re
import warnings

import numpy as np
import pytest
from scipy import ndimage

from deco.costmap import (COLLISION_THRESHOLD, Bounds, CostMap, _exact_window, _offset_cost_table,
                          build_cost_map, cost_from_distance, distance_grid, fixed_layer,
                          occupancy_from_points)
from deco.errors import DecoError, DegenerateBounds, InvalidMapParameter
from deco.sim.scene import WORKSPACE

BOUNDS = Bounds((0.0, 0.0, 0.0), (0.2, 0.2, 0.2))


def test_occupancy_marks_point_voxels():
    occ = occupancy_from_points([[0.05, 0.05, 0.05]], BOUNDS, 0.02)
    assert occ.shape == (10, 10, 10)
    assert occ[2, 2, 2]
    assert occ.sum() == 1


def test_occupancy_ignores_out_of_bounds_points():
    occ = occupancy_from_points([[5.0, 5.0, 5.0]], BOUNDS, 0.02)
    assert occ.sum() == 0


def test_degenerate_bounds_rejected():
    with pytest.raises(DegenerateBounds):
        occupancy_from_points([], Bounds((0, 0, 0), (0.01, 1, 1)), 0.02)


def test_empty_occupancy_infinite_distance_zero_cost():
    occ = np.zeros((4, 4, 4), dtype=bool)
    dist = distance_grid(occ, 0.02)
    assert np.all(np.isinf(dist))
    cost = cost_from_distance(dist, 0.05)
    assert np.all(cost == 0.0)


def test_cost_formula_and_occupied_is_one():
    occ = np.zeros((9, 1, 1), dtype=bool)
    occ[0, 0, 0] = True
    dist = distance_grid(occ, 0.01)
    cost = cost_from_distance(dist, 0.05)
    assert cost[0, 0, 0] == 1.0
    sigma = 0.025
    for i in range(1, 9):
        assert np.isclose(cost[i, 0, 0], np.exp(-(0.01 * i) ** 2 / (2 * sigma**2)))


def test_zero_inflation_binary_cost():
    occ = np.zeros((3, 1, 1), dtype=bool)
    occ[1, 0, 0] = True
    cost = cost_from_distance(distance_grid(occ, 0.01), 0.0)
    assert list(cost[:, 0, 0]) == [0.0, 1.0, 0.0]


def test_underflowing_inflation_is_a_warning_free_step():
    # 2 sigma^2 underflows to 0 for this radius; dividing by it would warn
    occ = np.zeros((5, 4, 3), dtype=bool)
    occ[1, 2, 0] = True
    dist = distance_grid(occ, 0.02)
    dist[4, 3, 2] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cost = cost_from_distance(dist, 1e-200)
    assert cost.tobytes() == np.where(dist <= 0, 1.0, 0.0).tobytes()


def test_cost_at_outside_map_is_occupied():
    cmap = build_cost_map([[0.1, 0.1, 0.1]], BOUNDS, 0.02)
    assert cmap.cost_at([-1.0, 0.0, 0.0]) == 1.0
    assert not cmap.is_free([5.0, 5.0, 5.0])


def test_is_free_threshold():
    cmap = build_cost_map([[0.1, 0.1, 0.1]], BOUNDS, 0.02, inflation_radius=0.05)
    assert cmap.collision_threshold == COLLISION_THRESHOLD == 0.5
    assert not cmap.is_free([0.1, 0.1, 0.1])
    assert cmap.is_free([0.01, 0.01, 0.01])


def test_segment_free_detects_blocking_voxel():
    cmap = build_cost_map([[0.1, 0.1, 0.1]], BOUNDS, 0.02)
    assert not cmap.segment_free([0.01, 0.1, 0.1], [0.19, 0.1, 0.1])
    assert cmap.segment_free([0.01, 0.01, 0.01], [0.19, 0.01, 0.01])


FREE_POINT = [0.01, 0.01, 0.01]

# each query of one point with a non-finite coordinate, and what it must answer
NON_FINITE_QUERIES = {
    "is_free": (lambda cmap, p: cmap.is_free(p), False),
    "cost_at": (lambda cmap, p: cmap.cost_at(p), 1.0),
    "segment_free-from": (lambda cmap, p: cmap.segment_free(p, FREE_POINT), False),
    "segment_free-to": (lambda cmap, p: cmap.segment_free(FREE_POINT, p), False),
    "batched-is_free": (lambda cmap, p: cmap.is_free(np.array([FREE_POINT, p])).tolist(),
                        [True, False]),
    "batched-cost_at": (lambda cmap, p: cmap.cost_at(np.array([FREE_POINT, p]))[1], 1.0),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("query", sorted(NON_FINITE_QUERIES))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("make", [
    lambda: build_cost_map([[0.1, 0.1, 0.1]], BOUNDS, 0.02),
    lambda: CostMap([0, 0, 0], 0.02, np.zeros((10, 10, 10)), 0.05)],
    ids=["built", "grid"])
def test_a_non_finite_coordinate_is_outside_the_map(make, axis, bad, query):
    """NaN, like +-inf, answers as a point outside the map: blocked, cost 1.0,
    without a warning."""
    point = [0.1, 0.1, 0.1]
    point[axis] = bad
    ask, expected = NON_FINITE_QUERIES[query]
    assert ask(make(), point) == expected


@pytest.mark.parametrize("query", ["is_free", "cost_at", "segment_free-from", "segment_free-to"])
@pytest.mark.parametrize("point", [[0.1, 0.1], [0.1, 0.1, 0.1, 0.1], [[0.1, 0.1]],
                                   [[[0.1, 0.1, 0.1]]], 0.1],
                         ids=["2", "4", "1x2", "1x1x3", "scalar"])
@pytest.mark.parametrize("make", [
    lambda: build_cost_map([[0.1, 0.1, 0.1]], BOUNDS, 0.02),
    lambda: CostMap([0, 0, 0], 0.02, np.zeros((10, 10, 10)), 0.05)],
    ids=["built", "grid"])
def test_a_point_that_is_not_three_coordinates_is_an_invalid_map_parameter(make, point, query):
    with pytest.raises(InvalidMapParameter, match=re.escape(str(np.shape(point)))):
        NON_FINITE_QUERIES[query][0](make(), point)


def test_a_segment_endpoint_must_be_one_point():
    """A batch of one point is not a segment endpoint."""
    with pytest.raises(InvalidMapParameter, match=re.escape(
            "segment endpoint a must have 3 coordinates, got shape (1, 3)")):
        build_cost_map([[0.1, 0.1, 0.1]], BOUNDS, 0.02).segment_free([FREE_POINT], FREE_POINT)


def read_export(header_path, grid_path):
    """An exported map in the README's format: a JSON header, and the cost
    grid as flat little-endian float32 with x varying fastest."""
    header = json.loads(header_path.read_text())
    nx, ny, nz = header["dims"]
    flat = np.frombuffer(grid_path.read_bytes(), dtype="<f4")
    return header, flat.reshape(nz, ny, nx).transpose(2, 1, 0)


def test_export_load_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 0.2, size=(40, 3))
    cmap = build_cost_map(pts, BOUNDS, 0.02)
    cmap.export(tmp_path / "h.json", tmp_path / "g.f32")
    header, cost = read_export(tmp_path / "h.json", tmp_path / "g.f32")
    assert header == {"origin": cmap.origin.tolist(), "voxel_size": cmap.voxel_size,
                      "dims": list(cmap.dims),
                      "collision_threshold": cmap.collision_threshold,
                      "inflation_radius": cmap.inflation_radius}
    assert cost.tobytes() == cmap.cost.astype("<f4").tobytes()
    # re-export is byte-identical
    cmap.export(tmp_path / "h2.json", tmp_path / "g2.f32")
    assert (tmp_path / "g.f32").read_bytes() == (tmp_path / "g2.f32").read_bytes()


def test_export_grid_is_x_fastest(tmp_path):
    cost = np.arange(8, dtype=float).reshape(2, 2, 2)  # [x, y, z]
    cmap = CostMap([0, 0, 0], 0.1, cost, 0.05)
    cmap.export(tmp_path / "h.json", tmp_path / "g.f32")
    flat = np.frombuffer((tmp_path / "g.f32").read_bytes(), dtype="<f4")
    # x varies fastest: element 1 must be cost[1, 0, 0]
    assert flat[0] == cost[0, 0, 0]
    assert flat[1] == cost[1, 0, 0]
    assert flat[2] == cost[0, 1, 0]


def test_bounds_reject_degenerate_box():
    with pytest.raises(ValueError, match="degenerate"):
        Bounds((0, 0, 0), (0.1, 0.0, 0.1))


@pytest.mark.parametrize("corners", [((np.nan, 0, 0), (1, 1, 1)), ((0, 0, 0), (1, np.nan, 1)),
                                     ((0, 0, -np.inf), (1, 1, 1)), ((0, 0, 0), (np.inf, 1, 1))])
def test_bounds_reject_a_non_finite_corner(corners):
    with pytest.raises(DegenerateBounds, match=r"corner must be finite, got \[.*\]") as info:
        Bounds(*corners)
    assert isinstance(info.value, ValueError)


def test_bounds_reject_corners_that_are_not_3_vectors():
    with pytest.raises(DegenerateBounds, match="corner must have 3 coordinates"):
        Bounds((0, 0), (1, 1))


def test_bounds_compare_and_hash_by_corners():
    box = Bounds((0, 0, 0), (1, 1, 1))
    same = Bounds(np.zeros(3), np.ones(3))
    assert box == same and hash(box) == hash(same)
    assert box != Bounds((0, 0, 0), (1, 1, 2))
    assert len({box, same, BOUNDS}) == 2


def brute_force_distance(occ, voxel):
    dims = occ.shape
    occupied = np.argwhere(occ)
    out = np.full(dims, np.inf)
    if len(occupied) == 0:
        return out
    idx = np.indices(dims).reshape(3, -1).T
    diffs = idx[:, None, :] - occupied[None, :, :]
    d = np.sqrt((diffs**2).sum(axis=2)).min(axis=1) * voxel
    return d.reshape(dims)


def test_distance_matches_brute_force_small_grids():
    rng = np.random.default_rng(3)
    for _ in range(20):
        dims = tuple(rng.integers(2, 9, size=3))
        occ = rng.random(dims) < 0.15
        dist = distance_grid(occ, 0.02)
        ref = brute_force_distance(occ, 0.02)
        if not occ.any():
            assert np.all(np.isinf(dist))
        else:
            assert np.allclose(dist, ref, atol=1e-9)


def grid_map(points, bounds, voxel_size=0.02, inflation_radius=0.05):
    """A map of a free explicit grid at ``bounds.lower``; ``points`` are not used."""
    return CostMap(bounds.lower, voxel_size, np.zeros((4, 4, 4)), inflation_radius)


# every way to make a map: from a cloud, its fixed layer, and from an explicit grid
BUILDERS = (build_cost_map, fixed_layer, grid_map)


def test_build_cost_map_validates_params():
    # the same check guards the fixed layer a map is built on and an explicit grid
    bad = [("voxel_size", 0.0), ("voxel_size", -0.02), ("voxel_size", float("nan")),
           ("voxel_size", float("inf")), ("inflation_radius", -0.1),
           ("inflation_radius", float("nan")), ("inflation_radius", float("inf"))]
    for build in BUILDERS:
        for name, value in bad:
            params = {"voxel_size": 0.02, "inflation_radius": 0.05, name: value}
            with pytest.raises(InvalidMapParameter, match=name) as raised:
                build([[0.1, 0.1, 0.1]], BOUNDS, **params)
            assert isinstance(raised.value, DecoError) and isinstance(raised.value, ValueError)


def test_an_explicit_grid_map_cannot_answer_a_point_outside_it_as_free():
    cmap = CostMap([0, 0, 0], 0.1, np.zeros((2, 2, 2)), 0.05)
    assert cmap.collision_threshold == COLLISION_THRESHOLD
    assert cmap.is_free([0.05, 0.05, 0.05])
    assert not cmap.is_free([5, 5, 5])
    assert not cmap.is_free(np.array([[5.0, 5.0, 5.0]]))[0]
    assert not cmap.segment_free([0.05, 0.05, 0.05], [5, 5, 5])


def test_an_explicit_grid_must_be_3d():
    with pytest.raises(InvalidMapParameter, match=r"\(2, 2\)"):
        CostMap([0, 0, 0], 0.1, np.zeros((2, 2)), 0.05)


@pytest.mark.parametrize("origin, named", [([0, 0], r"shape \(2,\)"),
                                           ([0, 0, 0, 0], r"shape \(4,\)"),
                                           ([[0, 0, 0]], r"shape \(1, 3\)"),
                                           ([float("nan"), 0, 0], "finite.*nan"),
                                           ([0, float("inf"), 0], "finite.*inf")],
                         ids=["short", "long", "nested", "nan", "inf"])
def test_an_explicit_grid_origin_must_be_three_finite_coordinates(origin, named):
    # accepted, a short origin would fail only at the first lookup and a NaN one block every point
    with pytest.raises(InvalidMapParameter, match=f"origin.*{named}"):
        CostMap(origin, 0.1, np.zeros((2, 2, 2)), 0.05)


@pytest.fixture()
def feature_transforms(monkeypatch):
    """The number of ``distance_transform_edt`` calls made so far."""
    calls = []
    real = ndimage.distance_transform_edt

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(ndimage, "distance_transform_edt", counting)
    return lambda: len(calls)


NEAR = np.array([[0.09, 0.1, 0.1], [0.12, 0.1, 0.1], [0.03, 0.13, 0.07], [-1.0, 0.1, 0.1]])
FAR = np.array([[0.05, 0.05, 0.05], [0.19, 0.01, 0.19]])


@pytest.mark.parametrize("read, transforms", [
    (lambda cmap, tmp: cmap.cost_at([0.05, 0.05, 0.05]), 1),
    (lambda cmap, tmp: cmap.cost_at(NEAR), 0),
    (lambda cmap, tmp: cmap.cost, 1),
    (lambda cmap, tmp: cmap.export(tmp / "h.json", tmp / "g.f32"), 1)],
    ids=["cost_at", "cost_at_near_obstacles", "cost", "export"])
def test_feature_transform_runs_once_on_the_first_cost_read(feature_transforms, tmp_path, read,
                                                            transforms):
    """``cost_at`` near an obstacle answers from the occupancy window without the
    transform; a point with no occupied voxel within the exact offsets, ``cost``
    and ``export`` run it once, and every later read reuses the grid."""
    cmap = build_cost_map([[0.1, 0.1, 0.1], [0.03, 0.15, 0.07]], BOUNDS, 0.02)
    assert cmap.is_free([0.01, 0.01, 0.01]) and not cmap.is_free([0.1, 0.1, 0.1])
    assert not cmap.segment_free([0.01, 0.1, 0.1], [0.19, 0.1, 0.1])
    assert cmap.segment_free([0.01, 0.01, 0.01], [0.19, 0.01, 0.01])
    assert feature_transforms() == 0
    read(cmap, tmp_path)
    assert feature_transforms() == transforms
    near = cmap.cost_at(NEAR)
    assert [cmap.cost_at(p) for p in NEAR] == near.tolist()
    assert feature_transforms() == transforms
    cmap.cost_at(FAR)
    cmap.export(tmp_path / "h2.json", tmp_path / "g2.f32")
    assert cmap.cost[5, 5, 5] == 1.0
    assert feature_transforms() == 1
    assert cmap.cost_at(NEAR).tobytes() == near.tobytes()


def test_offset_cost_table_is_one_read_only_array():
    table = _offset_cost_table((4, 5, 6), 0.02, 0.05)
    assert table.shape == (120,) and not table.flags.writeable
    assert table[0] == 1.0


def test_exact_window_limit_at_the_executor_parameters():
    """Equally near offsets share one table cost up to n = 8 at 0.02 m voxels
    and 0.05 m inflation; (3, 0, 0) and (2, 2, 1), at n = 9, differ."""
    dims = occupancy_from_points(np.zeros((0, 3)), WORKSPACE, 0.02).shape
    assert _exact_window(dims, 0.02, 0.05)[0] == 8
    table = _offset_cost_table(dims, 0.02, 0.05).reshape(dims)
    assert table[3, 0, 0] != table[2, 2, 1]


def test_window_defers_to_the_grid_where_equally_near_offsets_differ(feature_transforms):
    """At 0.033 m voxels the offsets of squared length 6 differ in their last
    bits, so the exact-window limit is 5: a point whose two nearest occupied
    voxels are both at n = 6 is answered from the full grid, whichever of them
    the feature transform picks."""
    voxel, inflation = 0.033, 0.05
    bounds = Bounds((0.0, 0.0, 0.0), (10 * voxel,) * 3)
    assert _exact_window((10, 10, 10), voxel, inflation)[0] == 5
    table = _offset_cost_table((10, 10, 10), voxel, inflation).reshape(10, 10, 10)
    assert table[1, 1, 2] != table[2, 1, 1]
    centre = np.array([5.5, 5.5, 5.5]) * voxel
    for near in ([1, 1, 2], [1, -1, -2], [-2, 1, 1]):
        for other in ([2, 1, 1], [-1, 2, 1]):
            points = centre + np.array([near, other]) * voxel
            before = feature_transforms()
            cost = build_cost_map(points, bounds, voxel, inflation).cost_at(centre)
            assert feature_transforms() == before + 1
            forced = build_cost_map(points, bounds, voxel, inflation)
            assert cost.hex() == forced.cost[5, 5, 5].hex()


FIXED = np.array([[0.05, 0.05, 0.05], [0.05, 0.15, 0.05]])


def test_fixed_layer_gives_the_map_of_the_whole_cloud():
    cloud = np.vstack([FIXED, [[0.15, 0.1, 0.1], [0.15, 0.1, 0.1], [9.0, 0.1, 0.1]]])
    cmap = build_cost_map(cloud, BOUNDS, 0.02, fixed=fixed_layer(FIXED, BOUNDS, 0.02))
    whole = build_cost_map(cloud, BOUNDS, 0.02)
    assert cmap.blocked.tobytes() == whole.blocked.tobytes()
    assert cmap.cost.tobytes() == whole.cost.tobytes()


@pytest.mark.parametrize("cloud", [FIXED[::-1], FIXED[:1], FIXED + 1e-9,
                                   np.vstack([[[0.1, 0.1, 0.1]], FIXED])],
                         ids=["reordered", "short", "moved", "after-a-point"])
def test_cloud_must_start_with_the_fixed_points(cloud):
    with pytest.raises(DecoError, match="does not start with the 2 points"):
        build_cost_map(cloud, BOUNDS, 0.02, fixed=fixed_layer(FIXED, BOUNDS, 0.02))


@pytest.mark.parametrize("other", [
    {"bounds": Bounds((0.0, 0.0, 0.0), (0.2, 0.2, 0.22))}, {"voxel_size": 0.025},
    {"inflation_radius": 0.04}])
def test_fixed_layer_must_have_the_map_parameters(other):
    params = {"bounds": BOUNDS, "voxel_size": 0.02, "inflation_radius": 0.05}
    fixed = fixed_layer(FIXED, **{**params, **other})
    with pytest.raises(DecoError, match="fixed layer built with map parameters"):
        build_cost_map(FIXED, fixed=fixed, **params)


def test_fixed_layer_is_read_only_and_keeps_no_caller_array():
    points = FIXED.copy()
    fixed = fixed_layer(points, BOUNDS, 0.02)
    points[0] = 0.1
    assert fixed.points.tobytes() == FIXED.tobytes()
    for grid in (fixed.points, fixed.occupancy, fixed.blocked):
        with pytest.raises(ValueError):
            grid[0] = 1


@pytest.mark.parametrize("make", [
    lambda: build_cost_map([[0.1, 0.1, 0.1]], BOUNDS, 0.02),
    lambda: build_cost_map(np.vstack([FIXED, [[0.1, 0.1, 0.1]]]), BOUNDS, 0.02,
                           fixed=fixed_layer(FIXED, BOUNDS, 0.02)),
    lambda: CostMap([0, 0, 0], 0.1, np.zeros((2, 2, 2)), 0.05)],
    ids=["built", "built-on-a-fixed-layer", "grid"])
def test_cost_and_blocked_grids_are_read_only(make):
    cmap = make()
    for grid in (cmap.blocked, cmap.cost):
        with pytest.raises(ValueError):
            grid[1, 1, 1] = 1
