import warnings

import numpy as np
import pytest

from deco.costmap import (Bounds, CostMap, build_cost_map, cost_from_distance,
                          distance_grid, occupancy_from_points)
from deco.errors import DecoError, DegenerateBounds

BOUNDS = Bounds((0.0, 0.0, 0.0), (0.2, 0.2, 0.2))


def test_occupancy_marks_point_voxels():
    occ, origin, dims = occupancy_from_points([[0.05, 0.05, 0.05]], BOUNDS, 0.02)
    assert dims == (10, 10, 10)
    assert occ[2, 2, 2]
    assert occ.sum() == 1


def test_occupancy_ignores_out_of_bounds_points():
    occ, _, _ = occupancy_from_points([[5.0, 5.0, 5.0]], BOUNDS, 0.02)
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
    cmap = build_cost_map([[0.1, 0.1, 0.1]], BOUNDS, 0.02, inflation_radius=0.05,
                          collision_threshold=0.5)
    assert not cmap.is_free([0.1, 0.1, 0.1])
    assert cmap.is_free([0.01, 0.01, 0.01])


def test_segment_free_detects_blocking_voxel():
    cmap = build_cost_map([[0.1, 0.1, 0.1]], BOUNDS, 0.02)
    assert not cmap.segment_free([0.01, 0.1, 0.1], [0.19, 0.1, 0.1])
    assert cmap.segment_free([0.01, 0.01, 0.01], [0.19, 0.01, 0.01])


def test_export_load_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 0.2, size=(40, 3))
    cmap = build_cost_map(pts, BOUNDS, 0.02)
    cmap.export(tmp_path / "h.json", tmp_path / "g.f32")
    loaded = CostMap.load(tmp_path / "h.json", tmp_path / "g.f32")
    assert loaded.dims == cmap.dims
    assert np.allclose(loaded.cost, cmap.cost, atol=1e-6)
    assert np.allclose(loaded.origin, cmap.origin)
    # re-export is byte-identical
    cmap.export(tmp_path / "h2.json", tmp_path / "g2.f32")
    assert (tmp_path / "g.f32").read_bytes() == (tmp_path / "g2.f32").read_bytes()


def test_export_grid_is_x_fastest(tmp_path):
    cost = np.arange(8, dtype=float).reshape(2, 2, 2)  # [x, y, z]
    cmap = CostMap([0, 0, 0], 0.1, cost, 0.5, 0.05)
    cmap.export(tmp_path / "h.json", tmp_path / "g.f32")
    flat = np.frombuffer((tmp_path / "g.f32").read_bytes(), dtype="<f4")
    # x varies fastest: element 1 must be cost[1, 0, 0]
    assert flat[0] == cost[0, 0, 0]
    assert flat[1] == cost[1, 0, 0]
    assert flat[2] == cost[0, 1, 0]


@pytest.mark.parametrize("size", [92, 104])  # 4 bytes short, 8 bytes long
def test_load_rejects_grid_of_wrong_size(tmp_path, size):
    header, grid = tmp_path / "h.json", tmp_path / "g.f32"
    CostMap([0, 0, 0], 0.1, np.zeros((2, 3, 4)), 0.5, 0.05).export(header, grid)  # 96 bytes
    grid.write_bytes(bytes(size))
    with pytest.raises(DecoError, match=f"has {size} bytes.*need 96"):
        CostMap.load(header, grid)


def test_bounds_reject_degenerate_box():
    with pytest.raises(ValueError, match="degenerate"):
        Bounds((0, 0, 0), (0.1, 0.0, 0.1))


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


def test_build_cost_map_validates_params():
    with pytest.raises(ValueError):
        build_cost_map([], BOUNDS, 0.0)
    with pytest.raises(ValueError):
        build_cost_map([], BOUNDS, 0.02, inflation_radius=-0.1)
