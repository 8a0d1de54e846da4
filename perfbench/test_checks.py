"""Self-tests of the benchmark's output checks: each accepts a correct case and
rejects a corrupted one.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from checks import (blocked_segments, cost_map_errors, fingerprint, fingerprint_digest,
                    outcome_errors, pass_mismatches, path_errors, plan_errors,
                    self_times, span_errors)

ROOT = Path(__file__).resolve().parent.parent
VOXEL = 0.02


def test_plan_check_rejects_a_changed_plan():
    plan = ["open drawer", "put item in drawer", "close drawer"]
    assert plan_errors(list(plan), plan) == []
    assert plan_errors(["open drawer", "put item in drawer"], plan)
    assert plan_errors(["open drawer", "close drawer", "put item in drawer"], plan)


def _result(**overrides):
    fields = dict(task_id="put_in_and_close", seed=7, success=True, collisions=0,
                  drawer_slams=0, chaining_failures=0, transition_waypoints=3,
                  skills=[SimpleNamespace(actions_used=6), SimpleNamespace(actions_used=7)])
    fields.update(overrides)
    return SimpleNamespace(**fields)


def test_outcome_check_rejects_failures_collisions_and_stray_waypoints():
    clean = fingerprint(_result())
    assert clean[-1] == 6 + 7 + 3
    assert outcome_errors(clean, chaining=True) == []
    assert outcome_errors(fingerprint(_result(success=False)), chaining=True)
    assert outcome_errors(fingerprint(_result(collisions=1)), chaining=True)
    assert outcome_errors(fingerprint(_result(drawer_slams=1)), chaining=True)
    assert outcome_errors(fingerprint(_result(chaining_failures=1)), chaining=True)
    assert outcome_errors(fingerprint(_result(transition_waypoints=0)), chaining=False) == []
    assert outcome_errors(clean, chaining=False)


def test_determinism_check_rejects_a_changed_outcome():
    a = [fingerprint(_result()), fingerprint(_result(seed=8))]
    b = [fingerprint(_result()), fingerprint(_result(seed=8, transition_waypoints=4))]
    assert pass_mismatches([a, list(a)]) == []
    assert pass_mismatches([a, b])
    assert fingerprint_digest(a) == fingerprint_digest(a[::-1])
    assert fingerprint_digest(a) != fingerprint_digest(b)


def _wall_grid():
    """10^3 grid with a blocked wall at x index 5, open for z index >= 8."""
    cost = np.zeros((10, 10, 10))
    cost[5, :, :8] = 1.0
    return cost


def test_path_check_rejects_collisions_and_wrong_endpoints():
    cost, origin = _wall_grid(), np.zeros(3)
    start, end = np.array([0.03, 0.1, 0.05]), np.array([0.17, 0.1, 0.05])
    around = [start, [0.03, 0.1, 0.17], [0.17, 0.1, 0.17], end]
    assert path_errors(around, start, end, cost, origin, VOXEL, 0.5) == []
    assert path_errors([start, end], start, end, cost, origin, VOXEL, 0.5)
    assert path_errors(around, start + 0.01, end, cost, origin, VOXEL, 0.5)
    assert path_errors(around, start, end - 0.01, cost, origin, VOXEL, 0.5)
    outside = [start, [0.03, 0.1, 0.25], [0.17, 0.1, 0.25], end]
    assert path_errors(outside, start, end, cost, origin, VOXEL, 0.5)


def test_dense_sampling_finds_a_clipped_corner():
    cost = np.zeros((10, 10, 10))
    cost[5, 5, :] = 1.0
    # passes the blocked column's corner between samples voxel_size / 2 apart
    a, b = np.array([0.093, 0.110, 0.05]), np.array([0.110, 0.093, 0.05])
    assert blocked_segments([a, b], cost, np.zeros(3), VOXEL, 0.5, 2) == []
    assert blocked_segments([a, b], cost, np.zeros(3), VOXEL, 0.5, 8)


def _brute_force_cost(points, dims, inflation):
    idx = np.floor(points / VOXEL).astype(int)
    occupied = np.unique(idx[np.all((idx >= 0) & (idx < dims), axis=1)], axis=0)
    grid = np.indices(dims).reshape(3, -1).T
    d = np.sqrt(((grid[:, None, :] - occupied[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
    sigma = inflation / 2.0
    return np.exp(-np.square(d * VOXEL) / (2 * sigma * sigma)).reshape(dims)


def test_cost_map_check_rejects_a_corrupted_map():
    rng = np.random.default_rng(3)
    dims, lower, upper = (12, 10, 8), np.zeros(3), np.array([0.24, 0.2, 0.16])
    points = rng.uniform(0.0, 1.0, (40, 3)) * upper
    cost = _brute_force_cost(points, dims, 0.05)

    def errors(grid, inflation=0.05, origin=lower):
        return cost_map_errors(points, lower, upper, VOXEL, inflation, grid, origin,
                               np.random.default_rng(0))

    assert errors(cost) == []
    assert errors(cost, inflation=0.06)
    assert errors(cost * (1 + 1e-6))
    assert errors(cost, origin=lower + VOXEL)
    assert errors(cost[:, :, :-1])


def test_span_check_rejects_broken_nesting():
    spans = [(1, 0, "step", 0.1, 0.3, {}), (2, 0, "step", 0.3, 0.5, {}),
             (0, None, "episode", 0.0, 1.0, {})]
    assert span_errors(spans) == []
    own = self_times(spans)
    assert abs(sum(own.values()) - 1.0) < 1e-12
    assert abs(own[0] - 0.6) < 1e-12
    assert span_errors(spans[:1] + [(2, 0, "step", 0.2, 0.5, {})] + spans[2:])
    assert span_errors(spans[:1] + [(2, 0, "step", 0.3, 1.5, {})] + spans[2:])
    assert span_errors(spans[:2] + [(3, 9, "step", 0.6, 0.7, {})])


def test_benchmark_json_lists_the_printed_metrics():
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
