"""Output checks that do not reuse the program's code paths.

Every check takes plain values and numpy arrays and returns a list of error
messages; an empty list means the output passed.  The checks recompute what
they verify from first principles (a KD-tree distance instead of the
program's distance transform, direct grid indexing instead of
``CostMap.segment_free``), so a fault in the program cannot hide itself.
``test_checks.py`` shows that each check rejects a corrupted case.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

# Transition paths must be free when sampled at voxel_size / 2, the
# resolution CostMap.segment_free promises and the acceptance suite verifies.
# Sampling four times denser finds segments that clip a blocked voxel between
# those samples; they are counted, not failed.
PATH_SAMPLES_PER_VOXEL = 2
DENSE_SAMPLES_PER_VOXEL = 8
ENDPOINT_TOL = 1e-9
COST_RTOL = 1e-9


def load_plans(tasks_json: Path) -> dict[str, list[str]]:
    """Task id -> canonical skill sequence, read straight from the asset file."""
    data = json.loads(Path(tasks_json).read_text())
    return {task["id"]: list(task["plan"]) for task in data["tasks"]}


def fingerprint(result) -> tuple:
    """Outcome of one episode; identical for identical behaviour."""
    skill_actions = sum(skill.actions_used for skill in result.skills)
    return (result.task_id, result.seed, bool(result.success), result.collisions,
            result.drawer_slams, result.chaining_failures,
            result.transition_waypoints, skill_actions + result.transition_waypoints)


def fingerprint_digest(fingerprints) -> str:
    """Order-independent digest of a set of episode fingerprints."""
    text = "\n".join(repr(fp) for fp in sorted(fingerprints))
    return hashlib.sha256(text.encode()).hexdigest()


def pass_mismatches(passes) -> list[str]:
    """Every pass over the same episodes must give the same fingerprints."""
    return [f"pass {n} episode outcomes differ from pass 0"
            for n, fps in enumerate(passes[1:], start=1) if fps != passes[0]]


def plan_errors(executed: list[str], expected: list[str]) -> list[str]:
    if executed != expected:
        return [f"executed skills {executed} differ from the task plan {expected}"]
    return []


def outcome_errors(fp: tuple, chaining: bool) -> list[str]:
    """Scripted (noise-free) episodes: chained runs succeed cleanly, unchained
    runs execute no transition waypoints."""
    _task, _seed, success, collisions, slams, chain_failures, waypoints, _ = fp
    errors = []
    if chaining:
        if not success:
            errors.append("episode did not succeed")
        if collisions or slams or chain_failures:
            errors.append(f"{collisions} collisions, {slams} drawer slams, "
                          f"{chain_failures} chaining failures")
    elif waypoints:
        errors.append(f"{waypoints} transition waypoints with chaining disabled")
    return errors


def blocked_segments(path, cost: np.ndarray, origin, voxel_size: float,
                     threshold: float, samples_per_voxel: int) -> list[str]:
    """Segments of the path with a sample outside the grid or in a voxel whose
    cost reaches the threshold; the grid is indexed directly with
    floor((p - origin) / voxel_size)."""
    path = np.asarray(path, dtype=float).reshape(-1, 3)
    origin = np.asarray(origin, dtype=float)
    spacing = voxel_size / samples_per_voxel
    blocked = []
    for a, b in zip(path, path[1:]):
        n = max(1, int(np.ceil(np.linalg.norm(b - a) / spacing)))
        samples = a + np.linspace(0.0, 1.0, n + 1)[:, None] * (b - a)
        idx = np.floor((samples - origin) / voxel_size).astype(int)
        if not np.all((idx >= 0) & (idx < cost.shape)):
            blocked.append(f"segment {a} -> {b} leaves the cost map")
            continue
        worst = float(cost[idx[:, 0], idx[:, 1], idx[:, 2]].max())
        if worst >= threshold:
            blocked.append(f"segment {a} -> {b} crosses cost {worst:.3f} "
                           f">= threshold {threshold}")
    return blocked


def path_errors(path, start, end, cost: np.ndarray, origin, voxel_size: float,
                threshold: float) -> list[str]:
    """The path joins start to end and is free at the planner's resolution."""
    path = np.asarray(path, dtype=float).reshape(-1, 3)
    if len(path) == 0:
        return ["empty path"]
    errors = []
    if np.max(np.abs(path[0] - start)) > ENDPOINT_TOL:
        errors.append(f"path starts at {path[0]}, gripper is at {start}")
    if np.max(np.abs(path[-1] - end)) > ENDPOINT_TOL:
        errors.append(f"path ends at {path[-1]}, next skill starts at {end}")
    return errors + blocked_segments(path, cost, origin, voxel_size, threshold,
                                     PATH_SAMPLES_PER_VOXEL)


def cost_map_errors(points, lower, upper, voxel_size: float, inflation_radius: float,
                    cost: np.ndarray, origin, rng: np.random.Generator,
                    samples: int = 256) -> list[str]:
    """Sampled voxels equal exp(-d^2 / 2 sigma^2), sigma = inflation_radius / 2,
    with d the distance to the nearest occupied voxel from a KD-tree."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    dims = tuple(int(np.ceil(e / voxel_size)) for e in upper - lower)
    if cost.shape != dims:
        return [f"cost grid has shape {cost.shape}, bounds give {dims}"]
    if np.max(np.abs(np.asarray(origin, dtype=float) - lower)) > 0:
        return [f"cost map origin {origin} differs from the bounds' lower corner {lower}"]
    idx = np.floor((np.asarray(points, dtype=float).reshape(-1, 3) - lower)
                   / voxel_size).astype(int)
    occupied = np.unique(idx[np.all((idx >= 0) & (idx < dims), axis=1)], axis=0)
    if len(occupied) == 0:
        return [] if not cost.any() else ["cost map of an empty cloud is not all zero"]
    # half the probes sit within four voxels of an obstacle, where the cost
    # is far from both 0 and 1
    near = occupied[rng.integers(0, len(occupied), samples // 2)]
    near = np.clip(near + rng.integers(-4, 5, near.shape), 0, np.asarray(dims) - 1)
    probes = np.vstack([rng.integers(0, dims, (samples - samples // 2, 3)), near])
    distance, _ = cKDTree(occupied).query(probes)
    sigma = inflation_radius / 2.0
    expected = np.exp(-np.square(distance * voxel_size) / (2.0 * sigma * sigma))
    got = cost[probes[:, 0], probes[:, 1], probes[:, 2]]
    bad = ~np.isclose(got, expected, rtol=COST_RTOL, atol=0.0)
    if bad.any():
        i = int(np.argmax(bad))
        return [f"{int(bad.sum())} of {len(probes)} sampled voxels disagree, e.g. "
                f"voxel {tuple(probes[i])}: cost {got[i]!r}, expected {expected[i]!r}"]
    return []


def span_errors(spans) -> list[str]:
    """Spans (id, parent, name, start, end, attrs) nest: each lies inside its
    parent and siblings do not overlap, so self times add up to each root."""
    by_id = {s[0]: s for s in spans}
    children: dict = {}
    errors = []
    for span in spans:
        if span[4] < span[3]:
            errors.append(f"span {span[2]} ends before it starts")
        parent = span[1]
        if parent is None:
            continue
        if parent not in by_id:
            errors.append(f"span {span[2]} has no recorded parent")
            continue
        p = by_id[parent]
        if span[3] < p[3] or span[4] > p[4]:
            errors.append(f"span {span[2]} lies outside its parent {p[2]}")
        children.setdefault(parent, []).append(span)
    for parent, kids in children.items():
        kids.sort(key=lambda s: s[3])
        for a, b in zip(kids, kids[1:]):
            if b[3] < a[4]:
                errors.append(f"spans {a[2]} and {b[2]} under {by_id[parent][2]} overlap")
    return errors


def self_times(spans) -> dict:
    """Span id -> its duration minus the time its direct children cover."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for span in spans:
        if span[1] is not None:
            own[span[1]] -= span[4] - span[3]
    return own
