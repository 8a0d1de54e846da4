"""Which deco calls are traced, under which layer name, and the per-layer
metrics of one traced pass.

Every span is named after the module that defines the function, so
``sim.scene.step`` is ``deco.sim.scene.step`` wherever it is called from.
``.ms`` metrics are inclusive wall time summed over one pass of the
workload's episodes; ``executor.episode.self_ms`` is the part of the episode
time that no traced call covers.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

import deco.chaining
import deco.costmap
import deco.decompose
import deco.executor
import deco.planning
import deco.registry
import deco.sim.oracle
import deco.sim.scene
import deco.sim.tasks
from deco.costmap import CostMap

from checks import (DENSE_SAMPLES_PER_VOXEL, blocked_segments, cost_map_errors,
                    path_errors, self_times)
from tracer import Tracer

BUILD_LIBRARY = "executor.build_library"

# name -> unit, in the order the benchmark prints them
PER_LAYER = {
    "chaining.rrt_path.searched.calls": "count",
    "chaining.rrt_path.searched.ms": "ms",
    "chaining.rrt_path.searched.ms_p50": "ms",
    "chaining.rrt_path.searched.ms_p99": "ms",
    "chaining.rrt_path.direct.calls": "count",
    "chaining.rrt_path.direct.ms": "ms",
    "chaining.chaining_poses.ms": "ms",
    "chaining.chain_skills.ms": "ms",
    "chaining.chain_skills.failed": "count",
    "chaining.path.waypoints": "count",
    "chaining.path.clipped_segments": "count",
    "costmap.build_cost_map.calls": "count",
    "costmap.build_cost_map.ms": "ms",
    "costmap.occupancy_from_points.ms": "ms",
    "costmap.distance_grid.ms": "ms",
    "costmap.cost_from_distance.ms": "ms",
    "costmap.voxels": "count",
    "costmap.segment_free.calls": "count",
    "costmap.cost_at.calls": "count",
    "sim.scene.step.calls": "count",
    "sim.scene.step.ms": "ms",
    "sim.scene.point_cloud.calls": "count",
    "sim.scene.point_cloud.ms": "ms",
    "sim.scene.point_cloud.points": "count",
    "sim.oracle.policy.calls": "count",
    "sim.oracle.policy.ms": "ms",
    "sim.tasks.reset.calls": "count",
    "sim.tasks.reset.ms": "ms",
    "sim.tasks.success.ms": "ms",
    "planning.plan_mock.ms": "ms",
    "executor.monitor.calls": "count",
    "executor.scene_summary.ms": "ms",
    "executor.episode.self_ms": "ms",
    "registry.load_registry.calls": "count",
    "executor.build_library.ms": "ms",
    "sim.oracle.record_demo.ms": "ms",
    "decompose.build_atomic_dataset.ms": "ms",
    "trace.overhead_pct": "%",
}


class EpisodeChecks:
    """Checks on the cost maps and transition paths of the traced calls.

    A transition path is checked when the next skill's first action is
    known, which is the first policy call after ``chain_skills`` returns.
    """

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.errors: list[str] = []
        self._gripper = None
        self._pending = None

    def take_errors(self) -> list[str]:
        if self._pending is not None:
            self.errors.append("transition path not followed by a skill")
            self._pending = None
        errors, self.errors = self.errors, []
        return errors

    def point_cloud(self, args, cloud, attrs):
        attrs["points"] = len(cloud)
        self._gripper = np.array(args["scene"].gripper_position, dtype=float)

    def build_cost_map(self, args, cmap, attrs):
        attrs["voxels"] = int(cmap.cost.size)
        bounds = args["bounds"]
        self.errors += cost_map_errors(args["points"], bounds.lower, bounds.upper,
                                       args["voxel_size"], args["inflation_radius"],
                                       cmap.cost, cmap.origin, self.rng)

    def chain_skills(self, args, chain, attrs):
        attrs["waypoints"] = len(chain.path) - 1
        cmap = args["cmap"]
        attrs["clipped_segments"] = len(blocked_segments(
            chain.path, cmap.cost, cmap.origin, cmap.voxel_size, cmap.collision_threshold,
            DENSE_SAMPLES_PER_VOXEL))
        self._pending = (chain.path, self._gripper, cmap)

    def rrt_path(self, args, path, attrs):
        attrs["searched"] = len(path) > 2

    def policy(self, args, actions, attrs):
        if self._pending is None:
            return
        path, gripper, cmap = self._pending
        self._pending = None
        self.errors += path_errors(path, gripper, actions[0].target.position, cmap.cost,
                                   cmap.origin, cmap.voxel_size, cmap.collision_threshold)


def install(tracer: Tracer, checks: EpisodeChecks):
    ex, cm, ch = deco.executor, deco.costmap, deco.chaining
    tracer.timed(deco.planning, "plan_mock", "planning.plan_mock")
    tracer.timed(ex, "scene_summary", "executor.scene_summary")
    tracer.timed(deco.sim.tasks, "reset", "sim.tasks.reset")
    tracer.timed(deco.sim.tasks, "success", "sim.tasks.success")
    tracer.timed(deco.sim.oracle, "oracle_policy", "sim.oracle.policy", checks.policy)
    tracer.timed(deco.sim.oracle, "record_demo", "sim.oracle.record_demo")
    tracer.timed(deco.sim.scene, "step", "sim.scene.step")
    tracer.timed(deco.sim.scene, "point_cloud", "sim.scene.point_cloud", checks.point_cloud)
    tracer.timed(cm, "build_cost_map", "costmap.build_cost_map", checks.build_cost_map)
    tracer.timed(cm, "occupancy_from_points", "costmap.occupancy_from_points")
    tracer.timed(cm, "distance_grid", "costmap.distance_grid")
    tracer.timed(cm, "cost_from_distance", "costmap.cost_from_distance")
    tracer.timed(ch, "chain_skills", "chaining.chain_skills", checks.chain_skills)
    tracer.timed(ch, "chaining_poses", "chaining.chaining_poses")
    tracer.timed(ch, "rrt_path", "chaining.rrt_path", checks.rrt_path)
    tracer.timed(ex, "build_library", BUILD_LIBRARY)
    tracer.timed(deco.decompose, "build_atomic_dataset", "decompose.build_atomic_dataset")
    tracer.counted(CostMap, "segment_free", "costmap.segment_free")
    tracer.counted(CostMap, "cost_at", "costmap.cost_at")
    tracer.counted(ex, "monitor", "executor.monitor")
    tracer.counted(deco.registry, "load_registry", "registry.load_registry")


def _ms(spans) -> float:
    return 1000.0 * sum(s[4] - s[3] for s in spans)


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def pass_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced pass over the workload's episodes."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)
    legs = by_name["chaining.rrt_path"]
    searched = [s for s in legs if s[5].get("searched") is True]
    direct = [s for s in legs if s[5].get("searched") is False]
    searched_ms = [1000.0 * (s[4] - s[3]) for s in searched]
    own = self_times(spans)
    chains = by_name["chaining.chain_skills"]
    return {
        "chaining.rrt_path.searched.calls": len(searched),
        "chaining.rrt_path.searched.ms": _ms(searched),
        "chaining.rrt_path.searched.ms_p50": _percentile(searched_ms, 50),
        "chaining.rrt_path.searched.ms_p99": _percentile(searched_ms, 99),
        "chaining.rrt_path.direct.calls": len(direct),
        "chaining.rrt_path.direct.ms": _ms(direct),
        "chaining.chaining_poses.ms": _ms(by_name["chaining.chaining_poses"]),
        "chaining.chain_skills.ms": _ms(chains),
        "chaining.chain_skills.failed": sum("error" in s[5] for s in chains),
        "chaining.path.waypoints": sum(s[5].get("waypoints", 0) for s in chains),
        "chaining.path.clipped_segments":
            sum(s[5].get("clipped_segments", 0) for s in chains),
        "costmap.build_cost_map.calls": len(by_name["costmap.build_cost_map"]),
        "costmap.build_cost_map.ms": _ms(by_name["costmap.build_cost_map"]),
        "costmap.occupancy_from_points.ms": _ms(by_name["costmap.occupancy_from_points"]),
        "costmap.distance_grid.ms": _ms(by_name["costmap.distance_grid"]),
        "costmap.cost_from_distance.ms": _ms(by_name["costmap.cost_from_distance"]),
        "costmap.voxels": sum(s[5].get("voxels", 0) for s in by_name["costmap.build_cost_map"]),
        "costmap.segment_free.calls": counts["costmap.segment_free"],
        "costmap.cost_at.calls": counts["costmap.cost_at"],
        "sim.scene.step.calls": len(by_name["sim.scene.step"]),
        "sim.scene.step.ms": _ms(by_name["sim.scene.step"]),
        "sim.scene.point_cloud.calls": len(by_name["sim.scene.point_cloud"]),
        "sim.scene.point_cloud.ms": _ms(by_name["sim.scene.point_cloud"]),
        "sim.scene.point_cloud.points":
            sum(s[5].get("points", 0) for s in by_name["sim.scene.point_cloud"]),
        "sim.oracle.policy.calls": len(by_name["sim.oracle.policy"]),
        "sim.oracle.policy.ms": _ms(by_name["sim.oracle.policy"]),
        "sim.tasks.reset.calls": len(by_name["sim.tasks.reset"]),
        "sim.tasks.reset.ms": _ms(by_name["sim.tasks.reset"]),
        "sim.tasks.success.ms": _ms(by_name["sim.tasks.success"]),
        "planning.plan_mock.ms": _ms(by_name["planning.plan_mock"]),
        "executor.monitor.calls": counts["executor.monitor"],
        "executor.scene_summary.ms": _ms(by_name["executor.scene_summary"]),
        # the episodes are the only spans without a parent
        "executor.episode.self_ms": 1000.0 * sum(own[s[0]] for s in spans if s[1] is None),
    }


def setup_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced set-up."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)
    return {"registry.load_registry.calls": counts["registry.load_registry"],
            "executor.build_library.ms": _ms(by_name[BUILD_LIBRARY]),
            "sim.oracle.record_demo.ms": _ms(by_name["sim.oracle.record_demo"]),
            "decompose.build_atomic_dataset.ms": _ms(by_name["decompose.build_atomic_dataset"])}
