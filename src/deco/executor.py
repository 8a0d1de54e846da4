"""Closed-loop episode execution with skill chaining and goal monitoring.

Each skill is dry-run first to predict its start and goal poses, transitions
between skills are planned on a cost map rebuilt from the live scene, and a
monitor declares the skill complete once the gripper reaches the predicted
goal within tolerance (or times out on its action budget).  A transition that
cannot be planned fails the skill it leads into, and the episode stops.
"""

from __future__ import annotations

import csv
import zlib
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .chaining import chain_skills
from .costmap import build_cost_map
from .decompose import DecompositionConfig, build_atomic_dataset
from .errors import (DecoError, NoFreeChain, PlanningFailure, PreconditionUnmet,
                     UnknownInstruction)
from .geometry import Pose, is_goal_reached
from .planning import ItemLocation, Plan, SceneSummary, plan_mock
from .registry import TaskRegistry, TaskSpec, load_registry
from .sim.oracle import OraclePolicy, record_demo
from .sim.scene import (CUPBOARD_INTERIOR, DUSTPAN_VOLUME, WORKSPACE, Action,
                        GripperCommand, Scene, point_cloud, step)
from .sim.tasks import reset, success
from .trajectory import InstructionLibrary

# demos the instruction library is distilled from; together they cover all
# ten atomic skills
SOURCE_DEMO_TASKS = ("put_in_wo_close", "take_out_and_close", "exchange_boxes",
                     "sweep_and_drop", "box_out_of_opened_drawer", "broom_out_cupboard")

# a skill is complete once the gripper is this close to its goal (metres,
# radians), and times out after this many actions
TOL_POS = 0.01
TOL_ANG = 0.1
MAX_ACTIONS_PER_SKILL = 25


class MonitorVerdict(str, Enum):
    CONTINUE = "continue"
    COMPLETE = "complete"
    TIMEOUT = "timeout"


@dataclass
class ExecutorConfig:
    chaining_m: int = 6          # 0 disables transition planning entirely
    noise_sigma: float = 0.0


@dataclass
class SkillOutcome:
    instruction: str
    completed: bool
    actions_used: int
    reason: str = ""


@dataclass
class EpisodeResult:
    task_id: str
    seed: int
    success: bool
    skills: list[SkillOutcome] = field(default_factory=list)
    collisions: int = 0
    drawer_slams: int = 0
    # the NoFreeChain or PlanningFailure message of the transition that failed;
    # a failed transition fails the skill it leads into and ends the episode
    chaining_failure_reasons: list[str] = field(default_factory=list)
    transition_waypoints: int = 0

    @property
    def chaining_failures(self) -> int:
        return len(self.chaining_failure_reasons)


def monitor(scene: Scene, goal: Pose, actions_used: int) -> MonitorVerdict:
    if is_goal_reached(scene.gripper_pose(), goal, TOL_POS, TOL_ANG):
        return MonitorVerdict.COMPLETE
    if actions_used >= MAX_ACTIONS_PER_SKILL:
        return MonitorVerdict.TIMEOUT
    return MonitorVerdict.CONTINUE


def scene_summary(scene: Scene) -> SceneSummary:
    locations = {}
    drawer = scene.drawer_interior() if scene.drawer_present else None
    cupboard = CUPBOARD_INTERIOR if scene.cupboard_present else None
    dustpan = DUSTPAN_VOLUME if scene.dustpan_present else None
    for name, obj in sorted(scene.objects.items()):
        if drawer is not None and drawer.contains(obj.position):
            locations[name] = ItemLocation.IN_DRAWER
        elif cupboard is not None and cupboard.contains(obj.position):
            locations[name] = ItemLocation.IN_CUPBOARD
        elif dustpan is not None and dustpan.contains(obj.position):
            locations[name] = ItemLocation.IN_DUSTPAN
        elif obj.position[2] > 0.13:
            locations[name] = ItemLocation.ON_DRAWER_TOP
        else:
            locations[name] = ItemLocation.ON_TABLE
    return SceneSummary(
        inventory=tuple(sorted(scene.objects)),
        drawer_open_fraction=scene.open_fraction if scene.drawer_present else None,
        cupboard_present=scene.cupboard_present,
        dustpan_present=scene.dustpan_present,
        locations=locations)


def build_library(registry: TaskRegistry | None = None,
                  mode: str = "full") -> tuple[list, list, InstructionLibrary]:
    """Record the source demos at seed 0, decompose them, aggregate the skill library."""
    registry = registry or load_registry()
    demos = [record_demo(registry.get(tid), 0) for tid in SOURCE_DEMO_TASKS]
    annotations = {}
    for demo, tid in zip(demos, SOURCE_DEMO_TASKS):
        labels = list(registry.get(tid).plan)
        if mode == "half":
            # each full interaction splits into two labeled halves
            labels = [label for label in labels for _ in range(2)]
        annotations[demo.id] = labels
    cfg = DecompositionConfig(mode=mode, annotations=annotations)
    tasks, library = build_atomic_dataset(demos, cfg)
    return demos, tasks, library


def _execute_transition(scene: Scene, start_pose: Pose, config: ExecutorConfig,
                        seed: int, result: EpisodeResult) -> Scene:
    """Drive the gripper to ``start_pose``; raises NoFreeChain or PlanningFailure."""
    cmap = build_cost_map(point_cloud(scene), WORKSPACE)
    chain = chain_skills(scene.gripper_pose(), start_pose, cmap, config.chaining_m, seed)
    for waypoint in chain.path[1:]:
        scene = step(scene, Action(Pose(waypoint), GripperCommand.HOLD))
        result.transition_waypoints += 1
    return scene


def run_episode(task: TaskSpec, scene: Scene, plan: Plan, policy, config: ExecutorConfig,
                seed: int) -> EpisodeResult:
    """Run the plan from ``scene``, the task's initial scene for ``seed``."""
    result = EpisodeResult(task_id=task.id, seed=seed, success=False)
    rng = np.random.default_rng([seed, zlib.crc32(task.id.encode())])
    completed_all = True
    for i, instruction in enumerate(plan.steps):
        try:
            dry = policy.dry_run(instruction, scene)
        except (PreconditionUnmet, UnknownInstruction) as exc:
            result.skills.append(SkillOutcome(instruction, False, 0, str(exc)))
            completed_all = False
            break
        goal = dry[-1].target
        if i > 0 and config.chaining_m > 0:
            try:
                scene = _execute_transition(scene, dry[0].target, config,
                                            seed * 131 + i, result)
            except (NoFreeChain, PlanningFailure) as exc:
                # without a transition the skill would start from the wrong pose
                result.chaining_failure_reasons.append(str(exc))
                result.skills.append(SkillOutcome(instruction, False, 0, f"chaining: {exc}"))
                completed_all = False
                break
        actions = policy(instruction, scene, seed * 101 + i)
        used = 0
        for action in actions:
            scene = step(scene, action)
            used += 1
        verdict = monitor(scene, goal, used)
        while verdict is MonitorVerdict.CONTINUE:
            offset = rng.normal(0.0, config.noise_sigma, 3) if config.noise_sigma > 0 else 0.0
            position = np.clip(goal.position + offset,
                               WORKSPACE.lower + 1e-6, WORKSPACE.upper - 1e-6)
            retry = Action(Pose(position, goal.orientation),
                           actions[-1].gripper_command)
            scene = step(scene, retry)
            used += 1
            verdict = monitor(scene, goal, used)
        outcome = SkillOutcome(instruction, verdict is MonitorVerdict.COMPLETE,
                               used, "" if verdict is MonitorVerdict.COMPLETE else "timeout")
        result.skills.append(outcome)
        if not outcome.completed:
            completed_all = False
            break
    result.collisions = scene.collision_count
    result.drawer_slams = scene.drawer_slams
    result.success = (completed_all and len(result.skills) == len(plan.steps)
                      and success(task, scene))
    return result


def run_task_episode(task: TaskSpec, seed: int, config: ExecutorConfig,
                     library: InstructionLibrary,
                     registry: TaskRegistry | None = None) -> EpisodeResult:
    """Plan from the initial scene summary, then run one closed-loop episode."""
    registry = registry or load_registry()
    initial = reset(task, seed)
    policy = OraclePolicy(noise_sigma=config.noise_sigma)
    try:
        plan = plan_mock(task.instruction, scene_summary(initial), library, registry)
    except DecoError as exc:
        result = EpisodeResult(task_id=task.id, seed=seed, success=False)
        result.skills.append(SkillOutcome("<planning>", False, 0, str(exc)))
        return result
    return run_episode(task, initial, plan, policy, config, seed)


@dataclass
class SuiteRow:
    task_id: str
    seed: int
    episodes: int
    successes: int
    rate: float
    rate_std: float
    collisions: int


def run_suite(tasks: list[TaskSpec], seeds: list[int], config: ExecutorConfig,
              library: InstructionLibrary, registry: TaskRegistry | None = None,
              episodes: int = 1) -> list[SuiteRow]:
    registry = registry or load_registry()
    by_cell: dict[tuple[str, int], list[EpisodeResult]] = {}
    for task in tasks:
        for seed in seeds:
            for e in range(episodes):
                by_cell.setdefault((task.id, seed), []).append(
                    run_task_episode(task, seed + 7919 * e, config, library, registry))

    rates: dict[str, list[float]] = {}
    for (task_id, _seed), cell in by_cell.items():
        rates.setdefault(task_id, []).append(
            sum(r.success for r in cell) / len(cell))
    stds = {tid: float(np.std(vals)) for tid, vals in rates.items()}

    rows = []
    for task in tasks:
        for seed in seeds:
            cell = by_cell[(task.id, seed)]
            successes = sum(r.success for r in cell)
            rows.append(SuiteRow(task_id=task.id, seed=seed, episodes=len(cell),
                                 successes=successes,
                                 rate=successes / len(cell),
                                 rate_std=stds[task.id],
                                 collisions=sum(r.collisions for r in cell)))
    return rows


def write_suite_csv(rows: list[SuiteRow], path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task_id", "seed", "episodes", "successes",
                         "rate", "rate_std", "collisions"])
        for row in rows:
            writer.writerow([row.task_id, row.seed, row.episodes, row.successes,
                             f"{row.rate:.6f}", f"{row.rate_std:.6f}", row.collisions])
