"""Closed-loop episode execution with skill chaining and goal monitoring.

Each skill is dry-run first to predict its start and goal poses, transitions
between skills are planned on a cost map rebuilt from the live scene, and a
monitor declares the skill complete once the gripper reaches the predicted
goal within tolerance (or times out on its action budget).  A transition that
cannot be planned fails the skill it leads into, and the episode stops.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, field, fields
from enum import Enum
from functools import lru_cache

import numpy as np

from .chaining import chain_skills
from .config import repeated_seed_errors, rule_errors
from .costmap import CostMap, FixedLayer, build_cost_map, fixed_layer
from .decompose import DecompositionConfig, build_atomic_dataset
from .errors import (ConfigError, DecoError, NoFreeChain, PlanningFailure,
                     PreconditionUnmet, UnknownInstruction)
from .geometry import Pose, is_goal_reached
from .planning import ItemLocation, SceneSummary, plan_mock
from .registry import TaskRegistry, TaskSpec, load_registry
from .sim.oracle import noised_action, noised_script, oracle_policy, record_demo
from .sim.scene import (CUPBOARD_INTERIOR, DUSTPAN_VOLUME, WORKSPACE, Action,
                        GripperCommand, Scene, fixed_samples, point_cloud, step)
from .sim.tasks import named_rng, reset, success
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

    def __post_init__(self):
        errors = rule_errors({"chaining_m": self.chaining_m, "noise_sigma": self.noise_sigma})
        if errors:
            raise ConfigError("; ".join(errors))


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
    for name, position in sorted(scene.objects.items()):
        if drawer is not None and drawer.contains(position):
            locations[name] = ItemLocation.IN_DRAWER
        elif cupboard is not None and cupboard.contains(position):
            locations[name] = ItemLocation.IN_CUPBOARD
        elif dustpan is not None and dustpan.contains(position):
            locations[name] = ItemLocation.IN_DUSTPAN
        elif position[2] > 0.13:
            locations[name] = ItemLocation.ON_DRAWER_TOP
        else:
            locations[name] = ItemLocation.ON_TABLE
    return SceneSummary(
        inventory=tuple(sorted(scene.objects)),
        drawer_open_fraction=scene.open_fraction if scene.drawer_present else None,
        cupboard_present=scene.cupboard_present,
        dustpan_present=scene.dustpan_present,
        locations=locations)


def build_library(registry: TaskRegistry | None = None) -> tuple[list, list, InstructionLibrary]:
    """Record the source demos at seed 0, decompose them, aggregate the skill library."""
    registry = registry or load_registry()
    demos = [record_demo(registry.get(tid), 0) for tid in SOURCE_DEMO_TASKS]
    annotations = {demo.id: list(registry.get(tid).plan)
                   for demo, tid in zip(demos, SOURCE_DEMO_TASKS)}
    tasks, library = build_atomic_dataset(demos, DecompositionConfig(annotations=annotations))
    return demos, tasks, library


@lru_cache(maxsize=16)
def _fixed_layer(drawer_present: bool, cupboard_present: bool, dustpan_present: bool,
                 open_fraction: float) -> FixedLayer:
    """The part of every transition map of a scene layout that stays put while
    the tray is at ``open_fraction``: the fixed boxes and the tray, the block
    ``fixed_samples`` keeps.  A tray that is out is added to the layer of the
    tray in."""
    samples = fixed_samples(drawer_present, cupboard_present, dustpan_present, open_fraction)
    base = None if open_fraction == 0.0 else _fixed_layer(drawer_present, cupboard_present,
                                                          dustpan_present, 0.0)
    return fixed_layer(samples, WORKSPACE, fixed=base)


def transition_cost_map(scene: Scene) -> CostMap:
    """The cost map the executor plans a transition on: the scene's whole
    point cloud over the workspace.  Its fixed boxes and tray are voxelised
    and dilated once per scene layout and tray opening; only the objects are
    added per map."""
    fixed = _fixed_layer(scene.drawer_present, scene.cupboard_present, scene.dustpan_present,
                         scene.open_fraction)
    return build_cost_map(point_cloud(scene), WORKSPACE, fixed=fixed)


def _execute_transition(scene: Scene, start_pose: Pose, config: ExecutorConfig,
                        seed: int, result: EpisodeResult) -> Scene:
    """Drive the gripper to ``start_pose``; raises NoFreeChain or PlanningFailure."""
    cmap = transition_cost_map(scene)
    chain = chain_skills(scene.gripper_pose(), start_pose, cmap, config.chaining_m, seed)
    for waypoint in chain.path[1:]:
        scene = step(scene, Action(Pose(waypoint), GripperCommand.HOLD))
        result.transition_waypoints += 1
    return scene


def run_episode(task: TaskSpec, scene: Scene, plan: tuple[str, ...], config: ExecutorConfig,
                seed: int) -> EpisodeResult:
    """Run the plan, a sequence of library skills, from ``scene``, the task's
    initial scene for ``seed``.

    Each skill is dry-run without noise to predict its goal and, before the
    transition into it, its start pose; its actions are then drawn with
    ``config.noise_sigma``.  After a transition the skill is scripted again
    on the scene the transition left; without one, the dry run's script is
    the skill's script, and only the noise is drawn.
    """
    result = EpisodeResult(task_id=task.id, seed=seed, success=False)
    # monitor retries draw from this generator only when actions are noised
    rng = named_rng(seed, task.id) if config.noise_sigma > 0 else None
    completed_all = True
    for i, instruction in enumerate(plan):
        try:
            dry = oracle_policy(instruction, scene)
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
            actions = oracle_policy(instruction, scene, config.noise_sigma, seed * 101 + i)
        else:
            # no transition ran, so the scene is the one the dry run scripted
            actions = noised_script(instruction, dry, config.noise_sigma, seed * 101 + i)
        used = 0
        for action in actions:
            scene = step(scene, action)
            used += 1
        verdict = monitor(scene, goal, used)
        while verdict is MonitorVerdict.CONTINUE:
            offset = 0.0 if rng is None else rng.normal(0.0, config.noise_sigma, 3)
            scene = step(scene, noised_action(goal, actions[-1].gripper_command, offset))
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
    result.success = completed_all and success(task, scene)
    return result


def run_task_episode(task: TaskSpec, seed: int, config: ExecutorConfig,
                     library: InstructionLibrary,
                     registry: TaskRegistry | None = None) -> EpisodeResult:
    """Plan from the initial scene summary, then run one closed-loop episode."""
    registry = registry or load_registry()
    initial = reset(task, seed)
    try:
        plan = plan_mock(task.instruction, scene_summary(initial), library, registry)
    except DecoError as exc:
        result = EpisodeResult(task_id=task.id, seed=seed, success=False)
        result.skills.append(SkillOutcome("<planning>", False, 0, str(exc)))
        return result
    return run_episode(task, initial, plan, config, seed)


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
    """One row per task and seed, each of ``episodes`` episodes; a task's rows
    share ``rate_std``, the spread of their rates."""
    errors = rule_errors({"seeds": seeds, "episodes": episodes}) + repeated_seed_errors(seeds)
    if errors:
        raise ConfigError("; ".join(errors))
    registry = registry or load_registry()
    rows = []
    for task in tasks:
        cells = []   # (seed, successes, collisions)
        for seed in seeds:
            cell = [run_task_episode(task, seed + 7919 * e, config, library, registry)
                    for e in range(episodes)]
            cells.append((seed, sum(r.success for r in cell), sum(r.collisions for r in cell)))
        rate_std = float(np.std([successes / episodes for _, successes, _ in cells]))
        rows += [SuiteRow(task.id, seed, episodes, successes, successes / episodes, rate_std,
                          collisions) for seed, successes, collisions in cells]
    return rows


def write_suite_csv(rows: list[SuiteRow], path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(SuiteRow)])
        for row in rows:
            writer.writerow([f"{v:.6f}" if isinstance(v, float) else v
                             for v in astuple(row)])
