"""Scripted skill policies and demonstration recording.

Each skill emits the canonical keyframe sequence (approach, grasp, transit,
place, release, retreat) computed from the current scene, with exactly one
close and one open command, ending at the skill's goal pose.
"""

from __future__ import annotations

import zlib

import numpy as np

from ..errors import PreconditionUnmet, UnknownInstruction
from ..geometry import Pose, vector_norm
from ..registry import DRAWER_CLOSED_THRESHOLD, DRAWER_OPEN_THRESHOLD, TaskSpec
from ..trajectory import Demonstration, GripperState, TimeStep
from .scene import (CUPBOARD_INTERIOR, DRAWER_TRAVEL, DUSTPAN_VOLUME, HOME, WORKSPACE,
                    Action, GripperCommand, Scene, step)

SAFE_Z = 0.30
SPEED_SCALE = 10.0

ITEM_DROP_SPOT = np.array([0.40, -0.02, 0.02])
BOX_DROP_SPOT = np.array([0.38, 0.02, 0.025])
CUPBOARD_DROP_SPOT = np.array([0.33, 0.40, 0.025])
BROOM_TABLE_SPOT = np.array([0.28, 0.14, 0.02])
BROOM_REST_SPOT = np.array([0.26, 0.22, 0.02])
DUSTPAN_DROP = np.array([0.35, 0.30, 0.03])
CUPBOARD_FRONT_X = 0.47
CUPBOARD_EXTRACT_X = 0.44
CUPBOARD_PLACE = np.array([0.64, 0.25, 0.23])


def _hold(position) -> Action:
    return Action(Pose(np.asarray(position, dtype=float)), GripperCommand.HOLD)


def _close(position) -> Action:
    return Action(Pose(np.asarray(position, dtype=float)), GripperCommand.CLOSE)


def _open(position) -> Action:
    return Action(Pose(np.asarray(position, dtype=float)), GripperCommand.OPEN)


def _require(condition: bool, message: str):
    if not condition:
        raise PreconditionUnmet(message)


def _require_empty(scene: Scene):
    _require(scene.held_object is None, "gripper is already holding something")


def _items(scene: Scene, prefix: str) -> list[str]:
    return sorted(n for n, o in scene.objects.items()
                  if n.startswith(prefix) and not o.held)


def _free_spot(scene: Scene, base: np.ndarray) -> np.ndarray:
    """Shift a nominal drop spot sideways past objects already parked there."""
    occupied = sum(1 for o in scene.objects.values()
                   if not o.held and vector_norm(o.position[:2] - base[:2]) < 0.05)
    spot = np.array(base)
    spot[1] += 0.07 * occupied
    return spot


def _drawer_put_target(scene: Scene) -> np.ndarray:
    interior = scene.drawer_interior()
    # center of the part of the tray sticking out from under the cabinet
    hi_x = min(interior.upper[0], 0.54)
    base = np.array([(interior.lower[0] + hi_x) / 2.0, -0.25, 0.06])
    occupied = sum(1 for o in scene.objects.values()
                   if not o.held and vector_norm(o.position[:2] - base[:2]) < 0.04)
    base[1] += 0.05 * occupied
    return base


def _open_drawer(scene: Scene) -> list[Action]:
    _require(scene.drawer_present, "no drawer in the scene")
    _require(scene.open_fraction < DRAWER_OPEN_THRESHOLD, "drawer is already open")
    _require_empty(scene)
    handle = scene.handle_position()
    pull = DRAWER_TRAVEL * (1.0 - scene.open_fraction)
    pulled = handle - np.array([pull, 0.0, 0.0])
    return [_hold(handle + np.array([-0.05, 0.0, 0.0])),
            _hold(handle),
            _close(handle),
            _hold(pulled),
            _open(pulled),
            _hold(pulled + np.array([-0.05, 0.0, 0.03]))]


def _close_drawer(scene: Scene) -> list[Action]:
    _require(scene.drawer_present, "no drawer in the scene")
    _require(scene.open_fraction > DRAWER_CLOSED_THRESHOLD, "drawer is already closed")
    _require_empty(scene)
    handle = scene.handle_position()
    push = DRAWER_TRAVEL * scene.open_fraction
    pushed = handle + np.array([push, 0.0, 0.0])
    return [_hold(handle + np.array([-0.05, 0.0, 0.0])),
            _hold(handle),
            _close(handle),
            _hold(pushed),
            _open(pushed),
            _hold(pushed + np.array([-0.05, 0.0, 0.03]))]


def _put_in_drawer(scene: Scene, prefix: str) -> list[Action]:
    _require(scene.drawer_present, "no drawer in the scene")
    _require(scene.open_fraction >= DRAWER_OPEN_THRESHOLD, "drawer is not open")
    _require_empty(scene)
    interior = scene.drawer_interior()
    target = _drawer_put_target(scene)
    candidates = [n for n in _items(scene, prefix)
                  if not interior.contains(scene.objects[n].position)]
    _require(bool(candidates), f"no {prefix} outside the drawer")
    name = min(candidates,
               key=lambda n: (vector_norm(scene.objects[n].position - target), n))
    pos = scene.objects[name].position
    return [_hold([pos[0], pos[1], pos[2] + 0.14]),
            _close(pos),
            _hold([pos[0], pos[1], SAFE_Z]),
            _hold([target[0], target[1], SAFE_Z]),
            _open([target[0], target[1], target[2]]),
            _hold([target[0], target[1], SAFE_Z])]


def _take_out_of_drawer(scene: Scene, prefix: str, drop_base: np.ndarray) -> list[Action]:
    _require(scene.drawer_present, "no drawer in the scene")
    _require(scene.open_fraction >= DRAWER_OPEN_THRESHOLD, "drawer is not open")
    _require_empty(scene)
    interior = scene.drawer_interior()
    candidates = [n for n in _items(scene, prefix)
                  if interior.contains(scene.objects[n].position)]
    _require(bool(candidates), f"no {prefix} inside the drawer")
    name = candidates[0]
    pos = scene.objects[name].position
    drop = _free_spot(scene, drop_base)
    return [_hold([pos[0], pos[1], pos[2] + 0.16]),
            _close(pos),
            _hold([pos[0], pos[1], SAFE_Z]),
            _hold([drop[0], drop[1], 0.20]),
            _open(drop),
            _hold([drop[0], drop[1], 0.12])]


def _put_box_in_cupboard(scene: Scene) -> list[Action]:
    _require(scene.cupboard_present, "no cupboard in the scene")
    _require_empty(scene)
    candidates = [n for n in _items(scene, "box")
                  if not CUPBOARD_INTERIOR.contains(scene.objects[n].position)]
    _require(bool(candidates), "no box outside the cupboard")
    center = (CUPBOARD_INTERIOR.lower + CUPBOARD_INTERIOR.upper) / 2.0
    name = min(candidates,
               key=lambda n: (vector_norm(scene.objects[n].position - center), n))
    pos = scene.objects[name].position
    place = CUPBOARD_PLACE
    return [_hold([pos[0], pos[1], pos[2] + 0.15]),
            _close(pos),
            _hold([pos[0], pos[1], 0.35]),
            _hold([CUPBOARD_FRONT_X, place[1], 0.35]),
            _hold([CUPBOARD_FRONT_X, place[1], place[2]]),
            _open(place),
            _hold([CUPBOARD_EXTRACT_X, place[1], place[2]])]


def _take_out_of_cupboard(scene: Scene, prefix: str, drop_base: np.ndarray) -> list[Action]:
    _require(scene.cupboard_present, "no cupboard in the scene")
    _require_empty(scene)
    candidates = [n for n in _items(scene, prefix)
                  if CUPBOARD_INTERIOR.contains(scene.objects[n].position)]
    _require(bool(candidates), f"no {prefix} inside the cupboard")
    name = candidates[0]
    pos = scene.objects[name].position
    drop = _free_spot(scene, drop_base)
    return [_hold([CUPBOARD_FRONT_X, pos[1], pos[2]]),
            _close(pos),
            _hold([CUPBOARD_EXTRACT_X, pos[1], pos[2]]),
            _hold([drop[0], drop[1], 0.15]),
            _open(drop),
            _hold([drop[0], drop[1], 0.12])]


def _rubbish_cluster(scene: Scene) -> list[str]:
    eligible = [n for n in scene.rubbish_names()
                if not DUSTPAN_VOLUME.contains(scene.objects[n].position)]
    if not eligible:
        return []
    positions = {n: scene.objects[n].position for n in eligible}
    best, best_members = eligible[0], [eligible[0]]
    for n in eligible:
        members = [m for m in eligible
                   if vector_norm(positions[m][:2] - positions[n][:2]) <= 0.06]
        if len(members) > len(best_members):
            best, best_members = n, members
    return best_members


def _sweep_to_dustpan(scene: Scene) -> list[Action]:
    _require(scene.dustpan_present, "no dustpan in the scene")
    _require("broom" in scene.objects, "no broom in the scene")
    _require_empty(scene)
    cluster = _rubbish_cluster(scene)
    _require(bool(cluster), "no rubbish left to sweep")
    centroid = np.mean([scene.objects[n].position for n in cluster], axis=0)
    pan_center = (DUSTPAN_VOLUME.lower + DUSTPAN_VOLUME.upper) / 2.0
    direction = pan_center[:2] - centroid[:2]
    direction = direction / max(vector_norm(direction), 1e-9)
    sweep_start = np.array([*(centroid[:2] - 0.08 * direction), 0.02])
    sweep_end = np.array([*(pan_center[:2] - 0.06 * direction), 0.02])
    broom = scene.objects["broom"].position
    rest = BROOM_REST_SPOT
    return [_hold([broom[0], broom[1], 0.14]),
            _close(broom),
            _hold([broom[0], broom[1], 0.12]),
            _hold([sweep_start[0], sweep_start[1], 0.12]),
            _hold(sweep_start),
            _hold(sweep_end),
            _hold([sweep_end[0], sweep_end[1], 0.12]),
            _hold([rest[0], rest[1], 0.12]),
            _open(rest),
            _hold([rest[0], rest[1], 0.10])]


def _put_rubbish_in_dustpan(scene: Scene) -> list[Action]:
    _require(scene.dustpan_present, "no dustpan in the scene")
    _require_empty(scene)
    eligible = [n for n in scene.rubbish_names()
                if not DUSTPAN_VOLUME.contains(scene.objects[n].position)]
    _require(bool(eligible), "all rubbish is already in the dustpan")
    pos = scene.objects[eligible[0]].position
    return [_hold([pos[0], pos[1], 0.13]),
            _close(pos),
            _hold([pos[0], pos[1], 0.13]),
            _hold([DUSTPAN_DROP[0], DUSTPAN_DROP[1], 0.13]),
            _open(DUSTPAN_DROP),
            _hold([DUSTPAN_DROP[0], DUSTPAN_DROP[1], 0.13])]


_SKILLS = {
    "open drawer": _open_drawer,
    "close drawer": _close_drawer,
    "put item in drawer": lambda s: _put_in_drawer(s, "item"),
    "take item out of drawer": lambda s: _take_out_of_drawer(s, "item", ITEM_DROP_SPOT),
    "take box out of drawer": lambda s: _take_out_of_drawer(s, "box", BOX_DROP_SPOT),
    "put box in cupboard": _put_box_in_cupboard,
    "take box out of cupboard": lambda s: _take_out_of_cupboard(s, "box", CUPBOARD_DROP_SPOT),
    "take broom out of cupboard": lambda s: _take_out_of_cupboard(s, "broom", BROOM_TABLE_SPOT),
    "sweep rubbish to dustpan": _sweep_to_dustpan,
    "put rubbish in dustpan": _put_rubbish_in_dustpan,
}

ATOMIC_SKILLS = tuple(_SKILLS)


def noised_action(target: Pose, command: GripperCommand, offset) -> Action:
    """An action to ``target`` moved by ``offset``, clipped just inside the workspace."""
    position = np.clip(target.position + offset,
                       WORKSPACE.lower + 1e-6, WORKSPACE.upper - 1e-6)
    return Action(Pose(position, target.orientation), command)


def oracle_policy(instruction: str, scene: Scene, noise_sigma: float = 0.0,
                  seed: int = 0) -> list[Action]:
    """Keyframe action sequence for one skill, optionally position-noised."""
    if instruction not in _SKILLS:
        raise UnknownInstruction(f"no scripted skill for instruction {instruction!r}")
    actions = _SKILLS[instruction](scene)
    if noise_sigma > 0:
        rng = np.random.default_rng([seed, zlib.crc32(instruction.encode())])
        actions = [noised_action(a.target, a.gripper_command,
                                 rng.normal(0.0, noise_sigma, size=3))
                   for a in actions]
    return actions


def record_demo(task: TaskSpec, seed: int) -> Demonstration:
    """Noiseless execution of the task's canonical plan, logged as a demo."""
    from .tasks import reset

    scene = reset(task, seed)
    steps = [TimeStep(0, Pose(HOME), GripperState.OPEN, 0.0)]
    t = 1
    for instruction in task.plan:
        for action in oracle_policy(instruction, scene, 0.0, seed):
            previous = np.array(scene.gripper_position)
            scene = step(scene, action)
            displacement = vector_norm(action.target.position - previous)
            speed = 0.0 if displacement < 1e-9 else SPEED_SCALE * displacement
            steps.append(TimeStep(t, action.target, scene.gripper_state, speed))
            t += 1
    return Demonstration(id=f"{task.id}-s{seed}", instruction=task.instruction,
                         steps=tuple(steps))
