"""Scripted skill policies and demonstration recording.

Each skill emits the canonical keyframe sequence (approach, grasp, transit,
place, release, retreat) computed from the current scene, with exactly one
close and one open command, ending at the skill's goal pose.  ``oracle_policy``
checks the skill's row of ``deco.registry.SKILL_NEEDS`` and an empty gripper
first; a script checks only its own choice of object.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..costmap import Bounds
from ..errors import PreconditionUnmet, UnknownInstruction
from ..geometry import Pose, vector_norm
from ..registry import SKILL_NEEDS, TaskSpec
from ..trajectory import Demonstration, GripperState, TimeStep
from .scene import (CUPBOARD_INTERIOR, DRAWER_TRAVEL, DUSTPAN_VOLUME, HOME, WORKSPACE,
                    Action, GripperCommand, Scene, step)
from .tasks import named_rng, reset

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


def _action(command: GripperCommand, position) -> Action:
    return Action(Pose(position), command)


_hold = partial(_action, GripperCommand.HOLD)
_close = partial(_action, GripperCommand.CLOSE)
_open = partial(_action, GripperCommand.OPEN)


def check_needs(instruction: str, scene: Scene):
    """Raise PreconditionUnmet unless the scene has the parts, objects and
    drawer state ``SKILL_NEEDS`` lists for the skill, and the gripper is empty."""
    needs = SKILL_NEEDS[instruction]
    lacking = needs.lacking(scene, scene.objects)
    if lacking is not None:
        raise PreconditionUnmet(f"no {lacking} in the scene")
    if needs.drawer is not None and not needs.drawer.holds(scene.open_fraction):
        raise PreconditionUnmet(f"{instruction!r} needs the drawer {needs.drawer.value}")
    if scene.held_object is not None:
        raise PreconditionUnmet("gripper is already holding something")


def _choose(scene: Scene, prefix: str, region: Bounds, inside: bool, where: str,
            near=None) -> np.ndarray:
    """Position of a ``prefix`` object inside (or outside) ``region``: the one
    nearest ``near``, or without ``near`` the first by name.  Scripts run only
    with an empty gripper, so no object is held."""
    candidates = sorted(n for n, position in scene.objects.items()
                        if n.startswith(prefix) and region.contains(position) == inside)
    if not candidates:
        raise PreconditionUnmet(f"no {prefix} {'inside' if inside else 'outside'} the {where}")
    if near is not None:
        # a stable sort: equally near candidates keep their name order
        candidates.sort(key=lambda n: vector_norm(scene.objects[n] - near))
    return scene.objects[candidates[0]]


def _free_spot(scene: Scene, base: np.ndarray, radius: float = 0.05,
               shift: float = 0.07) -> np.ndarray:
    """Shift a nominal drop spot sideways past objects already parked there."""
    occupied = sum(1 for position in scene.objects.values()
                   if vector_norm(position[:2] - base[:2]) < radius)
    spot = np.array(base)
    spot[1] += shift * occupied
    return spot


def _drawer_put_target(scene: Scene) -> np.ndarray:
    interior = scene.drawer_interior()
    # center of the part of the tray sticking out from under the cabinet
    hi_x = min(interior.upper[0], 0.54)
    return _free_spot(scene, np.array([(interior.lower[0] + hi_x) / 2.0, -0.25, 0.06]),
                      0.04, 0.05)


def _pick_and_place(grasp, approach, lift, drop, carry_z: float,
                    retreat_z: float) -> list[Action]:
    """Approach, grasp at ``grasp``, lift, carry over ``drop`` at height
    ``carry_z``, release at ``drop`` and retreat up to ``retreat_z``."""
    return [_hold(approach), _close(grasp), _hold(lift), _hold([drop[0], drop[1], carry_z]),
            _open(drop), _hold([drop[0], drop[1], retreat_z])]


def _slide_drawer(scene: Scene, target: float) -> list[Action]:
    """Grasp the handle, slide the drawer to open fraction ``target``, let go
    and back off."""
    handle = scene.handle_position()
    slid = handle + np.array([DRAWER_TRAVEL * (scene.open_fraction - target), 0.0, 0.0])
    return [_hold(handle + np.array([-0.05, 0.0, 0.0])), _hold(handle), _close(handle),
            _hold(slid), _open(slid), _hold(slid + np.array([-0.05, 0.0, 0.03]))]


def _put_in_drawer(scene: Scene, prefix: str) -> list[Action]:
    target = _drawer_put_target(scene)
    pos = _choose(scene, prefix, scene.drawer_interior(), False, "drawer", near=target)
    return _pick_and_place(pos, [pos[0], pos[1], pos[2] + 0.14], [pos[0], pos[1], SAFE_Z],
                           target, SAFE_Z, SAFE_Z)


def _take_out_of_drawer(scene: Scene, prefix: str, drop_base: np.ndarray) -> list[Action]:
    pos = _choose(scene, prefix, scene.drawer_interior(), True, "drawer")
    return _pick_and_place(pos, [pos[0], pos[1], pos[2] + 0.16], [pos[0], pos[1], SAFE_Z],
                           _free_spot(scene, drop_base), 0.20, 0.12)


def _put_box_in_cupboard(scene: Scene) -> list[Action]:
    center = (CUPBOARD_INTERIOR.lower + CUPBOARD_INTERIOR.upper) / 2.0
    pos = _choose(scene, "box", CUPBOARD_INTERIOR, False, "cupboard", near=center)
    place = CUPBOARD_PLACE
    return [_hold([pos[0], pos[1], pos[2] + 0.15]),
            _close(pos),
            _hold([pos[0], pos[1], 0.35]),
            _hold([CUPBOARD_FRONT_X, place[1], 0.35]),
            _hold([CUPBOARD_FRONT_X, place[1], place[2]]),
            _open(place),
            _hold([CUPBOARD_EXTRACT_X, place[1], place[2]])]


def _take_out_of_cupboard(scene: Scene, prefix: str, drop_base: np.ndarray) -> list[Action]:
    pos = _choose(scene, prefix, CUPBOARD_INTERIOR, True, "cupboard")
    return _pick_and_place(pos, [CUPBOARD_FRONT_X, pos[1], pos[2]],
                           [CUPBOARD_EXTRACT_X, pos[1], pos[2]],
                           _free_spot(scene, drop_base), 0.15, 0.12)


def _rubbish_outside_pan(scene: Scene) -> list[str]:
    return [n for n in scene.rubbish_names()
            if not DUSTPAN_VOLUME.contains(scene.objects[n])]


def _rubbish_cluster(scene: Scene) -> list[str]:
    eligible = _rubbish_outside_pan(scene)
    if not eligible:
        return []
    best = [eligible[0]]
    for n in eligible:
        members = [m for m in eligible
                   if vector_norm(scene.objects[m][:2] - scene.objects[n][:2]) <= 0.06]
        if len(members) > len(best):
            best = members
    return best


def _sweep_to_dustpan(scene: Scene) -> list[Action]:
    cluster = _rubbish_cluster(scene)
    if not cluster:
        raise PreconditionUnmet("no rubbish left to sweep")
    centroid = np.mean([scene.objects[n] for n in cluster], axis=0)
    pan_center = (DUSTPAN_VOLUME.lower + DUSTPAN_VOLUME.upper) / 2.0
    direction = pan_center[:2] - centroid[:2]
    direction = direction / max(vector_norm(direction), 1e-9)
    sweep_start = np.array([*(centroid[:2] - 0.08 * direction), 0.02])
    sweep_end = np.array([*(pan_center[:2] - 0.06 * direction), 0.02])
    broom = scene.objects["broom"]
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
    eligible = _rubbish_outside_pan(scene)
    if not eligible:
        raise PreconditionUnmet("all rubbish is already in the dustpan")
    pos = scene.objects[eligible[0]]
    return _pick_and_place(pos, [pos[0], pos[1], 0.13], [pos[0], pos[1], 0.13],
                           DUSTPAN_DROP, 0.13, 0.13)


_SKILLS = {
    "open drawer": lambda s: _slide_drawer(s, 1.0),
    "close drawer": lambda s: _slide_drawer(s, 0.0),
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


def noised_script(instruction: str, actions: list[Action], noise_sigma: float,
                  seed: int) -> list[Action]:
    """The skill's script ``actions`` with each target moved by a normal draw of
    ``noise_sigma`` from ``named_rng(seed, instruction)``;
    ``actions`` itself without noise."""
    if noise_sigma > 0:
        rng = named_rng(seed, instruction)
        actions = [noised_action(a.target, a.gripper_command,
                                 rng.normal(0.0, noise_sigma, size=3))
                   for a in actions]
    return actions


def oracle_policy(instruction: str, scene: Scene, noise_sigma: float = 0.0,
                  seed: int = 0) -> list[Action]:
    """Keyframe action sequence for one skill, optionally position-noised."""
    script = _SKILLS.get(instruction)
    if script is None:
        raise UnknownInstruction(f"no scripted skill for instruction {instruction!r}")
    check_needs(instruction, scene)
    return noised_script(instruction, script(scene), noise_sigma, seed)


def record_demo(task: TaskSpec, seed: int) -> Demonstration:
    """Noiseless execution of the task's canonical plan, logged as a demo."""
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
