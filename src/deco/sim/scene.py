"""Kinematic desk-scale world: drawer unit, cupboard shelf, dustpan, objects.

The gripper teleports along straight segments.  Collisions with static
geometry are detected and counted but never block motion; the one physical
consequence modeled is that scraping the open drawer's walls slams it mostly
shut, which is exactly the failure mode poor transition planning produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from ..costmap import Bounds
from ..errors import OutOfBounds
from ..geometry import IDENTITY_QUAT, Pose
from ..trajectory import GripperState

# workspace (robot base frame, meters)
WORKSPACE = Bounds((0.20, -0.45, 0.0), (0.80, 0.45, 0.50))
HOME = np.array([0.30, 0.0, 0.30])

GRASP_RADIUS = 0.04
SWEEP_RADIUS = 0.05
SEGMENT_SAMPLE_RES = 0.005
SLAM_FRACTION = 0.15

# drawer unit: cabinet fixed, tray slides out toward -x
CABINET_LO = np.array([0.55, -0.35, 0.0])
CABINET_HI = np.array([0.75, -0.15, 0.14])
DRAWER_TRAVEL = 0.15
DRAWER_WALL = 0.015
DRAWER_WALL_TOP = 0.125
HANDLE_Y = -0.25
HANDLE_Z = 0.07

# cupboard: open front at -x, elevated shelf
CUPBOARD_LO = np.array([0.55, 0.15, 0.14])
CUPBOARD_HI = np.array([0.75, 0.35, 0.32])
CUPBOARD_WALL = 0.02

# dustpan tray
DUSTPAN_LO = np.array([0.29, 0.24, 0.0])
DUSTPAN_HI = np.array([0.41, 0.36, 0.05])


def _cupboard_walls(lo, hi, w) -> tuple[Bounds, ...]:
    return (Bounds((lo[0], lo[1], lo[2]), (hi[0], hi[1], lo[2] + w)),          # bottom
            Bounds((lo[0], lo[1], hi[2] - w), (hi[0], hi[1], hi[2])),          # top
            Bounds((hi[0] - w, lo[1], lo[2]), (hi[0], hi[1], hi[2])),          # back
            Bounds((lo[0], lo[1], lo[2]), (hi[0], lo[1] + w, hi[2])),          # side
            Bounds((lo[0], hi[1] - w, lo[2]), (hi[0], hi[1], hi[2])))          # side


# geometry that never moves, built once
CABINET = Bounds(CABINET_LO, CABINET_HI)
CUPBOARD_WALLS = _cupboard_walls(CUPBOARD_LO, CUPBOARD_HI, CUPBOARD_WALL)
CUPBOARD_INTERIOR = Bounds(CUPBOARD_LO + (0.0, CUPBOARD_WALL, CUPBOARD_WALL),
                           CUPBOARD_HI - CUPBOARD_WALL)
DUSTPAN_VOLUME = Bounds(DUSTPAN_LO, DUSTPAN_HI)
DUSTPAN_FLOOR = Bounds(DUSTPAN_LO, (DUSTPAN_HI[0], DUSTPAN_HI[1], DUSTPAN_LO[2] + 0.01))
_NO_BOXES = np.zeros((0, 2, 3))
_NO_BOXES.flags.writeable = False

OBJECT_HALF = {"block": 0.02, "box": 0.025, "broom": 0.02, "dustpan": 0.0, "rubbish": 0.0}
GRASPABLE_KINDS = {"block", "box", "broom", "rubbish"}

HANDLE_NAME = "drawer_handle"


class GripperCommand(str, Enum):
    OPEN = "open"
    CLOSE = "close"
    HOLD = "hold"


@dataclass(frozen=True)
class Action:
    target: Pose
    gripper_command: GripperCommand = GripperCommand.HOLD


@dataclass
class SimObject:
    kind: str
    position: np.ndarray
    held: bool = False

    def copy(self) -> "SimObject":
        return SimObject(self.kind, np.array(self.position, dtype=float), self.held)


@dataclass
class Scene:
    drawer_present: bool = False
    open_fraction: float = 0.0
    cupboard_present: bool = False
    dustpan_present: bool = False
    objects: dict[str, SimObject] = field(default_factory=dict)
    gripper_position: np.ndarray = field(default_factory=lambda: HOME.copy())
    gripper_state: GripperState = GripperState.OPEN
    held_object: str | None = None
    collision_count: int = 0
    drawer_slams: int = 0

    def copy(self) -> "Scene":
        return replace(self,
                       objects={k: v.copy() for k, v in self.objects.items()},
                       gripper_position=np.array(self.gripper_position, dtype=float))

    # --- derived geometry ---

    def drawer_front_x(self) -> float:
        return CABINET_LO[0] - DRAWER_TRAVEL * self.open_fraction

    def handle_position(self) -> np.ndarray:
        return np.array([self.drawer_front_x() - 0.025, HANDLE_Y, HANDLE_Z])

    def drawer_interior(self) -> Bounds:
        shift = DRAWER_TRAVEL * self.open_fraction
        return Bounds((CABINET_LO[0] + 0.01 - shift, CABINET_LO[1] + 0.01, 0.02),
                      (CABINET_HI[0] - 0.02 - shift, CABINET_HI[1] - 0.01, DRAWER_WALL_TOP))

    def drawer_rows(self) -> np.ndarray:
        """(K, 2, 3) lower and upper corners of the tray part protruding from
        the cabinet: front wall, two side walls, floor; K is 0 while the tray
        is in."""
        if not self.drawer_present or self.open_fraction < 0.03:
            return _NO_BOXES
        front = self.drawer_front_x()
        return np.array([
            [(front - DRAWER_WALL, CABINET_LO[1], 0.0), (front, CABINET_HI[1], DRAWER_WALL_TOP)],
            [(front - DRAWER_WALL, CABINET_LO[1], 0.0),
             (CABINET_LO[0], CABINET_LO[1] + DRAWER_WALL, DRAWER_WALL_TOP)],
            [(front - DRAWER_WALL, CABINET_HI[1] - DRAWER_WALL, 0.0),
             (CABINET_LO[0], CABINET_HI[1], DRAWER_WALL_TOP)],
            [(front - DRAWER_WALL, CABINET_LO[1], 0.0), (CABINET_LO[0], CABINET_HI[1], 0.02)]])

    def drawer_boxes(self) -> list[Bounds]:
        """Collision boxes of the tray part protruding from the cabinet."""
        return [Bounds(lower, upper) for lower, upper in self.drawer_rows()]

    def object_boxes(self, exclude_held: bool = True) -> list[Bounds]:
        boxes = []
        for name, obj in sorted(self.objects.items()):
            if exclude_held and obj.held:
                continue
            half = OBJECT_HALF.get(obj.kind, 0.0)
            if half > 0:
                boxes.append(Bounds(obj.position - half, obj.position + half))
        return boxes

    # --- queries ---

    def gripper_pose(self) -> Pose:
        return Pose(self.gripper_position, IDENTITY_QUAT)

    def rubbish_names(self) -> list[str]:
        return sorted(n for n, o in self.objects.items() if o.kind == "rubbish")

    def rubbish_in_dustpan_fraction(self) -> float:
        names = self.rubbish_names()
        if not names:
            return 0.0
        inside = sum(1 for n in names if DUSTPAN_VOLUME.contains(self.objects[n].position))
        return inside / len(names)

    def to_dict(self) -> dict:
        return {"drawer_present": self.drawer_present,
                "open_fraction": round(self.open_fraction, 9),
                "cupboard_present": self.cupboard_present,
                "dustpan_present": self.dustpan_present,
                "objects": {n: {"kind": o.kind,
                                "position": [round(float(v), 9) for v in o.position],
                                "held": o.held}
                            for n, o in sorted(self.objects.items())},
                "gripper": {"position": [round(float(v), 9) for v in self.gripper_position],
                            "state": self.gripper_state.value,
                            "held_object": self.held_object},
                "collision_count": self.collision_count,
                "drawer_slams": self.drawer_slams}


def _segment_samples(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    length = float(np.linalg.norm(b - a))
    n = max(1, int(np.ceil(length / SEGMENT_SAMPLE_RES)))
    ts = np.linspace(0.0, 1.0, n + 1)
    return a[None, :] + ts[:, None] * (b - a)[None, :]


def _point_segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = b - a
    denom = float(np.dot(ab, ab))
    t = 0.0 if denom == 0 else float(np.clip(np.dot(p - a, ab) / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


def _shift_drawer_contents(scene: Scene, old_fraction: float, new_fraction: float):
    """Objects sitting in the tray translate with it."""
    interior = scene.drawer_interior()
    dx = -DRAWER_TRAVEL * (new_fraction - old_fraction)
    for obj in scene.objects.values():
        if not obj.held and interior.contains(obj.position):
            obj.position[0] += dx
    scene.open_fraction = new_fraction


def step(scene: Scene, action: Action) -> Scene:
    """Apply one keyframe action and return the successor scene."""
    target = np.asarray(action.target.position, dtype=float)
    if not WORKSPACE.contains(target):
        raise OutOfBounds(f"action target {target} outside workspace")

    out = scene.copy()
    start = np.array(out.gripper_position)
    samples = _segment_samples(start, target)
    displacement = target - start
    holding_handle = out.held_object == HANDLE_NAME

    # collision bookkeeping + drawer slam; a tray pulled by its handle is not hit.
    # One broadcast tests every sample against every box, tray rows first
    tray = _NO_BOXES if holding_handle else out.drawer_rows()
    boxes = np.concatenate((tray, _fixed_rows(out.drawer_present, out.cupboard_present,
                                              out.dustpan_present)))
    s3 = samples[:, None, :]
    hit = ((s3 >= boxes[:, 0]) & (s3 <= boxes[:, 1])).all(axis=2).any(axis=0)
    hit_drawer = bool(hit[:len(tray)].any())
    if hit.any():
        out.collision_count += 1
    if hit_drawer:
        direction = displacement / max(float(np.linalg.norm(displacement)), 1e-12)
        if abs(direction[2]) < 0.9 and out.open_fraction > SLAM_FRACTION:
            _shift_drawer_contents(out, out.open_fraction, SLAM_FRACTION)
            out.drawer_slams += 1

    # move the gripper; handle and held objects track it
    out.gripper_position = target
    if holding_handle:
        new_fraction = float(np.clip(
            out.open_fraction - displacement[0] / DRAWER_TRAVEL, 0.0, 1.0))
        _shift_drawer_contents(out, out.open_fraction, new_fraction)
    elif out.held_object is not None:
        out.objects[out.held_object].position = np.array(target)

    # a held broom sweeps nearby rubbish along the horizontal motion
    if out.held_object is not None and out.objects.get(out.held_object) is not None \
            and out.objects[out.held_object].kind == "broom":
        horizontal = np.array([displacement[0], displacement[1], 0.0])
        if float(np.linalg.norm(horizontal)) > 0.01:
            for name in out.rubbish_names():
                obj = out.objects[name]
                if obj.held:
                    continue
                if _point_segment_distance(obj.position, start, target) <= SWEEP_RADIUS:
                    obj.position = obj.position + horizontal

    # gripper command
    if action.gripper_command is GripperCommand.CLOSE:
        if out.gripper_state is GripperState.OPEN:
            out.gripper_state = GripperState.CLOSED
            out.held_object = _nearest_graspable(out)
            if out.held_object is not None and out.held_object != HANDLE_NAME:
                out.objects[out.held_object].held = True
                out.objects[out.held_object].position = np.array(out.gripper_position)
    elif action.gripper_command is GripperCommand.OPEN:
        if out.held_object is not None and out.held_object != HANDLE_NAME:
            out.objects[out.held_object].held = False
        out.held_object = None
        out.gripper_state = GripperState.OPEN
    return out


def _nearest_graspable(scene: Scene) -> str | None:
    best_name, best_dist = None, GRASP_RADIUS
    for name, obj in sorted(scene.objects.items()):
        if obj.kind not in GRASPABLE_KINDS or obj.held:
            continue
        dist = float(np.linalg.norm(obj.position - scene.gripper_position))
        if dist <= best_dist:
            best_name, best_dist = name, dist
    if scene.drawer_present:
        dist = float(np.linalg.norm(scene.handle_position() - scene.gripper_position))
        if dist <= best_dist:
            best_name = HANDLE_NAME
    return best_name


@lru_cache(maxsize=8)
def _fixed_rows(drawer_present: bool, cupboard_present: bool,
                dustpan_present: bool) -> np.ndarray:
    """Read-only (K, 2, 3) corners of the fixed boxes of a scene with these parts."""
    boxes = (([CABINET] if drawer_present else [])
             + (list(CUPBOARD_WALLS) if cupboard_present else [])
             + ([DUSTPAN_FLOOR] if dustpan_present else []))
    rows = np.array([(b.lower, b.upper) for b in boxes]).reshape(-1, 2, 3)
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=4)
def _fixed_face_samples(density: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only face samples of the cabinet, the cupboard walls and the dustpan floor."""
    cabinet = _sample_box_faces(CABINET, density)
    cupboard = np.vstack([_sample_box_faces(b, density) for b in CUPBOARD_WALLS])
    dustpan = _sample_box_faces(DUSTPAN_FLOOR, density)
    for samples in (cabinet, cupboard, dustpan):
        samples.flags.writeable = False
    return cabinet, cupboard, dustpan


def point_cloud(scene: Scene, density: float = 10000.0) -> np.ndarray:
    """Stratified surface sampling of every geometry box, plus rubbish points.

    Boxes come in a fixed order: cabinet, drawer tray, cupboard walls, dustpan
    floor, objects by name.  The fixed boxes (cabinet, cupboard walls, dustpan
    floor) are sampled once per density; the tray and the objects are sampled
    on every call.
    """
    if density <= 0:
        raise ValueError("density must be positive")
    cabinet, cupboard, dustpan = _fixed_face_samples(float(density))
    points = []
    if scene.drawer_present:
        points.append(cabinet)
        points += [_sample_box_faces(box, density) for box in scene.drawer_boxes()]
    if scene.cupboard_present:
        points.append(cupboard)
    if scene.dustpan_present:
        points.append(dustpan)
    points += [_sample_box_faces(box, density) for box in scene.object_boxes()]
    points += [scene.objects[name].position[None, :] for name in scene.rubbish_names()]
    if not points:
        return np.zeros((0, 3))
    return np.vstack(points)


def _sample_box_faces(box: Bounds, density: float) -> np.ndarray:
    """Cell midpoints of a grid on each face: the faces normal to x, then y,
    then z, lower face first, points in (u, v) row-major order."""
    size = box.upper - box.lower
    counts = [max(1, int(round(s * np.sqrt(density)))) for s in size]
    pairs = [counts[(axis + 1) % 3] * counts[(axis + 2) % 3] for axis in range(3)]
    out = np.empty((2 * sum(pairs), 3))
    row = 0
    for axis in range(3):
        u, v = (axis + 1) % 3, (axis + 2) % 3
        nu, nv = counts[u], counts[v]
        # both faces of the pair in one block, indexed [face, i, j, coordinate]
        faces = out[row:row + 2 * pairs[axis]].reshape(2, nu, nv, 3)
        faces[0, :, :, axis] = box.lower[axis]
        faces[1, :, :, axis] = box.upper[axis]
        faces[:, :, :, u] = (box.lower[u] + (np.arange(nu) + 0.5) * size[u] / nu)[:, None]
        faces[:, :, :, v] = box.lower[v] + (np.arange(nv) + 0.5) * size[v] / nv
        row += 2 * pairs[axis]
    return out
