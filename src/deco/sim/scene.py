"""Kinematic desk-scale world: drawer unit, cupboard shelf, dustpan, objects.

The gripper teleports along straight segments.  Collisions with static
geometry are detected and counted but never block motion; the one physical
consequence modeled is that scraping the open drawer's walls slams it mostly
shut, which is exactly the failure mode poor transition planning produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from ..costmap import Bounds, segment_fractions
from ..errors import OutOfBounds
from ..geometry import IDENTITY_QUAT, Pose, vector_norm
from ..trajectory import GripperState

# workspace (robot base frame, meters)
WORKSPACE = Bounds((0.20, -0.45, 0.0), (0.80, 0.45, 0.50))
HOME = np.array([0.30, 0.0, 0.30])

GRASP_RADIUS = 0.04
SWEEP_RADIUS = 0.05
SEGMENT_SAMPLE_RES = 0.005
SLAM_FRACTION = 0.15
CLOUD_DENSITY = 10000.0     # point-cloud surface samples per square metre
_CELLS_PER_METRE = math.sqrt(CLOUD_DENSITY)

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


@dataclass(frozen=True)
class SimObject:
    """One object of a scene.  Scenes share the objects that did not move, so
    neither the fields nor the position can be written: a move is a new
    ``SimObject``.  The position is a read-only float copy of the one given."""

    kind: str
    position: np.ndarray
    held: bool = False

    def __post_init__(self):
        position = np.array(self.position, dtype=float)
        position.setflags(write=False)
        object.__setattr__(self, "position", position)


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
        """Every field, with the ``objects`` dict and the gripper position
        copied.  The frozen objects themselves are shared with this scene."""
        out = object.__new__(Scene)
        out.__dict__.update(self.__dict__)
        out.objects = dict(self.objects)
        out.gripper_position = np.array(self.gripper_position, dtype=float)
        return out

    # --- derived geometry ---

    def handle_position(self) -> np.ndarray:
        return np.array([_drawer_front_x(self.open_fraction) - 0.025, HANDLE_Y, HANDLE_Z])

    def drawer_interior(self) -> Bounds:
        return _drawer_interior(self.open_fraction)

    def drawer_rows(self) -> np.ndarray:
        """Read-only (K, 2, 3) lower and upper corners of the tray part
        protruding from the cabinet: front wall, two side walls, floor; K is 0
        while the tray is in or there is no drawer."""
        return _drawer_rows(self.open_fraction) if self.drawer_present else _NO_BOXES

    def object_rows(self) -> np.ndarray:
        """(K, 2, 3) lower and upper corners of the unheld objects that have a
        body, by name."""
        rows = [(obj.position - half, obj.position + half)
                for _, obj in sorted(self.objects.items())
                if not obj.held and (half := OBJECT_HALF.get(obj.kind, 0.0)) > 0]
        return np.array(rows).reshape(-1, 2, 3)

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


def _clip01(x: float) -> float:
    """``np.clip(x, 0.0, 1.0)`` of a number that is not NaN, as a float: the
    same comparisons, so -0.0 also comes out as 0.0."""
    return min(1.0, max(0.0, float(x)))


def _segment_samples(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Samples at most SEGMENT_SAMPLE_RES apart from a to b, both included."""
    d = b - a
    n = max(1, math.ceil(vector_norm(d) / SEGMENT_SAMPLE_RES))
    return a + segment_fractions(n) * d


def _point_segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = b - a
    denom = float(ab.dot(ab))
    t = 0.0 if denom == 0 else _clip01((p - a).dot(ab) / denom)
    return vector_norm(p - (a + t * ab))


def _shift_drawer_contents(scene: Scene, new_fraction: float):
    """Objects sitting in the tray translate with it."""
    interior = scene.drawer_interior()
    dx = -DRAWER_TRAVEL * (new_fraction - scene.open_fraction)
    for name, obj in list(scene.objects.items()):
        if not obj.held and interior.contains(obj.position):
            position = obj.position.copy()
            position[0] += dx
            scene.objects[name] = SimObject(obj.kind, position)
    scene.open_fraction = new_fraction


def _near_boxes(corners, first: list[float], last: list[float]) -> list[int]:
    """Indices of the boxes, given as (x0, y0, z0, x1, y1, z1) rows, that
    overlap the closed axis-aligned extent of ``first`` and ``last``."""
    (sx, sy, sz), (ex, ey, ez) = first, last
    lx, hx = (sx, ex) if sx <= ex else (ex, sx)
    ly, hy = (sy, ey) if sy <= ey else (ey, sy)
    lz, hz = (sz, ez) if sz <= ez else (ez, sz)
    return [k for k, (x0, y0, z0, x1, y1, z1) in enumerate(corners)
            if x0 <= hx and lx <= x1 and y0 <= hy and ly <= y1 and z0 <= hz and lz <= z1]


def step(scene: Scene, action: Action) -> Scene:
    """Apply one keyframe action and return the successor scene.

    The successor shares every object that did not move with ``scene``; the
    ones that moved (the held object, swept rubbish, the tray contents, the
    object grasped or released) are new ``SimObject``s in its own dict.

    Collisions are tested in two phases.  The broad phase keeps the boxes that
    overlap the segment's extent: its samples ``start + f * displacement``
    run monotonically along each axis from ``start`` to ``start +
    displacement``, so a box outside that closed extent holds none of them.
    The narrow phase tests the samples of the segment, SEGMENT_SAMPLE_RES
    apart, against the boxes left, tray rows first, in one broadcast.
    """
    target = np.asarray(action.target.position, dtype=float)
    if not WORKSPACE.contains(target):
        raise OutOfBounds(f"action target {target} outside workspace")

    out = scene.copy()
    # the copy's own array: step replaces out.gripper_position, never writes it
    start = out.gripper_position
    displacement = target - start
    holding_handle = out.held_object == HANDLE_NAME

    # collision bookkeeping + drawer slam; a tray pulled by its handle is not hit
    tray = _NO_BOXES if holding_handle else out.drawer_rows()
    layout = (out.drawer_present, out.cupboard_present, out.dustpan_present)
    near = _near_boxes(_box_corners(tray) + _fixed_corners(*layout),
                       start.tolist(), (start + displacement).tolist())
    hit_any = hit_drawer = False
    if near:
        boxes = np.concatenate((tray, _fixed_rows(*layout)))[near]
        s3 = _segment_samples(start, target)[:, None, :]
        hit = ((s3 >= boxes[:, 0]) & (s3 <= boxes[:, 1])).all(axis=2).any(axis=0).tolist()
        hit_any = any(hit)
        hit_drawer = any(h for k, h in zip(near, hit) if k < len(tray))
    if hit_any:
        out.collision_count += 1
    if hit_drawer:
        direction = displacement / max(vector_norm(displacement), 1e-12)
        if abs(direction[2]) < 0.9 and out.open_fraction > SLAM_FRACTION:
            _shift_drawer_contents(out, SLAM_FRACTION)
            out.drawer_slams += 1

    # move the gripper; handle and held objects track it
    out.gripper_position = target
    held = None
    if holding_handle:
        _shift_drawer_contents(out, _clip01(out.open_fraction - displacement[0] / DRAWER_TRAVEL))
    elif out.held_object is not None:
        held = out.objects[out.held_object]
        out.objects[out.held_object] = held = SimObject(held.kind, target, held.held)

    # a held broom sweeps nearby rubbish along the horizontal motion
    if held is not None and held.kind == "broom":
        horizontal = np.array([displacement[0], displacement[1], 0.0])
        if vector_norm(horizontal) > 0.01:
            for name in out.rubbish_names():
                obj = out.objects[name]
                if obj.held:
                    continue
                if _point_segment_distance(obj.position, start, target) <= SWEEP_RADIUS:
                    out.objects[name] = SimObject(obj.kind, obj.position + horizontal)

    # gripper command
    if action.gripper_command is GripperCommand.CLOSE:
        if out.gripper_state is GripperState.OPEN:
            out.gripper_state = GripperState.CLOSED
            out.held_object = _nearest_graspable(out)
            grasped = out.objects.get(out.held_object)
            if grasped is not None:
                out.objects[out.held_object] = SimObject(grasped.kind, out.gripper_position,
                                                         True)
    elif action.gripper_command is GripperCommand.OPEN:
        released = out.objects.get(out.held_object)
        if released is not None:
            out.objects[out.held_object] = SimObject(released.kind, released.position)
        out.held_object = None
        out.gripper_state = GripperState.OPEN
    return out


def _nearest_graspable(scene: Scene) -> str | None:
    best_name, best_dist = None, GRASP_RADIUS
    for name, obj in sorted(scene.objects.items()):
        if obj.kind not in GRASPABLE_KINDS or obj.held:
            continue
        dist = vector_norm(obj.position - scene.gripper_position)
        if dist <= best_dist:
            best_name, best_dist = name, dist
    if scene.drawer_present:
        dist = vector_norm(scene.handle_position() - scene.gripper_position)
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


@lru_cache(maxsize=8)
def _fixed_corners(drawer_present: bool, cupboard_present: bool,
                   dustpan_present: bool) -> tuple:
    return _box_corners(_fixed_rows(drawer_present, cupboard_present, dustpan_present))


def _box_corners(rows: np.ndarray) -> tuple:
    """(K, 2, 3) corners as plain floats, one (x0, y0, z0, x1, y1, z1) per box."""
    return tuple(map(tuple, rows.reshape(-1, 6).tolist()))


def _drawer_front_x(open_fraction: float) -> float:
    return CABINET_LO[0] - DRAWER_TRAVEL * open_fraction


@lru_cache(maxsize=64)
def _drawer_rows(open_fraction: float) -> np.ndarray:
    """Read-only (K, 2, 3) corners of the tray rows at this open fraction;
    K is 0 while the tray is in."""
    if open_fraction < 0.03:
        return _NO_BOXES
    front = _drawer_front_x(open_fraction)
    rows = np.array([
        [(front - DRAWER_WALL, CABINET_LO[1], 0.0), (front, CABINET_HI[1], DRAWER_WALL_TOP)],
        [(front - DRAWER_WALL, CABINET_LO[1], 0.0),
         (CABINET_LO[0], CABINET_LO[1] + DRAWER_WALL, DRAWER_WALL_TOP)],
        [(front - DRAWER_WALL, CABINET_HI[1] - DRAWER_WALL, 0.0),
         (CABINET_LO[0], CABINET_HI[1], DRAWER_WALL_TOP)],
        [(front - DRAWER_WALL, CABINET_LO[1], 0.0), (CABINET_LO[0], CABINET_HI[1], 0.02)]])
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=64)
def _drawer_interior(open_fraction: float) -> Bounds:
    """The tray's inside at this open fraction."""
    shift = DRAWER_TRAVEL * open_fraction
    return Bounds((CABINET_LO[0] + 0.01 - shift, CABINET_LO[1] + 0.01, 0.02),
                  (CABINET_HI[0] - 0.02 - shift, CABINET_HI[1] - 0.01, DRAWER_WALL_TOP))


@lru_cache(maxsize=8)
def fixed_samples(drawer_present: bool, cupboard_present: bool,
                  dustpan_present: bool) -> np.ndarray:
    """Read-only (N, 3) face samples of the fixed boxes of a scene with these
    parts, in the order of ``_fixed_rows``: cabinet, cupboard walls, dustpan floor."""
    rows = _fixed_rows(drawer_present, cupboard_present, dustpan_present)
    samples = np.vstack([np.zeros((0, 3))] + [_sample_box_faces(lower, upper)
                                              for lower, upper in rows])
    samples.flags.writeable = False
    return samples


def point_cloud(scene: Scene) -> np.ndarray:
    """Stratified surface sampling of every geometry box, plus rubbish points.

    The fixed boxes' samples come first, as the block ``fixed_samples`` keeps
    for the scene's layout.  The parts that move follow, sampled on every
    call: the drawer tray, the unheld objects by name, then one point per
    rubbish item.
    """
    moving = np.concatenate((scene.drawer_rows(), scene.object_rows()))
    points = [fixed_samples(scene.drawer_present, scene.cupboard_present,
                            scene.dustpan_present)]
    points += [_sample_box_faces(lower, upper) for lower, upper in moving]
    points += [scene.objects[name].position[None, :] for name in scene.rubbish_names()]
    return np.vstack(points)


def _sample_box_faces(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Cell midpoints of a grid on each face of the box from ``lower`` to
    ``upper``, CLOUD_DENSITY cells per square metre: the faces normal to x,
    then y, then z, lower face first, points in (u, v) row-major order."""
    size = upper - lower
    counts = [max(1, round(s * _CELLS_PER_METRE)) for s in size.tolist()]
    # the cell midpoints along each axis, shared by the four faces parallel to it
    half = np.arange(max(counts)) + 0.5
    mids = [lower[axis] + half[:n] * size[axis] / n for axis, n in enumerate(counts)]
    pairs = [counts[(axis + 1) % 3] * counts[(axis + 2) % 3] for axis in range(3)]
    out = np.empty((2 * sum(pairs), 3))
    row = 0
    for axis in range(3):
        u, v = (axis + 1) % 3, (axis + 2) % 3
        # both faces of the pair in one block, indexed [face, i, j, coordinate]
        faces = out[row:row + 2 * pairs[axis]].reshape(2, counts[u], counts[v], 3)
        faces[0, :, :, axis] = lower[axis]
        faces[1, :, :, axis] = upper[axis]
        faces[:, :, :, u] = mids[u][:, None]
        faces[:, :, :, v] = mids[v]
        row += 2 * pairs[axis]
    return out
