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

from ..config import is_number
from ..costmap import Bounds
from ..errors import InvalidInput, OutOfBounds
from ..geometry import IDENTITY_QUAT, Pose, as_points, vector_norm
from ..trajectory import GripperState


def _read_only(position) -> np.ndarray:
    """A read-only float copy of ``position``: scenes share position arrays."""
    out = np.array(position, dtype=float)
    out.flags.writeable = False
    return out


# workspace (robot base frame, meters)
WORKSPACE = Bounds((0.20, -0.45, 0.0), (0.80, 0.45, 0.50))
HOME = _read_only((0.30, 0.0, 0.30))

GRASP_RADIUS = 0.04
SWEEP_RADIUS = 0.05
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

# an object's name prefix says what it is: the half-width of its cube body, if
# it has one; "rubbish" names a bodiless speck.  Every object can be grasped.
BODY_HALF = {"item": 0.02, "box": 0.025, "broom": 0.02}

HANDLE_NAME = "drawer_handle"


class GripperCommand(str, Enum):
    OPEN = "open"
    CLOSE = "close"
    HOLD = "hold"


@dataclass(frozen=True)
class Action:
    target: Pose
    gripper_command: GripperCommand = GripperCommand.HOLD


def _body_half(name: str) -> float:
    """Half-width of the named object's body, by ``BODY_HALF`` prefix; 0.0 for
    an object without one."""
    for prefix, half in BODY_HALF.items():
        if name.startswith(prefix):
            return half
    return 0.0


@dataclass(eq=False)
class Scene:
    """The simulator's state.  ``objects`` maps each object's name to its
    position; an object is held exactly when its name is ``held_object``.

    Scenes share position arrays, so every position, the gripper's included,
    is read-only and a move stores a new array.  The constructor stores
    read-only float copies of the positions it is given, each one finite
    point by the point rule, and refuses an ``open_fraction`` outside [0, 1]
    or NaN; ``step`` and ``copy`` do not check again.
    """

    drawer_present: bool = False
    open_fraction: float = 0.0
    cupboard_present: bool = False
    dustpan_present: bool = False
    objects: dict[str, np.ndarray] = field(default_factory=dict)
    gripper_position: np.ndarray = field(default_factory=lambda: HOME)
    gripper_state: GripperState = GripperState.OPEN
    held_object: str | None = None
    collision_count: int = 0
    drawer_slams: int = 0

    def __post_init__(self):
        if not (is_number(self.open_fraction) and self.open_fraction <= 1):
            raise InvalidInput(f"open_fraction must lie in [0, 1], got {self.open_fraction!r}")
        self.objects = {name: _read_only(as_points(p, f"object {name!r} position", InvalidInput,
                                                   one=True, finite=True))
                        for name, p in self.objects.items()}
        self.gripper_position = _read_only(as_points(self.gripper_position, "gripper position",
                                                     InvalidInput, one=True, finite=True))

    def copy(self) -> "Scene":
        """Every field, with the ``objects`` dict copied; the read-only
        position arrays are shared with this scene."""
        out = object.__new__(Scene)
        out.__dict__.update(self.__dict__)
        out.objects = dict(self.objects)
        return out

    # --- derived geometry ---

    def handle_position(self) -> np.ndarray:
        return np.array([_drawer_front_x(self.open_fraction) - 0.025, HANDLE_Y, HANDLE_Z])

    def drawer_interior(self) -> Bounds:
        return _drawer_interior(self.open_fraction)

    def drawer_boxes(self) -> tuple[Bounds, ...]:
        """The tray part protruding from the cabinet: front wall, two side
        walls, floor; none while the tray is in or there is no drawer."""
        return _drawer_boxes(self.open_fraction) if self.drawer_present else ()

    def object_boxes(self) -> list[Bounds]:
        """The bodies of the unheld objects that have one, by name."""
        return [Bounds(position - half, position + half)
                for name, position in sorted(self.objects.items())
                if name != self.held_object and (half := _body_half(name)) > 0]

    # --- queries ---

    def gripper_pose(self) -> Pose:
        return Pose(self.gripper_position, IDENTITY_QUAT)

    def rubbish_names(self) -> list[str]:
        return sorted(n for n in self.objects if n.startswith("rubbish"))

    def rubbish_in_dustpan_fraction(self) -> float:
        names = self.rubbish_names()
        if not names:
            return 0.0
        inside = sum(1 for n in names if DUSTPAN_VOLUME.contains(self.objects[n]))
        return inside / len(names)


def _clip01(x: float) -> float:
    """``np.clip(x, 0.0, 1.0)`` of a number that is not NaN, as a float: the
    same comparisons, so -0.0 also comes out as 0.0."""
    return min(1.0, max(0.0, float(x)))


def _point_segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = b - a
    denom = float(ab.dot(ab))
    t = 0.0 if denom == 0 else _clip01((p - a).dot(ab) / denom)
    return vector_norm(p - (a + t * ab))


def _shift_drawer_contents(scene: Scene, new_fraction: float):
    """Unheld objects sitting in the tray translate with it."""
    interior = scene.drawer_interior()
    dx = -DRAWER_TRAVEL * (new_fraction - scene.open_fraction)
    for name, position in scene.objects.items():
        if name != scene.held_object and interior.holds(*position.tolist()):
            moved = position.copy()
            moved[0] += dx
            moved.flags.writeable = False
            scene.objects[name] = moved
    scene.open_fraction = new_fraction


def _hit_boxes(boxes: tuple[Bounds, ...], first: list[float], last: list[float]) -> list[int]:
    """Indices of the boxes that the closed segment from ``first`` to ``last``
    meets, faces included, in plain floats.

    Each box whose ``corners`` overlap the segment's closed extent clips t in
    [0, 1] to the slab of every axis the segment moves along (Kay and Kajiya's
    slab test); an axis it does not move along clips nothing, as the extent
    test put that coordinate inside the slab.  The box is hit when t is left.
    """
    (sx, sy, sz), (ex, ey, ez) = first, last
    lx, hx = (sx, ex) if sx <= ex else (ex, sx)
    ly, hy = (sy, ey) if sy <= ey else (ey, sy)
    lz, hz = (sz, ez) if sz <= ez else (ez, sz)
    dx, dy, dz = ex - sx, ey - sy, ez - sz
    hits = []
    for k, (x0, y0, z0, x1, y1, z1) in enumerate(box.corners for box in boxes):
        if x0 <= hx and lx <= x1 and y0 <= hy and ly <= y1 and z0 <= hz and lz <= z1:
            enter, leave = 0.0, 1.0
            for s, d, lo, hi in ((sx, dx, x0, x1), (sy, dy, y0, y1), (sz, dz, z0, z1)):
                if d:
                    t0, t1 = ((lo - s) / d, (hi - s) / d) if d > 0 else ((hi - s) / d, (lo - s) / d)
                    enter, leave = (t0 if t0 > enter else enter), (t1 if t1 < leave else leave)
            if enter <= leave:
                hits.append(k)
    return hits


def step(scene: Scene, action: Action) -> Scene:
    """Apply one keyframe action and return the successor scene.

    The successor shares with ``scene`` the position of every object that did
    not move.  Those that moved get new read-only arrays in its own dict: the
    held object, and an object grasped, store the action's target, which is
    also the gripper's position; swept rubbish and the tray contents get new
    arrays.  A release moves nothing.

    A move collides when its segment, from ``start`` to ``start +
    displacement``, meets a box (``_hit_boxes``); it hits the drawer when the
    first box it meets is a tray box, as the tray's boxes come first.
    """
    target = np.asarray(action.target.position, dtype=float)
    if not WORKSPACE.holds(*target.tolist()):
        raise OutOfBounds(f"action target {target} outside workspace")

    out = scene.copy()
    start = out.gripper_position
    displacement = target - start
    holding_handle = out.held_object == HANDLE_NAME

    # collision bookkeeping + drawer slam; a tray pulled by its handle is not hit
    tray = () if holding_handle else out.drawer_boxes()
    boxes = tray + _fixed_boxes(out.drawer_present, out.cupboard_present, out.dustpan_present)
    hits = _hit_boxes(boxes, start.tolist(), (start + displacement).tolist())
    if hits:
        out.collision_count += 1
    if hits and hits[0] < len(tray):
        direction = displacement / max(vector_norm(displacement), 1e-12)
        if abs(direction[2]) < 0.9 and out.open_fraction > SLAM_FRACTION:
            _shift_drawer_contents(out, SLAM_FRACTION)
            out.drawer_slams += 1

    # move the gripper; handle and held objects track it
    out.gripper_position = target
    if holding_handle:
        _shift_drawer_contents(out, _clip01(out.open_fraction - displacement[0] / DRAWER_TRAVEL))
    elif out.held_object is not None:
        out.objects[out.held_object] = target
        # a held broom sweeps nearby rubbish along the horizontal motion
        if out.held_object.startswith("broom"):
            horizontal = np.array([displacement[0], displacement[1], 0.0])
            if vector_norm(horizontal) > 0.01:
                for name in out.rubbish_names():
                    position = out.objects[name]
                    if _point_segment_distance(position, start, target) <= SWEEP_RADIUS:
                        out.objects[name] = _read_only(position + horizontal)

    # gripper command
    if action.gripper_command is GripperCommand.CLOSE:
        if out.gripper_state is GripperState.OPEN:
            out.gripper_state = GripperState.CLOSED
            out.held_object = _nearest_graspable(out)
            if out.held_object in out.objects:
                out.objects[out.held_object] = target
    elif action.gripper_command is GripperCommand.OPEN:
        out.held_object = None
        out.gripper_state = GripperState.OPEN
    return out


def _nearest_graspable(scene: Scene) -> str | None:
    best_name, best_dist = None, GRASP_RADIUS
    for name, position in sorted(scene.objects.items()):
        if name == scene.held_object:
            continue
        dist = vector_norm(position - scene.gripper_position)
        if dist <= best_dist:
            best_name, best_dist = name, dist
    if scene.drawer_present:
        dist = vector_norm(scene.handle_position() - scene.gripper_position)
        if dist <= best_dist:
            best_name = HANDLE_NAME
    return best_name


def _fixed_boxes(drawer_present: bool, cupboard_present: bool,
                 dustpan_present: bool) -> tuple[Bounds, ...]:
    """The boxes that never move of a scene with these parts: cabinet,
    cupboard walls, dustpan floor."""
    return (((CABINET,) if drawer_present else ()) + (CUPBOARD_WALLS if cupboard_present else ())
            + ((DUSTPAN_FLOOR,) if dustpan_present else ()))


def _drawer_front_x(open_fraction: float) -> float:
    return CABINET_LO[0] - DRAWER_TRAVEL * open_fraction


@lru_cache(maxsize=64)
def _drawer_boxes(open_fraction: float) -> tuple[Bounds, ...]:
    """The tray's front wall, side walls and floor at this open fraction;
    none while the tray is in."""
    if open_fraction < 0.03:
        return ()
    front = _drawer_front_x(open_fraction)
    back = front - DRAWER_WALL
    return (Bounds((back, CABINET_LO[1], 0.0), (front, CABINET_HI[1], DRAWER_WALL_TOP)),
            Bounds((back, CABINET_LO[1], 0.0),
                   (CABINET_LO[0], CABINET_LO[1] + DRAWER_WALL, DRAWER_WALL_TOP)),
            Bounds((back, CABINET_HI[1] - DRAWER_WALL, 0.0),
                   (CABINET_LO[0], CABINET_HI[1], DRAWER_WALL_TOP)),
            Bounds((back, CABINET_LO[1], 0.0), (CABINET_LO[0], CABINET_HI[1], 0.02)))


@lru_cache(maxsize=64)
def _drawer_interior(open_fraction: float) -> Bounds:
    """The tray's inside at this open fraction."""
    shift = DRAWER_TRAVEL * open_fraction
    return Bounds((CABINET_LO[0] + 0.01 - shift, CABINET_LO[1] + 0.01, 0.02),
                  (CABINET_HI[0] - 0.02 - shift, CABINET_HI[1] - 0.01, DRAWER_WALL_TOP))


@lru_cache(maxsize=16)
def fixed_samples(drawer_present: bool, cupboard_present: bool, dustpan_present: bool,
                  open_fraction: float) -> np.ndarray:
    """Read-only (N, 3) face samples of the boxes of a scene with these parts
    whose tray is at ``open_fraction``: the fixed boxes in the order of
    ``_fixed_boxes`` (cabinet, cupboard walls, dustpan floor), then the tray's
    boxes, as ``Scene.drawer_boxes`` gives them."""
    boxes = (_fixed_boxes(drawer_present, cupboard_present, dustpan_present)
             + (_drawer_boxes(open_fraction) if drawer_present else ()))
    samples = np.vstack([np.zeros((0, 3))] + [_sample_box_faces(box) for box in boxes])
    samples.flags.writeable = False
    return samples


def point_cloud(scene: Scene) -> np.ndarray:
    """Stratified surface sampling of every geometry box, plus rubbish points.

    The boxes that stay put while the tray does come first, as the block
    ``fixed_samples`` keeps per scene layout and tray opening: the fixed boxes,
    then the drawer tray.  The objects follow, sampled on every call: the
    bodies of the unheld objects by name (``Scene.object_boxes``), then one
    point per rubbish item at its position.
    """
    points = [fixed_samples(scene.drawer_present, scene.cupboard_present,
                            scene.dustpan_present, scene.open_fraction)]
    points += [_sample_box_faces(box) for box in scene.object_boxes()]
    points += [scene.objects[name][None, :] for name in scene.rubbish_names()]
    return np.vstack(points)


def _sample_box_faces(box: Bounds) -> np.ndarray:
    """Cell midpoints of a grid on each face of the box, CLOUD_DENSITY cells
    per square metre: the faces normal to x, then y, then z, lower face first,
    points in (u, v) row-major order."""
    lower, upper = box.lower, box.upper
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
