"""End-effector poses and the distance metrics used for goal matching.

Quaternions are stored (w, x, y, z) and normalized on construction.  q and -q
describe the same orientation, so angular distances are computed on the
absolute dot product.

``as_points`` is the toolkit's one rule for points.  A pose is built for every
action and monitor check, so the rule tests one point in plain floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput

# the default orientation: a unit quaternion already, shared read-only
IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])
IDENTITY_QUAT.flags.writeable = False


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D array: ``math.sqrt(v.dot(v))``, the value
    ``np.linalg.norm`` computes for a vector, without its dispatch."""
    return math.sqrt(v.dot(v))


def as_points(values, name: str, error: type, *, one: bool | None = None,
              finite: bool = False, dim: int = 3) -> np.ndarray:
    """The point rule: ``np.asarray(values, dtype=float)``, not copied, if it is one
    point (``one`` True or None) of shape (dim,), or N points (``one`` False or None)
    of shape (N, dim) or ``[]``, finite if ``finite``; else ``error`` naming ``name``."""
    p = np.asarray(values, dtype=float)
    if p.shape != (dim,) or one is False:
        if p.shape == (0,) and one is not True:
            p = p.reshape(-1, dim)
        elif one or p.ndim != 2 or p.shape[1] != dim:
            wanted = ("have" if one else "be N points of" if one is False
                      else "be one point or N points of")
            raise error(f"{name} must {wanted} {dim} coordinates, got shape {p.shape}")
    if finite and not all(map(math.isfinite, p.ravel().tolist())):
        raise error(f"{name} must be finite, got {p}")
    return p


@dataclass(frozen=True, eq=False)
class Pose:
    """Position (m) plus unit quaternion orientation, robot base frame."""

    position: np.ndarray
    orientation: np.ndarray = field(default_factory=lambda: IDENTITY_QUAT)

    def __post_init__(self):
        # a copy, so a caller's later writes cannot reach it
        pos = as_points(self.position, "position", InvalidInput, one=True, finite=True).copy()
        # setflags is cheaper than assigning through the flags object
        pos.setflags(write=False)
        object.__setattr__(self, "position", pos)
        if self.orientation is IDENTITY_QUAT:
            return
        quat = as_points(self.orientation, "orientation", InvalidInput, one=True,
                         finite=True, dim=4)
        norm = vector_norm(quat)
        if norm == 0.0:
            raise InvalidInput("orientation quaternion has zero norm")
        quat = quat / norm
        quat.setflags(write=False)
        object.__setattr__(self, "orientation", quat)

    def to_dict(self) -> dict:
        return {"pos": [round(float(v), 12) for v in self.position],
                "quat": [round(float(v), 12) for v in self.orientation]}

    @classmethod
    def from_dict(cls, data: dict) -> "Pose":
        return cls(data["pos"], data["quat"])


def pose_distance(a: Pose, b: Pose) -> tuple[float, float]:
    """Positional distance (m) and angular distance (rad) between two poses."""
    positional = vector_norm(a.position - b.position)
    dot = abs(float(a.orientation.dot(b.orientation)))
    angular = 2.0 * float(np.arccos(min(dot, 1.0)))
    return positional, angular


def is_goal_reached(current: Pose, goal: Pose, tol_pos: float, tol_ang: float) -> bool:
    if tol_pos <= 0 or tol_ang <= 0:
        raise ValueError("tolerances must be positive")
    d_pos, d_ang = pose_distance(current, goal)
    return d_pos <= tol_pos and d_ang <= tol_ang


def quat_slerp(qa, qb, t: float) -> np.ndarray:
    """Spherical interpolation between unit quaternions, shortest arc."""
    qa = as_points(qa, "qa", InvalidInput, one=True, finite=True, dim=4)
    qb = as_points(qb, "qb", InvalidInput, one=True, finite=True, dim=4)
    dot = float(np.dot(qa, qb))
    if dot < 0.0:
        qb = -qb
        dot = -dot
    if dot > 1.0 - 1e-10:
        out = qa + t * (qb - qa)
    else:
        theta = np.arccos(min(dot, 1.0))
        out = (np.sin((1 - t) * theta) * qa + np.sin(t * theta) * qb) / np.sin(theta)
    return out / vector_norm(out)
