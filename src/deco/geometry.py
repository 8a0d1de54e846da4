"""End-effector poses and the distance metrics used for goal matching.

Quaternions are stored (w, x, y, z) and normalized on construction.  q and -q
describe the same orientation, so angular distances are computed on the
absolute dot product.

A pose is built for every action and every monitor check, so validation runs
on single vectors in plain floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

QUAT_NORM_TOL = 1e-6

# the default orientation: a unit quaternion already, shared read-only
IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])
IDENTITY_QUAT.flags.writeable = False


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D array: ``math.sqrt(v.dot(v))``, the value
    ``np.linalg.norm`` computes for a vector, without its dispatch."""
    return math.sqrt(v.dot(v))


def _as_vec(values, n, name):
    """A float copy of ``values``, so a caller's later writes cannot reach it."""
    arr = np.asarray(values, dtype=float).reshape(-1).copy()
    if arr.shape != (n,):
        raise ValueError(f"{name} must have {n} components, got shape {arr.shape}")
    if not all(map(math.isfinite, arr.tolist())):
        raise ValueError(f"{name} components must be finite: {arr}")
    return arr


@dataclass(frozen=True, eq=False)
class Pose:
    """Position (m) plus unit quaternion orientation, robot base frame."""

    position: np.ndarray
    orientation: np.ndarray = field(default_factory=lambda: IDENTITY_QUAT)

    def __post_init__(self):
        pos = _as_vec(self.position, 3, "position")
        # setflags is cheaper than assigning through the flags object
        pos.setflags(write=False)
        object.__setattr__(self, "position", pos)
        if self.orientation is IDENTITY_QUAT:
            return
        quat = _as_vec(self.orientation, 4, "orientation")
        norm = vector_norm(quat)
        if norm == 0.0:
            raise ValueError("orientation quaternion has zero norm")
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
    qa = np.asarray(qa, dtype=float)
    qb = np.asarray(qb, dtype=float)
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
