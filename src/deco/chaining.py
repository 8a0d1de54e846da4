"""Transition planning between consecutive skills.

A transition's ends are checked once: a blocked end fails it.  A transition
whose straight segment is free is that one segment.  Any other goes through
the chaining poses: they start on the straight interpolant between the
previous goal and the next start pose, then slide down the cost field until
they clear the collision threshold.  RRT-Connect joins each pair of
consecutive anchors, and the joined path is shortcut once, as a whole
(Geraerts & Overmars, IJRR 2007), so a pose that a free segment can skip is
no waypoint.

A transition pays for what is blocked.  Each starting point is tested once,
as the first step of its refinement, and only a blocked one moves.  Every leg
goes to ``rrt_path``, which returns a free leg as its one segment and
searches only a blocked one.

The search works on single points, so it works in plain floats and gives the
bytes that numpy arrays would.  A length that decides a step or a sample count
stays ``vector_norm``'s numpy dot, whose rounding Python floats do not
reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import check_count
from .costmap import CostMap
from .errors import NoFreeChain, PlanningFailure
from .geometry import Pose, as_points, quat_slerp, vector_norm

MAX_REFINE_ITERS = 200
MAX_INTERPOLANT_DEVIATION = 0.15
RRT_STEP = 0.03
RRT_MAX_ITERS = 5000

# the six central-difference probe directions: +x, +y, +z, then -x, -y, -z
_PROBE_DIRECTIONS = np.vstack([np.eye(3), -np.eye(3)])
_PROBE_DIRECTIONS.flags.writeable = False


@dataclass
class ChainingResult:
    """The chaining poses a transition was planned through, ``[]`` when its
    straight segment is free, and the waypoints from the previous goal to
    the next start."""
    poses: list[Pose]
    path: list[np.ndarray]


def _cost_gradient(cmap: CostMap, point: np.ndarray) -> np.ndarray:
    """Central differences along each axis, one voxel either side."""
    h = cmap.voxel_size
    cost = cmap.cost_at(point + _PROBE_DIRECTIONS * h)
    return (cost[:3] - cost[3:]) / (2 * h)


def _refine_position(init: np.ndarray, cmap: CostMap) -> np.ndarray:
    """Projected gradient descent on the cost field, anchored to the interpolant;
    a free ``init`` comes back itself, and no step writes to it."""
    pos = init
    step = 0.5 * cmap.voxel_size
    for _ in range(MAX_REFINE_ITERS):
        if cmap.is_free(pos):
            return pos
        grad = _cost_gradient(cmap, pos)
        norm = vector_norm(grad)
        if norm < 1e-12:
            # flat plateau inside an obstacle: nudge toward the map center
            direction = cmap.origin + 0.5 * (cmap.upper - cmap.origin) - pos
            dnorm = vector_norm(direction)
            if dnorm < 1e-12:
                break
            pos = pos + step * direction / dnorm
        else:
            pos = pos - step * grad / norm
        offset = pos - init
        dev = vector_norm(offset)
        if dev > MAX_INTERPOLANT_DEVIATION:
            pos = init + offset * (MAX_INTERPOLANT_DEVIATION / dev)
    if cmap.is_free(pos):
        return pos
    raise NoFreeChain(f"no collision-free chaining pose near {init}")


def chaining_poses(start: Pose, end: Pose, cmap: CostMap, m: int) -> list[Pose]:
    """M poses at fractions k / (M + 1) of the way from start to end; a
    position whose starting point is blocked is refined off the obstacle.

    Orientations are slerped from start to end.  When both poses share one
    orientation array, every pose takes that array: for ``IDENTITY_QUAT`` it
    is the slerp's bytes.
    """
    check_count(m, "number of chaining poses")
    ts = [k / (m + 1) for k in range(1, m + 1)]
    column = np.array(ts).reshape(-1, 1)
    inits = (1 - column) * start.position + column * end.position
    shared = start.orientation is end.orientation
    poses = []
    for t, init in zip(ts, inits):
        orientation = (start.orientation if shared
                       else quat_slerp(start.orientation, end.orientation, t))
        poses.append(Pose(_refine_position(init, cmap), orientation))
    return poses


def _steer(from_pt: list, to_pt: list, step: float) -> list:
    """``to_pt`` itself when it lies within ``step`` of ``from_pt``, else the
    point ``step`` from ``from_pt`` toward it.  The distance is
    ``vector_norm``'s, as the sample count of ``segment_free`` is."""
    delta = [t - f for f, t in zip(from_pt, to_pt)]
    dist = vector_norm(np.array(delta))
    if dist <= step:
        return to_pt
    scale = step / dist
    return [f + d * scale for f, d in zip(from_pt, delta)]


def _shortcut(path: list[np.ndarray], cmap: CostMap) -> list[np.ndarray]:
    """Greedy pruning: from each node jump to the furthest visible node."""
    out = [path[0]]
    i = 0
    while i < len(path) - 1:
        j = len(path) - 1
        while j > i + 1 and not cmap.segment_free(path[i], path[j]):
            j -= 1
        out.append(path[j])
        i = j
    return out


def _coincident(a: np.ndarray, b: np.ndarray) -> bool:
    """``np.allclose(a, b)`` with its default tolerances, in floats."""
    (ax, ay, az), (bx, by, bz) = a.tolist(), b.tolist()
    return (abs(ax - bx) <= 1e-8 + 1e-5 * abs(bx) and abs(ay - by) <= 1e-8 + 1e-5 * abs(by)
            and abs(az - bz) <= 1e-8 + 1e-5 * abs(bz))


def _check_ends(a: np.ndarray, b: np.ndarray, cmap: CostMap):
    """Raise ``PlanningFailure`` naming both ends and their costs unless both are free."""
    if not cmap.is_free(a) or not cmap.is_free(b):
        raise PlanningFailure(f"endpoint in collision: a={a} (cost {cmap.cost_at(a):.3f}), "
                              f"b={b} (cost {cmap.cost_at(b):.3f})")


def rrt_path(a, b, cmap: CostMap, seed: int = 0) -> list[np.ndarray]:
    """Plan a collision-free polyline from a to b with RRT-Connect.

    Free ends that coincide give ``[a]``, and a free segment gives ``[a, b]``.
    Otherwise one tree grows from each endpoint and they take turns (Kuffner &
    LaValle, ICRA 2000): the growing tree extends one ``RRT_STEP`` toward a
    sample, then the other tree steps greedily toward the new node until it
    reaches it or is blocked.  The path is the connected branch, node by node,
    not shortcut.  Deterministic given the seed.

    The trees hold their nodes as lists of three floats: a sample is drawn as
    ``lo + r * size`` per coordinate, and the nearest node is the first at the
    least ``math.sqrt`` of its summed squared offsets, the distance and the
    argmin of ``np.linalg.norm(axis=1)``.  The waypoints are fresh arrays.
    """
    check_count(seed, "seed")
    a = as_points(a, "endpoint a", PlanningFailure, one=True, finite=True)
    b = as_points(b, "endpoint b", PlanningFailure, one=True, finite=True)
    _check_ends(a, b, cmap)
    if _coincident(a, b):
        return [a]
    if cmap.segment_free(a, b):
        return [a, b]

    rng = np.random.default_rng(seed)
    map_lo, map_hi = cmap.origin, cmap.upper
    # half the samples come from a window around the endpoints: connection
    # legs are short and pure whole-map sampling starves the region of interest
    margin = max(0.15, 2 * vector_norm(b - a))
    win_lo = np.maximum(np.minimum(a, b) - margin, map_lo)
    win_hi = np.minimum(np.maximum(a, b) + margin, map_hi)
    # each sampling region as its lower corner and its size
    window = win_lo.tolist(), (win_hi - win_lo).tolist()
    whole = map_lo.tolist(), (map_hi - map_lo).tolist()
    # tree 0 grows from a, tree 1 from b.  A greedy connect can add many nodes
    # in one iteration, so the node count is a cap that is checked, not a
    # bound that iterations guarantee
    nodes = ([a.tolist()], [b.tolist()])
    parents = ([-1], [-1])

    def nearest(tree: int, point: list) -> int:
        px, py, pz = point
        best, best_dist = 0, math.inf
        for i, (x, y, z) in enumerate(nodes[tree]):
            dx, dy, dz = x - px, y - py, z - pz
            dist = math.sqrt(dx * dx + dy * dy + dz * dz)
            if dist < best_dist:
                best, best_dist = i, dist
        return best

    def add(tree: int, point: list, parent: int) -> int:
        n = len(parents[tree])
        if n == RRT_MAX_ITERS + 1:
            raise PlanningFailure(f"RRT tree reached its cap of {n} nodes")
        nodes[tree].append(point)
        parents[tree].append(parent)
        return n

    def branch(tree: int, idx: int) -> list[np.ndarray]:
        """Arrays of the nodes from ``idx`` back to the tree's root."""
        out = []
        while idx >= 0:
            out.append(np.array(nodes[tree][idx]))
            idx = parents[tree][idx]
        return out

    for it in range(RRT_MAX_ITERS):
        grow, other = it % 2, 1 - it % 2
        lo, size = window if rng.random() < 0.5 else whole
        sample = [l + r * s for l, r, s in zip(lo, rng.random(3).tolist(), size)]
        near = nearest(grow, sample)
        new_pt = _steer(nodes[grow][near], sample, RRT_STEP)
        if not cmap.segment_free(nodes[grow][near], new_pt):
            continue
        new = add(grow, new_pt, near)
        idx = nearest(other, new_pt)
        while True:
            step_pt = _steer(nodes[other][idx], new_pt, RRT_STEP)
            if not cmap.segment_free(nodes[other][idx], step_pt):
                break
            if step_pt is new_pt:
                # _steer hands back new_pt itself once it is within one step,
                # so the trees meet there: a's branch, then b's
                a_end, b_end = (new, idx) if grow == 0 else (idx, new)
                return branch(0, a_end)[::-1] + branch(1, b_end)
            idx = add(other, step_pt, idx)
    raise PlanningFailure(f"RRT failed to connect after {RRT_MAX_ITERS} iterations")


def chain_skills(goal_prev: Pose, start_next: Pose, cmap: CostMap, m: int,
                 seed: int = 0) -> ChainingResult:
    """The path from the previous goal to the next start.

    Both ends are checked first, as ``rrt_path`` checks them, and a blocked
    one fails the transition before any chaining pose.  The path is ``[a]``
    when the ends coincide and ``[a, b]`` when ``segment_free`` passes, with
    no chaining pose.  Otherwise it runs through the chaining poses, each leg
    is ``rrt_path``'s, and the joined path is shortcut once.
    """
    check_count(seed, "seed")
    # before the straight test, so that a free transition refuses a bad M too
    check_count(m, "number of chaining poses")
    a, b = goal_prev.position, start_next.position
    _check_ends(a, b, cmap)
    if _coincident(a, b):
        return ChainingResult(poses=[], path=[a])
    if cmap.segment_free(a, b):
        return ChainingResult(poses=[], path=[a, b])
    poses = chaining_poses(goal_prev, start_next, cmap, m)
    anchors = [a] + [p.position for p in poses] + [b]
    path: list[np.ndarray] = []
    for leg, (p, q) in enumerate(zip(anchors, anchors[1:])):
        sub = rrt_path(p, q, cmap, seed + leg)
        path.extend(sub[1:] if path else sub)
    return ChainingResult(poses=poses, path=_shortcut(path, cmap))
