"""Property tests of the cost map, the voxel lookup, the segment check, the RRT
planner, the point cloud and the simulator's box test.

Each property is checked against a reference written here with plain Python
arithmetic on the cost grid, not against other ``CostMap`` methods; the
planner's determinism is checked by comparing two calls byte for byte, and its
float search against ``reference_rrt``, the same search in numpy arrays.  The
cost-map table, the shared fixed-box samples, the maps built on a cached fixed
layer and the box test per step are gated byte for byte against references
that recompute every distance, sample every box and test one ``Bounds`` at a
time; the step's exact segment test, broad phase included, is also gated
against a numpy slab test of every box in one broadcast, and must report
every box that holds a sample of the segment at 0.5 mm spacing.  The examples
are derandomized, so every run checks the same cases.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from deco.chaining import RRT_MAX_ITERS, RRT_STEP, _refine_position, chain_skills, rrt_path
from deco.costmap import (Bounds, CostMap, _exact_window, build_cost_map, cost_from_distance,
                          distance_grid, occupancy_from_points)
from deco.errors import NoFreeChain, PlanningFailure
from deco.executor import _fixed_layer, transition_cost_map
from deco.geometry import Pose, quat_slerp, vector_norm
from deco.sim.scene import (BODY_HALF, CABINET, CABINET_HI, CABINET_LO, CLOUD_DENSITY,
                            CUPBOARD_WALLS, DRAWER_TRAVEL, DRAWER_WALL, DRAWER_WALL_TOP,
                            DUSTPAN_FLOOR, DUSTPAN_HI, HANDLE_NAME, SLAM_FRACTION, WORKSPACE,
                            Action, Scene, point_cloud, step)
from deco.trajectory import GripperState

PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)


def reference_cost(cost, origin, voxel, point) -> float:
    """Cost of the voxel holding the point, 1.0 outside the grid."""
    idx = [math.floor((float(p) - float(o)) / voxel) for p, o in zip(point, origin)]
    if all(0 <= i < d for i, d in zip(idx, cost.shape)):
        return float(cost[idx[0], idx[1], idx[2]])
    return 1.0


def reference_segment_free(cost, origin, voxel, threshold, a, b) -> bool:
    """Every sample at voxel/2 along the segment is below the threshold."""
    length = math.dist(a, b)
    n = max(1, math.ceil(length / (voxel / 2)))
    for s in range(n + 1):
        t = s / n
        point = [p + t * (q - p) for p, q in zip(a, b)]
        if reference_cost(cost, origin, voxel, point) >= threshold:
            return False
    return True


@st.composite
def grid_cost_maps(draw):
    dims = tuple(draw(st.integers(1, 6)) for _ in range(3))
    voxel = draw(st.sampled_from([0.02, 0.05, 0.1, 0.25]))
    origin = [draw(st.floats(-1.0, 1.0)) for _ in range(3)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # high powers leave few voxels above the threshold, so segments can pass
    cost = rng.random(dims) ** draw(st.sampled_from([1, 4, 16]))
    return CostMap(origin, voxel, cost, 0.05)


@st.composite
def built_cost_maps(draw):
    """Maps from ``build_cost_map``, which answer free/blocked from the dilated grid."""
    points, bounds, voxel, inflation = draw(clouds())
    return build_cost_map(points, bounds, voxel, inflation)


def cost_maps():
    return grid_cost_maps() | built_cost_maps()


@st.composite
def probe_points(draw, cmap):
    """Points inside the map, on voxel faces, below ``origin`` and at or above ``upper``."""
    points = []
    for _ in range(draw(st.integers(1, 12))):
        point = []
        for axis in range(3):
            index = draw(st.integers(-2, cmap.dims[axis] + 1))
            frac = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0, exclude_max=True))
            point.append(cmap.origin[axis] + (index + frac) * cmap.voxel_size)
        points.append(point)
    points.append(list(cmap.upper))
    points.append(list(cmap.origin))
    return np.array(points)


@PROPERTY_SETTINGS
@given(st.data())
def test_cost_at_matches_direct_grid_indexing(data):
    cmap = data.draw(cost_maps())
    points = data.draw(probe_points(cmap))
    expected = [reference_cost(cmap.cost, cmap.origin, cmap.voxel_size, p) for p in points]
    batched = cmap.cost_at(points)
    assert batched.shape == (len(points),)
    assert batched.tolist() == expected
    assert [cmap.cost_at(p) for p in points] == expected
    assert [cmap.is_free(p) for p in points] == [c < cmap.collision_threshold for c in expected]


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(st.data())
def test_segment_free_matches_dense_reference(data):
    cmap = data.draw(cost_maps())
    # mostly inside the map, sometimes up to one voxel outside it
    margin = data.draw(st.sampled_from([0.0, 0.0, 0.0, cmap.voxel_size]))
    lo, hi = cmap.origin - margin, cmap.upper + margin
    a, b = ([data.draw(st.floats(float(l), float(h))) for l, h in zip(lo, hi)]
            for _ in range(2))
    expected = reference_segment_free(cmap.cost, cmap.origin, cmap.voxel_size,
                                      cmap.collision_threshold, a, b)
    assert cmap.segment_free(a, b) == expected


def test_segment_fractions_are_the_steps_the_float_walk_takes():
    """``segment_free`` walks ``i * (1 / n)`` for i < n, then exactly 1."""
    for n in range(1, 1500):
        step = 1.0 / n
        assert np.linspace(0, 1, n + 1).tolist() == [i * step for i in range(n)] + [1.0]


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(st.data())
def test_segment_free_walk_is_the_lookup_of_its_samples(data):
    """The float walk answers as one lookup of ``a + np.linspace(0, 1, n + 1) * d``,
    also for segments that leave the map, start or end outside it, or lie on
    voxel faces."""
    cmap = data.draw(cost_maps())
    extent = cmap.upper - cmap.origin
    lo, hi = cmap.origin - extent, cmap.upper + extent
    probes = list(data.draw(probe_points(cmap)))
    a, b = (data.draw(st.sampled_from(probes)
                      | st.tuples(*(st.floats(float(l), float(h)) for l, h in zip(lo, hi))))
            for _ in range(2))
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    d = b - a
    n = max(1, math.ceil(vector_norm(d) / (cmap.voxel_size / 2)))
    expected = not cmap._lookup(cmap.blocked, a + np.linspace(0, 1, n + 1)[:, None] * d).any()
    assert cmap.segment_free(a, b) is expected


WALL_DIMS = (8, 8, 8)
WALL_VOXEL = 0.05


@st.composite
def wall_scenes(draw):
    """A wall across x with one open voxel; a and b lie on either side of it."""
    cost = np.zeros(WALL_DIMS)
    wall = draw(st.integers(3, 4))
    cost[wall] = 1.0
    cost[wall, draw(st.integers(0, 7)), draw(st.integers(0, 7))] = 0.0
    cmap = CostMap([0.0, 0.0, 0.0], WALL_VOXEL, cost, 0.05)

    def free_point(x_lo, x_hi):
        voxel = [draw(st.integers(x_lo, x_hi)), draw(st.integers(0, 7)), draw(st.integers(0, 7))]
        frac = [draw(st.floats(0.1, 0.9)) for _ in range(3)]
        return np.array([(i + f) * WALL_VOXEL for i, f in zip(voxel, frac)])

    return cmap, free_point(0, wall - 1), free_point(wall + 1, 7)


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(wall_scenes(), st.integers(0, 1000))
def test_rrt_path_keeps_endpoints_and_every_segment_is_free(scene, seed):
    cmap, a, b = scene
    path = rrt_path(a, b, cmap, seed)
    assert np.array_equal(path[0], a)
    assert np.array_equal(path[-1], b)
    for p, q in zip(path, path[1:]):
        assert reference_segment_free(cmap.cost, cmap.origin, cmap.voxel_size,
                                      cmap.collision_threshold, list(p), list(q))


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(wall_scenes(), st.integers(0, 1000))
def test_rrt_path_is_byte_identical_for_one_seed(scene, seed):
    cmap, a, b = scene
    first, second = rrt_path(a, b, cmap, seed), rrt_path(a, b, cmap, seed)
    assert [w.tobytes() for w in first] == [w.tobytes() for w in second]


def reference_chain(goal_prev: Pose, start_next: Pose, cmap: CostMap, m: int, seed: int):
    """A transition planned pose by pose and leg by leg: each chaining pose
    refined from its starting point, then one ``rrt_path`` call per leg."""
    poses = []
    for k in range(1, m + 1):
        t = k / (m + 1)
        init = (1 - t) * goal_prev.position + t * start_next.position
        orientation = quat_slerp(goal_prev.orientation, start_next.orientation, t)
        poses.append(Pose(_refine_position(init, cmap), orientation))
    anchors = [goal_prev.position] + [p.position for p in poses] + [start_next.position]
    path = []
    for leg, (p, q) in enumerate(zip(anchors, anchors[1:])):
        sub = rrt_path(p, q, cmap, seed + leg)
        path.extend(sub[1:] if path else sub)
    return poses, path


def planned(plan) -> tuple:
    """The bytes of a plan's poses and path, or its failure's type and message."""
    try:
        poses, path = plan()
    except (NoFreeChain, PlanningFailure) as exc:
        return type(exc).__name__, str(exc)
    return ([p.position.tobytes() + p.orientation.tobytes() for p in poses],
            [w.tobytes() for w in path])


@st.composite
def wall_anchor_pairs(draw):
    """A wall map and two anchors: in front of the wall, behind it, in it or
    outside the map; the second may coincide with the first or lie within
    ``np.allclose`` of it."""
    cost = np.zeros(WALL_DIMS)
    cost[4] = 1.0
    cost[4, draw(st.integers(0, 7)), draw(st.integers(0, 7))] = 0.0
    cmap = CostMap([0.0, 0.0, 0.0], WALL_VOXEL, cost, 0.05)

    def point():
        voxel = [draw(st.integers(-1, 8)), draw(st.integers(0, 7)), draw(st.integers(0, 7))]
        frac = [draw(st.floats(0.0, 1.0, exclude_max=True)) for _ in range(3)]
        return np.array([(i + f) * WALL_VOXEL for i, f in zip(voxel, frac)])

    a = point()
    kind = draw(st.integers(0, 7))
    b = a + [0.0, 1e-9][kind] if kind < 2 else point()
    turn = draw(st.sampled_from([None, [0.0, 1.0, 0.0, 0.0]]))
    return cmap, Pose(a), Pose(b) if turn is None else Pose(b, turn)


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(wall_anchor_pairs(), st.integers(0, 4), st.integers(0, 1000))
def test_chain_skills_is_the_leg_by_leg_reference(scene, m, seed):
    """One lookup for the anchors and legs plans the transition that a
    ``rrt_path`` call per leg plans, byte for byte, or fails with its message."""
    cmap, goal_prev, start_next = scene

    def batched():
        chain = chain_skills(goal_prev, start_next, cmap, m, seed)
        return chain.poses, chain.path

    expected = planned(lambda: reference_chain(goal_prev, start_next, cmap, m, seed))
    assert planned(batched) == expected


def reference_rrt(a, b, cmap: CostMap, seed: int = 0) -> list[np.ndarray]:
    """RRT-Connect in numpy arrays: each tree is a preallocated (cap, 3) array,
    the nearest node is the argmin of ``np.linalg.norm(axis=1)``, and every
    sample and step is array arithmetic."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not cmap.is_free(a) or not cmap.is_free(b):
        raise PlanningFailure(f"endpoint in collision: a={a} (cost {cmap.cost_at(a):.3f}), "
                              f"b={b} (cost {cmap.cost_at(b):.3f})")
    if np.allclose(a, b):
        return [a]
    if cmap.segment_free(a, b):
        return [a, b]

    def steer(from_pt, to_pt):
        delta = to_pt - from_pt
        dist = vector_norm(delta)
        return to_pt if dist <= RRT_STEP else from_pt + delta * (RRT_STEP / dist)

    rng = np.random.default_rng(seed)
    map_lo, map_hi = cmap.origin, cmap.upper
    margin = max(0.15, 2 * vector_norm(b - a))
    win_lo = np.maximum(np.minimum(a, b) - margin, map_lo)
    win_hi = np.minimum(np.maximum(a, b) + margin, map_hi)
    nodes = (np.empty((RRT_MAX_ITERS + 1, 3)), np.empty((RRT_MAX_ITERS + 1, 3)))
    nodes[0][0], nodes[1][0] = a, b
    parents = ([-1], [-1])

    def nearest(tree, point):
        return int(np.argmin(np.linalg.norm(nodes[tree][:len(parents[tree])] - point, axis=1)))

    def add(tree, point, parent):
        n = len(parents[tree])
        if n == len(nodes[tree]):
            raise PlanningFailure(f"RRT tree reached its cap of {n} nodes")
        nodes[tree][n] = point
        parents[tree].append(parent)
        return n

    def branch(tree, idx):
        out = []
        while idx >= 0:
            out.append(nodes[tree][idx].copy())
            idx = parents[tree][idx]
        return out

    for it in range(RRT_MAX_ITERS):
        grow, other = it % 2, 1 - it % 2
        if rng.random() < 0.5:
            sample = win_lo + rng.random(3) * (win_hi - win_lo)
        else:
            sample = map_lo + rng.random(3) * (map_hi - map_lo)
        near = nearest(grow, sample)
        new_pt = steer(nodes[grow][near], sample)
        if not cmap.segment_free(nodes[grow][near], new_pt):
            continue
        new = add(grow, new_pt, near)
        idx = nearest(other, new_pt)
        while True:
            step_pt = steer(nodes[other][idx], new_pt)
            if not cmap.segment_free(nodes[other][idx], step_pt):
                break
            if step_pt is new_pt:
                a_end, b_end = (new, idx) if grow == 0 else (idx, new)
                path = branch(0, a_end)[::-1] + branch(1, b_end)
                # greedy shortcut: from each node to the furthest visible one
                out, i = [path[0]], 0
                while i < len(path) - 1:
                    j = len(path) - 1
                    while j > i + 1 and not cmap.segment_free(path[i], path[j]):
                        j -= 1
                    out.append(path[j])
                    i = j
                return out
            idx = add(other, step_pt, idx)
    raise PlanningFailure(f"RRT failed to connect after {RRT_MAX_ITERS} iterations")


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(wall_anchor_pairs().map(lambda s: (s[0], s[1].position, s[2].position))
       | wall_scenes(), st.integers(0, 1000))
def test_rrt_path_is_the_numpy_reference(scene, seed):
    """The float planner checks the reference's segments in the reference's
    order and returns its path byte for byte, or fails with its message.  The
    wall scenes' legs are all searched."""
    cmap, a, b = scene
    real = CostMap.segment_free
    results = []
    for planner in (reference_rrt, rrt_path):
        with mock.patch.object(CostMap, "segment_free", autospec=True,
                               side_effect=real) as check:
            outcome = planned(lambda: ([], planner(a, b, cmap, seed)))
        segments = [np.asarray(p, dtype=float).tobytes() + np.asarray(q, dtype=float).tobytes()
                    for _, p, q in (call.args for call in check.call_args_list)]
        results.append((outcome, segments))
    assert results[1] == results[0]


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(st.data())
def test_one_point_is_free_is_the_batched_lookup(data):
    """``is_free`` of one point walks it in floats; it answers as a batched
    lookup into ``blocked``, on voxel faces, outside the map and at NaN and
    +-inf coordinates too."""
    cmap = data.draw(cost_maps())
    points = data.draw(probe_points(cmap))
    for _ in range(data.draw(st.integers(0, 4))):
        row = data.draw(st.integers(0, len(points) - 1))
        points[row, data.draw(st.integers(0, 2))] = data.draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    expected = (~cmap._lookup(cmap.blocked, points)).tolist()
    answers = [cmap.is_free(p) for p in points]
    assert all(type(answer) is bool for answer in answers)
    assert answers == expected


MAP_BOUNDS = Bounds((0.0, 0.0, 0.0), (0.4, 0.4, 0.4))


def sample_box_faces(lower, upper, spacing) -> np.ndarray:
    """Cell midpoints of a grid of at most ``spacing`` on each of the six faces."""
    points = []
    for axis in range(3):
        u, v = (axis + 1) % 3, (axis + 2) % 3
        nu = math.ceil((upper[u] - lower[u]) / spacing)
        nv = math.ceil((upper[v] - lower[v]) / spacing)
        for w in (lower[axis], upper[axis]):
            for i in range(nu):
                for j in range(nv):
                    point = [0.0, 0.0, 0.0]
                    point[axis] = w
                    point[u] = lower[u] + (i + 0.5) * (upper[u] - lower[u]) / nu
                    point[v] = lower[v] + (j + 0.5) * (upper[v] - lower[v]) / nv
                    points.append(point)
    return np.array(points)


def box_surface_distance(point, lower, upper) -> float:
    """Distance from a point to the surface of the box, inside or outside it."""
    outside = [max(lo - p, 0.0, p - hi) for p, lo, hi in zip(point, lower, upper)]
    if any(outside):
        return math.hypot(*outside)
    return min(min(p - lo, hi - p) for p, lo, hi in zip(point, lower, upper))


@st.composite
def boxes(draw):
    voxel = draw(st.sampled_from([0.02, 0.025, 0.04]))
    lower = [draw(st.floats(0.02, 0.25)) for _ in range(3)]
    upper = [lo + draw(st.floats(0.004, 0.12)) for lo in lower]
    return voxel, lower, upper


@settings(PROPERTY_SETTINGS, max_examples=20)
@given(boxes())
def test_build_cost_map_distance_matches_analytic_box_distance(box):
    """The distance each voxel's cost encodes is within voxel_size * sqrt(3) of the box.

    An occupied voxel's centre lies within half a voxel diagonal of a surface
    sample, and every surface point lies within half a sample-cell diagonal
    (at most voxel_size / (2 * sqrt(2))) of a sample, which together stay below
    the bound.
    """
    voxel, lower, upper = box
    cmap = build_cost_map(sample_box_faces(lower, upper, voxel / 2), MAP_BOUNDS, voxel)
    sigma = cmap.inflation_radius / 2
    for index in np.ndindex(*cmap.dims):
        cost = float(cmap.cost[index])
        # invert cost = exp(-d^2 / (2 sigma^2)); cost 1.0 marks an occupied voxel
        encoded = sigma * math.sqrt(-2.0 * math.log(cost))
        centre = [o + (i + 0.5) * voxel for o, i in zip(cmap.origin, index)]
        exact = box_surface_distance(centre, lower, upper)
        assert abs(encoded - exact) <= voxel * math.sqrt(3), (index, encoded, exact)


@st.composite
def clouds(draw):
    """A point cloud, partly outside its map bounds, with the map's parameters.

    Lattice clouds sit on voxel centres, where many voxels are equally near
    two occupied voxels and ties decide the nearest one.
    """
    voxel = draw(st.sampled_from([0.01, 0.02, 0.025, 0.05]) | st.floats(0.01, 0.1))
    lower = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    extent = np.array([draw(st.floats(1.01 * voxel, 0.3)) for _ in range(3)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([0, 1, 3, 20, 200]))
    if draw(st.booleans()):
        points = lower - 0.05 + rng.random((n, 3)) * (extent + 0.1)
    else:
        points = lower + (rng.integers(0, np.ceil(extent / voxel), size=(n, 3)) + 0.5) * voxel
    inflation = draw(st.sampled_from([0.0, 0.02, 0.05, 0.1]) | st.floats(0.0, 0.3))
    return points, Bounds(lower, lower + extent), voxel, inflation


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(clouds())
def test_build_cost_map_is_byte_identical_to_the_float_reference(cloud):
    points, bounds, voxel, inflation = cloud
    occ = occupancy_from_points(points, bounds, voxel)
    expected = cost_from_distance(distance_grid(occ, voxel), inflation)
    cmap = build_cost_map(points, bounds, voxel, inflation)
    assert cmap.cost.shape == expected.shape
    assert cmap.cost.tobytes() == expected.tobytes()


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(clouds())
def test_blocked_grid_is_the_cost_grid_at_the_threshold(cloud):
    points, bounds, voxel, inflation = cloud
    cmap = build_cost_map(points, bounds, voxel, inflation)
    # read before the cost grid is computed: it comes from the dilation alone
    blocked = cmap.blocked.copy()
    assert blocked.shape == tuple(n + 2 for n in cmap.dims)
    assert np.array_equal(blocked[1:-1, 1:-1, 1:-1], cmap.cost >= cmap.collision_threshold)
    inner = np.zeros(blocked.shape, dtype=bool)
    inner[1:-1, 1:-1, 1:-1] = True
    assert blocked[~inner].all()


@st.composite
def window_probes(draw, cmap, occupied):
    """``probe_points`` plus points up to three voxels from an occupied voxel:
    inside the 5x5x5 window, just beyond it, and across the map's border."""
    points = draw(probe_points(cmap)).tolist()
    if len(occupied):
        for _ in range(draw(st.integers(1, 12))):
            voxel = occupied[draw(st.integers(0, len(occupied) - 1))]
            point = []
            for axis in range(3):
                index = voxel[axis] + draw(st.integers(-3, 3))
                frac = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0, exclude_max=True))
                point.append(cmap.origin[axis] + (index + frac) * cmap.voxel_size)
            points.append(point)
    return np.array(points)


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(clouds(), st.data())
def test_cost_at_before_the_cost_grid_is_built_gives_its_bytes(cloud, data):
    """A built map answers ``cost_at`` from its occupancy window without the
    feature transform exactly when the point is outside the map or its nearest
    occupied voxel is at a squared voxel offset up to the exact-window limit;
    either way the answer is the bytes of the forced cost grid."""
    points, bounds, voxel, inflation = cloud

    def build():
        return build_cost_map(points, bounds, voxel, inflation)

    forced = build()
    forced.cost
    occ = occupancy_from_points(points, bounds, voxel)
    probes = data.draw(window_probes(forced, np.argwhere(occ)))
    expected = forced.cost_at(probes)
    assert build().cost_at(probes).tobytes() == expected.tobytes()
    limit = _exact_window(forced.dims, forced.voxel_size, forced.inflation_radius)[0]
    # squared offset, in voxels, from each voxel to its nearest occupied voxel
    nearest = np.rint(np.square(distance_grid(occ, 1.0)))
    for point, cost in zip(probes, expected.tolist()):
        idx = [math.floor((float(p) - float(o)) / voxel) for p, o in zip(point, forced.origin)]
        inside = all(0 <= i < d for i, d in zip(idx, forced.dims))
        window = not inside or nearest[tuple(idx)] <= limit
        with mock.patch.object(ndimage, "distance_transform_edt",
                               wraps=ndimage.distance_transform_edt) as transform:
            got = build().cost_at(point)
        assert type(got) is float and got.hex() == cost.hex()
        assert transform.call_count == (0 if window or not occ.any() else 1)


def reference_tray_boxes(scene) -> list[Bounds]:
    """The drawer tray's front wall, side walls and floor while it sticks out."""
    if not scene.drawer_present or scene.open_fraction < 0.03:
        return []
    front = CABINET_LO[0] - DRAWER_TRAVEL * scene.open_fraction
    boxes = [Bounds((front - DRAWER_WALL, CABINET_LO[1], 0.0),
                    (front, CABINET_HI[1], DRAWER_WALL_TOP))]
    for y0, y1 in ((CABINET_LO[1], CABINET_LO[1] + DRAWER_WALL),
                   (CABINET_HI[1] - DRAWER_WALL, CABINET_HI[1])):
        boxes.append(Bounds((front - DRAWER_WALL, y0, 0.0), (CABINET_LO[0], y1, DRAWER_WALL_TOP)))
    boxes.append(Bounds((front - DRAWER_WALL, CABINET_LO[1], 0.0),
                        (CABINET_LO[0], CABINET_HI[1], 0.02)))
    return boxes


def reference_fixed_boxes(scene) -> list[Bounds]:
    return (([CABINET] if scene.drawer_present else [])
            + (list(CUPBOARD_WALLS) if scene.cupboard_present else [])
            + ([DUSTPAN_FLOOR] if scene.dustpan_present else []))


def reference_box_faces(box: Bounds) -> np.ndarray:
    """Face sampling of one box, one meshgrid per face."""
    pts = []
    size = box.upper - box.lower
    for axis in range(3):
        u, v = (axis + 1) % 3, (axis + 2) % 3
        nu = max(1, int(round(size[u] * np.sqrt(CLOUD_DENSITY))))
        nv = max(1, int(round(size[v] * np.sqrt(CLOUD_DENSITY))))
        us = box.lower[u] + (np.arange(nu) + 0.5) * size[u] / nu
        vs = box.lower[v] + (np.arange(nv) + 0.5) * size[v] / nv
        uu, vv = np.meshgrid(us, vs, indexing="ij")
        for w in (box.lower[axis], box.upper[axis]):
            face = np.zeros((nu * nv, 3))
            face[:, axis] = w
            face[:, u] = uu.ravel()
            face[:, v] = vv.ravel()
            pts.append(face)
    return np.vstack(pts)


def reference_point_cloud(scene) -> np.ndarray:
    """Every box sampled on every call: the fixed boxes (cabinet, cupboard
    walls, dustpan floor), the tray, the bodies of the unheld objects by name
    (the kind is the name without its index), then one point per rubbish item."""
    boxes = reference_fixed_boxes(scene) + reference_tray_boxes(scene)
    for name, position in sorted(scene.objects.items()):
        half = BODY_HALF.get(name.rstrip("0123456789"), 0.0)
        if name != scene.held_object and half > 0:
            boxes.append(Bounds(position - half, position + half))
    points = [reference_box_faces(box) for box in boxes]
    points += [position[None, :] for name, position in sorted(scene.objects.items())
               if name.rstrip("0123456789") == "rubbish"]
    return np.vstack(points) if points else np.zeros((0, 3))


def workspace_points(tray_and_fixed=()):
    """Points in the workspace; a coordinate is often one of the boxes' faces."""
    axes = []
    for axis in range(3):
        faces = sorted({float(c) for box in tray_and_fixed
                        for c in (box.lower[axis], box.upper[axis])})
        free = st.floats(float(WORKSPACE.lower[axis]), float(WORKSPACE.upper[axis]))
        axes.append(st.sampled_from(faces) | free if faces else free)
    return st.tuples(*axes).map(np.array)


@st.composite
def scenes(draw):
    """A scene of up to four objects named by kind and index, holding one of
    them, the drawer's handle or nothing."""
    kinds = sorted(BODY_HALF) + ["rubbish"]
    objects = {f"{draw(st.sampled_from(kinds))}{i}": draw(workspace_points())
               for i in range(draw(st.integers(0, 4)))}
    drawer_present = draw(st.booleans())
    held = sorted(objects) + ([HANDLE_NAME] if drawer_present else [])
    return Scene(drawer_present=drawer_present,
                 open_fraction=draw(st.sampled_from([0.0, 0.03, SLAM_FRACTION, 1.0])
                                    | st.floats(0.0, 1.0)),
                 cupboard_present=draw(st.booleans()),
                 dustpan_present=draw(st.booleans()),
                 objects=objects,
                 held_object=draw(st.sampled_from([None, *held])))


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(scenes())
def test_point_cloud_is_byte_identical_to_per_box_sampling(scene):
    expected = reference_point_cloud(scene)
    assert point_cloud(scene).tobytes() == expected.tobytes()
    # the shared fixed samples are not changed by a call
    assert point_cloud(scene).tobytes() == expected.tobytes()


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(scenes(), st.booleans(), st.data())
def test_transition_map_is_the_map_of_the_whole_cloud(scene, cached, data):
    """The map the executor plans on, with the fixed part cached per scene
    layout, or with an empty fixed part, answers as the map of the whole cloud
    built from scratch: its ``blocked`` grid, ``cost_at`` from the occupancy
    window, then the cost grid."""
    occ = occupancy_from_points(reference_point_cloud(scene), WORKSPACE, 0.02)
    cost = cost_from_distance(distance_grid(occ, 0.02), 0.05)
    cmap = (transition_cost_map(scene) if cached
            else build_cost_map(point_cloud(scene), WORKSPACE))
    assert cmap.blocked.tobytes() == (np.pad(cost, 1, constant_values=1.0) >= 0.5).tobytes()
    probes = data.draw(window_probes(cmap, np.argwhere(occ)))
    expected = [reference_cost(cost, cmap.origin, cmap.voxel_size, p) for p in probes]
    assert cmap.cost_at(probes).tobytes() == np.array(expected).tobytes()
    assert cmap.cost.tobytes() == cost.tobytes()


@settings(PROPERTY_SETTINGS, max_examples=30)
@given(scenes(), st.sampled_from([0.0, 1.0, 0.37]))
def test_tray_layer_map_is_the_map_on_the_layout_layer(scene, fraction):
    """The map built on the layer of the fixed boxes and the tray is the map
    that adds the tray per cloud to the layer of the fixed boxes alone."""
    scene.drawer_present, scene.open_fraction = True, fraction
    layout = _fixed_layer(True, scene.cupboard_present, scene.dustpan_present, 0.0)
    expected = build_cost_map(point_cloud(scene), WORKSPACE, fixed=layout)
    cmap = transition_cost_map(scene)
    assert cmap.blocked.tobytes() == expected.blocked.tobytes()
    assert cmap.cost.tobytes() == expected.cost.tobytes()


def reference_box_hit(samples: np.ndarray, box: Bounds) -> bool:
    """Some sample lies in the closed box, faces included."""
    return bool(np.any(np.all((samples >= box.lower) & (samples <= box.upper), axis=1)))


def reference_slab_hits(start, target, boxes) -> np.ndarray:
    """Per box, whether the closed segment from ``start`` to ``start + (target
    - start)`` meets it, faces included: the slab test of every box in one
    broadcast, with no extent test.  Each axis the segment moves along clips
    t in [0, 1] to the box's slab; on an axis it does not move along, the
    coordinate must lie in the slab."""
    last = start + (target - start)
    d = last - start
    lower = np.array([box.lower for box in boxes]).reshape(-1, 3)
    upper = np.array([box.upper for box in boxes]).reshape(-1, 3)
    moving = d != 0
    t0, t1 = (lower - start) / np.where(moving, d, 1.0), (upper - start) / np.where(moving, d, 1.0)
    enter = np.where(moving, np.minimum(t0, t1), 0.0).max(axis=1, initial=0.0)
    leave = np.where(moving, np.maximum(t0, t1), 1.0).min(axis=1, initial=1.0)
    inside = (moving | ((lower <= start) & (start <= upper))).all(axis=1)
    return inside & (enter <= leave)


def dense_samples(start, target, spacing=0.0005) -> np.ndarray:
    """Samples of the segment at most ``spacing`` apart, both ends included."""
    d = target - start
    n = max(1, math.ceil(float(np.linalg.norm(d)) / spacing))
    return start + np.linspace(0.0, 1.0, n + 1)[:, None] * d


def reference_counts(scene, target, hit_tray: bool, hit: bool) -> tuple[int, int, float]:
    """collision_count, drawer_slams and open_fraction after moving to
    target, given whether the move meets a tray box and any box."""
    displacement = target - np.array(scene.gripper_position)
    fraction, slams = scene.open_fraction, scene.drawer_slams
    direction = displacement / max(float(np.linalg.norm(displacement)), 1e-12)
    if hit_tray and abs(direction[2]) < 0.9 and fraction > SLAM_FRACTION:
        fraction, slams = SLAM_FRACTION, slams + 1
    if scene.held_object == HANDLE_NAME:
        fraction = float(np.clip(fraction - displacement[0] / DRAWER_TRAVEL, 0.0, 1.0))
    return scene.collision_count + hit, slams, fraction


def reference_step_counts(scene, target) -> tuple[int, int, float]:
    """The counts after moving to target, testing the segment against one
    Bounds at a time."""
    start = np.array(scene.gripper_position)
    tray = [] if scene.held_object == HANDLE_NAME else reference_tray_boxes(scene)
    hit_tray = any(reference_slab_hits(start, target, [box])[0] for box in tray)
    hit = hit_tray or any(reference_slab_hits(start, target, [box])[0]
                          for box in reference_fixed_boxes(scene))
    return reference_counts(scene, target, hit_tray, hit)


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(scenes(), st.data())
def test_step_matches_per_bounds_reference(scene, data):
    boxes = reference_tray_boxes(scene) + reference_fixed_boxes(scene)
    scene.gripper_position = data.draw(workspace_points(boxes))
    target = data.draw(workspace_points(boxes))
    if scene.drawer_present and data.draw(st.booleans()):
        scene.held_object, scene.gripper_state = HANDLE_NAME, GripperState.CLOSED
    expected = reference_step_counts(scene, target)
    out = step(scene, Action(Pose(target)))
    assert (out.collision_count, out.drawer_slams, out.open_fraction) == expected


def test_step_reference_counts_a_sample_on_a_face():
    box = Bounds((0, 0, 0), (0.1, 0.1, 0.1))
    assert reference_box_hit(np.array([[0.5, 0.5, 0.5], [0.1, 0.05, 0.0]]), box)
    assert not reference_box_hit(np.array([[0.5, 0.5, 0.5], [0.11, 0.05, 0.0]]), box)
    # a move along y keeps x exactly on the dustpan floor's face x = DUSTPAN_HI[0]
    for x, hits in ((DUSTPAN_HI[0], 1), (DUSTPAN_HI[0] + 1e-4, 0)):
        scene = Scene(dustpan_present=True, gripper_position=np.array([x, 0.30, 0.005]))
        target = np.array([x, 0.31, 0.005])
        assert reference_step_counts(scene, target) == (hits, 0, 0.0)
        assert step(scene, Action(Pose(target))).collision_count == hits


def reference_broadcast_counts(scene, target) -> tuple[int, int, float]:
    """The counts after moving to target, from the slab test of every box,
    tray boxes first, in one broadcast.  Every box that holds a sample of
    the segment at 0.5 mm spacing must be hit."""
    start = np.array(scene.gripper_position)
    tray = [] if scene.held_object == HANDLE_NAME else reference_tray_boxes(scene)
    boxes = tray + reference_fixed_boxes(scene)
    hit = reference_slab_hits(start, target, boxes)
    samples = dense_samples(start, target)
    assert all(hit[k] for k, box in enumerate(boxes) if reference_box_hit(samples, box))
    return reference_counts(scene, target, bool(hit[:len(tray)].any()), bool(hit.any()))


@st.composite
def face_touching_segments(draw, boxes):
    """A start and a target in the workspace: a free segment, a zero-length
    move, or a segment with one end's coordinate on a box face, so that its
    extent touches the face exactly."""
    start, target = draw(workspace_points(boxes)), draw(workspace_points(boxes))
    shape = draw(st.sampled_from(["free", "zero", "face"] if boxes else ["free", "zero"]))
    if shape == "zero":
        return start, start.copy()
    if shape == "face":
        box, axis = draw(st.sampled_from(boxes)), draw(st.integers(0, 2))
        end = draw(st.sampled_from([start, target]))
        end[axis] = draw(st.sampled_from([box.lower[axis], box.upper[axis]]))
    return start, target


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(scenes(), st.data())
def test_step_broad_phase_matches_the_full_broadcast(scene, data):
    boxes = reference_tray_boxes(scene) + reference_fixed_boxes(scene)
    scene.gripper_position, target = data.draw(face_touching_segments(boxes))
    if scene.drawer_present and data.draw(st.booleans()):
        scene.held_object, scene.gripper_state = HANDLE_NAME, GripperState.CLOSED
    expected = reference_broadcast_counts(scene, target)
    out = step(scene, Action(Pose(target)))
    assert (out.collision_count, out.drawer_slams, out.open_fraction) == expected


def test_step_counts_a_segment_whose_extent_ends_on_a_face():
    """The broad phase is closed on both sides: a move that ends exactly on
    the cabinet's front face hits it, one a float short does not.  The extent
    ends at the last sample, ``start + (target - start)``, not at the target:
    here the last sample of a move along y lands on the cupboard's side face
    y = 0.15 although the target stops a float short of it."""
    face = float(CABINET_LO[0])
    for x, hits in ((face, 1), (np.nextafter(face, 0.0), 0)):
        scene = Scene(drawer_present=True, gripper_position=np.array([0.40, -0.25, 0.07]))
        target = np.array([x, -0.25, 0.07])
        assert reference_broadcast_counts(scene, target) == (hits, 0, 0.0)
        assert step(scene, Action(Pose(target))).collision_count == hits
    start = np.array([0.65, -0.22116001556012713, 0.20])
    target = np.array([0.65, np.nextafter(0.15, 0.0), 0.20])
    assert target[1] < 0.15 == start[1] + (target[1] - start[1])
    scene = Scene(cupboard_present=True, gripper_position=start)
    assert reference_broadcast_counts(scene, target) == (1, 0, 0.0)
    assert step(scene, Action(Pose(target))).collision_count == 1


def test_step_counts_a_wall_clipped_between_samples():
    """A 0.456 m move of the obstacle fixture at seed 31687 (M=0, noise 0.01)
    clips the tray's front wall and a side wall where no 5 mm sample of it
    lies; the exact test counts the hit and the slam."""
    start = np.array([0.32252371336614916, -0.2474148188772845, 0.10926062387058684])
    target = np.array([0.5878069798702479, 0.11897769285511356, 0.16472710420329426])
    scene = Scene(drawer_present=True, open_fraction=0.952008638057075, gripper_position=start)
    boxes = reference_tray_boxes(scene)
    assert reference_slab_hits(start, target, boxes).tolist() == [True, False, True, False]
    assert not any(reference_box_hit(dense_samples(start, target, 0.005), box) for box in boxes)
    out = step(scene, Action(Pose(target)))
    assert (out.collision_count, out.drawer_slams, out.open_fraction) == (1, 1, SLAM_FRACTION)
    assert reference_broadcast_counts(scene, target) == (1, 1, SLAM_FRACTION)
