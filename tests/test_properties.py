"""Property tests of the cost map, the voxel lookup, the segment check, the RRT
planner, the point cloud and the simulator's box test.

Each property is checked against a reference written here with plain Python
arithmetic on the cost grid, not against other ``CostMap`` methods; the
planner's determinism is checked by comparing two calls byte for byte.  The
cost-map table, the shared fixed-box samples and the one broadcast box test
per step are gated byte for byte against references that recompute every
distance, sample every box and test one ``Bounds`` at a time.  The examples
are derandomized, so every run checks the same cases.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from deco.chaining import rrt_path
from deco.costmap import (Bounds, CostMap, build_cost_map, cost_from_distance, distance_grid,
                          occupancy_from_points)
from deco.geometry import Pose
from deco.sim.scene import (CABINET, CABINET_HI, CABINET_LO, CLOUD_DENSITY, CUPBOARD_WALLS,
                            DRAWER_TRAVEL, DRAWER_WALL, DRAWER_WALL_TOP, DUSTPAN_FLOOR, DUSTPAN_HI,
                            HANDLE_NAME, OBJECT_HALF, SLAM_FRACTION, WORKSPACE, Action, Scene,
                            SimObject, _segment_samples, point_cloud, step)
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
def cost_maps(draw):
    dims = tuple(draw(st.integers(1, 6)) for _ in range(3))
    voxel = draw(st.sampled_from([0.02, 0.05, 0.1, 0.25]))
    origin = [draw(st.floats(-1.0, 1.0)) for _ in range(3)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    threshold = draw(st.sampled_from([0.3, 0.5, 0.9]))
    # high powers leave few voxels above the threshold, so segments can pass
    cost = rng.random(dims) ** draw(st.sampled_from([1, 4, 16]))
    return CostMap(origin, voxel, cost, threshold, 0.05)


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


WALL_DIMS = (8, 8, 8)
WALL_VOXEL = 0.05


@st.composite
def wall_scenes(draw):
    """A wall across x with one open voxel; a and b lie on either side of it."""
    cost = np.zeros(WALL_DIMS)
    wall = draw(st.integers(3, 4))
    cost[wall] = 1.0
    cost[wall, draw(st.integers(0, 7)), draw(st.integers(0, 7))] = 0.0
    cmap = CostMap([0.0, 0.0, 0.0], WALL_VOXEL, cost, 0.5, 0.05)

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
    occ = occupancy_from_points(points, bounds, voxel)[0]
    expected = cost_from_distance(distance_grid(occ, voxel), inflation)
    cmap = build_cost_map(points, bounds, voxel, inflation)
    assert cmap.cost.shape == expected.shape
    assert cmap.cost.tobytes() == expected.tobytes()


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
    """Every box sampled on every call: cabinet, tray, cupboard walls, dustpan
    floor, unheld objects by name, then one point per rubbish item."""
    fixed = reference_fixed_boxes(scene)
    # the tray is empty without a drawer, so it only ever follows the cabinet
    boxes = fixed[:1] + reference_tray_boxes(scene) + fixed[1:]
    for _name, obj in sorted(scene.objects.items()):
        half = OBJECT_HALF[obj.kind]
        if not obj.held and half > 0:
            boxes.append(Bounds(obj.position - half, obj.position + half))
    points = [reference_box_faces(box) for box in boxes]
    points += [obj.position[None, :] for _name, obj in sorted(scene.objects.items())
               if obj.kind == "rubbish"]
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
    scene = Scene(drawer_present=draw(st.booleans()),
                  open_fraction=draw(st.sampled_from([0.0, 0.03, SLAM_FRACTION, 1.0])
                                     | st.floats(0.0, 1.0)),
                  cupboard_present=draw(st.booleans()),
                  dustpan_present=draw(st.booleans()))
    for i in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(sorted(OBJECT_HALF)))
        scene.objects[f"{kind}{i}"] = SimObject(kind, draw(workspace_points()),
                                                held=draw(st.booleans()))
    return scene


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(scenes())
def test_point_cloud_is_byte_identical_to_per_box_sampling(scene):
    expected = reference_point_cloud(scene)
    assert point_cloud(scene).tobytes() == expected.tobytes()
    # the shared fixed samples are not changed by a call
    assert point_cloud(scene).tobytes() == expected.tobytes()


def reference_box_hit(samples: np.ndarray, box: Bounds) -> bool:
    """Some sample lies in the closed box, faces included."""
    return bool(np.any(np.all((samples >= box.lower) & (samples <= box.upper), axis=1)))


def reference_step_counts(scene, target) -> tuple[int, int, float]:
    """collision_count, drawer_slams and open_fraction after moving to target,
    testing the segment's samples against one Bounds at a time."""
    start = np.array(scene.gripper_position)
    samples = _segment_samples(start, target)
    holding_handle = scene.held_object == HANDLE_NAME
    tray = [] if holding_handle else reference_tray_boxes(scene)
    hit_drawer = any(reference_box_hit(samples, box) for box in tray)
    hit = hit_drawer or any(reference_box_hit(samples, box) for box in reference_fixed_boxes(scene))
    displacement = target - start
    fraction, slams = scene.open_fraction, scene.drawer_slams
    direction = displacement / max(float(np.linalg.norm(displacement)), 1e-12)
    if hit_drawer and abs(direction[2]) < 0.9 and fraction > SLAM_FRACTION:
        fraction, slams = SLAM_FRACTION, slams + 1
    if holding_handle:
        fraction = float(np.clip(fraction - displacement[0] / DRAWER_TRAVEL, 0.0, 1.0))
    return scene.collision_count + hit, slams, fraction


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
