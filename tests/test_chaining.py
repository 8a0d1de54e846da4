import hashlib
import re

import numpy as np
import pytest
from scipy import ndimage

import deco.chaining
import deco.executor
from deco.chaining import RRT_MAX_ITERS, chain_skills, chaining_poses, rrt_path
from deco.costmap import Bounds, CostMap, build_cost_map
from deco.errors import ConfigError, NoFreeChain, PlanningFailure
from deco.executor import ExecutorConfig, build_library, run_task_episode
from deco.geometry import IDENTITY_QUAT, Pose, quat_slerp
from deco.registry import load_registry
from deco.sim.oracle import oracle_policy
from deco.sim.scene import WORKSPACE, point_cloud, step
from deco.sim.tasks import drawer_front_obstacle_task, reset

# sha256 prefixes of the raw float64 bytes of searched paths; a planner
# change that moves any coordinate by one ulp changes them
WALL_PATHS_DIGEST = "7f5ece2620202ff2"
FIXTURE_CHAIN_DIGEST = "72b50bd74fc0c3b3"
# sha256 prefix of the gradient-refined chaining-pose positions of the first
# transition of every compositional task at seed 0, M=6
FIRST_POSES_DIGEST = "277a0da18a4f5759"

BOUNDS = Bounds((0.0, 0.0, 0.0), (0.4, 0.4, 0.4))


def empty_map():
    return build_cost_map(np.zeros((0, 3)), BOUNDS, 0.02)


def wall_map():
    """Solid wall at x ~ 0.2 with a hole around (y, z) = (0.35, 0.35)."""
    pts = []
    for y in np.arange(0.0, 0.4, 0.005):
        for z in np.arange(0.0, 0.4, 0.005):
            if not (y > 0.3 and z > 0.3):
                pts.append([0.2, y, z])
    return build_cost_map(np.array(pts), BOUNDS, 0.02)


def test_chaining_poses_zero_m_empty():
    poses = chaining_poses(Pose([0.05, 0.2, 0.2]), Pose([0.35, 0.2, 0.2]),
                           empty_map(), 0)
    assert poses == []


def test_chaining_poses_count_and_interpolation():
    start, end = Pose([0.05, 0.2, 0.2]), Pose([0.35, 0.2, 0.2])
    poses = chaining_poses(start, end, empty_map(), 3)
    assert len(poses) == 3
    for k, p in enumerate(poses, start=1):
        expect = (1 - k / 4) * start.position + (k / 4) * end.position
        assert np.allclose(p.position, expect)


def test_chaining_poses_negative_m_rejected():
    with pytest.raises(ValueError):
        chaining_poses(Pose([0.1, 0.1, 0.1]), Pose([0.3, 0.3, 0.3]), empty_map(), -1)


def test_chaining_poses_refined_off_obstacle():
    cmap = wall_map()
    start, end = Pose([0.05, 0.35, 0.35]), Pose([0.35, 0.35, 0.35])
    poses = chaining_poses(start, end, cmap, 5)
    for p in poses:
        assert cmap.is_free(p.position)


def test_chaining_pose_orientation_slerp():
    qa = [1.0, 0, 0, 0]
    qb = [np.cos(np.pi / 4), np.sin(np.pi / 4), 0, 0]
    poses = chaining_poses(Pose([0.05, 0.2, 0.2], qa), Pose([0.35, 0.2, 0.2], qb),
                           empty_map(), 1)
    assert np.allclose(poses[0].orientation,
                       [np.cos(np.pi / 8), np.sin(np.pi / 8), 0, 0], atol=1e-9)


def test_no_free_chain_in_saturated_map():
    cost = np.ones((10, 10, 10))
    cmap = CostMap([0, 0, 0], 0.04, cost, 0.05)
    with pytest.raises(NoFreeChain):
        chaining_poses(Pose([0.05, 0.2, 0.2]), Pose([0.35, 0.2, 0.2]), cmap, 1)


def test_rrt_straight_line_when_free():
    cmap = empty_map()
    path = rrt_path([0.05, 0.2, 0.2], [0.35, 0.2, 0.2], cmap)
    assert len(path) == 2
    assert np.allclose(path[0], [0.05, 0.2, 0.2])
    assert np.allclose(path[-1], [0.35, 0.2, 0.2])


def test_rrt_identical_endpoints():
    path = rrt_path([0.1, 0.1, 0.1], [0.1, 0.1, 0.1], empty_map())
    assert len(path) == 1


def test_rrt_rejects_occupied_endpoint():
    cmap = wall_map()
    with pytest.raises(PlanningFailure, match="endpoint"):
        rrt_path([0.2, 0.1, 0.1], [0.35, 0.2, 0.2], cmap)


class NoLookupMap(CostMap):
    """A map whose every grid lookup fails the test."""

    def _lookup(self, padded, points):
        raise AssertionError(f"grid lookup of {points}")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("end", ["a", "b"])
def test_rrt_rejects_a_non_finite_endpoint_before_any_lookup(bad, end):
    cmap = NoLookupMap([0.0, 0.0, 0.0], 0.1, np.zeros((4, 4, 4)), 0.05)
    a, b = [0.05, 0.2, 0.2], [0.35, 0.2, 0.2]
    (a if end == "a" else b)[1] = bad
    with pytest.raises(PlanningFailure, match=f"endpoint {end} must be finite, got "):
        rrt_path(a, b, cmap)


def test_a_negative_seed_fails_alike_on_a_free_and_a_searched_leg():
    """The leg from a to b is straight and free on the empty map and needs a
    search on the wall map; both refuse seed -1 with the same message."""
    a, b = [0.05, 0.2, 0.2], [0.35, 0.2, 0.2]
    messages = set()
    for cmap in (empty_map(), wall_map()):
        for plan in (lambda: rrt_path(a, b, cmap, -1),
                     lambda: chain_skills(Pose(a), Pose(b), cmap, 0, -1)):
            with pytest.raises(ConfigError,
                               match="seed must be a non-negative integer, got -1") as raised:
                plan()
            messages.add(str(raised.value))
    assert len(messages) == 1


def test_chaining_poses_negative_m_is_a_config_error_that_names_it():
    cmap = NoLookupMap([0.0, 0.0, 0.0], 0.1, np.zeros((4, 4, 4)), 0.05)
    with pytest.raises(ConfigError, match="must be a non-negative integer, got -1"):
        chaining_poses(Pose([0.1, 0.1, 0.1]), Pose([0.3, 0.3, 0.3]), cmap, -1)


@pytest.mark.parametrize("bad", [True, False, 2.5, "2", None])
def test_a_bool_or_non_integer_m_is_a_config_error_that_names_it(bad):
    start, end = Pose([0.05, 0.2, 0.2]), Pose([0.35, 0.2, 0.2])
    message = re.escape(f"number of chaining poses must be a non-negative integer, got {bad!r}")
    for plan in (lambda: chaining_poses(start, end, empty_map(), bad),
                 lambda: chain_skills(start, end, empty_map(), bad)):
        with pytest.raises(ConfigError, match=message):
            plan()


@pytest.mark.parametrize("bad", [True, 1.5, np.float64(2.0), "0"])
def test_a_bool_or_non_integer_seed_fails_alike_on_a_free_and_a_searched_leg(bad):
    a, b = [0.05, 0.2, 0.2], [0.35, 0.2, 0.2]
    message = re.escape(f"seed must be a non-negative integer, got {bad!r}")
    for cmap in (empty_map(), wall_map()):
        for plan in (lambda: rrt_path(a, b, cmap, bad),
                     lambda: chain_skills(Pose(a), Pose(b), cmap, 0, bad)):
            with pytest.raises(ConfigError, match=message):
                plan()


def test_numpy_integers_plan_as_python_integers():
    """A numpy ``m`` and ``seed`` plan the transition that Python ints plan."""
    start, end, cmap = Pose([0.05, 0.2, 0.2]), Pose([0.35, 0.2, 0.2]), wall_map()
    expected = chain_skills(start, end, cmap, 2, 3)
    chain = chain_skills(start, end, cmap, np.int64(2), np.int32(3))
    # the wall blocks the straight segment, so the poses route a detour
    assert len(expected.path) > 2
    assert [w.tobytes() for w in chain.path] == [w.tobytes() for w in expected.path]
    assert [p.position.tobytes() for p in chain.poses] == [
        p.position.tobytes() for p in expected.poses]


@pytest.mark.parametrize("end", ["a", "b"])
@pytest.mark.parametrize("point", [[0.3, 0.1], [0.3, 0.1, 0.2, 0.0], [[0.3, 0.1, 0.2]], 0.3],
                         ids=["2", "4", "1x3", "scalar"])
def test_an_endpoint_that_is_not_three_coordinates_is_a_planning_failure(point, end):
    a, b = [0.05, 0.2, 0.2], [0.35, 0.2, 0.2]
    a, b = (point, b) if end == "a" else (a, point)
    message = re.escape(f"endpoint {end} must have 3 coordinates, got shape {np.shape(point)}")
    with pytest.raises(PlanningFailure, match=message):
        rrt_path(a, b, empty_map())


@pytest.mark.parametrize("m", [1, 5])
def test_poses_that_share_the_identity_orientation_have_the_slerp_bytes(m):
    """Every pose takes the shared ``IDENTITY_QUAT``: its slerp with itself,
    as ``Pose`` keeps it, has the same bytes.  The pose at the wall is refined."""
    start, end = Pose([0.05, 0.2, 0.2]), Pose([0.35, 0.2, 0.2])
    poses = chaining_poses(start, end, wall_map(), m)
    assert poses[m // 2].position[0] != 0.2
    for k, pose in enumerate(poses, start=1):
        slerped = Pose(pose.position, quat_slerp(IDENTITY_QUAT, IDENTITY_QUAT, k / (m + 1)))
        assert pose.orientation is IDENTITY_QUAT
        assert pose.orientation.tobytes() == slerped.orientation.tobytes()


def test_rrt_routes_through_hole():
    cmap = wall_map()
    a, b = np.array([0.05, 0.2, 0.2]), np.array([0.35, 0.2, 0.2])
    path = rrt_path(a, b, cmap, 1)
    assert np.allclose(path[0], a) and np.allclose(path[-1], b)
    for p, q in zip(path, path[1:]):
        assert cmap.segment_free(p, q)


def test_rrt_deterministic_per_seed():
    cmap = wall_map()
    a, b = [0.05, 0.2, 0.2], [0.35, 0.2, 0.2]
    p1 = rrt_path(a, b, cmap, 5)
    p2 = rrt_path(a, b, cmap, 5)
    assert len(p1) == len(p2)
    assert all(np.allclose(u, v) for u, v in zip(p1, p2))


def test_chain_skills_m_zero_single_leg():
    cmap = empty_map()
    result = chain_skills(Pose([0.05, 0.2, 0.2]), Pose([0.35, 0.2, 0.2]), cmap, 0)
    assert result.poses == []
    assert len(result.path) == 2


def test_chain_skills_profile_below_threshold():
    cmap = wall_map()
    result = chain_skills(Pose([0.05, 0.2, 0.2]), Pose([0.35, 0.2, 0.2]), cmap, 4,
                          2)
    assert len(result.poses) == 4
    profile = cmap.cost_at(np.asarray(result.path))
    assert (profile < cmap.collision_threshold).all()
    assert np.allclose(result.path[0], [0.05, 0.2, 0.2])
    assert np.allclose(result.path[-1], [0.35, 0.2, 0.2])


def _path_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        arr = np.asarray(path)
        h.update(np.asarray(arr.shape, dtype=np.int64).tobytes())
        h.update(arr.astype(np.float64).tobytes())
    return h.hexdigest()[:16]


def test_searched_rrt_paths_are_pinned_bit_for_bit():
    cmap = wall_map()
    paths = [rrt_path([0.05, 0.2, 0.2], [0.35, 0.2, 0.2], cmap, seed) for seed in range(10)]
    assert all(len(p) > 2 for p in paths)
    # waypoints are arrays of their own, not views into the planner's node tree
    assert all(w.base is None for p in paths for w in p)
    assert _path_digest(paths) == WALL_PATHS_DIGEST


def test_fixture_chain_path_is_pinned_bit_for_bit():
    """The open-drawer to put-in-drawer transition of the obstacle fixture."""
    scene = reset(drawer_front_obstacle_task(), 0)
    for action in oracle_policy("open drawer", scene):
        scene = step(scene, action)
    start = oracle_policy("put item in drawer", scene)[0].target
    cmap = build_cost_map(point_cloud(scene), WORKSPACE)
    chain = chain_skills(scene.gripper_pose(), start, cmap, 6, 0)
    # the obstacle blocks the straight segment: the shortcut path still detours
    assert len(chain.path) > 2
    assert all(cmap.segment_free(p, q) for p, q in zip(chain.path, chain.path[1:]))
    assert _path_digest([chain.path]) == FIXTURE_CHAIN_DIGEST


class CountingMap(CostMap):
    """Records each segment check and whether it passed, and counts the
    lookups into ``blocked``."""

    def __init__(self, *args):
        super().__init__(*args)
        self.segments = []
        self.checks = []
        self.blocked_lookups = 0

    def _lookup(self, padded, points):
        self.blocked_lookups += padded is self.blocked
        return super()._lookup(padded, points)

    def segment_free(self, a, b):
        free = super().segment_free(a, b)
        self.segments.append((np.array(a, dtype=float), np.array(b, dtype=float)))
        self.checks.append(free)
        return free


def pocket_map(length: float) -> CountingMap:
    """A free corridor ``length`` m long, then a wall, then the goal's sealed 10 m pocket."""
    nx = int(length / 10) + 2
    cost = np.zeros((nx, 3, 3))
    cost[nx - 2:] = 1.0
    cost[nx - 1, 1, 1] = 0.0
    return CountingMap([0.0, 0.0, 0.0], 10.0, cost, 0.05)


def a_side_passes(cmap: CountingMap, wall_x: float) -> int:
    return sum(free for (p, _), free in zip(cmap.segments, cmap.checks) if p[0] < wall_x)


def test_rrt_fills_every_tree_slot_before_giving_up():
    """The goal is walled in 200 m away; a's greedy connect toward it outruns the node cap.

    Every row of a's tree gets used: RRT_MAX_ITERS steps pass and are added after the
    root, and the next passing step is refused with PlanningFailure, not IndexError.
    """
    cmap = pocket_map(190.0)
    with pytest.raises(PlanningFailure, match="cap of 5001 nodes"):
        rrt_path([5.0, 15.0, 15.0], [205.0, 15.0, 15.0], cmap, 0)
    assert a_side_passes(cmap, 190.0) == RRT_MAX_ITERS + 1


def test_rrt_gives_up_at_the_node_cap_after_long_blocked_connects():
    """a's first greedy connect runs 3833 steps to the wall at x = 120 m and is blocked;
    the extensions after it fill a's tree before the iterations run out."""
    cmap = pocket_map(120.0)
    with pytest.raises(PlanningFailure, match="cap of 5001 nodes"):
        rrt_path([5.0, 15.0, 15.0], [135.0, 15.0, 15.0], cmap, 0)
    runs = "".join("1" if free else "0" for free in cmap.checks).split("0")
    assert max(len(run) for run in runs[:-1]) > 3000
    assert a_side_passes(cmap, 120.0) == RRT_MAX_ITERS + 1


def no_call(name):
    def fail(*args):
        raise AssertionError(f"{name}{args[:2]}")
    return fail


@pytest.mark.parametrize("m", [1, 6])
def test_a_free_transition_makes_one_lookup_and_no_search(m, monkeypatch):
    """A free straight transition is ``[a, b]``: ``b``'s one-point lookup, one
    ``segment_free`` from ``a`` to ``b``, no chaining pose and no search."""
    monkeypatch.setattr(deco.chaining, "chaining_poses", no_call("chaining_poses"))
    monkeypatch.setattr(deco.chaining, "rrt_path", no_call("rrt_path"))
    cmap = CountingMap([0.0, 0.0, 0.0], 0.02, np.zeros((20, 20, 20)), 0.05)
    start, end = Pose([0.05, 0.2, 0.2]), Pose([0.35, 0.1, 0.25])
    chain = chain_skills(start, end, cmap, m)
    assert cmap.blocked_lookups == 0
    assert [(p.tobytes(), q.tobytes()) for p, q in cmap.segments] == [
        (start.position.tobytes(), end.position.tobytes())]
    assert chain.poses == []
    assert [w.tobytes() for w in chain.path] == [start.position.tobytes(),
                                                 end.position.tobytes()]


@pytest.mark.parametrize("m", [0, 6])
def test_a_free_transition_between_coincident_ends_is_one_waypoint(m, monkeypatch):
    monkeypatch.setattr(deco.chaining, "chaining_poses", no_call("chaining_poses"))
    monkeypatch.setattr(deco.chaining, "rrt_path", no_call("rrt_path"))
    cmap = CountingMap([0.0, 0.0, 0.0], 0.02, np.zeros((20, 20, 20)), 0.05)
    start, end = Pose([0.05, 0.2, 0.2]), Pose([0.05, 0.2, 0.2 + 1e-9])
    chain = chain_skills(start, end, cmap, m)
    assert cmap.segments == []
    assert chain.poses == []
    assert [w.tobytes() for w in chain.path] == [start.position.tobytes()]


def test_a_blocked_transition_is_the_shortcut_of_its_legs(monkeypatch):
    """Through a wall the poses and legs are planned as before, and the joined
    path is shortcut once: no waypoint can see a later one but the next."""
    legs = []
    real = deco.chaining.rrt_path

    def recording(*args):
        legs.append(real(*args))
        return legs[-1]

    monkeypatch.setattr(deco.chaining, "rrt_path", recording)
    cmap = wall_map()
    start, end = Pose([0.05, 0.2, 0.2]), Pose([0.35, 0.2, 0.2])
    chain = chain_skills(start, end, cmap, 4, 2)
    assert len(chain.poses) == 4 and legs
    assert chain.path[0] is start.position and chain.path[-1].tobytes() == end.position.tobytes()
    # fewer waypoints than anchors: the shortcut skips chaining poses
    assert len(chain.path) < len(chain.poses) + 2
    for i, p in enumerate(chain.path):
        assert all(cmap.segment_free(p, q) is (j == i + 1)
                   for j, q in enumerate(chain.path) if j > i)


def test_a_leg_longer_than_the_map_fails_as_rrt_path_fails_it():
    """An anchor outside the map is blocked, so its leg goes to ``rrt_path``,
    which refuses that endpoint."""
    a, far = Pose([0.05, 0.2, 0.2]), Pose([-50.0, 0.2, 0.2])
    with pytest.raises(PlanningFailure, match="endpoint in collision") as reference:
        rrt_path(a.position, far.position, empty_map())
    with pytest.raises(PlanningFailure) as batched:
        chain_skills(a, far, empty_map(), 0)
    assert str(batched.value) == str(reference.value)


@pytest.fixture(scope="module")
def compositional_run():
    registry = load_registry()
    return registry, build_library(registry)[2]


def test_first_transition_chaining_poses_are_pinned_bit_for_bit(compositional_run, monkeypatch):
    """Each task's first transition, its endpoints and map recorded from the
    episode, refined through ``chaining_poses`` directly."""
    registry, library = compositional_run
    calls = []
    real = deco.executor.chain_skills

    def recording(goal_prev, start_next, cmap, m, seed):
        calls.append((goal_prev, start_next, cmap))
        return real(goal_prev, start_next, cmap, m, seed)

    monkeypatch.setattr(deco.executor, "chain_skills", recording)
    first = []
    for task in registry.compositional_tasks():
        calls.clear()
        run_task_episode(task, 0, ExecutorConfig(chaining_m=6), library, registry)
        assert calls
        poses = chaining_poses(*calls[0], 6)
        first.append([p.position for p in poses])
    assert _path_digest(first) == FIRST_POSES_DIGEST


def test_compositional_transitions_run_no_feature_transform(compositional_run, monkeypatch):
    """Chaining-pose gradients near obstacles are answered from the occupancy
    window, so no transition of the compositional suite needs the full-grid
    transform."""
    registry, library = compositional_run
    calls = []
    real = ndimage.distance_transform_edt

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(ndimage, "distance_transform_edt", counting)
    for task in registry.compositional_tasks():
        run_task_episode(task, 0, ExecutorConfig(chaining_m=6), library, registry)
    assert len(calls) == 0


def largest_turn(path) -> float:
    """The largest angle in degrees between consecutive segments of a path."""
    steps = np.diff(np.asarray(path), axis=0)
    steps = steps[np.linalg.norm(steps, axis=1) > 0]
    if len(steps) < 2:
        return 0.0
    u, v = steps[:-1], steps[1:]
    cos = np.einsum("ij,ij->i", u, v) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
    return float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))).max())


def test_compositional_transitions_are_smooth(compositional_run, monkeypatch):
    """The 12 compositional tasks at seeds 100-119, M=6: every episode succeeds
    and fewer than 10% of the transitions turn by more than 60 degrees."""
    registry, library = compositional_run
    turns = []
    real = deco.executor.chain_skills

    def recording(*args):
        chain = real(*args)
        turns.append(largest_turn(chain.path))
        return chain

    monkeypatch.setattr(deco.executor, "chain_skills", recording)
    results = [run_task_episode(task, seed, ExecutorConfig(chaining_m=6), library, registry)
               for task in registry.compositional_tasks() for seed in range(100, 120)]
    assert sum(r.success for r in results) == 240
    assert len(turns) > 240
    sharp = sum(turn > 60.0 for turn in turns)
    assert sharp < 0.1 * len(turns), f"{sharp} of {len(turns)} transitions turn by more than 60°"
