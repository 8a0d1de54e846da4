"""The per-step hot path against its numpy references, and a digest of final
scene states.

``Pose``, ``Bounds.contains``, ``_segment_samples`` and ``Scene.copy`` run on
single 3- and 4-vectors once per action, so they work in plain floats; the
property tests check them byte for byte against the numpy formulas they
replace.  The digest pins the bytes of every final scene that the oracle
policy's actions reach on the compositional tasks and the obstacle fixture.
Scenes share their read-only position arrays: a copy's positions cannot be
written, and ``step`` stores new arrays only for the objects that moved.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deco.costmap import Bounds
from deco.errors import PreconditionUnmet
from deco.geometry import Pose
from deco.registry import load_registry
from deco.sim.oracle import oracle_policy
from deco.sim.scene import SEGMENT_SAMPLE_RES, WORKSPACE, Scene, _segment_samples, step
from deco.sim.tasks import drawer_front_obstacle_task, reset

PROPERTY_SETTINGS = settings(max_examples=200, derandomize=True, deadline=None)

# by noise_sigma of the oracle policy
FINAL_STATE_DIGEST = {0.0: "322d22f762a9c5f4", 0.01: "02ba51a5fbd6e038"}


def _hex(values) -> str:
    return np.asarray(values, dtype=np.float64).tobytes().hex()


def final_state(scene) -> list:
    return [_hex(scene.gripper_position), float(scene.open_fraction).hex(),
            scene.held_object, scene.collision_count, scene.drawer_slams,
            [[name, _hex(position), name == scene.held_object]
             for name, position in sorted(scene.objects.items())]]


def run_oracle(task, seed: int, noise_sigma: float) -> list:
    """Step the task's plan with the oracle policy's actions; a skill whose
    precondition fails ends the run, and the state records where."""
    scene, stopped = reset(task, seed), None
    try:
        for i, instruction in enumerate(task.plan):
            stopped = instruction
            for action in oracle_policy(instruction, scene, noise_sigma, seed * 101 + i):
                scene = step(scene, action)
        stopped = None
    except PreconditionUnmet:
        pass
    return [task.id, noise_sigma, stopped] + final_state(scene)


@pytest.mark.parametrize("noise_sigma", [0.0, 0.01])
def test_final_scene_states_are_pinned_byte_for_byte(noise_sigma):
    tasks = load_registry().compositional_tasks() + [drawer_front_obstacle_task()]
    rows = [run_oracle(task, 0, noise_sigma) for task in tasks]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
    assert digest == FINAL_STATE_DIGEST[noise_sigma]


@st.composite
def boxes(draw):
    lower = np.array([draw(st.floats(-10.0, 10.0)) for _ in range(3)])
    extent = np.array([draw(st.floats(1e-6, 5.0)) for _ in range(3)])
    return Bounds(lower, lower + extent)


@st.composite
def box_points(draw, box):
    """Per axis: a face, a neighbour of a face, NaN, or any float near the box."""
    coords = []
    for lo, hi in zip(box.lower.tolist(), box.upper.tolist()):
        face = draw(st.sampled_from([lo, hi]))
        coords.append(draw(st.sampled_from([face, np.nextafter(face, -np.inf),
                                            np.nextafter(face, np.inf), np.nan])
                           | st.floats(lo - 1.0, hi + 1.0)))
    return np.array(coords)


@PROPERTY_SETTINGS
@given(boxes(), st.data())
def test_bounds_contains_matches_numpy_comparisons(box, data):
    point = data.draw(box_points(box))
    expected = bool(np.all(point >= box.lower) and np.all(point <= box.upper))
    assert box.contains(point) is expected
    assert box.contains(point.tolist()) is expected


def workspace_points():
    return st.tuples(*(st.floats(lo, hi) for lo, hi in zip(WORKSPACE.lower.tolist(),
                                                           WORKSPACE.upper.tolist()))).map(np.array)


@PROPERTY_SETTINGS
@given(workspace_points(), workspace_points() | st.just(None))
def test_segment_samples_match_the_linspace_formula(a, b):
    b = a.copy() if b is None else b
    length = float(np.linalg.norm(b - a))
    n = max(1, int(np.ceil(length / SEGMENT_SAMPLE_RES)))
    ts = np.linspace(0.0, 1.0, n + 1)
    expected = a[None, :] + ts[:, None] * (b - a)[None, :]
    samples = _segment_samples(a, b)
    assert samples.shape == expected.shape
    assert samples.tobytes() == expected.tobytes()


QUAT_COMPONENTS = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e-160, 1e-200, 1e150])


@PROPERTY_SETTINGS
@given(st.tuples(*[QUAT_COMPONENTS] * 4).map(np.array), workspace_points())
def test_pose_orientation_matches_numpy_normalisation(q, position):
    norm = np.linalg.norm(q)
    if norm == 0.0:
        with pytest.raises(ValueError, match="zero norm"):
            Pose(position, q)
        return
    pose = Pose(position, q)
    assert pose.orientation.tobytes() == (q / norm).tobytes()
    assert pose.position.tobytes() == position.tobytes()


def test_pose_default_orientation_is_the_normalised_identity():
    identity = np.array([1.0, 0.0, 0.0, 0.0])
    pose = Pose([0.3, 0.0, 0.3])
    assert pose.orientation.tobytes() == (identity / np.linalg.norm(identity)).tobytes()
    assert not pose.orientation.flags.writeable


def test_mutating_a_scene_copy_leaves_the_original_unchanged():
    """A scene's positions, the gripper's included, are read-only, also when
    the scene was built from writable arrays; writing through a copy's dict
    and fields leaves the original unchanged."""
    given = np.array([0.45, 0.30, 0.01])
    built = Scene(objects={"rubbish_0": given}, gripper_position=np.array([0.3, 0.1, 0.3]))
    given[0] = 0.5
    assert built.objects["rubbish_0"].tolist() == [0.45, 0.30, 0.01]
    task = load_registry().get("retrieve_and_sweep")
    for scene in (built, reset(task, 0)):
        scene.held_object, scene.open_fraction = "broom", 0.5
        before = final_state(scene)
        copy = scene.copy()
        assert final_state(copy) == before
        assert (copy.gripper_state, copy.drawer_present, copy.cupboard_present,
                copy.dustpan_present) == (scene.gripper_state, scene.drawer_present,
                                          scene.cupboard_present, scene.dustpan_present)
        for position in [copy.gripper_position, *copy.objects.values()]:
            with pytest.raises(ValueError, match="read-only"):
                position[1] -= 0.05
        copy.gripper_position = copy.gripper_position + 0.1
        copy.objects["extra"] = copy.objects.pop(next(iter(copy.objects)))
        copy.objects["rubbish_0"] = np.array([0.5, 0.0, 0.01])
        copy.held_object, copy.open_fraction = None, 1.0
        copy.collision_count += 1
        copy.drawer_slams += 1
        assert final_state(scene) == before


def test_step_shares_the_objects_that_did_not_move():
    """``step`` returns the input's arrays for the objects that did not move,
    and the gripper's array for the held object; the objects that moved get new
    read-only arrays, and a release keeps the array the released object
    followed the gripper with."""
    scene = reset(load_registry().get("retrieve_and_sweep"), 0)
    moved_per_step, releases = [], 0
    for instruction in ("take broom out of cupboard", "sweep rubbish to dustpan"):
        for action in oracle_policy(instruction, scene):
            out = step(scene, action)
            assert out.objects is not scene.objects and set(out.objects) == set(scene.objects)
            if scene.held_object is not None and out.held_object is None:
                # the object followed the gripper to the release pose, and stays
                releases += 1
                assert out.objects[scene.held_object] is out.gripper_position
            if out.held_object is not None:
                assert out.objects[out.held_object] is out.gripper_position
            moved = {name for name, position in out.objects.items()
                     if position is not scene.objects[name]}
            for name, position in out.objects.items():
                assert not position.flags.writeable
                if name != out.held_object:
                    same = position.tobytes() == scene.objects[name].tobytes()
                    assert (name not in moved) == same, name
            moved_per_step.append(moved)
            scene = out
    # grasp, carry and release of the broom, and a sweep of rubbish
    assert releases == 2
    assert {"broom"} in moved_per_step and set() in moved_per_step
    assert any(len(m - {"broom"}) > 0 for m in moved_per_step)
