import numpy as np
import pytest

from deco.errors import EmptyDemo, MalformedDemo
from deco.geometry import Pose
from deco.trajectory import (AtomicTask, Demonstration, GripperState,
                             InstructionLibrary, InteractionSegment,
                             SegmentKind, TimeStep, load_atomic_tasks,
                             load_demos, save_atomic_tasks, save_demos)


def make_demo(states="oocco", demo_id="d0", speeds=None):
    steps = []
    for i, ch in enumerate(states):
        g = GripperState.OPEN if ch == "o" else GripperState.CLOSED
        speed = speeds[i] if speeds else 1.0
        steps.append(TimeStep(i, Pose([0.3 + 0.01 * i, 0.0, 0.2]), g, speed))
    return Demonstration(id=demo_id, instruction="test", steps=tuple(steps))


def test_timestep_rejects_negative_time_and_speed():
    with pytest.raises(ValueError):
        TimeStep(-1, Pose([0, 0, 0]), GripperState.OPEN, 0.0)
    with pytest.raises(ValueError):
        TimeStep(0, Pose([0, 0, 0]), GripperState.OPEN, -0.5)
    with pytest.raises(ValueError):
        TimeStep(0, Pose([0, 0, 0]), GripperState.OPEN, float("nan"))


def test_demo_needs_two_steps():
    with pytest.raises(EmptyDemo):
        Demonstration(id="x", instruction="t",
                      steps=(TimeStep(0, Pose([0, 0, 0]), GripperState.OPEN, 0.0),))


def test_demo_times_strictly_increasing():
    s = TimeStep(1, Pose([0, 0, 0]), GripperState.OPEN, 0.0)
    with pytest.raises(MalformedDemo):
        Demonstration(id="x", instruction="t", steps=(s, s))


def test_gripper_string():
    demo = make_demo("oocco")
    assert "".join("o" if s.gripper is GripperState.OPEN else "c" for s in demo.steps) == "oocco"


def test_demos_jsonl_round_trip(tmp_path):
    demos = [make_demo("occo", "a"), make_demo("oocccoo", "b")]
    path = tmp_path / "demos.jsonl"
    save_demos(demos, path)
    loaded = load_demos(path)
    assert [d.id for d in loaded] == ["a", "b"]
    assert "".join("o" if s.gripper is GripperState.OPEN else "c"
                   for s in loaded[1].steps) == "oocccoo"
    assert np.allclose(loaded[0].steps[2].pose.position, demos[0].steps[2].pose.position)


def test_segment_orders_start_before_end():
    with pytest.raises(ValueError):
        InteractionSegment("d", 3, 3, SegmentKind.FULL)


def test_atomic_task_final_keyframe_is_segment_end():
    seg = InteractionSegment("d", 0, 4, SegmentKind.FULL)
    with pytest.raises(ValueError):
        AtomicTask(segment=seg, instruction="t", goal_pose=Pose([0, 0, 0]),
                   keyframes=(1, 3))
    task = AtomicTask(segment=seg, instruction="t", goal_pose=Pose([0, 0, 0]),
                      keyframes=(1, 4))
    assert task.keyframes[-1] == 4


def test_atomic_tasks_jsonl_round_trip(tmp_path):
    demo = make_demo("occo")
    seg = InteractionSegment(demo.id, 0, 3, SegmentKind.FULL)
    task = AtomicTask(segment=seg, instruction="grab", goal_pose=demo.steps[3].pose,
                      keyframes=(1, 2, 3), steps=demo.steps)
    path = tmp_path / "atomic.jsonl"
    save_atomic_tasks([task], path)
    loaded = load_atomic_tasks(path)
    assert len(loaded) == 1
    assert loaded[0].instruction == "grab"
    assert loaded[0].keyframes == (1, 2, 3)
    assert len(loaded[0].steps) == 4


def test_library_aggregation_and_centroid():
    lib = InstructionLibrary()
    for i, goal in enumerate(([0.4, 0.0, 0.1], [0.6, 0.2, 0.3])):
        seg = InteractionSegment(f"d{i}", 0, 2, SegmentKind.FULL)
        lib.add(AtomicTask(segment=seg, instruction="grab",
                           goal_pose=Pose(goal), keyframes=(2,)))
    assert "grab" in lib
    assert len(lib) == 1
    assert lib.entries["grab"].count == 2
    assert lib.entries["grab"].goal_positions == [[0.4, 0.0, 0.1], [0.6, 0.2, 0.3]]


def test_library_save_load(tmp_path):
    lib = InstructionLibrary()
    seg = InteractionSegment("d", 0, 2, SegmentKind.HALF_OPEN_TO_CLOSED)
    lib.add(AtomicTask(segment=seg, instruction="grab",
                       goal_pose=Pose([0.4, 0, 0.1]), keyframes=(2,)))
    path = tmp_path / "lib.json"
    lib.save(path)
    loaded = InstructionLibrary.load(path)
    assert loaded.instructions() == ["grab"]
    assert loaded.entries["grab"].kinds == ["half_open_to_closed"]
