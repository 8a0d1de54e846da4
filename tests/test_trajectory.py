import json

import numpy as np
import pytest

from deco.errors import EmptyDemo, MalformedData, MalformedDemo
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


@pytest.mark.parametrize("line, cause", [
    ('{"segment": {"start": 0, "end": 3, "kind": "full"}}', "KeyError: 'demo_id'"),
    ("not json", "JSONDecodeError"),
    ("[]", "TypeError"),
])
def test_load_atomic_tasks_names_the_line_that_fails(tmp_path, line, cause):
    demo = make_demo("occo")
    task = AtomicTask(segment=InteractionSegment(demo.id, 0, 3, SegmentKind.FULL),
                      instruction="grab", goal_pose=demo.steps[3].pose, keyframes=(3,))
    path = tmp_path / "atomic.jsonl"
    save_atomic_tasks([task], path)
    path.write_text(path.read_text() + "\n" + line + "\n")
    with pytest.raises(MalformedData, match=f"{path} line 3: {cause}"):
        load_atomic_tasks(path)


def test_library_counts_atomic_tasks_per_instruction():
    lib = InstructionLibrary()
    for i, (instruction, goal) in enumerate((("grab", [0.4, 0.0, 0.1]),
                                             ("grab", [0.6, 0.2, 0.3]),
                                             ("drop", [0.5, 0.1, 0.2]))):
        seg = InteractionSegment(f"d{i}", 0, 2, SegmentKind.FULL)
        lib.add(AtomicTask(segment=seg, instruction=instruction,
                           goal_pose=Pose(goal), keyframes=(2,)))
    assert "grab" in lib and "drop" in lib and "lift" not in lib
    assert len(lib) == 2
    assert lib.counts == {"grab": 2, "drop": 1}


def test_library_save_load(tmp_path):
    lib = InstructionLibrary()
    seg = InteractionSegment("d", 0, 2, SegmentKind.HALF_OPEN_TO_CLOSED)
    lib.add(AtomicTask(segment=seg, instruction="grab",
                       goal_pose=Pose([0.4, 0, 0.1]), keyframes=(2,)))
    path = tmp_path / "lib.json"
    lib.save(path)
    assert json.loads(path.read_text()) == {"grab": 1}
    assert InstructionLibrary.load(path).counts == {"grab": 1}


@pytest.mark.parametrize("entry", [
    {"instruction": "grab", "kinds": "full", "demo_ids": ["d"], "count": 1,
     "goal_positions": [[0.4, 0.0, 0.1]], "goal_quat": [1, 0, 0, 0]},
    "2", True, False, 0, -1, 1.0, None, [1],
])
def test_library_load_names_the_entry_that_is_not_a_count(tmp_path, entry):
    path = tmp_path / "lib.json"
    path.write_text(json.dumps({"drop": 3, "grab": entry}))
    with pytest.raises(MalformedData, match=f"{path}: entry 'grab' must map to an "
                                            "atomic-task count of at least 1"):
        InstructionLibrary.load(path)


@pytest.mark.parametrize("load, error", [(load_demos, MalformedDemo),
                                         (load_atomic_tasks, MalformedData)])
def test_jsonl_that_is_not_utf8_names_the_line(tmp_path, load, error):
    path = tmp_path / "records.jsonl"
    path.write_bytes(b"\n" + b'{"id": "d\xff"}\n')
    with pytest.raises(error, match=f"{path} line 2: UnicodeDecodeError"):
        load(path)
