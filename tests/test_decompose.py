import numpy as np
import pytest

from deco.decompose import (DecompositionConfig, DecompositionMode,
                            build_atomic_dataset, discover_keyframes,
                            segment_interactions)
from deco.errors import (AnnotationMismatch, MalformedDemo, NoInteraction)
from deco.geometry import Pose
from deco.trajectory import Demonstration, GripperState, SegmentKind, TimeStep


def make_demo(states, speeds=None, demo_id="d0"):
    steps = []
    for i, ch in enumerate(states):
        g = GripperState.OPEN if ch == "o" else GripperState.CLOSED
        speed = 1.0 if speeds is None else speeds[i]
        steps.append(TimeStep(i, Pose([0.3, 0.0, 0.2 + 0.001 * i]), g, speed))
    return Demonstration(id=demo_id, instruction="test", steps=tuple(steps))


# --- keyframes ---

def test_keyframes_on_gripper_transitions():
    demo = make_demo("oocco")
    cfg = DecompositionConfig()
    assert discover_keyframes(demo, cfg) == [2, 4]


def test_keyframes_on_velocity_dwell_with_gap():
    # dwells at 2 and 3; the gap rule admits 2, suppresses 3
    demo = make_demo("ooooo", speeds=[1, 1, 0.0, 0.0, 1])
    cfg = DecompositionConfig(velocity_epsilon=0.01, min_keyframe_gap=2)
    assert discover_keyframes(demo, cfg) == [2, 4]


def test_keyframes_always_include_final_step():
    demo = make_demo("oooo")
    assert discover_keyframes(demo, DecompositionConfig())[-1] == 3


def test_keyframe_gap_counts_from_last_accepted():
    demo = make_demo("oooooo", speeds=[1, 0.0, 0.0, 0.0, 0.0, 1])
    cfg = DecompositionConfig(min_keyframe_gap=2)
    assert discover_keyframes(demo, cfg) == [2, 4, 5]


def test_keyframe_config_validation():
    with pytest.raises(ValueError):
        DecompositionConfig(velocity_epsilon=0.0)
    with pytest.raises(ValueError):
        DecompositionConfig(min_keyframe_gap=0)


def keyframe_oracle(demo, epsilon, gap):
    """Independent re-statement of the keyframe rule."""
    out = []
    last = 0
    for i in range(1, len(demo.steps)):
        transition = demo.steps[i].gripper != demo.steps[i - 1].gripper
        dwell = demo.steps[i].joint_speed < epsilon and (i - last) >= gap
        if transition or dwell:
            out.append(i)
            last = i
    final = len(demo.steps) - 1
    if not out or out[-1] != final:
        out.append(final)
    return out


def test_keyframes_match_oracle_randomized():
    rng = np.random.default_rng(7)
    for trial in range(60):
        n = int(rng.integers(2, 30))
        states = "o" + "".join(rng.choice(list("oc"), n - 1))
        speeds = rng.uniform(0, 0.03, n).tolist()
        demo = make_demo(states, speeds=speeds, demo_id=f"r{trial}")
        gap = int(rng.integers(1, 4))
        cfg = DecompositionConfig(min_keyframe_gap=gap)
        assert discover_keyframes(demo, cfg) == keyframe_oracle(demo, 0.01, gap)


# --- segmentation ---

def test_full_segmentation_single_cycle():
    demo = make_demo("ooccoo")
    segs = segment_interactions(demo, DecompositionConfig())
    assert len(segs) == 1
    assert (segs[0].start, segs[0].end) == (0, 5)
    assert segs[0].kind is SegmentKind.FULL


def test_full_segmentation_two_cycles_partition():
    demo = make_demo("occoccoo")
    segs = segment_interactions(demo, DecompositionConfig())
    assert [(s.start, s.end) for s in segs] == [(0, 3), (4, 7)]


def test_half_segmentation_shares_boundary():
    demo = make_demo("ooccoo")
    segs = segment_interactions(demo, DecompositionConfig(mode="half"))
    assert len(segs) == 2
    assert (segs[0].start, segs[0].end) == (0, 2)
    assert (segs[1].start, segs[1].end) == (2, 5)
    assert segs[0].kind is SegmentKind.HALF_OPEN_TO_CLOSED
    assert segs[1].kind is SegmentKind.HALF_CLOSED_TO_OPEN


def test_segmentation_rejects_closed_start():
    demo = make_demo("ccoo")
    with pytest.raises(MalformedDemo):
        segment_interactions(demo, DecompositionConfig())


def test_segmentation_rejects_unbalanced():
    demo = make_demo("oocc")
    with pytest.raises(MalformedDemo, match="d0"):
        segment_interactions(demo, DecompositionConfig())


def test_segmentation_rejects_no_interaction():
    demo = make_demo("oooo")
    with pytest.raises(NoInteraction):
        segment_interactions(demo, DecompositionConfig())


def test_segment_gripper_substring_shape():
    demo = make_demo("oocccoocco")
    segs = segment_interactions(demo, DecompositionConfig())
    s = "".join("o" if st.gripper is GripperState.OPEN else "c" for st in demo.steps)
    import re
    for seg in segs:
        assert re.fullmatch("o+c+o+", s[seg.start:seg.end + 1])


# --- dataset building ---

def test_build_dataset_annotations_and_ordering():
    demos = [make_demo("occoocco", demo_id="b"), make_demo("occo", demo_id="a")]
    cfg = DecompositionConfig(annotations={"b": ["s1", "s2"], "a": ["s3"]})
    tasks, library = build_atomic_dataset(demos, cfg)
    assert [(t.segment.demo_id, t.segment.start) for t in tasks] == \
        [("a", 0), ("b", 0), ("b", 4)]
    assert sorted(library.instructions()) == ["s1", "s2", "s3"]
    for t in tasks:
        assert t.keyframes[-1] == t.segment.end
        assert all(t.segment.start <= k <= t.segment.end for k in t.keyframes)


def test_build_dataset_goal_pose_is_segment_end_pose():
    demo = make_demo("occo")
    cfg = DecompositionConfig(annotations={"d0": ["s"]})
    tasks, _ = build_atomic_dataset([demo], cfg)
    assert np.allclose(tasks[0].goal_pose.position, demo.steps[3].pose.position)


def test_build_dataset_annotation_mismatch():
    demo = make_demo("occoocco")
    cfg = DecompositionConfig(annotations={"d0": ["only one"]})
    with pytest.raises(AnnotationMismatch, match="2 segments but 1"):
        build_atomic_dataset([demo], cfg)
    with pytest.raises(AnnotationMismatch):
        build_atomic_dataset([demo], DecompositionConfig())


def test_mode_enum_coercion():
    cfg = DecompositionConfig(mode="half")
    assert cfg.mode is DecompositionMode.HALF
