"""Segmentation of demonstrations into gripper-interaction cycles.

A full segment covers one open -> closed -> open cycle; half mode splits each
full segment at its open -> closed boundary.  Full segments partition the
demo: each ends at the first open step after its closed run, except the last,
which absorbs any trailing open steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .config import check_count, is_number
from .errors import AnnotationMismatch, ConfigError, MalformedDemo, NoInteraction
from .trajectory import (AtomicTask, Demonstration, GripperState,
                         InstructionLibrary, InteractionSegment, SegmentKind)


class DecompositionMode(str, Enum):
    FULL = "full"
    HALF = "half"


@dataclass
class DecompositionConfig:
    mode: DecompositionMode = DecompositionMode.FULL
    velocity_epsilon: float = 0.01
    min_keyframe_gap: int = 2
    annotations: dict[str, list[str]] | None = field(default=None)

    def __post_init__(self):
        try:
            self.mode = DecompositionMode(self.mode)
        except ValueError:
            raise ConfigError(f"mode must be 'full' or 'half', got {self.mode!r}") from None
        eps = self.velocity_epsilon
        if not (is_number(eps) and eps > 0):
            raise ConfigError(f"velocity_epsilon must be a finite positive number, got {eps!r}")
        check_count(self.min_keyframe_gap, "min_keyframe_gap", 1)


def discover_keyframes(demo: Demonstration, cfg: DecompositionConfig) -> list[int]:
    """Keyframes: gripper transitions, gap-separated velocity dwells, final step."""
    keyframes = []
    last_kf = 0
    for i in range(1, len(demo.steps)):
        step = demo.steps[i]
        if step.gripper is not demo.steps[i - 1].gripper:
            keyframes.append(i)
            last_kf = i
        elif step.joint_speed < cfg.velocity_epsilon and i - last_kf >= cfg.min_keyframe_gap:
            keyframes.append(i)
            last_kf = i
    last = len(demo.steps) - 1
    if not keyframes or keyframes[-1] != last:
        keyframes.append(last)
    return keyframes


def _transitions(states: list[GripperState]):
    o2c, c2o = [], []
    for i in range(1, len(states)):
        if states[i - 1] is GripperState.OPEN and states[i] is GripperState.CLOSED:
            o2c.append(i)
        elif states[i - 1] is GripperState.CLOSED and states[i] is GripperState.OPEN:
            c2o.append(i)
    return o2c, c2o


def segment_interactions(demo: Demonstration, cfg: DecompositionConfig) -> list[InteractionSegment]:
    states = [s.gripper for s in demo.steps]
    if states[0] is not GripperState.OPEN:
        raise MalformedDemo(f"demo {demo.id!r} starts with a closed gripper")
    o2c, c2o = _transitions(states)
    if not o2c and not c2o:
        raise NoInteraction(f"demo {demo.id!r} has no gripper transitions")
    if len(o2c) != len(c2o):
        raise MalformedDemo(
            f"demo {demo.id!r} ends mid-interaction "
            f"({len(o2c)} open->closed vs {len(c2o)} closed->open transitions)")

    last = len(states) - 1
    full_segments = []
    start = 0
    for k, close_end in enumerate(c2o):
        end = close_end if k < len(c2o) - 1 else last
        full_segments.append(InteractionSegment(demo.id, start, end, SegmentKind.FULL))
        start = end + 1

    if cfg.mode is DecompositionMode.FULL:
        return full_segments

    halves = []
    for seg, split in zip(full_segments, o2c):
        halves.append(InteractionSegment(demo.id, seg.start, split,
                                         SegmentKind.HALF_OPEN_TO_CLOSED))
        halves.append(InteractionSegment(demo.id, split, seg.end,
                                         SegmentKind.HALF_CLOSED_TO_OPEN))
    return halves


def build_atomic_dataset(demos, cfg: DecompositionConfig):
    """Decompose demos into annotated atomic tasks plus the instruction library.

    Annotations map demo id to an ordered instruction list, one per segment.
    Output ordering is deterministic: by (demo_id, segment start).  A demo id
    that repeats is a ``MalformedDemo``: its segments would count twice.
    """
    annotations = cfg.annotations or {}
    tasks = []
    library = InstructionLibrary()
    demos = sorted(demos, key=lambda d: d.id)
    for prev, demo in zip(demos, demos[1:]):
        if prev.id == demo.id:
            raise MalformedDemo(f"demo {demo.id!r} appears more than once")
    for demo in demos:
        segments = segment_interactions(demo, cfg)
        labels = annotations.get(demo.id)
        if labels is None or len(labels) != len(segments):
            got = 0 if labels is None else len(labels)
            raise AnnotationMismatch(
                f"demo {demo.id!r}: {len(segments)} segments but {got} instructions")
        keyframes = discover_keyframes(demo, cfg)
        for segment, instruction in zip(segments, labels):
            seg_keyframes = [k for k in keyframes if segment.start <= k < segment.end]
            seg_keyframes.append(segment.end)
            task = AtomicTask(segment=segment, instruction=instruction,
                              goal_pose=demo.steps[segment.end].pose,
                              keyframes=tuple(seg_keyframes),
                              steps=demo.steps[segment.start:segment.end + 1])
            tasks.append(task)
            library.add(task)
    return tasks, library
