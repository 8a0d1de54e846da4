"""Demonstration trajectories and the atomic-task data model.

Demonstrations and atomic tasks are stored as JSONL, one record per line; a
demonstration line has the schema
``{"id", "instruction", "steps": [{"t", "pos", "quat", "gripper", "joint_speed"}]}``.
A skill library is one JSON object mapping each instruction to its number of
atomic tasks.  A file that does not parse raises a ``MalformedData`` naming
the file, and the line for JSONL; a time index, segment bound or keyframe is a count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

from .config import check_count, is_count, is_number
from .errors import (AnnotationMismatch, DecoError, EmptyDemo, InvalidInput, MalformedData,
                     MalformedDemo)
from .geometry import Pose


class GripperState(str, Enum):
    OPEN = "open"
    CLOSED = "closed"


class SegmentKind(str, Enum):
    FULL = "full"
    HALF_OPEN_TO_CLOSED = "half_open_to_closed"
    HALF_CLOSED_TO_OPEN = "half_closed_to_open"


@dataclass(frozen=True)
class TimeStep:
    t: int
    pose: Pose
    gripper: GripperState
    joint_speed: float

    def __post_init__(self):
        check_count(self.t, "time index", error=InvalidInput)
        if not is_number(self.joint_speed):
            raise InvalidInput(f"joint_speed must be a finite non-negative number, "
                               f"got {self.joint_speed!r}")

    def to_dict(self) -> dict:
        d = {"t": self.t}
        d.update(self.pose.to_dict())
        d["gripper"] = self.gripper.value
        d["joint_speed"] = round(float(self.joint_speed), 12)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "TimeStep":
        return cls(t=data["t"],
                   pose=Pose.from_dict(data),
                   gripper=GripperState(data["gripper"]),
                   joint_speed=data["joint_speed"])


@dataclass(frozen=True)
class Demonstration:
    id: str
    instruction: str
    steps: tuple[TimeStep, ...]

    def __post_init__(self):
        steps = tuple(self.steps)
        object.__setattr__(self, "steps", steps)
        if len(steps) < 2:
            raise EmptyDemo(f"demo {self.id!r} needs at least 2 steps, got {len(steps)}")
        times = [s.t for s in steps]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise MalformedDemo(f"demo {self.id!r} time indices not strictly increasing")

    def to_dict(self) -> dict:
        return {"id": self.id, "instruction": self.instruction,
                "steps": [s.to_dict() for s in self.steps]}

    @classmethod
    def from_dict(cls, data: dict) -> "Demonstration":
        return cls(id=data["id"], instruction=data["instruction"],
                   steps=tuple(TimeStep.from_dict(s) for s in data["steps"]))


@dataclass(frozen=True)
class InteractionSegment:
    demo_id: str
    start: int
    end: int
    kind: SegmentKind

    def __post_init__(self):
        check_count(self.start, "segment start", error=InvalidInput)
        check_count(self.end, "segment end", self.start + 1, InvalidInput)

    def to_dict(self) -> dict:
        return {"demo_id": self.demo_id, "start": self.start, "end": self.end,
                "kind": self.kind.value}

    @classmethod
    def from_dict(cls, data: dict) -> "InteractionSegment":
        return cls(data["demo_id"], data["start"], data["end"],
                   SegmentKind(data["kind"]))


@dataclass(frozen=True)
class AtomicTask:
    segment: InteractionSegment
    instruction: str
    goal_pose: Pose
    keyframes: tuple[int, ...]
    steps: tuple[TimeStep, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "keyframes", tuple(self.keyframes))
        for k in self.keyframes:
            check_count(k, "keyframe", error=InvalidInput)
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.keyframes or self.keyframes[-1] != self.segment.end:
            raise InvalidInput("final keyframe must be the segment end")

    def to_dict(self) -> dict:
        return {"segment": self.segment.to_dict(), "instruction": self.instruction,
                "goal_pose": self.goal_pose.to_dict(),
                "keyframes": list(self.keyframes),
                "steps": [s.to_dict() for s in self.steps]}

    @classmethod
    def from_dict(cls, data: dict) -> "AtomicTask":
        return cls(segment=InteractionSegment.from_dict(data["segment"]),
                   instruction=data["instruction"],
                   goal_pose=Pose.from_dict(data["goal_pose"]),
                   keyframes=tuple(data["keyframes"]),
                   steps=tuple(TimeStep.from_dict(s) for s in data.get("steps", [])))


class InstructionLibrary:
    """The skill library: each instruction's number of atomic tasks.

    Saved as one JSON object, ``{"open drawer": 2, ...}``; the goal poses,
    segment kinds and demo ids of the atomic tasks live in their own JSONL.
    """

    def __init__(self, counts: dict[str, int] | None = None):
        self.counts: dict[str, int] = dict(counts or {})

    def add(self, task: AtomicTask):
        self.counts[task.instruction] = self.counts.get(task.instruction, 0) + 1

    def __contains__(self, instruction: str) -> bool:
        return instruction in self.counts

    def __len__(self) -> int:
        return len(self.counts)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.counts, fh, indent=2)

    @classmethod
    def load(cls, path) -> "InstructionLibrary":
        """The library of a JSON file; raises MalformedData naming the file
        and, for an entry that is not a count of at least 1, its key."""
        data = _load_json(path, MalformedData)
        if not isinstance(data, dict):
            raise MalformedData(f"{path}: a library is a JSON object, got {type(data).__name__}")
        for name, count in data.items():
            if not is_count(count, 1):
                raise MalformedData(f"{path}: entry {name!r} must map to an atomic-task "
                                    f"count of at least 1, got {count!r}")
        return cls(data)


def _load_json(path, error):
    """The JSON value in ``path``; raises ``error`` naming the file if it does not parse."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (RecursionError, ValueError) as exc:
            raise error(f"{path}: {type(exc).__name__}: {exc}") from exc


def _save_jsonl(records, path):
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record.to_dict()) + "\n")


def _load_jsonl(path, from_dict, error) -> list:
    """``from_dict`` of each non-blank line; raises ``error`` naming the line that fails."""
    records = []
    # read as bytes so that a line that is not UTF-8 fails inside the try
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                records.append(from_dict(json.loads(line.decode("utf-8"))))
            except (DecoError, KeyError, RecursionError, TypeError, ValueError) as exc:
                raise error(f"{path} line {number}: {type(exc).__name__}: {exc}") from exc
    return records


save_demos = save_atomic_tasks = _save_jsonl


def load_demos(path) -> list[Demonstration]:
    return _load_jsonl(path, Demonstration.from_dict, MalformedDemo)


def load_atomic_tasks(path) -> list[AtomicTask]:
    return _load_jsonl(path, AtomicTask.from_dict, MalformedData)


def load_annotations(path) -> dict[str, list[str]]:
    """A JSON object mapping each demo id to its ordered instruction list."""
    annotations = _load_json(path, AnnotationMismatch)
    if not (isinstance(annotations, dict) and all(
            isinstance(labels, list) and all(isinstance(v, str) for v in labels)
            for labels in annotations.values())):
        raise AnnotationMismatch(f"{path}: annotations must be a JSON object mapping each "
                                 "demo id to a list of instruction strings")
    return annotations
