"""Demonstration trajectories and the atomic-task data model.

Demonstrations and atomic tasks are stored as JSONL, one record per line; a
demonstration line has the schema
``{"id", "instruction", "steps": [{"t", "pos", "quat", "gripper", "joint_speed"}]}``.
A skill library is one JSON object.  A file that does not parse raises a
``MalformedData`` naming the file, and the line for JSONL.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import AnnotationMismatch, DecoError, EmptyDemo, MalformedData, MalformedDemo
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
        if self.t < 0:
            raise ValueError("time index must be non-negative")
        if not np.isfinite(self.joint_speed) or self.joint_speed < 0:
            raise ValueError(f"joint_speed must be a finite non-negative scalar: {self.joint_speed}")

    def to_dict(self) -> dict:
        d = {"t": self.t}
        d.update(self.pose.to_dict())
        d["gripper"] = self.gripper.value
        d["joint_speed"] = round(float(self.joint_speed), 12)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "TimeStep":
        return cls(t=int(data["t"]),
                   pose=Pose.from_dict(data),
                   gripper=GripperState(data["gripper"]),
                   joint_speed=float(data["joint_speed"]))


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
        if self.start >= self.end:
            raise ValueError(f"segment start {self.start} must precede end {self.end}")

    def to_dict(self) -> dict:
        return {"demo_id": self.demo_id, "start": self.start, "end": self.end,
                "kind": self.kind.value}

    @classmethod
    def from_dict(cls, data: dict) -> "InteractionSegment":
        return cls(data["demo_id"], int(data["start"]), int(data["end"]),
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
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.keyframes or self.keyframes[-1] != self.segment.end:
            raise ValueError("final keyframe must be the segment end")

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


@dataclass
class LibraryEntry:
    instruction: str
    kinds: list[str] = field(default_factory=list)
    demo_ids: list[str] = field(default_factory=list)
    count: int = 0
    goal_positions: list[list[float]] = field(default_factory=list)
    goal_quat: list[float] | None = None

    def add(self, task: AtomicTask):
        self.count += 1
        if task.segment.kind.value not in self.kinds:
            self.kinds.append(task.segment.kind.value)
        if task.segment.demo_id not in self.demo_ids:
            self.demo_ids.append(task.segment.demo_id)
        self.goal_positions.append([float(v) for v in task.goal_pose.position])
        if self.goal_quat is None:
            self.goal_quat = [float(v) for v in task.goal_pose.orientation]

    def to_dict(self) -> dict:
        return {"instruction": self.instruction, "kinds": self.kinds,
                "demo_ids": self.demo_ids, "count": self.count,
                "goal_positions": self.goal_positions, "goal_quat": self.goal_quat}

    @classmethod
    def from_dict(cls, data: dict) -> "LibraryEntry":
        return cls(instruction=data["instruction"], kinds=list(data["kinds"]),
                   demo_ids=list(data["demo_ids"]), count=int(data["count"]),
                   goal_positions=[list(p) for p in data["goal_positions"]],
                   goal_quat=data.get("goal_quat"))


class InstructionLibrary:
    """Per-instruction metadata aggregated across atomic tasks."""

    def __init__(self):
        self.entries: dict[str, LibraryEntry] = {}

    def add(self, task: AtomicTask):
        entry = self.entries.get(task.instruction)
        if entry is None:
            entry = self.entries[task.instruction] = LibraryEntry(task.instruction)
        entry.add(task)

    def __contains__(self, instruction: str) -> bool:
        return instruction in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def instructions(self) -> list[str]:
        return list(self.entries)

    def to_dict(self) -> dict:
        return {name: e.to_dict() for name, e in self.entries.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "InstructionLibrary":
        lib = cls()
        for name, entry in data.items():
            lib.entries[name] = LibraryEntry.from_dict(entry)
        return lib

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    @classmethod
    def load(cls, path) -> "InstructionLibrary":
        """The library of a JSON file; raises MalformedData naming the file."""
        with open(path) as fh:
            try:
                data = json.load(fh)
                if isinstance(data, dict):
                    return cls.from_dict(data)
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedData(f"{path}: {type(exc).__name__}: {exc}") from exc
        raise MalformedData(f"{path}: a library is a JSON object, got {type(data).__name__}")


def _save_jsonl(records, path):
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record.to_dict()) + "\n")


def _load_jsonl(path, from_dict, error) -> list:
    """``from_dict`` of each non-blank line; raises ``error`` naming the line that fails."""
    records = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(from_dict(json.loads(line)))
            except (DecoError, KeyError, TypeError, ValueError) as exc:
                raise error(f"{path} line {number}: {type(exc).__name__}: {exc}") from exc
    return records


save_demos = save_atomic_tasks = _save_jsonl


def load_demos(path) -> list[Demonstration]:
    return _load_jsonl(path, Demonstration.from_dict, MalformedDemo)


def load_atomic_tasks(path) -> list[AtomicTask]:
    return _load_jsonl(path, AtomicTask.from_dict, MalformedData)


def load_annotations(path) -> dict[str, list[str]]:
    """A JSON object mapping each demo id to its ordered instruction list."""
    with open(path) as fh:
        try:
            annotations = json.load(fh)
        except ValueError as exc:
            raise AnnotationMismatch(f"{path}: {type(exc).__name__}: {exc}") from exc
    if not (isinstance(annotations, dict) and all(
            isinstance(labels, list) and all(isinstance(v, str) for v in labels)
            for labels in annotations.values())):
        raise AnnotationMismatch(f"{path}: annotations must be a JSON object mapping each "
                                 "demo id to a list of instruction strings")
    return annotations
