"""Versioned benchmark task registry loaded from the packaged JSON asset, and
``SKILL_NEEDS``, what each atomic skill needs of the scene: both the planner
and the scripted oracle check it (planning must not import the simulator).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cache
from importlib import resources
from types import MappingProxyType
from typing import NamedTuple

from .errors import UnknownTask

DRAWER_OPEN_THRESHOLD = 0.8
DRAWER_CLOSED_THRESHOLD = 0.2


class DrawerNeed(str, Enum):
    """The drawer state a skill needs before it starts."""

    OPEN = "open"               # open fraction >= DRAWER_OPEN_THRESHOLD
    NOT_OPEN = "not open"       # open fraction < DRAWER_OPEN_THRESHOLD
    NOT_CLOSED = "not closed"   # open fraction > DRAWER_CLOSED_THRESHOLD

    def holds(self, fraction: float) -> bool:
        if self is DrawerNeed.NOT_CLOSED:
            return fraction > DRAWER_CLOSED_THRESHOLD
        return (fraction >= DRAWER_OPEN_THRESHOLD) == (self is DrawerNeed.OPEN)


class SkillNeeds(NamedTuple):
    parts: tuple[str, ...]          # scene parts: "drawer", "cupboard", "dustpan"
    objects: tuple[str, ...] = ()   # object-name prefixes
    drawer: DrawerNeed | None = None

    def lacking(self, scene, names) -> str | None:
        """The first needed part (read as ``scene.<part>_present``) or object
        prefix (matched against ``names``) that the scene lacks, or None."""
        for part in self.parts:
            if not getattr(scene, part + "_present"):
                return part
        for prefix in self.objects:
            # a plain loop: oracle_policy runs this check before every script
            for name in names:
                if name.startswith(prefix):
                    break
            else:
                return prefix
        return None


SKILL_NEEDS = MappingProxyType({
    "open drawer": SkillNeeds(("drawer",), drawer=DrawerNeed.NOT_OPEN),
    "close drawer": SkillNeeds(("drawer",), drawer=DrawerNeed.NOT_CLOSED),
    "put item in drawer": SkillNeeds(("drawer",), ("item",), DrawerNeed.OPEN),
    "take item out of drawer": SkillNeeds(("drawer",), ("item",), DrawerNeed.OPEN),
    "take box out of drawer": SkillNeeds(("drawer",), ("box",), DrawerNeed.OPEN),
    "put box in cupboard": SkillNeeds(("cupboard",), ("box",)),
    "take box out of cupboard": SkillNeeds(("cupboard",), ("box",)),
    "take broom out of cupboard": SkillNeeds(("cupboard",), ("broom",)),
    "sweep rubbish to dustpan": SkillNeeds(("dustpan",), ("broom", "rubbish")),
    "put rubbish in dustpan": SkillNeeds(("dustpan",), ("rubbish",)),
})


@dataclass(frozen=True)
class TaskSpec:
    """A benchmark task: atomic when its plan is one skill, else compositional."""

    id: str
    instruction: str
    predicate: str
    initializer: str
    plan: tuple[str, ...]
    aliases: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "plan", tuple(self.plan))
        object.__setattr__(self, "aliases", tuple(self.aliases))
        if not self.plan:
            raise ValueError(f"task {self.id!r} has an empty plan")

    @property
    def cycle_count(self) -> int:
        return 2 * len(self.plan)   # each skill closes and opens the gripper once


class TaskRegistry:
    def __init__(self, tasks: list[TaskSpec]):
        # read-only: load_registry hands one shared instance to every caller
        self.tasks = MappingProxyType({t.id: t for t in tasks})
        self._by_instruction: dict[str, TaskSpec] = {}
        for task in tasks:
            for text in (task.instruction, *task.aliases):
                self._by_instruction[text] = task

    def __iter__(self):
        return iter(self.tasks.values())

    def __len__(self):
        return len(self.tasks)

    def get(self, task_id: str) -> TaskSpec:
        if task_id not in self.tasks:
            raise UnknownTask(f"unknown task id: {task_id!r}")
        return self.tasks[task_id]

    def find_by_instruction(self, instruction: str) -> TaskSpec | None:
        return self._by_instruction.get(instruction.strip().lower())

    def atomic_tasks(self) -> list[TaskSpec]:
        return [t for t in self.tasks.values() if len(t.plan) == 1]

    def compositional_tasks(self) -> list[TaskSpec]:
        return [t for t in self.tasks.values() if len(t.plan) > 1]


def _parse(data: dict) -> TaskRegistry:
    # a row holds TaskSpec's fields; "aliases" may be left out
    return TaskRegistry([TaskSpec(**row) for row in data["tasks"]])


@cache
def load_registry() -> TaskRegistry:
    """The packaged registry, parsed once per process and shared by every caller."""
    text = resources.files("deco.assets").joinpath("tasks.json").read_text()
    return _parse(json.loads(text))
