"""Versioned benchmark task registry loaded from the packaged JSON asset."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from types import MappingProxyType

from .errors import UnknownTask

# atomic skills that only make sense with the drawer pulled open
OPEN_DRAWER_REQUIRED = {
    "put item in drawer",
    "take item out of drawer",
    "take box out of drawer",
}

DRAWER_OPEN_THRESHOLD = 0.8
DRAWER_CLOSED_THRESHOLD = 0.2


@dataclass(frozen=True)
class TaskSpec:
    id: str
    instruction: str
    domain: str
    kind: str
    cycle_count: int
    predicate: str
    initializer: str
    plan: tuple[str, ...]
    aliases: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "plan", tuple(self.plan))
        object.__setattr__(self, "aliases", tuple(self.aliases))
        if self.cycle_count != 2 * len(self.plan):
            raise ValueError(f"task {self.id!r}: cycle_count {self.cycle_count} "
                             f"inconsistent with {len(self.plan)}-step plan")


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
        return [t for t in self.tasks.values() if t.kind == "atomic"]

    def compositional_tasks(self) -> list[TaskSpec]:
        return [t for t in self.tasks.values() if t.kind == "compositional"]


def _parse(data: dict) -> TaskRegistry:
    tasks = [TaskSpec(id=t["id"], instruction=t["instruction"], domain=t["domain"],
                      kind=t["kind"], cycle_count=t["cycle_count"],
                      predicate=t["predicate"], initializer=t["initializer"],
                      plan=tuple(t["plan"]), aliases=tuple(t.get("aliases", [])))
             for t in data["tasks"]]
    return TaskRegistry(tasks)


@cache
def load_registry() -> TaskRegistry:
    """The packaged registry, parsed once per process and shared by every caller."""
    text = resources.files("deco.assets").joinpath("tasks.json").read_text()
    return _parse(json.loads(text))
