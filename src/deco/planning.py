"""Instruction planning: canonical task templates plus precondition repair.

The mock planner resolves an instruction against the benchmark hierarchy and
emits an ordered list of library skills.  Repair is deliberately small: it
only tracks the symbolic drawer state, inserting "open drawer" where a skill
needs the drawer open and dropping template opens that are already satisfied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import UnknownTask, UnsatisfiablePlan
from .registry import (DRAWER_OPEN_THRESHOLD, OPEN_DRAWER_REQUIRED,
                       TaskRegistry, load_registry)
from .trajectory import InstructionLibrary


class PlanSource(str, Enum):
    MOCK = "mock"
    VLM = "vlm"


@dataclass(frozen=True)
class Plan:
    steps: tuple[str, ...]
    source: PlanSource

    # plan_mock and parse_plan_response reject empty plans and unknown steps
    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))


class ItemLocation(str, Enum):
    ON_TABLE = "on_table"
    IN_DRAWER = "in_drawer"
    IN_CUPBOARD = "in_cupboard"
    ON_DRAWER_TOP = "on_drawer_top"
    IN_DUSTPAN = "in_dustpan"


@dataclass
class SceneSummary:
    """Symbolic scene facts the planners consume instead of RGB images."""

    inventory: tuple[str, ...] = ()
    drawer_open_fraction: float | None = None
    cupboard_present: bool = False
    dustpan_present: bool = False
    locations: dict[str, ItemLocation] = field(default_factory=dict)

    def __post_init__(self):
        self.inventory = tuple(self.inventory)
        if self.drawer_open_fraction is not None:
            if not 0.0 <= self.drawer_open_fraction <= 1.0:
                raise ValueError("drawer_open_fraction must lie in [0, 1]")
        for name in self.locations:
            if name not in self.inventory:
                raise ValueError(f"location given for unknown object {name!r}")
        self.locations = {k: ItemLocation(v) for k, v in self.locations.items()}

    def drawer_open(self) -> bool:
        return (self.drawer_open_fraction is not None
                and self.drawer_open_fraction >= DRAWER_OPEN_THRESHOLD)

    def to_dict(self) -> dict:
        return {"inventory": list(self.inventory),
                "drawer_open_fraction": self.drawer_open_fraction,
                "cupboard_present": self.cupboard_present,
                "dustpan_present": self.dustpan_present,
                "locations": {k: v.value for k, v in self.locations.items()}}


# object-name prefixes each skill needs to see in the inventory
_SKILL_REQUIREMENTS = {
    "open drawer": ("drawer",),
    "close drawer": ("drawer",),
    "put item in drawer": ("drawer", "item"),
    "take item out of drawer": ("drawer", "item"),
    "take box out of drawer": ("drawer", "box"),
    "put box in cupboard": ("cupboard", "box"),
    "take box out of cupboard": ("cupboard", "box"),
    "take broom out of cupboard": ("cupboard", "broom"),
    "sweep rubbish to dustpan": ("broom", "dustpan", "rubbish"),
    "put rubbish in dustpan": ("dustpan", "rubbish"),
}


def _check_requirements(step: str, scene: SceneSummary):
    for prefix in _SKILL_REQUIREMENTS.get(step, ()):
        if prefix == "drawer":
            if scene.drawer_open_fraction is None:
                raise UnsatisfiablePlan(f"step {step!r} needs a drawer, none present")
        elif prefix == "cupboard":
            if not scene.cupboard_present:
                raise UnsatisfiablePlan(f"step {step!r} needs a cupboard, none present")
        elif prefix == "dustpan":
            if not scene.dustpan_present:
                raise UnsatisfiablePlan(f"step {step!r} needs a dustpan, none present")
        elif not any(name.startswith(prefix) for name in scene.inventory):
            raise UnsatisfiablePlan(f"step {step!r} needs a {prefix!r}, none in inventory")


def repair_preconditions(template, scene: SceneSummary) -> list[str]:
    """Insert/drop "open drawer" steps against the symbolic drawer state."""
    drawer_open = scene.drawer_open()
    steps = []
    for step in template:
        if step == "open drawer":
            if drawer_open:
                continue
            steps.append(step)
            drawer_open = True
        elif step == "close drawer":
            steps.append(step)
            drawer_open = False
        else:
            if step in OPEN_DRAWER_REQUIRED and not drawer_open:
                steps.append("open drawer")
                drawer_open = True
            steps.append(step)
    return steps


def plan_mock(instruction: str, scene: SceneSummary, library: InstructionLibrary,
              registry: TaskRegistry | None = None) -> Plan:
    registry = registry or load_registry()
    task = registry.find_by_instruction(instruction)
    if task is not None:
        template = list(task.plan)
    elif instruction in library:
        template = [instruction]
    else:
        raise UnknownTask(f"no template matches instruction {instruction!r}")
    steps = repair_preconditions(template, scene)
    for step in steps:
        _check_requirements(step, scene)
        if step not in library:
            raise UnsatisfiablePlan(f"required skill {step!r} missing from library")
    return Plan(steps=tuple(steps), source=PlanSource.MOCK)
