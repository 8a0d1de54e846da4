"""Instruction planning: canonical task templates plus precondition repair.

The mock planner resolves an instruction against the benchmark hierarchy and
emits an ordered list of library skills.  Each step's scene parts and objects
are checked against ``deco.registry.SKILL_NEEDS``, the table the scripted
oracle checks too.  Repair is deliberately small: it only tracks the symbolic
drawer state, inserting "open drawer" where the table says a skill needs the
drawer open and dropping template opens that are already satisfied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .config import is_number
from .errors import InvalidInput, UnknownTask, UnsatisfiablePlan
from .registry import SKILL_NEEDS, DrawerNeed, TaskRegistry, load_registry
from .trajectory import InstructionLibrary


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
        fraction = self.drawer_open_fraction
        if fraction is not None and not (is_number(fraction) and fraction <= 1):
            raise InvalidInput(f"drawer_open_fraction must lie in [0, 1], got {fraction!r}")
        for name in self.locations:
            if name not in self.inventory:
                raise InvalidInput(f"locations: location given for unknown object {name!r}, "
                                   f"not in the inventory {self.inventory!r}")
        try:
            self.locations = {k: ItemLocation(v) for k, v in self.locations.items()}
        except ValueError as exc:
            raise InvalidInput(f"locations: {exc}") from None

    @property
    def drawer_present(self) -> bool:
        return self.drawer_open_fraction is not None

    def drawer_open(self) -> bool:
        return self.drawer_present and DrawerNeed.OPEN.holds(self.drawer_open_fraction)

    def to_dict(self) -> dict:
        return {"inventory": list(self.inventory),
                "drawer_open_fraction": self.drawer_open_fraction,
                "cupboard_present": self.cupboard_present,
                "dustpan_present": self.dustpan_present,
                "locations": {k: v.value for k, v in self.locations.items()}}


def _check_requirements(step: str, scene: SceneSummary):
    needs = SKILL_NEEDS.get(step)
    lacking = needs and needs.lacking(scene, scene.inventory)
    if lacking:
        raise UnsatisfiablePlan(f"step {step!r} needs a {lacking!r}, none in the scene")


def repair_preconditions(template, scene: SceneSummary) -> list[str]:
    """Insert/drop "open drawer" steps against the symbolic drawer state."""
    drawer_open = scene.drawer_open()
    steps = []
    for step in template:
        if step == "open drawer" and drawer_open:
            continue
        needs = SKILL_NEEDS.get(step)
        if needs and needs.drawer is DrawerNeed.OPEN and not drawer_open:
            steps.append("open drawer")
            drawer_open = True
        steps.append(step)
        if step in ("open drawer", "close drawer"):
            drawer_open = step == "open drawer"
    return steps


def plan_mock(instruction: str, scene: SceneSummary, library: InstructionLibrary,
              registry: TaskRegistry | None = None) -> tuple[str, ...]:
    """The library skills that carry out ``instruction`` in ``scene``, in order."""
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
    return tuple(steps)
