"""Experiment configuration: a single YAML file describing an evaluation run.

Task selection accepts explicit task ids plus the selectors "atomic",
"compositional" and "all".  Validation reports every problem at once so a
broken config fails with the full list, not the first hit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import yaml

from .errors import ConfigError
from .registry import TaskRegistry, TaskSpec

SELECTORS = ("atomic", "compositional", "all")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_list_of(value, valid) -> bool:
    return isinstance(value, list) and len(value) > 0 and all(valid(v) for v in value)


# field -> (test of a value, what the value must be)
_RULES = {
    "tasks": (lambda v: _is_list_of(v, lambda t: isinstance(t, str)),
              "a non-empty list of task ids and selectors"),
    "mode": (lambda v: v in ("full", "half"), "'full' or 'half'"),
    "chaining_m": (lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    "noise_sigma": (lambda v: (_is_int(v) or isinstance(v, float)) and v >= 0,
                    "a non-negative number"),
    "episodes": (lambda v: _is_int(v) and v >= 1, "an integer of at least 1"),
    "seeds": (lambda v: _is_list_of(v, _is_int), "a non-empty list of integers"),
}


@dataclass
class ExperimentConfig:
    tasks: list[str] = field(default_factory=lambda: ["compositional"])
    mode: str = "full"
    chaining_m: int = 6
    noise_sigma: float = 0.0
    episodes: int = 20
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])

    def to_yaml(self) -> str:
        return yaml.safe_dump(asdict(self), sort_keys=False)

    @classmethod
    def from_yaml(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                data = yaml.safe_load(fh) or {}
            except yaml.YAMLError as exc:
                raise ConfigError(f"{path} is not valid YAML: {exc}")
        if not isinstance(data, dict):
            raise ConfigError(f"{path} must hold a mapping of config keys, "
                              f"got a {type(data).__name__}")
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        unknown = sorted(map(str, set(data) - set(cls.__dataclass_fields__)))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**known)

    def validate(self, registry: TaskRegistry) -> list[str]:
        errors = [f"{name} must be {what}, got {getattr(self, name)!r}"
                  for name, (valid, what) in _RULES.items() if not valid(getattr(self, name))]
        if isinstance(self.tasks, list):
            errors += [f"unknown task id: {name!r}" for name in self.tasks
                       if isinstance(name, str) and name not in SELECTORS
                       and name not in registry.tasks]
        if _is_list_of(self.seeds, _is_int):
            # run_suite pools the episodes of one (task, seed) cell
            errors += [f"seeds must not repeat, got seed {seed} more than once"
                       for seed in sorted({s for s in self.seeds if self.seeds.count(s) > 1})]
        return errors

    def resolve_tasks(self, registry: TaskRegistry) -> list[TaskSpec]:
        out: list[TaskSpec] = []
        seen = set()
        for name in self.tasks:
            if name == "atomic":
                batch = registry.atomic_tasks()
            elif name == "compositional":
                batch = registry.compositional_tasks()
            elif name == "all":
                batch = list(registry)
            else:
                batch = [registry.get(name)]
            for task in batch:
                if task.id not in seen:
                    seen.add(task.id)
                    out.append(task)
        return out


def print_defaults() -> str:
    return ExperimentConfig().to_yaml()
