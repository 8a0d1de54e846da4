"""Experiment configuration: a single YAML file describing an evaluation run.

Task selection accepts explicit task ids plus the selectors "atomic",
"compositional" and "all".  Validation reports every problem at once so a
broken config fails with the full list, not the first hit.  Every count (M, a
seed, a time index, a keyframe) and number is decided by ``is_count`` and ``is_number``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np
import yaml

from .errors import ConfigError
from .registry import TaskRegistry, TaskSpec

SELECTORS = ("atomic", "compositional", "all")


def is_count(value, low=0) -> bool:
    """The count rule: an integer, numpy's too, of at least ``low`` and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low


def is_number(value) -> bool:
    """The number rule: a count, or a finite non-negative Python or numpy float."""
    return is_count(value) or isinstance(value, (float, np.floating)) and 0 <= value < math.inf


def check_count(value, name: str, low: int = 0, error: type = ConfigError):
    """Raise ``error`` naming ``name`` and ``value`` unless it is a count of at least ``low``."""
    if not is_count(value, low):
        wanted = "a non-negative integer" if low == 0 else f"an integer of at least {low}"
        raise error(f"{name} must be {wanted}, got {value!r}")


def _is_list_of(value, valid) -> bool:
    return isinstance(value, list) and len(value) > 0 and all(valid(v) for v in value)


# field -> (test of a value, what the value must be)
_RULES = {
    "tasks": (lambda v: _is_list_of(v, lambda t: isinstance(t, str)),
              "a non-empty list of task ids and selectors"),
    "chaining_m": (is_count, "a non-negative integer"),
    "noise_sigma": (is_number, "a finite non-negative number"),
    "episodes": (lambda v: is_count(v, 1), "an integer of at least 1"),
    "seeds": (lambda v: _is_list_of(v, is_count), "a non-empty list of non-negative integers"),
}


@dataclass
class ExperimentConfig:
    tasks: list[str] = field(default_factory=lambda: ["compositional"])
    chaining_m: int = 6
    noise_sigma: float = 0.0
    episodes: int = 20
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])

    def to_yaml(self) -> str:
        return yaml.safe_dump(asdict(self), sort_keys=False)

    @classmethod
    def from_yaml(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                data = yaml.safe_load(fh) or {}
            except (RecursionError, UnicodeDecodeError, yaml.YAMLError) as exc:
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
        errors = rule_errors({name: getattr(self, name) for name in _RULES})
        if isinstance(self.tasks, list):
            errors += [f"unknown task id: {name!r}" for name in self.tasks
                       if isinstance(name, str) and name not in SELECTORS
                       and name not in registry.tasks]
        if _is_list_of(self.seeds, is_count):
            # run_suite writes one row per (task, seed) and rejects a repeated seed
            errors += repeated_seed_errors(self.seeds)
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


def rule_errors(values: dict) -> list[str]:
    """One message for each value, keyed by its field, that breaks the field's rule."""
    return [f"{name} must be {_RULES[name][1]}, got {value!r}"
            for name, value in values.items() if not _RULES[name][0](value)]


def repeated_seed_errors(seeds: list[int]) -> list[str]:
    return [f"seeds must not repeat, got seed {seed} more than once"
            for seed in sorted({s for s in seeds if seeds.count(s) > 1})]


def print_defaults() -> str:
    return ExperimentConfig().to_yaml()
