"""Experiment configuration: a single YAML file describing an evaluation run.

Task selection accepts explicit task ids plus the selectors "atomic",
"compositional" and "all".  Validation reports every problem at once so a
broken config fails with the full list, not the first hit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import yaml

from .registry import TaskRegistry, TaskSpec

SELECTORS = ("atomic", "compositional", "all")


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
            data = yaml.safe_load(fh) or {}
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**known)

    def validate(self, registry: TaskRegistry) -> list[str]:
        errors = []
        if not self.tasks:
            errors.append("tasks must not be empty")
        for name in self.tasks:
            if name not in SELECTORS and name not in registry.tasks:
                errors.append(f"unknown task id: {name!r}")
        if self.mode not in ("full", "half"):
            errors.append(f"mode must be 'full' or 'half', got {self.mode!r}")
        if self.chaining_m < 0:
            errors.append("chaining_m must be non-negative")
        if self.noise_sigma < 0:
            errors.append("noise_sigma must be non-negative")
        if self.episodes < 1:
            errors.append("episodes must be at least 1")
        if not self.seeds:
            errors.append("seeds must not be empty")
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
