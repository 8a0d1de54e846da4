"""Command-line harness for the decomposition / planning / evaluation pipeline."""

from __future__ import annotations

import json
import os
from pathlib import Path

import click
import numpy as np

from .config import ExperimentConfig, print_defaults, repeated_seed_errors
from .decompose import DecompositionConfig, build_atomic_dataset
from .errors import ConfigError, DecoError
from .executor import (ExecutorConfig, build_library, run_suite, scene_summary,
                       transition_cost_map, write_suite_csv)
from .planning import plan_mock
from .registry import load_registry
from .sim.oracle import record_demo
from .sim.tasks import reset
from .trajectory import (InstructionLibrary, load_annotations, load_demos,
                         save_atomic_tasks, save_demos)
from .vlm import EndpointConfig, plan_vlm


def _parse_seed_list(ctx, param, text: str | None) -> list[int] | None:
    if text is None:
        return None
    try:
        seeds = [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise click.BadParameter(f"seed list must be comma-separated integers: {text!r}")
    if not seeds:
        raise click.BadParameter(f"seed list must name at least one seed: {text!r}")
    if min(seeds) < 0:
        raise click.BadParameter(f"seeds must be non-negative, got {min(seeds)}")
    return seeds


@click.group()
@click.option("--seed-list", default=None, callback=_parse_seed_list,
              help="Comma-separated random seeds.  [default: 0,1,2]")
@click.option("--out-dir", default=".", show_default=True, type=click.Path(),
              help="Directory for output files.")
@click.option("--audit-log", default=None, type=click.Path(),
              help="JSONL audit log for external planner requests.")
@click.pass_context
def main(ctx, seed_list, out_dir, audit_log):
    """Demonstration decomposition, skill chaining and benchmark evaluation."""
    ctx.ensure_object(dict)
    ctx.obj["seeds"] = seed_list if seed_list is not None else [0, 1, 2]
    ctx.obj["seeds_given"] = seed_list is not None
    ctx.obj["out_dir"] = Path(out_dir)
    ctx.obj["audit_log"] = audit_log


def _out_dir(ctx) -> Path:
    out = ctx.obj["out_dir"]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        # a file where the directory or one of its parents should be
        raise click.BadParameter(f"cannot create directory {str(out)!r}: {exc.strerror}",
                                 ctx=ctx, param_hint="'--out-dir'") from exc
    return out


@main.command()
@click.argument("demos_path", type=click.Path(exists=True))
@click.option("--annotations", "annotations_path", type=click.Path(exists=True),
              required=True, help="JSON mapping demo id to instruction list.")
@click.option("--mode", type=click.Choice(["full", "half"]), default="full",
              show_default=True)
@click.pass_context
def decompose(ctx, demos_path, annotations_path, mode):
    """Segment demonstrations into atomic tasks and build the skill library."""
    try:
        demos = load_demos(demos_path)
        cfg = DecompositionConfig(mode=mode, annotations=load_annotations(annotations_path))
        tasks, library = build_atomic_dataset(demos, cfg)
    except DecoError as exc:
        raise click.ClickException(str(exc))
    out = _out_dir(ctx)
    save_atomic_tasks(tasks, out / "atomic_tasks.jsonl")
    library.save(out / "library.json")
    keyframes = sum(len(t.keyframes) for t in tasks)
    click.echo(f"demos: {len(demos)}")
    click.echo(f"segments: {len(tasks)}")
    click.echo(f"keyframes: {keyframes}")
    click.echo(f"library instructions: {len(library)}")
    for name, count in sorted(library.counts.items()):
        click.echo(f"  {name} x{count}")


@main.command("record-demos")
@click.option("--tasks", "task_ids", default="all",
              help="Comma-separated task ids and selectors 'all'/'atomic'/'compositional'.")
@click.pass_context
def record_demos(ctx, task_ids):
    """Run the scripted policies over their canonical plans and log demos."""
    # a repeated seed would record the same demo id twice
    errors = repeated_seed_errors(ctx.obj["seeds"])
    if errors:
        _config_errors(errors)
    out = _out_dir(ctx)
    selection = ExperimentConfig(tasks=[name.strip() for name in task_ids.split(",")])
    try:
        tasks = selection.resolve_tasks(load_registry())
    except DecoError as exc:
        raise click.ClickException(str(exc))
    demos, annotations = [], {}
    for task in tasks:
        for seed in ctx.obj["seeds"]:
            try:
                demo = record_demo(task, seed)
            except DecoError as exc:
                raise click.ClickException(f"task {task.id!r} seed {seed}: {exc}")
            demos.append(demo)
            annotations[demo.id] = list(task.plan)
    save_demos(demos, out / "demos.jsonl")
    with open(out / "annotations.json", "w") as fh:
        json.dump(annotations, fh, indent=2)
    click.echo(f"recorded {len(demos)} demos "
               f"({len(tasks)} tasks x {len(ctx.obj['seeds'])} seeds)")


@main.command()
@click.argument("instruction")
@click.option("--planner", type=click.Choice(["mock", "vlm"]), default="mock",
              show_default=True)
@click.option("--library", "library_path", type=click.Path(exists=True),
              help="Library JSON; defaults to the canonical source-demo library.")
@click.option("--task", "task_id", default=None,
              help="Task id whose initial scene to plan against "
                   "(defaults to the task matching the instruction).")
@click.pass_context
def plan(ctx, instruction, planner, library_path, task_id):
    """Plan a skill sequence for an instruction."""
    registry = load_registry()
    if task_id is None:
        spec = registry.find_by_instruction(instruction)
        if spec is None:
            raise click.ClickException(f"no task matches instruction {instruction!r}; "
                                       "pass --task to supply a scene")
        task_id = spec.id
    try:
        library = (InstructionLibrary.load(library_path) if library_path
                   else build_library(registry)[2])
        scene = reset(registry.get(task_id), ctx.obj["seeds"][0])
        summary = scene_summary(scene)
        if planner == "mock":
            result = plan_mock(instruction, summary, library, registry)
        else:
            endpoint = EndpointConfig.from_env(audit_log=ctx.obj["audit_log"])
            result = plan_vlm(instruction, summary, library, endpoint)
    except DecoError as exc:
        raise click.ClickException(str(exc))
    click.echo(json.dumps(list(result)))


def _config_errors(errors: list[str]):
    for err in errors:
        click.echo(f"config error: {err}", err=True)
    raise SystemExit(2)


def _load_config(ctx, config_path, chaining_m=None, noise_sigma=None, episodes=None):
    try:
        config = ExperimentConfig.from_yaml(config_path) if config_path else ExperimentConfig()
    except ConfigError as exc:
        _config_errors([str(exc)])
    if chaining_m is not None:
        config.chaining_m = chaining_m
    if noise_sigma is not None:
        config.noise_sigma = noise_sigma
    if episodes is not None:
        config.episodes = episodes
    if ctx.obj.get("seeds_given"):
        config.seeds = ctx.obj["seeds"]
    return config


def _validate(configs: list[ExperimentConfig]):
    """Exit 2 with every problem of every config before anything runs."""
    registry = load_registry()
    errors = [err for config in configs for err in config.validate(registry)]
    if errors:
        _config_errors(list(dict.fromkeys(errors)))


def _run_eval(ctx, config: ExperimentConfig, csv_name: str) -> tuple[list, float]:
    registry = load_registry()
    tasks = config.resolve_tasks(registry)
    _, _, library = build_library(registry)
    exec_config = ExecutorConfig(chaining_m=config.chaining_m,
                                 noise_sigma=config.noise_sigma)
    rows = run_suite(tasks, config.seeds, exec_config, library, registry,
                     episodes=config.episodes)
    out = _out_dir(ctx)
    write_suite_csv(rows, out / csv_name)
    mean_rate = float(np.mean([r.rate for r in rows])) if rows else 0.0
    return rows, mean_rate


def _summary_lines(config: ExperimentConfig, rows, mean_rate: float) -> list[str]:
    lines = []
    by_task: dict[str, list] = {}
    for row in rows:
        by_task.setdefault(row.task_id, []).append(row)
    for task_id, cell in by_task.items():
        rate = float(np.mean([r.rate for r in cell]))
        line = f"{task_id}: rate {rate:.3f} (std {cell[0].rate_std:.3f})"
        if config.chaining_m == 0:
            line += f", collisions {sum(r.collisions for r in cell)}"
        lines.append(line)
    lines.append(f"mean success rate over {len(by_task)} tasks: {mean_rate:.3f}")
    return lines


@main.command("eval")
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--print-defaults", is_flag=True,
              help="Print the default config YAML and exit.")
@click.option("--chaining-m", type=int, default=None)
@click.option("--noise-sigma", type=float, default=None)
@click.option("--episodes", type=int, default=None)
@click.pass_context
def cmd_eval(ctx, config_path, **overrides):
    """Evaluate the benchmark suite and write a result CSV plus summary."""
    if overrides.pop("print_defaults"):
        click.echo(print_defaults(), nl=False)
        return
    config = _load_config(ctx, config_path, **overrides)
    _validate([config])
    rows, mean_rate = _run_eval(ctx, config, "results.csv")
    lines = _summary_lines(config, rows, mean_rate)
    out = _out_dir(ctx)
    with open(out / "summary.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        click.echo(line)


_AXES = {"chaining-m": ("chaining_m", int),
         "noise": ("noise_sigma", float)}


@main.command()
@click.option("--axis", type=click.Choice(sorted(_AXES)), required=True)
@click.option("--values", required=True,
              help="Comma-separated axis values, e.g. '0,2,4,6,8'.")
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.pass_context
def ablate(ctx, axis, values, config_path):
    """Sweep one config axis with shared seeds and emit a comparison table."""
    field_name, caster = _AXES[axis]
    parsed = [v.strip() for v in values.split(",") if v.strip() != ""]
    if not parsed:
        raise click.ClickException("empty value list")
    try:
        casted = [caster(v) for v in parsed]
    except ValueError:
        raise click.ClickException(f"invalid value for axis {axis}: {values!r}")
    # a repeated value would run its arm twice and overwrite its result CSV
    repeated = sorted({v for v in casted if casted.count(v) > 1})
    if repeated:
        _config_errors([f"values must not repeat, got {axis} value {v} more than once"
                        for v in repeated])
    configs = []
    for value in casted:
        configs.append(_load_config(ctx, config_path))
        setattr(configs[-1], field_name, value)
    _validate(configs)
    counts = ("collisions", "transition_waypoints", "chaining_failures")
    comparison = []
    for value, config in zip(casted, configs):
        rows, mean_rate = _run_eval(ctx, config, f"results_{axis}_{value}.csv")
        comparison.append((value, mean_rate,
                           [sum(getattr(r, name) for r in rows) for name in counts]))
    out = _out_dir(ctx)
    with open(out / "comparison.csv", "w") as fh:
        fh.write(",".join([axis, "mean_rate", *counts]) + "\n")
        for value, rate, sums in comparison:
            fh.write(",".join([str(value), f"{rate:.6f}", *map(str, sums)]) + "\n")
    click.echo(" | ".join([f"{axis:>18}", "mean rate", *counts]))
    for value, rate, sums in comparison:
        click.echo(" | ".join([f"{str(value):>18}", f"{rate:9.3f}", *map(str, sums)]))


@main.command("export-costmap")
@click.option("--task", "task_id", required=True)
@click.pass_context
def export_costmap(ctx, task_id):
    """Export the cost map the executor plans on for a task's initial scene."""
    registry = load_registry()
    try:
        scene = reset(registry.get(task_id), ctx.obj["seeds"][0])
    except DecoError as exc:
        raise click.ClickException(str(exc))
    cmap = transition_cost_map(scene)
    out = _out_dir(ctx)
    cmap.export(out / "costmap.json", out / "costmap.f32")
    click.echo(f"exported {cmap.dims[0]}x{cmap.dims[1]}x{cmap.dims[2]} grid")


if __name__ == "__main__":
    main()
