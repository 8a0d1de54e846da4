"""Command-line harness for the decomposition / planning / evaluation pipeline."""

from __future__ import annotations

import json
import os
from pathlib import Path

import click
import numpy as np

from .config import ExperimentConfig, print_defaults
from .costmap import build_cost_map
from .decompose import DecompositionConfig, build_atomic_dataset
from .errors import DecoError
from .executor import (ExecutorConfig, build_library, run_suite, scene_summary,
                       write_suite_csv)
from .planning import plan_mock
from .registry import load_registry
from .sim.oracle import record_demo
from .sim.scene import WORKSPACE, point_cloud
from .sim.tasks import reset
from .trajectory import (InstructionLibrary, load_demos, save_atomic_tasks,
                         save_demos)
from .vlm import EndpointConfig, plan_vlm


def _parse_seed_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise click.BadParameter(f"seed list must be comma-separated integers: {text!r}")


@click.group()
@click.option("--seed-list", default=None,
              help="Comma-separated random seeds.  [default: 0,1,2]")
@click.option("--out-dir", default=".", show_default=True, type=click.Path(),
              help="Directory for output files.")
@click.option("--audit-log", default=None, type=click.Path(),
              help="JSONL audit log for external planner requests.")
@click.pass_context
def main(ctx, seed_list, out_dir, audit_log):
    """Demonstration decomposition, skill chaining and benchmark evaluation."""
    ctx.ensure_object(dict)
    ctx.obj["seeds"] = _parse_seed_list(seed_list) if seed_list else [0, 1, 2]
    ctx.obj["seeds_given"] = seed_list is not None
    ctx.obj["out_dir"] = Path(out_dir)
    ctx.obj["audit_log"] = audit_log


def _out_dir(ctx) -> Path:
    out = ctx.obj["out_dir"]
    out.mkdir(parents=True, exist_ok=True)
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
    out = _out_dir(ctx)
    demos = load_demos(demos_path)
    with open(annotations_path) as fh:
        annotations = json.load(fh)
    cfg = DecompositionConfig(mode=mode, annotations=annotations)
    try:
        tasks, library = build_atomic_dataset(demos, cfg)
    except DecoError as exc:
        raise click.ClickException(str(exc))
    save_atomic_tasks(tasks, out / "atomic_tasks.jsonl")
    library.save(out / "library.json")
    keyframes = sum(len(t.keyframes) for t in tasks)
    click.echo(f"demos: {len(demos)}")
    click.echo(f"segments: {len(tasks)}")
    click.echo(f"keyframes: {keyframes}")
    click.echo(f"library instructions: {len(library)}")
    for name in sorted(library.instructions()):
        click.echo(f"  {name} x{library.entries[name].count}")


@main.command("record-demos")
@click.option("--tasks", "task_ids", default="all",
              help="Comma-separated task ids, or 'all'/'atomic'/'compositional'.")
@click.pass_context
def record_demos(ctx, task_ids):
    """Run the scripted policies over their canonical plans and log demos."""
    out = _out_dir(ctx)
    registry = load_registry()
    if task_ids == "all":
        tasks = list(registry)
    elif task_ids == "atomic":
        tasks = registry.atomic_tasks()
    elif task_ids == "compositional":
        tasks = registry.compositional_tasks()
    else:
        try:
            tasks = [registry.get(tid.strip()) for tid in task_ids.split(",")]
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
    if library_path:
        library = InstructionLibrary.load(library_path)
    else:
        _, _, library = build_library(registry)
    if task_id is None:
        spec = registry.find_by_instruction(instruction)
        if spec is None:
            raise click.ClickException(f"no task matches instruction {instruction!r}; "
                                       "pass --task to supply a scene")
        task_id = spec.id
    try:
        scene = reset(registry.get(task_id), ctx.obj["seeds"][0])
        summary = scene_summary(scene)
        if planner == "mock":
            result = plan_mock(instruction, summary, library, registry)
        else:
            endpoint = EndpointConfig.from_env(audit_log=ctx.obj["audit_log"])
            result = plan_vlm(instruction, summary, library, endpoint)
    except DecoError as exc:
        raise click.ClickException(str(exc))
    click.echo(json.dumps(list(result.steps)))


def _load_config(ctx, config_path, chaining_m=None, noise_sigma=None, episodes=None):
    config = ExperimentConfig.from_yaml(config_path) if config_path else ExperimentConfig()
    if chaining_m is not None:
        config.chaining_m = chaining_m
    if noise_sigma is not None:
        config.noise_sigma = noise_sigma
    if episodes is not None:
        config.episodes = episodes
    if ctx.obj.get("seeds_given"):
        config.seeds = ctx.obj["seeds"]
    return config


def _run_eval(ctx, config: ExperimentConfig, csv_name: str) -> tuple[list, float]:
    registry = load_registry()
    errors = config.validate(registry)
    if errors:
        for err in errors:
            click.echo(f"config error: {err}", err=True)
        raise SystemExit(2)
    tasks = config.resolve_tasks(registry)
    _, _, library = build_library(registry, mode=config.mode)
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
    rows, mean_rate = _run_eval(ctx, config, "results.csv")
    lines = _summary_lines(config, rows, mean_rate)
    out = _out_dir(ctx)
    with open(out / "summary.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        click.echo(line)


_AXES = {"chaining-m": ("chaining_m", int),
         "interaction-mode": ("mode", str),
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
    comparison = []
    for value in casted:
        config = _load_config(ctx, config_path)
        setattr(config, field_name, value)
        rows, mean_rate = _run_eval(ctx, config, f"results_{axis}_{value}.csv")
        comparison.append((value, mean_rate, sum(r.collisions for r in rows)))
    out = _out_dir(ctx)
    with open(out / "comparison.csv", "w") as fh:
        fh.write(f"{axis},mean_rate,collisions\n")
        for value, rate, collisions in comparison:
            fh.write(f"{value},{rate:.6f},{collisions}\n")
    click.echo(f"{axis:>18} | mean rate | collisions")
    for value, rate, collisions in comparison:
        click.echo(f"{str(value):>18} | {rate:9.3f} | {collisions}")


@main.command("export-costmap")
@click.option("--task", "task_id", required=True)
@click.option("--density", type=float, default=10000.0, show_default=True,
              help="Point-cloud surface sampling density (points per m^2).")
@click.option("--voxel-size", type=float, default=0.02, show_default=True)
@click.pass_context
def export_costmap(ctx, task_id, density, voxel_size):
    """Build the cost map of a task's initial scene and export it."""
    registry = load_registry()
    try:
        scene = reset(registry.get(task_id), ctx.obj["seeds"][0])
    except DecoError as exc:
        raise click.ClickException(str(exc))
    cloud = point_cloud(scene, density)
    cmap = build_cost_map(cloud, WORKSPACE, voxel_size)
    out = _out_dir(ctx)
    cmap.export(out / "costmap.json", out / "costmap.f32")
    click.echo(f"exported {cmap.dims[0]}x{cmap.dims[1]}x{cmap.dims[2]} grid "
               f"({len(cloud)} points)")


if __name__ == "__main__":
    main()
