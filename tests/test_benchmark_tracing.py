"""The benchmark's tracing layer still fits the functions it wraps.

``perfbench/layers.py`` wraps deco functions by name and reads their
arguments by name; a rename or a changed signature would otherwise only show
when the benchmark runs.  The spans must also nest, as the benchmark's
per-layer self times assume.  Both arms of the chaining ablation are traced:
with chaining poses, where transitions build cost maps and plan paths, and
without, where only the simulator, the policy and the executor run.
"""

from pathlib import Path

from deco.executor import ExecutorConfig, build_library, run_task_episode
from deco.registry import load_registry

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def traced_episode(monkeypatch, chaining_m: int) -> set[str]:
    """Run one traced episode of put_in_and_close, check that it succeeds and
    passes the benchmark's checks, and return the names of its spans."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from checks import span_errors
    from tracer import Tracer

    registry = load_registry()
    _, _, library = build_library(registry)
    tracer, checks = Tracer(), layers.EpisodeChecks(0)
    layers.install(tracer, checks)
    task = registry.get("put_in_and_close")
    try:
        with tracer.span("executor.episode", {"task": task.id, "seed": 0}):
            result = run_task_episode(task, 0, ExecutorConfig(chaining_m=chaining_m),
                                      library, registry)
    finally:
        tracer.restore()
    assert result.success
    assert checks.take_errors() == []
    assert span_errors(tracer.spans) == []
    return {span[2] for span in tracer.spans}


def test_traced_episode_passes_the_benchmark_checks(monkeypatch):
    names = traced_episode(monkeypatch, 6)
    assert {"chaining.rrt_path", "costmap.build_cost_map"} <= names


def test_traced_episode_without_chaining_passes_the_benchmark_checks(monkeypatch):
    names = traced_episode(monkeypatch, 0)
    assert {"sim.scene.step", "sim.oracle.policy", "executor.scene_summary"} <= names
    assert not names & {"chaining.chain_skills", "costmap.build_cost_map",
                        "sim.scene.point_cloud"}
