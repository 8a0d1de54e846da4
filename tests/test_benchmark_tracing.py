"""The benchmark's tracing layer still fits the functions it wraps.

``perfbench/layers.py`` wraps deco functions by name and reads their
arguments by name; a rename or a changed signature would otherwise only show
when the benchmark runs.  The spans must also nest, as the benchmark's
per-layer self times assume.
"""

from pathlib import Path

from deco.executor import ExecutorConfig, build_library, run_task_episode
from deco.registry import load_registry

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_episode_passes_the_benchmark_checks(monkeypatch):
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
            result = run_task_episode(task, 0, ExecutorConfig(chaining_m=6), library,
                                      registry)
    finally:
        tracer.restore()
    assert result.success
    assert checks.take_errors() == []
    assert span_errors(tracer.spans) == []
    names = {span[2] for span in tracer.spans}
    assert {"chaining.rrt_path", "costmap.build_cost_map"} <= names
