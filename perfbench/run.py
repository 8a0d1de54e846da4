#!/usr/bin/env python3
"""Timing harness for the deco executor on the compositional task suite.

    python3 perfbench/run.py --workload compositional --seed 0 --seconds 30 --trace 0

Runs the workload's fixed set of episodes in passes, in one process and one
thread, through the executor's public entry points (``load_registry``,
``build_library``, ``run_task_episode``), until ``--seconds`` of episode time
have been measured after one untimed warm-up pass; every pass is whole.  ``--seed`` fixes the order of the
episodes within a pass.  Each episode's output is checked (see checks.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, and reports per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; raw results go to
perfbench/out/.  Needs no install step: the package is imported from the
checkout's src/ directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import (fingerprint, fingerprint_digest, load_plans, outcome_errors,
                    pass_mismatches, plan_errors, span_errors)
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SUITE_SEEDS = (0, 1, 2)
EPISODE_SEED_STRIDE = 7919      # run_suite runs episode e of suite seed s with seed s + 7919 e
SETUPS_PER_PASS = 8
CUPBOARD_CLEANUP = ("exchange_boxes", "sweep_and_drop", "retrieve_and_sweep")


@dataclass(frozen=True)
class Workload:
    tasks: tuple[str, ...] | None   # None: every compositional task
    chaining_m: int
    episodes: int                   # per task and suite seed


WORKLOADS = {
    "compositional": Workload(None, 6, 3),
    "cupboard_cleanup": Workload(CUPBOARD_CLEANUP, 6, 36),
    "no_chaining": Workload(None, 0, 9),
}

END_TO_END = {
    "setup_s": "s",
    "episodes_per_s": "1/s",
    "episode_ms_p50": "ms",
    "actions_per_episode": "count",
    "peak_rss_mb": "MB",
}


@dataclass
class Episode:
    fingerprint: tuple | None
    seconds: float
    errors: list[str]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "deco" / "__init__.py").is_file():
        print(f"error: no deco package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = Bench(WORKLOADS[args.workload], args.seed)
    if args.trace:
        report = bench.traced(args.seconds)
    else:
        report = bench.untraced(args.seconds)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(report.pop("raw"), indent=1))
    spans = report.pop("spans")
    if spans:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    print(report.pop("summary"))
    print(json.dumps(report))
    return 0


class Bench:
    def __init__(self, workload: Workload, seed: int):
        from deco.executor import ExecutorConfig, run_task_episode
        from deco.registry import load_registry

        registry = load_registry()
        tasks = ([registry.get(t) for t in workload.tasks] if workload.tasks
                 else registry.compositional_tasks())
        jobs = [(task, s + EPISODE_SEED_STRIDE * e) for task in tasks
                for s in SUITE_SEEDS for e in range(workload.episodes)]
        order = np.random.default_rng(seed).permutation(len(jobs))
        self.jobs = [jobs[i] for i in order]
        self.seed = seed
        self.config = ExecutorConfig(chaining_m=workload.chaining_m)
        self.plans = load_plans(SRC / "deco" / "assets" / "tasks.json")
        self.run_task_episode = run_task_episode

    def setup(self) -> float:
        """Load the registry and build the skill library; returns its duration."""
        import deco.executor
        import deco.registry

        # looked up on the modules so that traced runs see the wrappers
        start = time.perf_counter()
        self.registry = deco.registry.load_registry()
        _, _, self.library = deco.executor.build_library(self.registry)
        return time.perf_counter() - start

    def episode(self, task, seed, tracer=None, checks=None) -> Episode:
        clock = tracer.now if tracer else time.perf_counter
        start = clock()
        with tracer.span("executor.episode", {"task": task.id, "seed": seed}) \
                if tracer else nullcontext():
            try:
                result = self.run_task_episode(task, seed, self.config, self.library,
                                               self.registry)
            except Exception as exc:  # a raising episode counts as failed
                result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = clock() - start
        if result is None:
            fp, errors = None, [error]
        else:
            fp = fingerprint(result)
            errors = plan_errors([s.instruction for s in result.skills], self.plans[task.id])
            errors += outcome_errors(fp, chaining=self.config.chaining_m > 0)
        if checks is not None:
            errors += checks.take_errors()
        return Episode(fp, seconds, [f"{task.id} seed {seed}: {e}" for e in errors])

    def one_round(self, tracer=None, checks=None):
        """SETUPS_PER_PASS set-ups, then one whole pass over the jobs.

        Returns the set-up durations, the pass, and, when traced, the
        (spans, counts) recorded in each set-up and in the pass.
        """
        setups, setup_traces = [], []
        for _ in range(SETUPS_PER_PASS):
            setups.append(self.setup())
            if tracer:
                setup_traces.append(tracer.take())
        episodes = [self.episode(task, seed, tracer, checks) for task, seed in self.jobs]
        return setups, episodes, setup_traces, tracer.take() if tracer else None

    def untraced(self, seconds) -> dict:
        warmup = self.one_round()[1]
        setups, passes = [], []
        while not passes or sum(pass_seconds(passes)) < seconds:
            round_setups, episodes, _, _ = self.one_round()
            setups += round_setups
            passes.append(episodes)
        # Repeated timings are summarised by their upper quartile.  On a shared
        # host the speed dips and recovers; the congested speed most samples
        # see is steadier from run to run than a median or a minimum.
        per_episode = np.percentile([[e.seconds for e in p] for p in passes], 75, axis=0)
        first = [e.fingerprint for e in passes[0] if e.fingerprint is not None]
        metrics = {
            "setup_s": float(np.percentile(setups, 75)),
            "episodes_per_s": len(self.jobs) / float(per_episode.sum()),
            "episode_ms_p50": 1000.0 * float(np.median(per_episode)),
            "actions_per_episode": statistics.fmean(fp[7] for fp in first),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return self.report([warmup] + passes, metrics, END_TO_END, [], {"setup_s": setups})

    def traced(self, seconds) -> dict:
        """Untraced and traced rounds alternate, so that the overhead compares
        passes run close together in time."""
        import layers

        tracer, checks = Tracer(), layers.EpisodeChecks(self.seed)
        warmup = self.one_round()[1]
        plain, traced, setup_traces, pass_traces = [], [], [], []
        while not plain or sum(pass_seconds(plain + traced)) < seconds:
            plain.append(self.one_round()[1])
            layers.install(tracer, checks)
            try:
                _, episodes, round_setups, pass_trace = self.one_round(tracer, checks)
            finally:
                tracer.restore()
            traced.append(episodes)
            setup_traces += round_setups
            pass_traces.append(pass_trace)
        problems = [e for spans, _ in pass_traces for e in span_errors(spans)]
        metrics = {}
        for per_trace, traces in ((layers.pass_metrics, pass_traces),
                                  (layers.setup_metrics, setup_traces)):
            values = [per_trace(*trace) for trace in traces]
            metrics.update({name: statistics.median(v[name] for v in values)
                            for name in values[0]})
        # load_registry calls are counted over one set-up and one pass
        metrics["registry.load_registry.calls"] += statistics.median(
            counts["registry.load_registry"] for _, counts in pass_traces)
        metrics["trace.overhead_pct"] = 100.0 * (statistics.median(
            t / u for t, u in zip(pass_seconds(traced), pass_seconds(plain))) - 1.0)
        spans = [list(s[:5]) + [s[5]] for s in pass_traces[0][0]]
        return self.report([warmup] + plain + traced, metrics, layers.PER_LAYER, problems,
                           {"pass_s_untraced": pass_seconds(plain),
                            "pass_s_traced": pass_seconds(traced)}, spans)

    def report(self, passes, metrics, units, problems, extra, spans=()) -> dict:
        """Result line, raw record and summary; checks determinism across passes."""
        reference = [e.fingerprint for e in passes[0]]
        problems += pass_mismatches([[e.fingerprint for e in p] for p in passes])
        episodes = [e for p in passes for e in p]
        failed = [e for e in episodes if e.errors]
        digest = fingerprint_digest(fp for fp in reference if fp is not None)
        errors = sorted({msg for e in failed for msg in e.errors})
        for msg in (problems + errors)[:20]:
            print(msg, file=sys.stderr)
        raw = {"passes": len(passes), "episodes_per_pass": len(self.jobs),
               "fingerprint_digest": digest,
               "fingerprints": sorted(fp for fp in reference if fp is not None),
               "episode_ms": [[1000.0 * e.seconds for e in p] for p in passes],
               "errors": errors, "problems": problems, **extra, "metrics": metrics}
        summary = (f"{len(passes)} passes x {len(self.jobs)} episodes, {len(failed)} failed, "
                   f"{len(problems)} run-level problems, outcome digest {digest[:16]}")
        return {"correct": not problems, "attempted": len(episodes), "failed": len(failed),
                "metrics": {name: {"value": metrics[name], "unit": unit}
                            for name, unit in units.items()},
                "raw": raw, "spans": spans, "summary": summary}


def pass_seconds(passes) -> list[float]:
    return [sum(e.seconds for e in p) for p in passes]


if __name__ == "__main__":
    sys.exit(main())
