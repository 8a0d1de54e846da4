"""Golden fingerprint of episode outcomes.

Pins the behaviour of the whole episode path (reset, planning, cost maps,
chaining, RRT, stepping, monitoring) on the 12 compositional tasks at seed 0,
with transition planning on (M=6) and off (M=0).  A refactor that changes any
outcome, waypoint count or action count changes the digest.  A second digest
pins every field of the episode results under policy noise, where collisions,
drawer slams and monitor retries happen.
"""

import hashlib
import json
from dataclasses import asdict

from deco.executor import ExecutorConfig, run_episode, run_task_episode
from deco.registry import load_registry
from deco.sim.tasks import drawer_front_obstacle_task, reset

GOLDEN_DIGEST = "de65b12f5035f49a"


def _fingerprint(result):
    return (result.task_id, result.seed, result.success, result.collisions,
            result.drawer_slams, result.chaining_failures, result.transition_waypoints,
            sum(s.actions_used for s in result.skills))


def test_golden_fingerprint(registry, library):
    rows = [_fingerprint(run_task_episode(task, 0, ExecutorConfig(chaining_m=m),
                                          library, registry))
            for m in (6, 0) for task in registry.compositional_tasks()]
    digest = hashlib.sha256(json.dumps(sorted(rows)).encode()).hexdigest()[:16]
    assert digest == GOLDEN_DIGEST


# the full EpisodeResult of every noisy and noiseless episode below
NOISY_EPISODES_DIGEST = "8b6c9fbe183f5368"
NOISE_SIGMAS = (0.0, 0.01, 0.02)


def test_noisy_episode_results_are_pinned():
    """Every field of the result (each skill's outcome and reason, collisions,
    slams, chaining failure reasons, waypoints) of the compositional tasks and
    the obstacle fixture, seeds 0-4, under policy noise, with and without
    transition planning."""
    tasks = load_registry().compositional_tasks() + [drawer_front_obstacle_task()]
    rows = [asdict(run_episode(task, reset(task, seed), task.plan,
                               ExecutorConfig(chaining_m=m, noise_sigma=sigma), seed))
            for task in tasks for seed in range(5) for sigma in NOISE_SIGMAS for m in (0, 6)]
    assert len(rows) == 390
    assert sum(r["collisions"] for r in rows) > 0 and sum(r["drawer_slams"] for r in rows) > 0
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
    assert digest == NOISY_EPISODES_DIGEST
