"""Golden fingerprint of episode outcomes.

Pins the behaviour of the whole episode path (reset, planning, cost maps,
chaining, RRT, stepping, monitoring) on the 12 compositional tasks at seed 0,
with transition planning on (M=6) and off (M=0).  A refactor that changes any
outcome, waypoint count or action count changes the digest.
"""

import hashlib
import json

import pytest

from deco.executor import ExecutorConfig, build_library, run_task_episode
from deco.registry import load_registry

GOLDEN_DIGEST = "b6b45ba075b1ddc3"


@pytest.fixture(scope="module")
def registry():
    return load_registry()


@pytest.fixture(scope="module")
def library(registry):
    return build_library(registry)[2]


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
