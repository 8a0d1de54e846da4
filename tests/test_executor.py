from dataclasses import replace

import numpy as np
import pytest

import deco.executor
from deco.executor import (ExecutorConfig, MonitorVerdict, SOURCE_DEMO_TASKS,
                           build_library, monitor, run_episode, run_suite,
                           run_task_episode, scene_summary, write_suite_csv)
from deco.geometry import Pose
from deco.planning import ItemLocation, Plan, PlanSource
from deco.registry import load_registry
from deco.sim.oracle import OraclePolicy
from deco.sim.tasks import drawer_front_obstacle_task, reset


@pytest.fixture(scope="module")
def registry():
    return load_registry()


@pytest.fixture(scope="module")
def library(registry):
    return build_library(registry)[2]


def test_monitor_verdicts():
    cfg = ExecutorConfig()
    scene = reset(load_registry().get("open_drawer"), 0)
    goal_here = scene.gripper_pose()
    goal_far = Pose(np.array(scene.gripper_position) + [0.1, 0, 0])
    assert monitor(scene, goal_here, 1, cfg) is MonitorVerdict.COMPLETE
    assert monitor(scene, goal_far, 1, cfg) is MonitorVerdict.CONTINUE
    assert monitor(scene, goal_far, cfg.max_actions_per_skill, cfg) is MonitorVerdict.TIMEOUT


def test_scene_summary_locations(registry):
    scene = reset(registry.get("transfer_box"), 0)  # box in closed drawer
    summary = scene_summary(scene)
    assert summary.drawer_open_fraction == 0.0
    assert summary.cupboard_present
    assert summary.locations["box"] is ItemLocation.IN_DRAWER
    scene2 = reset(registry.get("box_in_cupboard"), 0)
    summary2 = scene_summary(scene2)
    assert summary2.drawer_open_fraction is None
    assert summary2.locations["box"] is ItemLocation.ON_TABLE
    scene3 = reset(registry.get("box_out_cupboard"), 0)
    assert scene_summary(scene3).locations["box"] is ItemLocation.IN_CUPBOARD


def test_library_has_ten_instructions_from_six_demos(registry):
    demos, tasks, lib = build_library(registry)
    assert len(demos) == len(SOURCE_DEMO_TASKS) == 6
    assert len(lib) == 10
    assert sorted(lib.instructions()) == sorted(registry.atomic_instructions())


def test_half_mode_library_doubles_segments(registry):
    _, full_tasks, _ = build_library(registry, mode="full")
    _, half_tasks, half_lib = build_library(registry, mode="half")
    assert len(half_tasks) == 2 * len(full_tasks)
    assert len(half_lib) == 10


def test_run_episode_atomic_success(registry):
    task = registry.get("open_drawer")
    plan = Plan(steps=task.plan, source=PlanSource.MOCK)
    result = run_episode(task, plan, OraclePolicy(), ExecutorConfig(), 0)
    assert result.success
    assert [s.completed for s in result.skills] == [True]


def test_run_episode_precondition_failure(registry):
    # drawer starts open: "open drawer" is refused and the episode fails
    task = registry.get("close_drawer")
    plan = Plan(steps=("open drawer",), source=PlanSource.MOCK)
    result = run_episode(task, plan, OraclePolicy(), ExecutorConfig(), 0)
    assert not result.success
    assert not result.skills[0].completed
    assert "open" in result.skills[0].reason


def test_run_episode_skill_advance_soundness(registry):
    task = registry.get("put_in_and_close")
    plan = Plan(steps=task.plan, source=PlanSource.MOCK)
    result = run_episode(task, plan, OraclePolicy(), ExecutorConfig(), 0)
    assert result.success
    assert all(s.completed for s in result.skills)
    assert len(result.skills) == len(plan.steps)


def test_run_episode_noise_can_time_out(registry):
    task = registry.get("open_drawer")
    plan = Plan(steps=task.plan, source=PlanSource.MOCK)
    cfg = ExecutorConfig(noise_sigma=0.05, max_actions_per_skill=8)
    results = [run_episode(task, plan, OraclePolicy(noise_sigma=0.05), cfg, s)
               for s in range(8)]
    assert any(not r.success for r in results)


def test_run_episode_small_noise_recovers(registry):
    task = registry.get("open_drawer")
    plan = Plan(steps=task.plan, source=PlanSource.MOCK)
    cfg = ExecutorConfig(noise_sigma=0.004)
    result = run_episode(task, plan, OraclePolicy(noise_sigma=0.004), cfg, 0)
    assert result.skills[0].completed


def test_tolerance_monotonicity(registry):
    task = registry.get("put_in_wo_close")
    plan = Plan(steps=task.plan, source=PlanSource.MOCK)
    tight = run_episode(task, plan, OraclePolicy(), ExecutorConfig(), 0)
    loose = run_episode(task, plan, OraclePolicy(),
                        ExecutorConfig(tol_pos=0.05, tol_ang=0.5), 0)
    assert tight.success
    assert loose.success


def test_obstacle_fixture_m0_fails_m6_succeeds(library, registry):
    fixture = drawer_front_obstacle_task()
    r0 = run_task_episode(fixture, 0, ExecutorConfig(chaining_m=0), library, registry)
    r6 = run_task_episode(fixture, 0, ExecutorConfig(chaining_m=6), library, registry)
    assert not r0.success
    assert r0.collisions > 0
    assert r6.success
    assert r6.collisions == 0
    assert r6.transition_waypoints > 0


def test_run_suite_rows_and_csv(tmp_path, library, registry):
    tasks = [registry.get("open_drawer"), registry.get("close_drawer")]
    rows = run_suite(tasks, [0, 1], ExecutorConfig(), library, registry, episodes=2)
    assert len(rows) == 4
    assert all(r.episodes == 2 for r in rows)
    assert all(r.rate == 1.0 for r in rows)
    assert all(r.rate_std == 0.0 for r in rows)
    out = tmp_path / "results.csv"
    write_suite_csv(rows, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "task_id,seed,episodes,successes,rate,rate_std,collisions"
    assert lines[1] == "open_drawer,0,2,2,1.000000,0.000000,0"


def test_run_suite_deterministic(tmp_path, library, registry):
    tasks = [registry.get("put_in_wo_close")]
    kwargs = dict(library=library, registry=registry, episodes=2)
    rows1 = run_suite(tasks, [0, 1], ExecutorConfig(), **kwargs)
    rows2 = run_suite(tasks, [0, 1], ExecutorConfig(), **kwargs)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_suite_csv(rows1, a)
    write_suite_csv(rows2, b)
    assert a.read_bytes() == b.read_bytes()


def test_planning_error_becomes_planning_outcome(library, registry):
    # an instruction no plan template knows fails in the planner, not the episode
    ghost = replace(registry.get("open_drawer"), id="ghost",
                    instruction="assemble the spaceship")
    result = run_task_episode(ghost, 0, ExecutorConfig(), library, registry)
    assert not result.success
    assert [s.instruction for s in result.skills] == ["<planning>"]
    assert "no template matches" in result.skills[0].reason


def test_non_deco_error_in_planning_propagates(library, registry, monkeypatch):
    def broken_planner(*args):
        raise KeyError("bug in the planner")

    monkeypatch.setattr(deco.executor, "plan_mock", broken_planner)
    with pytest.raises(KeyError, match="bug in the planner"):
        run_task_episode(registry.get("open_drawer"), 0, ExecutorConfig(), library, registry)
