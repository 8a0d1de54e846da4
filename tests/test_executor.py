from dataclasses import replace

import numpy as np
import pytest

import deco.costmap
import deco.executor
import deco.sim.scene
from deco.executor import (MAX_ACTIONS_PER_SKILL, ExecutorConfig, MonitorVerdict,
                           SOURCE_DEMO_TASKS, build_library, monitor, run_episode, run_suite,
                           run_task_episode, scene_summary, write_suite_csv)
from deco.costmap import CostMap
from deco.errors import ConfigError, NoFreeChain
from deco.geometry import Pose
from deco.planning import ItemLocation
from deco.registry import load_registry
from deco.sim.oracle import oracle_policy
from deco.sim.scene import WORKSPACE
from deco.sim.tasks import drawer_front_obstacle_task, reset


def test_monitor_verdicts():
    scene = reset(load_registry().get("open_drawer"), 0)
    goal_here = scene.gripper_pose()
    goal_far = Pose(np.array(scene.gripper_position) + [0.1, 0, 0])
    assert monitor(scene, goal_here, 1) is MonitorVerdict.COMPLETE
    assert monitor(scene, goal_far, 1) is MonitorVerdict.CONTINUE
    assert monitor(scene, goal_far, MAX_ACTIONS_PER_SKILL) is MonitorVerdict.TIMEOUT


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
    assert sorted(lib.counts) == sorted(t.instruction for t in registry.atomic_tasks())


def test_run_episode_atomic_success(registry):
    task = registry.get("open_drawer")
    plan = task.plan
    result = run_episode(task, reset(task, 0), plan, ExecutorConfig(), 0)
    assert result.success
    assert [s.completed for s in result.skills] == [True]


def test_run_episode_precondition_failure(registry):
    # drawer starts open: "open drawer" is refused and the episode fails
    task = registry.get("close_drawer")
    plan = ("open drawer",)
    result = run_episode(task, reset(task, 0), plan, ExecutorConfig(), 0)
    assert not result.success
    assert not result.skills[0].completed
    assert "open" in result.skills[0].reason


def test_run_episode_skill_advance_soundness(registry):
    task = registry.get("put_in_and_close")
    plan = task.plan
    result = run_episode(task, reset(task, 0), plan, ExecutorConfig(), 0)
    assert result.success
    assert all(s.completed for s in result.skills)
    assert len(result.skills) == len(plan)


def test_run_episode_noise_can_time_out(registry):
    task = registry.get("open_drawer")
    plan = task.plan
    cfg = ExecutorConfig(noise_sigma=0.05)
    results = [run_episode(task, reset(task, s), plan, cfg, s) for s in range(8)]
    assert any(not r.success for r in results)
    assert any(r.skills[0].reason == "timeout" for r in results)


def test_run_episode_small_noise_recovers(registry):
    task = registry.get("open_drawer")
    plan = task.plan
    cfg = ExecutorConfig(noise_sigma=0.004)
    result = run_episode(task, reset(task, 0), plan, cfg, 0)
    assert result.skills[0].completed


def test_obstacle_fixture_m0_fails_m6_succeeds(library, registry):
    fixture = drawer_front_obstacle_task()
    r0 = run_task_episode(fixture, 0, ExecutorConfig(chaining_m=0), library, registry)
    r6 = run_task_episode(fixture, 0, ExecutorConfig(chaining_m=6), library, registry)
    assert not r0.success
    assert r0.collisions > 0
    assert r6.success
    assert r6.collisions == 0
    assert r6.transition_waypoints > 0


def test_chaining_failure_keeps_its_reason(library, registry, monkeypatch):
    def no_chain(*args, **kwargs):
        raise NoFreeChain("no collision-free chaining pose near the drawer")

    monkeypatch.setattr(deco.executor, "chain_skills", no_chain)
    result = run_task_episode(registry.get("put_in_and_close"), 0, ExecutorConfig(),
                              library, registry)
    # the first transition (open -> put in) fails, which ends the episode
    assert result.chaining_failure_reasons == [
        "no collision-free chaining pose near the drawer"]
    assert result.chaining_failures == 1
    assert [(s.instruction, s.completed, s.reason) for s in result.skills] == [
        ("open drawer", True, ""),
        ("put item in drawer", False, "chaining: no collision-free chaining pose near the drawer")]
    assert result.skills[-1].actions_used == 0
    assert not result.success


def test_obstacle_fixture_rrt_failure_is_reported(library, registry, monkeypatch):
    """A goal sealed in occupied voxels exhausts the RRT and ends the episode."""
    real_chain_skills = deco.executor.chain_skills

    def sealed_goal(goal_prev, start_next, cmap, m, seed):
        i, j, k = np.floor((start_next.position - cmap.origin) / cmap.voxel_size).astype(int)
        cost = cmap.cost.copy()
        cost[i - 1:i + 2, j - 1:j + 2, k - 1:k + 2] = 1.0
        cost[i, j, k] = 0.0
        sealed = CostMap(cmap.origin, cmap.voxel_size, cost, cmap.inflation_radius)
        return real_chain_skills(goal_prev, start_next, sealed, m, seed)

    monkeypatch.setattr(deco.executor, "chain_skills", sealed_goal)
    fixture = drawer_front_obstacle_task()
    result = run_task_episode(fixture, 0, ExecutorConfig(chaining_m=6), library, registry)
    reason = "RRT failed to connect after 5000 iterations"
    assert result.chaining_failure_reasons == [reason]
    assert result.skills[-1].reason == f"chaining: {reason}"
    assert len(result.skills) == 2 and not result.success


def test_obstacle_fixture_connects_on_every_seed(library, registry):
    """Seeds 31674 and 31676 exhausted the one-tree RRT on the drawer-front leg."""
    results = [run_task_episode(drawer_front_obstacle_task(), seed,
                                ExecutorConfig(chaining_m=6), library, registry)
               for seed in range(31666, 31686)]
    assert sum(r.success for r in results) == 20
    assert sum(r.chaining_failures for r in results) == 0
    assert sum(r.collisions for r in results) == 0


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


@pytest.mark.parametrize("kwargs, message", [
    (dict(chaining_m=-3), "chaining_m must be a non-negative integer, got -3"),
    (dict(chaining_m=2.5), "chaining_m must be a non-negative integer, got 2.5"),
    (dict(noise_sigma=-0.05), "noise_sigma must be a finite non-negative number, got -0.05"),
    (dict(noise_sigma=float("nan")), "noise_sigma must be a finite non-negative number, got nan"),
    (dict(chaining_m=-1, noise_sigma=float("inf")),
     "chaining_m must be a non-negative integer, got -1; "
     "noise_sigma must be a finite non-negative number, got inf"),
])
def test_executor_config_checks_the_experiment_config_rules(kwargs, message):
    with pytest.raises(ConfigError) as info:
        ExecutorConfig(**kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("seeds, episodes, message", [
    ([0, 0], 1, "seeds must not repeat, got seed 0 more than once"),
    ([0, 1], 0, "episodes must be an integer of at least 1, got 0"),
    ([], 1, "seeds must be a non-empty list of non-negative integers, got []"),
])
def test_run_suite_rejects_what_it_cannot_tabulate(library, registry, monkeypatch,
                                                    seeds, episodes, message):
    monkeypatch.setattr(deco.executor, "run_task_episode", None)  # nothing may run
    with pytest.raises(ConfigError) as info:
        run_suite([registry.get("open_drawer")], seeds, ExecutorConfig(), library, registry,
                  episodes=episodes)
    assert str(info.value) == message


def test_run_task_episode_rejects_a_negative_seed(library, registry):
    with pytest.raises(ConfigError, match="seed must be a non-negative integer, got -1"):
        run_task_episode(registry.get("open_drawer"), -1, ExecutorConfig(), library, registry)


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


def test_run_task_episode_resets_once(library, registry, monkeypatch):
    calls = []

    def counting_reset(task, seed):
        calls.append((task.id, seed))
        return reset(task, seed)

    monkeypatch.setattr(deco.executor, "reset", counting_reset)
    result = run_task_episode(registry.get("put_in_and_close"), 3, ExecutorConfig(),
                              library, registry)
    assert result.success
    assert calls == [("put_in_and_close", 3)]



@pytest.mark.parametrize("chaining_m", [0, 6])
def test_a_skill_is_scripted_again_only_after_a_transition(registry, monkeypatch, chaining_m):
    """Without a transition the dry run's script is executed, noised; after
    one, the skill is scripted again, with noise, on the scene it left."""
    calls = []

    def recording_policy(instruction, scene, noise_sigma=0.0, seed=0):
        calls.append((instruction, noise_sigma, seed))
        return oracle_policy(instruction, scene, noise_sigma, seed)

    monkeypatch.setattr(deco.executor, "oracle_policy", recording_policy)
    task = registry.get("put_in_and_close")
    result = run_episode(task, reset(task, 2), task.plan,
                         ExecutorConfig(chaining_m=chaining_m, noise_sigma=0.005), 2)
    assert [s.instruction for s in result.skills] == list(task.plan)
    dry = [(instruction, 0.0, 0) for instruction in task.plan]
    if chaining_m == 0:
        assert calls == dry
    else:
        again = [(instruction, 0.005, 2 * 101 + i) for i, instruction in enumerate(task.plan)]
        assert calls == [dry[0], dry[1], again[1], dry[2], again[2]]


def test_geometry_caches_are_keyed_by_constants_not_episodes(library, registry, monkeypatch):
    """The fixed-geometry and cost-table caches see only geometry constants,
    map parameters and tray openings, so repeated episodes cannot turn into
    cache hits.  The noiseless suite's trays are only ever in or fully out,
    so its transition maps see two openings."""
    cached = {"table": (deco.costmap, "_offset_cost_table"),
              "offsets": (deco.costmap, "_blocking_offsets"),
              "window": (deco.costmap, "_exact_window"),
              "samples": (deco.sim.scene, "fixed_samples"),
              "layers": (deco.executor, "_fixed_layer")}
    originals, keys = {}, {}
    for name, (module, attr) in cached.items():
        originals[name] = fn = getattr(module, attr)
        keys[name] = seen = set()
        fn.cache_clear()

        def recording(*args, _fn=fn, _seen=seen):
            _seen.add(args)
            return _fn(*args)

        monkeypatch.setattr(module, attr, recording)
    for task in registry.compositional_tasks():
        run_task_episode(task, 0, ExecutorConfig(chaining_m=6), library, registry)

    dims = tuple(int(np.ceil(e / 0.02)) for e in WORKSPACE.upper - WORKSPACE.lower)
    assert keys["table"] == keys["window"] == {(dims, 0.02, 0.05)}
    assert keys["offsets"] == {(dims, 0.02, 0.05)}
    assert 1 < len(keys["samples"]) <= 16
    # every layout and opening seen by a transition map is one the simulator samples
    assert keys["layers"] <= keys["samples"]
    for name in ("samples", "layers"):
        assert all(len(key) == 4 and all(type(flag) is bool for flag in key[:3])
                   for key in keys[name])
        assert {key[3] for key in keys[name]} == {0.0, 1.0}
    for name, fn in originals.items():
        assert fn.cache_info().currsize == len(keys[name])


def test_a_tray_out_layer_is_built_in_one_step():
    """The layer of an open tray is built from its own samples: it neither
    builds nor samples the layer of the tray in."""
    for fn in (deco.executor._fixed_layer, deco.sim.scene.fixed_samples):
        fn.cache_clear()
    deco.executor._fixed_layer(True, False, False, 1.0)
    for fn in (deco.executor._fixed_layer, deco.sim.scene.fixed_samples):
        assert fn.cache_info().currsize == 1
