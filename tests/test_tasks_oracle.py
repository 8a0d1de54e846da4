import re

import numpy as np
import pytest

from deco.errors import PreconditionUnmet, UnknownInstruction, UnknownTask
from deco.registry import load_registry
from deco.sim.oracle import ATOMIC_SKILLS, OraclePolicy, oracle_policy, record_demo
from deco.sim.scene import CUPBOARD_INTERIOR, GripperCommand, Scene, SimObject, step
from deco.sim.tasks import drawer_front_obstacle_task, reset, success
from deco.trajectory import GripperState


@pytest.fixture(scope="module")
def registry():
    return load_registry()


def run_plan(task, seed=0):
    scene = reset(task, seed)
    for instr in task.plan:
        for action in oracle_policy(instr, scene, 0.0, seed):
            scene = step(scene, action)
    return scene


def test_registry_has_22_tasks(registry):
    assert len(registry) == 22
    assert len(registry.atomic_tasks()) == 10
    assert len(registry.compositional_tasks()) == 12


def test_registry_is_parsed_once_and_shared():
    registry = load_registry()
    assert load_registry() is registry
    with pytest.raises(TypeError):
        registry.tasks["open_drawer"] = registry.get("close_drawer")


def test_cycle_count_census(registry):
    # drawer-involving compositional: two 4-cycle, five 6-cycle, two 10-cycle
    drawer = [t for t in registry.compositional_tasks()
              if any("drawer" in s for s in t.plan)]
    counts = sorted(t.cycle_count for t in drawer)
    assert counts == [4, 4, 6, 6, 6, 6, 6, 10, 10]


def test_reset_deterministic_per_seed(registry):
    task = registry.get("put_in_wo_close")
    a, b = reset(task, 3), reset(task, 3)
    assert np.allclose(a.objects["item"].position, b.objects["item"].position)
    c = reset(task, 4)
    assert not np.allclose(a.objects["item"].position, c.objects["item"].position)


def test_unknown_task_raises(registry):
    with pytest.raises(UnknownTask):
        registry.get("fly_to_the_moon")


def test_unknown_instruction_raises():
    with pytest.raises(UnknownInstruction):
        oracle_policy("dance", Scene(), 0.0, 0)


def test_every_skill_has_one_close_one_open(registry):
    for task in registry:
        scene = reset(task, 0)
        for instr in task.plan:
            actions = oracle_policy(instr, scene, 0.0, 0)
            closes = sum(a.gripper_command is GripperCommand.CLOSE for a in actions)
            opens = sum(a.gripper_command is GripperCommand.OPEN for a in actions)
            assert (closes, opens) == (1, 1), (task.id, instr)
            for action in actions:
                scene = step(scene, action)


def test_all_tasks_succeed_with_scripted_plans(registry):
    for task in registry:
        for seed in (0, 1):
            scene = run_plan(task, seed)
            assert success(task, scene), (task.id, seed)
            assert scene.collision_count == 0, (task.id, seed)
            assert scene.drawer_slams == 0, (task.id, seed)


def test_predicates_false_on_initial_scene(registry):
    for task in registry:
        if task.id in ("close_drawer",):
            continue
        assert not success(task, reset(task, 0)), task.id


def test_open_drawer_precondition():
    scene = Scene(drawer_present=True, open_fraction=1.0)
    with pytest.raises(PreconditionUnmet):
        oracle_policy("open drawer", scene, 0.0, 0)
    with pytest.raises(PreconditionUnmet):
        oracle_policy("close drawer", Scene(drawer_present=True, open_fraction=0.0),
                      0.0, 0)
    with pytest.raises(PreconditionUnmet):
        oracle_policy("open drawer", Scene(drawer_present=False), 0.0, 0)


def test_drawer_skills_need_open_drawer():
    scene = Scene(drawer_present=True, open_fraction=0.0,
                  objects={"item": SimObject("block", np.array([0.42, 0.05, 0.02]))})
    with pytest.raises(PreconditionUnmet):
        oracle_policy("put item in drawer", scene, 0.0, 0)
    with pytest.raises(PreconditionUnmet):
        oracle_policy("take item out of drawer", scene, 0.0, 0)


def test_full_gripper_blocks_new_skill():
    scene = Scene(drawer_present=True, open_fraction=0.0,
                  objects={"item": SimObject("block", np.array([0.42, 0.05, 0.02]), held=True)})
    scene.held_object = "item"
    with pytest.raises(PreconditionUnmet):
        oracle_policy("open drawer", scene, 0.0, 0)


def test_noise_perturbs_targets_deterministically():
    scene = Scene(drawer_present=True, open_fraction=0.0)
    base = oracle_policy("open drawer", scene, 0.0, 0)
    noisy1 = oracle_policy("open drawer", scene, 0.005, 7)
    noisy2 = oracle_policy("open drawer", scene, 0.005, 7)
    assert not np.allclose(base[0].target.position, noisy1[0].target.position)
    assert np.allclose(noisy1[0].target.position, noisy2[0].target.position)


def test_oracle_policy_facade_dry_run_is_noiseless():
    scene = Scene(drawer_present=True, open_fraction=0.0)
    policy = OraclePolicy(noise_sigma=0.02)
    dry = policy.dry_run("open drawer", scene)
    base = oracle_policy("open drawer", scene, 0.0, 0)
    assert np.allclose(dry[0].target.position, base[0].target.position)


def test_atomic_skill_names_cover_registry(registry):
    assert sorted(ATOMIC_SKILLS) == sorted(t.instruction for t in registry.atomic_tasks())


def test_record_demo_structure(registry):
    demo = record_demo(registry.get("put_in_wo_close"), 0)
    assert demo.id == "put_in_wo_close-s0"
    s = "".join("o" if st.gripper is GripperState.OPEN else "c" for st in demo.steps)
    assert re.fullmatch("o+(c+o+)+", s)
    assert s.count("oc") == 2  # one interaction per plan step
    assert demo.steps[0].joint_speed == 0.0


def test_record_demo_speeds_reflect_displacement(registry):
    demo = record_demo(registry.get("open_drawer"), 0)
    speeds = [s.joint_speed for s in demo.steps]
    assert any(v == 0.0 for v in speeds[1:])  # dwell at the release keyframe
    assert any(v > 0.1 for v in speeds)


def test_obstacle_fixture_straight_transition_slams():
    task = drawer_front_obstacle_task()
    scene = reset(task, 0)
    with pytest.raises(PreconditionUnmet):
        for instr in task.plan:
            for action in oracle_policy(instr, scene, 0.0, 0):
                scene = step(scene, action)
    assert scene.drawer_slams >= 1
    assert not success(task, scene)


def test_exchange_boxes_picks_table_box(registry):
    task = registry.get("exchange_boxes")
    scene = run_plan(task, 0)
    assert success(task, scene)
    assert CUPBOARD_INTERIOR.contains(scene.objects["box_b"].position)
    assert not CUPBOARD_INTERIOR.contains(scene.objects["box_a"].position)
