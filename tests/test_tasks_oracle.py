import hashlib
import json
import re
import zlib
from dataclasses import fields
from importlib import resources

import numpy as np
import pytest

from deco.errors import (ConfigError, PreconditionUnmet, UnknownInstruction, UnknownTask,
                         UnsatisfiablePlan)
from deco.executor import scene_summary
from deco.planning import _check_requirements
from deco.registry import (DRAWER_CLOSED_THRESHOLD, SKILL_NEEDS, DrawerNeed, TaskSpec,
                           load_registry)
from deco.sim.oracle import ATOMIC_SKILLS, check_needs, noised_script, oracle_policy, record_demo
from deco.sim.scene import CUPBOARD_INTERIOR, GripperCommand, Scene, step
from deco.sim.tasks import PREDICATES, drawer_front_obstacle_task, named_rng, reset, success
from deco.trajectory import GripperState

# every initial scene of the 22 registry tasks and the obstacle fixture, seeds 0-4
INITIAL_SCENES_DIGEST = "b1897a673a3b4213"


def run_plan(task, seed=0):
    scene = reset(task, seed)
    for instr in task.plan:
        for action in oracle_policy(instr, scene):
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


def test_task_rows_hold_only_what_the_loader_reads():
    """Each row of the packaged table is TaskSpec's fields, "aliases" optional,
    so a column that nothing reads cannot come back."""
    names = [f.name for f in fields(TaskSpec)]
    assert names == ["id", "instruction", "predicate", "initializer", "plan", "aliases"]
    text = resources.files("deco.assets").joinpath("tasks.json").read_text()
    for row in json.loads(text)["tasks"]:
        assert set(names) - {"aliases"} <= set(row) <= set(names), row["id"]
        assert row.get("aliases", None) != [], row["id"]


def test_kind_and_cycle_count_come_from_the_plan(registry):
    assert all(len(t.plan) == 1 for t in registry.atomic_tasks())
    assert all(2 <= len(t.plan) <= 5 for t in registry.compositional_tasks())
    assert registry.atomic_tasks() + registry.compositional_tasks() == list(registry)
    assert all(t.cycle_count == 2 * len(t.plan) for t in registry)
    with pytest.raises(ValueError, match="task 'idle' has an empty plan"):
        TaskSpec(id="idle", instruction="idle", predicate="drawer_open",
                 initializer="drawer_closed", plan=())


def test_obstacle_fixture_is_its_base_task_with_three_fields_replaced(registry):
    fixture, base = drawer_front_obstacle_task(), registry.get("put_in_and_close")
    assert (fixture.id, fixture.initializer, fixture.aliases) == (
        "put_in_and_close_obstacle", "drawer_front_obstacle", ())
    assert (fixture.instruction, fixture.predicate, fixture.plan) == (
        base.instruction, base.predicate, base.plan)


def test_cycle_count_census(registry):
    # drawer-involving compositional: two 4-cycle, five 6-cycle, two 10-cycle
    drawer = [t for t in registry.compositional_tasks()
              if any("drawer" in s for s in t.plan)]
    counts = sorted(t.cycle_count for t in drawer)
    assert counts == [4, 4, 6, 6, 6, 6, 6, 10, 10]


def test_reset_deterministic_per_seed(registry):
    task = registry.get("put_in_wo_close")
    a, b = reset(task, 3), reset(task, 3)
    assert np.allclose(a.objects["item"], b.objects["item"])
    c = reset(task, 4)
    assert not np.allclose(a.objects["item"], c.objects["item"])


def test_a_negative_seed_is_a_config_error_naming_it(registry):
    task = registry.get("put_in_wo_close")
    script = oracle_policy("open drawer", reset(task, 0))
    calls = [lambda: named_rng(-1, "open drawer"), lambda: reset(task, -1),
             lambda: noised_script("open drawer", script, 0.01, -1)]
    for call in calls:
        with pytest.raises(ConfigError, match="seed must be a non-negative integer, got -1"):
            call()
    assert named_rng(3, task.id).random() == np.random.default_rng(
        [3, zlib.crc32(task.id.encode())]).random()


def test_initial_scenes_are_pinned_bit_for_bit(registry):
    h = hashlib.sha256()
    for task in [*registry, drawer_front_obstacle_task()]:
        for seed in range(5):
            scene = reset(task, seed)
            h.update(repr((task.id, seed, scene.drawer_present, scene.cupboard_present,
                           scene.dustpan_present, type(scene.open_fraction).__name__)).encode())
            h.update(float(scene.open_fraction).hex().encode())
            for name, position in scene.objects.items():
                h.update(repr((name, position.dtype.str)).encode())
                h.update(position.tobytes())
    assert h.hexdigest()[:16] == INITIAL_SCENES_DIGEST


def test_unknown_task_raises(registry):
    with pytest.raises(UnknownTask):
        registry.get("fly_to_the_moon")


def test_unknown_instruction_raises():
    with pytest.raises(UnknownInstruction):
        oracle_policy("dance", Scene())


def test_every_skill_has_one_close_one_open(registry):
    for task in registry:
        scene = reset(task, 0)
        for instr in task.plan:
            actions = oracle_policy(instr, scene)
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


def test_every_predicate_evaluates_on_its_initial_scenes(registry):
    for task in list(registry) + [drawer_front_obstacle_task()]:
        for seed in range(5):
            assert success(task, reset(task, seed)) in (True, False), (task.id, seed)


def test_success_names_an_object_the_scene_lacks(registry):
    task = registry.get("exchange_boxes")
    scene = reset(task, 0)
    del scene.objects["box_a"]
    with pytest.raises(UnknownTask, match="'exchange_boxes'.*'box_a'"):
        success(task, scene)


def test_open_drawer_precondition():
    scene = Scene(drawer_present=True, open_fraction=1.0)
    with pytest.raises(PreconditionUnmet):
        oracle_policy("open drawer", scene)
    with pytest.raises(PreconditionUnmet):
        oracle_policy("close drawer", Scene(drawer_present=True, open_fraction=0.0))
    with pytest.raises(PreconditionUnmet):
        oracle_policy("open drawer", Scene(drawer_present=False))


def test_the_drawer_is_closed_exactly_below_0_2():
    """At 0.2 the drawer is not closed, so ``close drawer`` runs and its
    episode can succeed; just below 0.2 it is closed and the skill is refused."""
    below = np.nextafter(DRAWER_CLOSED_THRESHOLD, 0.0)
    for fraction, closed in ((DRAWER_CLOSED_THRESHOLD, False), (below, True)):
        scene = Scene(drawer_present=True, open_fraction=fraction)
        assert PREDICATES["drawer_closed"](scene) is closed
        assert DrawerNeed.NOT_CLOSED.holds(fraction) is not closed
        if closed:
            with pytest.raises(PreconditionUnmet):
                oracle_policy("close drawer", scene)
            continue
        for action in oracle_policy("close drawer", scene):
            scene = step(scene, action)
        assert PREDICATES["drawer_closed"](scene)


def test_drawer_skills_need_open_drawer():
    scene = Scene(drawer_present=True, open_fraction=0.0,
                  objects={"item": np.array([0.42, 0.05, 0.02])})
    with pytest.raises(PreconditionUnmet):
        oracle_policy("put item in drawer", scene)
    with pytest.raises(PreconditionUnmet):
        oracle_policy("take item out of drawer", scene)


def test_full_gripper_blocks_new_skill():
    scene = Scene(drawer_present=True, open_fraction=0.0,
                  objects={"item": np.array([0.42, 0.05, 0.02])}, held_object="item")
    with pytest.raises(PreconditionUnmet):
        oracle_policy("open drawer", scene)


def test_noise_perturbs_targets_deterministically():
    scene = Scene(drawer_present=True, open_fraction=0.0)
    base = oracle_policy("open drawer", scene)
    noisy1 = noised_script("open drawer", base, 0.005, 7)
    noisy2 = noised_script("open drawer", oracle_policy("open drawer", scene), 0.005, 7)
    assert not np.allclose(base[0].target.position, noisy1[0].target.position)
    assert np.allclose(noisy1[0].target.position, noisy2[0].target.position)


def test_atomic_skill_names_cover_registry(registry):
    atomic = sorted(t.instruction for t in registry.atomic_tasks())
    assert sorted(ATOMIC_SKILLS) == sorted(SKILL_NEEDS) == atomic


def _rejects(check, error, *args) -> bool:
    try:
        check(*args)
    except error:
        return True
    return False


def test_planner_and_oracle_reject_a_skill_for_the_same_missing_parts(registry):
    """On every initial scene at seed 0, the planner rejects a skill for a
    missing scene part or object exactly when the oracle's table check does."""
    verdicts = []
    for task in list(registry) + [drawer_front_obstacle_task()]:
        scene = reset(task, 0)
        summary = scene_summary(scene)
        for skill in ATOMIC_SKILLS:
            # give the drawer the state the skill needs, so that only a missing
            # part or object can fail the oracle's check
            probe = scene.copy()
            need = SKILL_NEEDS[skill].drawer
            if need is not None:
                probe.open_fraction = 0.0 if need is DrawerNeed.NOT_OPEN else 1.0
            planner = _rejects(_check_requirements, UnsatisfiablePlan, skill, summary)
            oracle = _rejects(check_needs, PreconditionUnmet, skill, probe)
            assert planner == oracle, (task.id, skill, planner)
            verdicts.append(planner)
    assert len(verdicts) == 230 and 0 < sum(verdicts) < len(verdicts)


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
            for action in oracle_policy(instr, scene):
                scene = step(scene, action)
    assert scene.drawer_slams >= 1
    assert not success(task, scene)


def test_exchange_boxes_picks_table_box(registry):
    task = registry.get("exchange_boxes")
    scene = run_plan(task, 0)
    assert success(task, scene)
    assert CUPBOARD_INTERIOR.contains(scene.objects["box_b"])
    assert not CUPBOARD_INTERIOR.contains(scene.objects["box_a"])
