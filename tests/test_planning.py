import pytest

from deco.errors import UnknownTask, UnsatisfiablePlan
from deco.executor import build_library
from deco.planning import (ItemLocation, SceneSummary, plan_mock,
                           repair_preconditions)
from deco.registry import load_registry


@pytest.fixture(scope="module")
def library():
    return build_library(load_registry())[2]


@pytest.fixture(scope="module")
def registry():
    return load_registry()


def drawer_scene(fraction=0.0, inventory=("item",)):
    return SceneSummary(inventory=inventory, drawer_open_fraction=fraction)


def test_scene_summary_validates_fraction():
    with pytest.raises(ValueError):
        SceneSummary(drawer_open_fraction=1.5)


def test_scene_summary_rejects_unknown_location_names():
    with pytest.raises(ValueError):
        SceneSummary(inventory=("item",), locations={"ghost": ItemLocation.ON_TABLE})


def test_repair_inserts_open_before_drawer_skill():
    steps = repair_preconditions(["put item in drawer"], drawer_scene(0.0))
    assert steps == ["open drawer", "put item in drawer"]


def test_repair_skips_redundant_open():
    steps = repair_preconditions(["open drawer", "put item in drawer"],
                                 drawer_scene(1.0))
    assert steps == ["put item in drawer"]


def test_repair_tracks_close_then_open_again():
    template = ["open drawer", "put item in drawer", "close drawer",
                "open drawer", "put item in drawer"]
    steps = repair_preconditions(template, drawer_scene(0.0))
    assert steps == template


def test_plan_mock_motivating_example(library, registry):
    # closed drawer, item on the table: open, place, close
    plan = plan_mock("put item in drawer and close", drawer_scene(0.0), library,
                     registry)
    assert plan == ("open drawer", "put item in drawer", "close drawer")


def test_plan_mock_drops_open_when_drawer_already_open(library, registry):
    plan = plan_mock("put item in drawer and close", drawer_scene(1.0), library,
                     registry)
    assert plan == ("put item in drawer", "close drawer")


def test_plan_mock_atomic_passthrough(library, registry):
    plan = plan_mock("put rubbish in dustpan",
                     SceneSummary(inventory=("rubbish_0",), dustpan_present=True),
                     library, registry)
    assert plan == ("put rubbish in dustpan",)


def test_plan_mock_unknown_instruction(library, registry):
    with pytest.raises(UnknownTask):
        plan_mock("fold the laundry", SceneSummary(), library, registry)


def test_plan_mock_missing_fixture_unsatisfiable(library, registry):
    # cupboard task without a cupboard in the scene
    with pytest.raises(UnsatisfiablePlan):
        plan_mock("exchange boxes", SceneSummary(inventory=("box_a", "box_b")),
                  library, registry)


def test_plan_mock_missing_object_unsatisfiable(library, registry):
    with pytest.raises(UnsatisfiablePlan):
        plan_mock("put item in drawer and close", drawer_scene(0.0, inventory=()),
                  library, registry)


def test_plan_mock_all_canonical_templates(library, registry):
    """Every compositional task plans to its canonical decomposition."""
    for task in registry.compositional_tasks():
        scene = _scene_for(task)
        plan = plan_mock(task.instruction, scene, library, registry)
        assert plan == repair_tuple(task.plan, scene), task.id


def repair_tuple(template, scene):
    return tuple(repair_preconditions(list(template), scene))


def _scene_for(task):
    inventory = []
    if "item" in " ".join(task.plan):
        inventory += ["item", "item2"]
    if "box" in " ".join(task.plan):
        inventory += ["box"]
    if "broom" in " ".join(task.plan) or "sweep" in " ".join(task.plan):
        inventory += ["broom"]
    if "rubbish" in " ".join(task.plan) or "sweep" in " ".join(task.plan):
        inventory += ["rubbish_0"]
    needs_drawer = any("drawer" in step for step in task.plan)
    return SceneSummary(
        inventory=tuple(inventory),
        drawer_open_fraction=0.0 if needs_drawer else None,
        cupboard_present=True, dustpan_present=True)

