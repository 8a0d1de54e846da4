"""The input contract: one rule for points (``deco.geometry.as_points``) and
one for counts (``deco.config.is_count``), called by every public entry point.

A bad point or count is a ``DecoError`` whose message names its shape or
value, of the type the entry point raised before (a ``ValueError`` stays one);
numpy integers and floats pass wherever Python ones do.  A guard keeps the
shape and integer decision inside the two rule functions.
"""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import deco
from deco.chaining import chain_skills, rrt_path
from deco.config import ExperimentConfig, is_count, is_number
from deco.costmap import Bounds, CostMap, build_cost_map, fixed_layer, occupancy_from_points
from deco.decompose import DecompositionConfig
from deco.errors import (ConfigError, DecoError, DegenerateBounds, InvalidInput,
                         InvalidMapParameter, MalformedDemo, PlanningFailure)
from deco.executor import ExecutorConfig
from deco.geometry import Pose, as_points, is_goal_reached, quat_slerp
from deco.planning import SceneSummary
from deco.registry import TaskSpec, load_registry
from deco.sim.oracle import noised_script, oracle_policy
from deco.sim.scene import Scene
from deco.sim.tasks import named_rng, reset
from deco.trajectory import (AtomicTask, Demonstration, GripperState, InteractionSegment,
                             SegmentKind, TimeStep, load_atomic_tasks, load_demos,
                             save_atomic_tasks, save_demos)
from deco.vlm import EndpointConfig

PROPERTY_SETTINGS = settings(max_examples=200, derandomize=True, deadline=None)

BOX = Bounds((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
FLAT = [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]     # three 2-D points, six numbers
NESTED = np.full((2, 2, 3), 0.5)
NAN = [float("nan"), 0.5, 0.5]
A, B = [0.05, 0.2, 0.2], [0.35, 0.2, 0.2]


def drawer_policy(noise_sigma):
    return oracle_policy("open drawer", Scene(drawer_present=True), noise_sigma, 0)


def endpoint(timeout) -> EndpointConfig:
    return EndpointConfig(url="http://localhost:9/v1/chat/completions", timeout=timeout)


def grid_map() -> CostMap:
    return CostMap([0.0, 0.0, 0.0], 0.1, np.zeros((4, 4, 4)), 0.05)


def step_record(t) -> dict:
    return {"t": t, "pos": [0.3, 0.0, 0.3], "quat": [1, 0, 0, 0], "gripper": "open",
            "joint_speed": 0.0}


def atomic_task(keyframes) -> AtomicTask:
    return AtomicTask(InteractionSegment("d", 0, 3, SegmentKind.FULL), "grab",
                      Pose([0.3, 0.0, 0.3]), keyframes)


# row id -> (call, the error it raises, text its message names); the error and
# text are None for an input that must be accepted, and the call returns True
ROWS = {
    # N points where three 2-D points, or a nest of them, are given
    "build_cost_map-3x2": (lambda: build_cost_map(FLAT, BOX, 0.1), InvalidMapParameter, "(3, 2)"),
    "fixed_layer-3x2": (lambda: fixed_layer(FLAT, BOX, 0.1), InvalidMapParameter, "(3, 2)"),
    "occupancy-3x2": (lambda: occupancy_from_points(FLAT, BOX, 0.1), InvalidMapParameter,
                      "(3, 2)"),
    "build_cost_map-2x2x3": (lambda: build_cost_map(NESTED, BOX, 0.1), InvalidMapParameter,
                             "(2, 2, 3)"),
    "fixed_layer-2x2x3": (lambda: fixed_layer(NESTED, BOX, 0.1), InvalidMapParameter,
                          "(2, 2, 3)"),
    "occupancy-2x2x3": (lambda: occupancy_from_points(NESTED, BOX, 0.1), InvalidMapParameter,
                        "(2, 2, 3)"),
    "is_free-2x2x3": (lambda: grid_map().is_free(NESTED), InvalidMapParameter, "(2, 2, 3)"),
    "cost_at-2x2x3": (lambda: grid_map().cost_at(NESTED), InvalidMapParameter, "(2, 2, 3)"),
    "build_cost_map-empty": (lambda: build_cost_map([], BOX, 0.1).is_free([0.5] * 3), None, None),
    # one point
    "Pose-1x3": (lambda: Pose([[0.0, 0.0, 0.0]]), InvalidInput, "(1, 3)"),
    "Pose-2": (lambda: Pose([0.0, 0.0]), InvalidInput, "(2,)"),
    "Pose-4": (lambda: Pose([0.0, 0.0, 0.0, 0.0]), InvalidInput, "(4,)"),
    "Pose-nan": (lambda: Pose(NAN), InvalidInput, "nan"),
    "Pose-orientation-3": (lambda: Pose(A, [1.0, 0.0, 0.0]), InvalidInput, "(3,)"),
    "Pose-orientation-1x4": (lambda: Pose(A, [[1.0, 0.0, 0.0, 0.0]]), InvalidInput, "(1, 4)"),
    "quat_slerp-3": (lambda: quat_slerp([1, 0, 0, 0], [0, 0, 0], 0.5), InvalidInput, "(3,)"),
    "quat_slerp-nan": (lambda: quat_slerp([1, 0, 0, 0], [np.nan, 0, 0, 1], 0.5), InvalidInput,
                       "nan"),
    "contains-2": (lambda: BOX.contains([0.5, 0.5]), InvalidInput, "(2,)"),
    "contains-1x3": (lambda: BOX.contains([[0.5, 0.5, 0.5]]), InvalidInput, "(1, 3)"),
    "contains-nan": (lambda: BOX.contains(NAN) is False, None, None),
    "Bounds-2": (lambda: Bounds((0, 0), (1, 1, 1)), DegenerateBounds, "(2,)"),
    "Bounds-nan": (lambda: Bounds(NAN, (1, 1, 1)), DegenerateBounds, "nan"),
    "origin-1x3": (lambda: CostMap([[0, 0, 0]], 0.1, np.zeros((2, 2, 2)), 0.05),
                   InvalidMapParameter, "(1, 3)"),
    "origin-nan": (lambda: CostMap(NAN, 0.1, np.zeros((2, 2, 2)), 0.05),
                   InvalidMapParameter, "nan"),
    "segment_free-1x3": (lambda: grid_map().segment_free([A], B), InvalidMapParameter, "(1, 3)"),
    "segment_free-4": (lambda: grid_map().segment_free(A, B + [0.0]), InvalidMapParameter,
                       "(4,)"),
    "segment_free-nan": (lambda: grid_map().segment_free(NAN, B) is False, None, None),
    "Scene-object-2": (lambda: Scene(objects={"item": [0.4, 0.0]}), InvalidInput, "'item'"),
    "Scene-object-nan": (lambda: Scene(objects={"box": NAN}), InvalidInput, "'box'"),
    "Scene-gripper-nan": (lambda: Scene(gripper_position=[float("nan"), 0.0, 0.3]), InvalidInput,
                          "gripper position"),
    "Scene-gripper-1x3": (lambda: Scene(gripper_position=[[0.3, 0.0, 0.3]]), InvalidInput,
                          "gripper position"),
    "rrt_path-1x3": (lambda: rrt_path([A], B, grid_map()), PlanningFailure, "(1, 3)"),
    "rrt_path-4": (lambda: rrt_path(A, B + [0.0], grid_map()), PlanningFailure, "(4,)"),
    "rrt_path-nan": (lambda: rrt_path(A, NAN, grid_map()), PlanningFailure, "nan"),
    # map scalars
    "build_cost_map-voxel-bool": (lambda: build_cost_map([[0.5] * 3], BOX, voxel_size=True),
                                  InvalidMapParameter, "voxel_size"),
    "build_cost_map-radius-bool": (lambda: build_cost_map([[0.5] * 3], BOX, inflation_radius=False),
                                   InvalidMapParameter, "inflation_radius"),
    "build_cost_map-float32": (lambda: build_cost_map(
        [[0.5] * 3], BOX, np.float32(0.1), np.float32(0.05)).is_free(A),
        None, None),
    "CostMap-voxel-bool": (lambda: CostMap([0, 0, 0], True, np.zeros((2, 2, 2)), 0.05),
                           InvalidMapParameter, "voxel_size"),
    # counts
    "TimeStep-t-float": (lambda: TimeStep.from_dict(step_record(2.9)), InvalidInput, "2.9"),
    "TimeStep-t-bool": (lambda: TimeStep.from_dict(step_record(True)), InvalidInput, "True"),
    "TimeStep-t-negative": (lambda: TimeStep.from_dict(step_record(-1)), InvalidInput, "-1"),
    "TimeStep-t-numpy": (lambda: TimeStep.from_dict(step_record(np.int64(2))).t == 2, None, None),
    "segment-start-float": (lambda: InteractionSegment.from_dict(
        {"demo_id": "d", "start": 0.5, "end": 3.7, "kind": "full"}), InvalidInput, "0.5"),
    "segment-end-float": (lambda: InteractionSegment.from_dict(
        {"demo_id": "d", "start": 0, "end": 3.7, "kind": "full"}), InvalidInput, "3.7"),
    "keyframes-float": (lambda: atomic_task([1.5, 3]), InvalidInput, "1.5"),
    "keyframes-numpy": (lambda: atomic_task([np.int64(1), 3]).keyframes == (1, 3), None, None),
    "ExecutorConfig-m-numpy": (lambda: ExecutorConfig(chaining_m=np.int64(6)).chaining_m == 6,
                               None, None),
    "ExecutorConfig-m-bool": (lambda: ExecutorConfig(chaining_m=True), ConfigError, "True"),
    "ExecutorConfig-m-float": (lambda: ExecutorConfig(chaining_m=6.0), ConfigError, "6.0"),
    "ExecutorConfig-m-negative": (lambda: ExecutorConfig(chaining_m=-1), ConfigError, "-1"),
    "ExecutorConfig-sigma-float32": (
        lambda: ExecutorConfig(noise_sigma=np.float32(0.01)).noise_sigma > 0, None, None),
    "ExecutorConfig-sigma-float64": (
        lambda: ExecutorConfig(noise_sigma=np.float64(0.01)).noise_sigma > 0, None, None),
    "ExecutorConfig-sigma-bool": (lambda: ExecutorConfig(noise_sigma=True), ConfigError, "True"),
    "ExecutorConfig-sigma-nan": (lambda: ExecutorConfig(noise_sigma=np.float32("nan")),
                                 ConfigError, "nan"),
    "ExperimentConfig-numpy": (lambda: ExperimentConfig(
        chaining_m=np.int64(6), noise_sigma=np.float32(0.01), episodes=np.int32(2),
        seeds=[np.int64(0), 1]).validate(load_registry()) == [], None, None),
    "reset-seed-float": (lambda: reset(load_registry().get("open_drawer"), 1.5), ConfigError,
                         "1.5"),
    "reset-seed-bool": (lambda: reset(load_registry().get("open_drawer"), True), ConfigError,
                        "True"),
    "reset-seed-numpy": (lambda: reset(load_registry().get("open_drawer"), np.int64(1))
                         .objects == reset(load_registry().get("open_drawer"), 1).objects,
                         None, None),
    "named_rng-seed-negative": (lambda: named_rng(-1, "open drawer"), ConfigError, "-1"),
    "chain_skills-m-bool": (lambda: chain_skills(Pose(A), Pose(B), grid_map(), True),
                            ConfigError, "True"),
    "chain_skills-numpy": (lambda: len(chain_skills(Pose(A), Pose(B), grid_map(), np.int64(2),
                                                    np.int32(3)).poses) == 2, None, None),
    "rrt_path-seed-float": (lambda: rrt_path(A, B, grid_map(), 1.5), ConfigError, "1.5"),
    "decompose-epsilon-nan": (lambda: DecompositionConfig(velocity_epsilon=float("nan")),
                              ConfigError, "nan"),
    "decompose-epsilon-inf": (lambda: DecompositionConfig(velocity_epsilon=float("inf")),
                              ConfigError, "inf"),
    "decompose-epsilon-zero": (lambda: DecompositionConfig(velocity_epsilon=0.0), ConfigError,
                               "0.0"),
    "decompose-epsilon-float32": (
        lambda: DecompositionConfig(velocity_epsilon=np.float32(0.01)) is not None, None, None),
    "decompose-gap-float": (lambda: DecompositionConfig(min_keyframe_gap=1.5), ConfigError,
                            "1.5"),
    "decompose-gap-bool": (lambda: DecompositionConfig(min_keyframe_gap=True), ConfigError,
                           "True"),
    "decompose-gap-zero": (lambda: DecompositionConfig(min_keyframe_gap=0), ConfigError, "0"),
    "decompose-gap-numpy": (lambda: DecompositionConfig(min_keyframe_gap=np.int64(2))
                            is not None, None, None),
    "decompose-mode-quarter": (lambda: DecompositionConfig(mode="quarter"), ConfigError,
                               "'quarter'"),
    # policy noise: the config rule, once per script
    "oracle_policy-sigma-negative": (lambda: drawer_policy(-0.1), ConfigError, "noise_sigma"),
    "oracle_policy-sigma-nan": (lambda: drawer_policy(float("nan")), ConfigError, "nan"),
    "oracle_policy-sigma-inf": (lambda: drawer_policy(float("inf")), ConfigError, "inf"),
    "oracle_policy-sigma-float32": (lambda: len(drawer_policy(np.float32(0.01))) > 0, None, None),
    "noised_script-sigma-nan": (lambda: noised_script("open drawer", [], float("nan"), 0),
                                ConfigError, "noise_sigma"),
    "ExecutorConfig-sigma-negative": (lambda: ExecutorConfig(noise_sigma=-0.1), ConfigError,
                                      "-0.1"),
    "ExecutorConfig-sigma-inf": (lambda: ExecutorConfig(noise_sigma=float("inf")), ConfigError,
                                 "inf"),
    # planner endpoint timeout: a positive finite number of seconds
    "EndpointConfig-timeout-negative": (lambda: endpoint(-1), ConfigError, "timeout"),
    "EndpointConfig-timeout-zero": (lambda: endpoint(0), ConfigError, "timeout"),
    "EndpointConfig-timeout-bool": (lambda: endpoint(True), ConfigError, "True"),
    "EndpointConfig-timeout-nan": (lambda: endpoint(float("nan")), ConfigError, "nan"),
    "EndpointConfig-timeout-inf": (lambda: endpoint(float("inf")), ConfigError, "inf"),
    "EndpointConfig-timeout-int": (lambda: endpoint(5).timeout == 5, None, None),
    # scene facts, task specs and tolerances
    "SceneSummary-fraction-above": (lambda: SceneSummary(drawer_open_fraction=1.5), InvalidInput,
                                    "1.5"),
    "SceneSummary-fraction-nan": (lambda: SceneSummary(drawer_open_fraction=float("nan")),
                                  InvalidInput, "nan"),
    "SceneSummary-location-object": (
        lambda: SceneSummary(inventory=("item",), locations={"box": "on_table"}), InvalidInput,
        "'box'"),
    "SceneSummary-location-name": (
        lambda: SceneSummary(inventory=("item",), locations={"item": "on_moon"}), InvalidInput,
        "'on_moon'"),
    "TaskSpec-plan-empty": (lambda: TaskSpec(id="idle", instruction="idle", predicate="drawer_open",
                                             initializer="drawer_closed", plan=()),
                            InvalidInput, "'idle'"),
    "is_goal_reached-tol_pos-zero": (lambda: is_goal_reached(Pose(A), Pose(A), 0.0, 0.1),
                                     InvalidInput, "tol_pos"),
    "is_goal_reached-tol_ang-nan": (lambda: is_goal_reached(Pose(A), Pose(A), 0.01, float("nan")),
                                    InvalidInput, "tol_ang"),
    "Scene-fraction-above": (lambda: Scene(drawer_present=True, open_fraction=5.0), InvalidInput,
                             "5.0"),
    "Scene-fraction-nan": (lambda: Scene(drawer_present=True, open_fraction=float("nan")),
                           InvalidInput, "nan"),
    "Scene-fraction-numpy": (lambda: Scene(drawer_present=True, open_fraction=np.float32(0.5))
                             .open_fraction == 0.5, None, None),
}


@pytest.mark.parametrize("call, error, named", ROWS.values(), ids=ROWS.keys())
def test_every_entry_point_refuses_a_bad_input_by_name(call, error, named):
    if error is None:
        assert call()
        return
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, DecoError)
    assert named in str(info.value)


def test_a_demo_file_with_a_fractional_time_index_names_the_line_and_value(tmp_path):
    path = tmp_path / "demos.jsonl"
    path.write_text(json.dumps({"id": "d", "instruction": "grab",
                                "steps": [step_record(0), step_record(2.9)]}) + "\n")
    with pytest.raises(MalformedDemo, match=f"{path} line 1: InvalidInput: time index must be "
                                            "a non-negative integer, got 2.9"):
        load_demos(path)


def test_records_store_numpy_integer_indices_as_plain_ints(tmp_path):
    step = TimeStep(np.int64(2), Pose([0.3, 0, 0.3]), GripperState.OPEN, 0.0)
    assert type(step.t) is int and json.loads(json.dumps(step.to_dict()))["t"] == 2
    demo = Demonstration("d", "grab", [TimeStep(np.int32(t), Pose(A), GripperState.OPEN, 0.0)
                                       for t in range(3)])
    save_demos([demo], tmp_path / "demos.jsonl")
    assert [d.to_dict() for d in load_demos(tmp_path / "demos.jsonl")] == [demo.to_dict()]
    task = AtomicTask(InteractionSegment("d", np.int64(0), np.uint8(3), SegmentKind.FULL), "grab",
                      Pose(A), [np.int64(1), np.int16(3)], demo.steps)
    assert [type(v) for v in (task.segment.start, task.segment.end, *task.keyframes)] == [int] * 4
    save_atomic_tasks([task], tmp_path / "tasks.jsonl")
    assert load_atomic_tasks(tmp_path / "tasks.jsonl")[0].to_dict() == task.to_dict()


def test_a_refusal_that_was_a_value_error_stays_one():
    for error in (InvalidInput, InvalidMapParameter, DegenerateBounds, ConfigError):
        assert issubclass(error, ValueError)


def test_the_count_and_number_rules():
    for count in (0, 7, np.int64(3), np.int32(0), np.uint8(2), 10 ** 40):
        assert is_count(count) and is_number(count)
    for bad in (True, False, 1.0, np.float64(2.0), "1", None, -1, np.int64(-1)):
        assert not is_count(bad)
    assert is_count(1, 1) and not is_count(0, 1)
    for number in (0.0, 0.5, np.float32(0.01), np.float64(0.01), np.float16(1.0), 3):
        assert is_number(number)
    for bad in (True, -0.5, float("nan"), float("inf"), np.float32("inf"), "0.1", None, 1j):
        assert not is_number(bad)


@st.composite
def point_arrays(draw):
    """A valid input of the point rule: one point or N, of 3 or 4 coordinates,
    NaN and infinity included, as an array or as nested lists (no points are
    the list ``[]``)."""
    dim = draw(st.sampled_from([3, 4]))
    shape = draw(st.sampled_from([(dim,), (0, dim), (1, dim), (2, dim), (7, dim)]))
    array = draw(hnp.arrays(np.float64, shape, elements=st.floats(width=64)))
    return shape, draw(st.sampled_from([array, array.tolist()]))


@PROPERTY_SETTINGS
@given(point_arrays(), st.booleans())
def test_the_point_rule_returns_the_bytes_of_asarray(case, either):
    shape, values = case
    one = None if either else len(shape) == 1
    out = as_points(values, "p", InvalidInput, one=one, dim=shape[-1])
    assert out.tobytes() == np.asarray(values, dtype=float).tobytes()
    assert out.shape == shape
    if isinstance(values, np.ndarray):
        assert out is values


@PROPERTY_SETTINGS
@given(st.sampled_from([3, 4]), st.sampled_from([True, False, None]),
       st.sampled_from([(), (1,), (2,), (5,), (1, 2), (3, 5), (2, 2, 3), (1, 1, 3)]))
def test_the_point_rule_names_every_other_shape(dim, one, shape):
    values = np.zeros(shape)
    # (dim,) is one point unless N are asked for, and (N, dim) N points unless one is
    valid = ((shape == (dim,) and one is not False)
             or (len(shape) == 2 and shape[1] == dim and one is not True))
    if valid:
        return
    with pytest.raises(InvalidInput, match=re.escape("p must ") + ".*"
                       + re.escape(f"{dim} coordinates, got shape {shape}")):
        as_points(values, "p", InvalidInput, one=one, dim=dim)


def test_an_empty_cloud_is_accepted_and_an_empty_point_is_not():
    assert as_points([], "p", InvalidInput, one=False).shape == (0, 3)
    assert as_points([], "p", InvalidInput).shape == (0, 3)
    with pytest.raises(InvalidInput, match=re.escape("p must have 3 coordinates, got shape (0,)")):
        as_points([], "p", InvalidInput, one=True)


def test_the_point_rule_checks_finiteness_only_when_asked():
    assert np.isnan(as_points(NAN, "p", InvalidInput, one=True)[0])
    for values in (NAN, [NAN, [0.0, 0.0, 0.0]]):
        with pytest.raises(InvalidInput, match="p must be finite, got"):
            as_points(values, "p", InvalidInput, finite=True)


# the shape and integer decision: these spellings appear only in the rule functions
DECISIONS = re.compile(r"reshape\(-1, 3\)|numbers\.Integral|isinstance\([^)]*\bbool\b")
RULE_FUNCTIONS = {"geometry.py": "as_points", "config.py": "is_count"}


def decision_lines(package: Path) -> tuple[list[str], set[str]]:
    """Each line of ``package``'s modules that spells a shape or integer
    decision outside a rule function, and the rule functions found."""
    hits, found = [], set()
    for path in sorted(package.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        inside = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef) and RULE_FUNCTIONS.get(path.name) == node.name:
                found.add(node.name)
                inside.update(range(node.lineno, node.end_lineno + 1))
        hits += [f"{path.relative_to(package)}:{number}: {line.strip()}"
                 for number, line in enumerate(text.splitlines(), 1)
                 if number not in inside and DECISIONS.search(line)]
    return hits, found


def test_only_the_rule_functions_decide_shapes_and_integers():
    hits, found = decision_lines(Path(deco.__file__).parent)
    assert found == set(RULE_FUNCTIONS.values())
    assert hits == []


def test_the_guard_finds_a_decision_outside_the_rules(tmp_path):
    (tmp_path / "config.py").write_text(
        "import numbers\n\ndef is_count(v):\n    return isinstance(v, numbers.Integral)\n")
    (tmp_path / "geometry.py").write_text("def as_points(v):\n    return v\n")
    (tmp_path / "other.py").write_text(
        "def f(p, v):\n    return p.reshape(-1, 3), isinstance(v, bool)\n")
    hits, found = decision_lines(tmp_path)
    assert found == {"is_count", "as_points"}
    assert hits == ["other.py:2: return p.reshape(-1, 3), isinstance(v, bool)"]
