import numpy as np
import pytest

from deco.errors import OutOfBounds
from deco.geometry import Pose
from deco.sim.scene import (DRAWER_TRAVEL, HANDLE_NAME, HOME, Action,
                            GripperCommand, Scene, SimObject, point_cloud, step)
from deco.trajectory import GripperState


def act(pos, grip=GripperCommand.HOLD):
    return Action(Pose(np.asarray(pos, dtype=float)), grip)


def drawer_scene(fraction=0.0):
    return Scene(drawer_present=True, open_fraction=fraction)


def test_step_rejects_out_of_workspace():
    with pytest.raises(OutOfBounds):
        step(Scene(), act([5.0, 0.0, 0.0]))


def test_step_moves_gripper_and_preserves_input_scene():
    s0 = Scene()
    s1 = step(s0, act([0.4, 0.1, 0.2]))
    assert np.allclose(s1.gripper_position, [0.4, 0.1, 0.2])
    assert np.allclose(s0.gripper_position, HOME)


def test_grasp_nearest_object_within_radius():
    s = Scene(objects={"item": SimObject("block", np.array([0.4, 0.0, 0.02]))})
    s = step(s, act([0.4, 0.0, 0.05]))
    s = step(s, act([0.4, 0.0, 0.02], GripperCommand.CLOSE))
    assert s.held_object == "item"
    assert s.objects["item"].held
    s = step(s, act([0.4, 0.2, 0.10]))
    assert np.allclose(s.objects["item"].position, [0.4, 0.2, 0.10])
    s = step(s, act([0.4, 0.2, 0.10], GripperCommand.OPEN))
    assert s.held_object is None
    assert not s.objects["item"].held


def test_grasp_misses_far_object():
    s = Scene(objects={"item": SimObject("block", np.array([0.4, 0.0, 0.02]))})
    s = step(s, act([0.6, 0.3, 0.3], GripperCommand.CLOSE))
    assert s.held_object is None
    assert s.gripper_state is GripperState.CLOSED


def test_handle_pull_opens_drawer_and_shifts_contents():
    s = drawer_scene(0.0)
    s.objects["item"] = SimObject("block", np.array([0.62, -0.28, 0.05]))
    handle = s.handle_position()
    s = step(s, act(handle))
    s = step(s, act(handle, GripperCommand.CLOSE))
    assert s.held_object == HANDLE_NAME
    s = step(s, act(handle - np.array([DRAWER_TRAVEL, 0, 0])))
    assert s.open_fraction == pytest.approx(1.0)
    assert np.allclose(s.objects["item"].position, [0.47, -0.28, 0.05])
    s = step(s, act(s.gripper_position, GripperCommand.OPEN))
    assert s.held_object is None


def test_handle_push_closes_drawer():
    s = drawer_scene(1.0)
    handle = s.handle_position()
    s = step(s, act(handle, GripperCommand.CLOSE))
    s = step(s, act(handle + np.array([DRAWER_TRAVEL, 0, 0])))
    assert s.open_fraction == pytest.approx(0.0)


def test_lateral_sweep_through_drawer_slams_it():
    s = drawer_scene(1.0)
    s = step(s, act([0.30, -0.25, 0.08]))
    before = s.drawer_slams
    s = step(s, act([0.60, -0.25, 0.08]))  # straight through the tray walls
    assert s.drawer_slams == before + 1
    assert s.open_fraction == pytest.approx(0.15)
    assert s.collision_count > 0


def test_vertical_descent_into_tray_is_exempt():
    s = drawer_scene(1.0)
    s = step(s, act([0.47, -0.25, 0.30]))
    s = step(s, act([0.47, -0.25, 0.06]))  # straight down into the open tray
    assert s.drawer_slams == 0
    assert s.open_fraction == pytest.approx(1.0)


def test_slam_shifts_tray_contents():
    s = drawer_scene(1.0)
    s.objects["item"] = SimObject("block", np.array([0.47, -0.25, 0.05]))
    s = step(s, act([0.30, -0.25, 0.08]))
    s = step(s, act([0.60, -0.25, 0.08]))
    # tray snapped from fraction 1.0 to 0.15: contents move +x by 0.85 * travel
    assert s.objects["item"].position[0] == pytest.approx(0.47 + 0.85 * DRAWER_TRAVEL)


def test_holding_handle_suppresses_drawer_collision():
    s = drawer_scene(1.0)
    handle = s.handle_position()
    s = step(s, act(handle))
    collisions = s.collision_count
    s = step(s, act(handle, GripperCommand.CLOSE))
    s = step(s, act(handle + np.array([DRAWER_TRAVEL, 0, 0])))
    assert s.drawer_slams == 0
    assert s.collision_count == collisions


def test_collisions_counted_but_never_block():
    s = Scene(cupboard_present=True)
    s = step(s, act([0.65, 0.25, 0.40]))
    s = step(s, act([0.65, 0.25, 0.20]))  # down through the cupboard top
    assert s.collision_count >= 1
    assert np.allclose(s.gripper_position, [0.65, 0.25, 0.20])


def test_broom_sweeps_nearby_rubbish():
    s = Scene(dustpan_present=True,
              objects={"broom": SimObject("broom", np.array([0.30, 0.10, 0.02])),
                       "rubbish_0": SimObject("rubbish", np.array([0.35, 0.11, 0.01])),
                       "rubbish_1": SimObject("rubbish", np.array([0.35, 0.30, 0.01]))})
    s = step(s, act([0.30, 0.10, 0.02], GripperCommand.CLOSE))
    assert s.held_object == "broom"
    s = step(s, act([0.40, 0.10, 0.02]))
    assert np.allclose(s.objects["rubbish_0"].position, [0.45, 0.11, 0.01])
    # far rubbish untouched
    assert np.allclose(s.objects["rubbish_1"].position, [0.35, 0.30, 0.01])


def test_broom_vertical_motion_does_not_sweep():
    s = Scene(objects={"broom": SimObject("broom", np.array([0.35, 0.10, 0.02])),
                       "rubbish_0": SimObject("rubbish", np.array([0.35, 0.12, 0.01]))})
    s = step(s, act([0.35, 0.10, 0.02], GripperCommand.CLOSE))
    s = step(s, act([0.35, 0.10, 0.20]))
    assert np.allclose(s.objects["rubbish_0"].position, [0.35, 0.12, 0.01])


def test_rubbish_fraction():
    s = Scene(dustpan_present=True,
              objects={"rubbish_0": SimObject("rubbish", np.array([0.35, 0.30, 0.01])),
                       "rubbish_1": SimObject("rubbish", np.array([0.10, 0.10, 0.01]))})
    assert s.rubbish_in_dustpan_fraction() == pytest.approx(0.5)


def test_point_cloud_counts_cube_faces():
    # 1e4 points/m^2; box half-size 0.025 -> 0.05 cube: each face 0.05*sqrt(1e4)=5 -> 25 pts
    s = Scene(objects={"box": SimObject("box", np.array([0.4, 0.0, 0.05]))})
    cloud = point_cloud(s)
    assert cloud.shape == (150, 3)


def test_point_cloud_includes_rubbish_points():
    s = Scene(objects={"rubbish_0": SimObject("rubbish", np.array([0.4, 0.0, 0.01]))})
    cloud = point_cloud(s)
    assert cloud.shape == (1, 3)
    assert np.allclose(cloud[0], [0.4, 0.0, 0.01])
