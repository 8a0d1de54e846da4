import numpy as np
import pytest

from deco.geometry import (IDENTITY_QUAT, Pose, is_goal_reached, pose_distance,
                           quat_slerp)


def test_pose_normalizes_quaternion():
    p = Pose([0.1, 0.2, 0.3], [2.0, 0.0, 0.0, 0.0])
    assert np.allclose(p.orientation, [1, 0, 0, 0])
    assert np.isclose(np.linalg.norm(p.orientation), 1.0)


def test_pose_arrays_read_only():
    p = Pose([0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        p.position[0] = 9.0
    with pytest.raises(ValueError):
        p.orientation[0] = 9.0


def test_pose_copies_the_callers_array():
    a = np.array([0.3, 0, 0.3])
    p = Pose(a)
    a[0] = 0.5
    assert p.position.tolist() == [0.3, 0.0, 0.3]
    assert a.flags.writeable


def test_pose_rejects_bad_shapes_and_nonfinite():
    with pytest.raises(ValueError):
        Pose([0.1, 0.2])
    with pytest.raises(ValueError):
        Pose([0.1, 0.2, np.nan])
    with pytest.raises(ValueError):
        Pose([0, 0, 0], [0, 0, 0, 0])


def test_pose_distance_translation_only():
    a = Pose([0, 0, 0])
    b = Pose([3, 4, 0])
    d_pos, d_ang = pose_distance(a, b)
    assert np.isclose(d_pos, 5.0)
    assert np.isclose(d_ang, 0.0)


def test_pose_distance_sign_invariant():
    # q and -q are the same rotation
    q = np.array([np.cos(0.3), np.sin(0.3), 0, 0])
    a = Pose([0, 0, 0], q)
    b = Pose([0, 0, 0], -q)
    _, d_ang = pose_distance(a, b)
    assert np.isclose(d_ang, 0.0, atol=1e-9)


def test_pose_distance_known_rotation():
    half = 0.25
    a = Pose([0, 0, 0], IDENTITY_QUAT)
    b = Pose([0, 0, 0], [np.cos(half), np.sin(half), 0, 0])
    _, d_ang = pose_distance(a, b)
    assert np.isclose(d_ang, 2 * half)


def test_is_goal_reached_tolerances():
    goal = Pose([0, 0, 0])
    assert is_goal_reached(Pose([0.005, 0, 0]), goal, 0.01, 0.1)
    assert not is_goal_reached(Pose([0.02, 0, 0]), goal, 0.01, 0.1)
    tilted = Pose([0, 0, 0], [np.cos(0.2), np.sin(0.2), 0, 0])
    assert not is_goal_reached(tilted, goal, 0.01, 0.1)


def test_is_goal_reached_rejects_bad_tolerances():
    with pytest.raises(ValueError):
        is_goal_reached(Pose([0, 0, 0]), Pose([0, 0, 0]), 0.0, 0.1)
    with pytest.raises(ValueError):
        is_goal_reached(Pose([0, 0, 0]), Pose([0, 0, 0]), 0.01, -1.0)


def test_slerp_endpoints_and_midpoint():
    qa = np.array([1.0, 0, 0, 0])
    qb = np.array([np.cos(np.pi / 4), np.sin(np.pi / 4), 0, 0])
    assert np.allclose(quat_slerp(qa, qb, 0.0), qa)
    assert np.allclose(quat_slerp(qa, qb, 1.0), qb)
    mid = quat_slerp(qa, qb, 0.5)
    assert np.isclose(np.linalg.norm(mid), 1.0)
    assert np.allclose(mid, [np.cos(np.pi / 8), np.sin(np.pi / 8), 0, 0])


def test_slerp_takes_shortest_arc():
    qa = np.array([1.0, 0, 0, 0])
    qb = -np.array([np.cos(0.1), np.sin(0.1), 0, 0])
    mid = quat_slerp(qa, qb, 0.5)
    d = abs(float(np.dot(mid, qa)))
    assert 2 * np.arccos(min(d, 1.0)) < 0.2


def test_pose_dict_round_trip():
    p = Pose([0.12345, -0.5, 0.3], [0.9, 0.1, 0.2, 0.3])
    q = Pose.from_dict(p.to_dict())
    assert np.allclose(p.position, q.position)
    assert np.allclose(p.orientation, q.orientation)
