import numpy as np
import pytest
from scipy.linalg import expm

from smvslab.errors import ParameterError
from local_hessians import skew, skew_batch
from smvslab.se3 import PoseSE3, exp_twist, left_update


def matrix(pose):
    """The 4x4 homogeneous matrix of a pose."""
    m = np.eye(4)
    m[:3, :3] = pose.rotation_matrix()
    m[:3, 3] = pose.translation
    return m


def random_pose(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return PoseSE3(q, rng.normal(size=3))


def test_identity_roundtrip():
    p = PoseSE3.identity()
    pts = np.random.default_rng(0).normal(size=(5, 3))
    assert np.allclose(p.apply(pts), pts)
    assert np.allclose(matrix(p), np.eye(4))


def test_quaternion_norm_validated():
    with pytest.raises(ParameterError):
        PoseSE3((1.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def test_quaternion_sign_canonical():
    rng = np.random.default_rng(1)
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    a = PoseSE3(q, (0, 0, 0))
    b = PoseSE3(-q, (0, 0, 0))
    assert np.allclose(a.quat, b.quat)
    assert a.quat[3] >= 0


def test_compose_matches_matrix_product():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a, b = random_pose(rng), random_pose(rng)
        assert np.allclose(matrix(a.compose(b)), matrix(a) @ matrix(b))


def test_inverse_matches_matrix_inverse():
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = random_pose(rng)
        assert np.allclose(matrix(p.inverse()), np.linalg.inv(matrix(p)))


def test_apply_matches_homogeneous_transform():
    rng = np.random.default_rng(4)
    p = random_pose(rng)
    pts = rng.normal(size=(20, 3))
    hom = np.column_stack([pts, np.ones(len(pts))])
    expected = (hom @ matrix(p).T)[:, :3]
    assert np.allclose(p.apply(pts), expected)


def test_exp_twist_matches_matrix_exponential():
    # Rotation block of Exp should agree with expm of the skew matrix.
    rng = np.random.default_rng(5)
    for _ in range(10):
        w = rng.normal(size=3)
        pose = exp_twist(np.concatenate([w, np.zeros(3)]))
        assert np.allclose(pose.rotation_matrix(), expm(skew(w)), atol=1e-12)


def test_exp_twist_translation_is_verbatim():
    v = np.array([0.1, -0.2, 0.3])
    pose = exp_twist(np.concatenate([np.zeros(3), v]))
    assert np.allclose(pose.translation, v)
    assert np.allclose(pose.rotation_matrix(), np.eye(3))


def test_exp_twist_rejects_nonfinite():
    with pytest.raises(ParameterError):
        exp_twist([np.nan, 0, 0, 0, 0, 0])


def test_left_update_is_left_multiplication():
    rng = np.random.default_rng(6)
    pose = random_pose(rng)
    delta = 0.1 * rng.normal(size=6)
    updated = left_update(pose, delta)
    expected = matrix(exp_twist(delta)) @ matrix(pose)
    assert np.allclose(matrix(updated), expected)


def test_yaw_of_planar_rotation():
    for ang in (-2.0, -0.5, 0.0, 0.7, 3.0):
        p = PoseSE3.from_rpy(0.0, 0.0, ang)
        expected = np.arctan2(np.sin(ang), np.cos(ang))
        assert abs(p.yaw() - expected) < 1e-12


def test_rotation_angle_to():
    a = PoseSE3.from_rpy(0.0, 0.0, 0.2)
    b = PoseSE3.from_rpy(0.0, 0.0, 0.9)
    assert abs(a.rotation_angle_to(b) - 0.7) < 1e-12
    assert abs(b.rotation_angle_to(a) - 0.7) < 1e-12


def test_skew_antisymmetry_and_cross_product():
    rng = np.random.default_rng(7)
    v, w = rng.normal(size=3), rng.normal(size=3)
    s = skew(v)
    assert np.allclose(s, -s.T)
    assert np.allclose(s @ w, np.cross(v, w))


def test_skew_batch_matches_single():
    rng = np.random.default_rng(8)
    vs = rng.normal(size=(6, 3))
    batched = skew_batch(vs)
    for i, v in enumerate(vs):
        assert np.allclose(batched[i], skew(v))


def test_pose_arrays_frozen():
    rng = np.random.default_rng(9)
    a, b = random_pose(rng), random_pose(rng)
    delta = 0.1 * rng.normal(size=6)
    for pose in (a, a.compose(b), a.inverse(), left_update(a, delta), exp_twist(delta)):
        with pytest.raises(ValueError):
            pose.quat[0] = 9.0
        with pytest.raises(ValueError):
            pose.translation[0] = 9.0


def test_pose_does_not_alias_caller_translation():
    t = np.array([1.0, 2.0, 3.0])
    pose = PoseSE3((0.0, 0.0, 0.0, 1.0), t)
    t[0] = 9.0
    assert np.array_equal(pose.translation, [1.0, 2.0, 3.0])


def test_exp_twist_accepts_read_only_twist():
    rng = np.random.default_rng(10)
    delta = 0.1 * rng.normal(size=6)
    frozen = delta.copy()
    frozen.setflags(write=False)
    pose = exp_twist(frozen)
    assert np.array_equal(matrix(pose), matrix(exp_twist(delta)))
