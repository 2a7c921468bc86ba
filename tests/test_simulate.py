import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raycast_oracle import raycast_all_rays
from smvslab.errors import ParameterError
from smvslab.geometry import PointCloud
from smvslab.se3 import PoseSE3
from smvslab.simulate import (
    MAX_FRAMES,
    Patch,
    Scene,
    SceneSpec,
    SensorModel,
    TrajectorySpec,
    _polyline_poses,
    build_scene,
    canyon_patches,
    generate_dataset,
    mixed_course_scene,
    open_corner_patches,
    raycast_frame,
)


# ---------------------------------------------------------------- sensor


def test_ring_elevations_symmetric():
    s = SensorModel(rings=16, vertical_fov_deg=30.0)
    elev = s.ring_elevations()
    assert len(elev) == 16
    assert elev[0] == pytest.approx(-math.radians(15.0))
    assert elev[-1] == pytest.approx(math.radians(15.0))
    assert np.allclose(elev, -elev[::-1])


def test_single_ring_sits_on_horizon():
    assert SensorModel(rings=1).ring_elevations() == pytest.approx([0.0])


def test_azimuth_step_count():
    s = SensorModel(horizontal_resolution_deg=1.0)
    assert len(s.azimuth_steps()) == 360
    s = SensorModel(horizontal_resolution_deg=0.4)
    assert len(s.azimuth_steps()) == 900


def test_ray_directions_are_unit():
    dirs = SensorModel(rings=8, horizontal_resolution_deg=5.0).ray_directions()
    assert dirs.shape == (72 * 8, 3)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)


def test_ray_directions_are_computed_once_and_read_only():
    sensor = SensorModel(rings=8, horizontal_resolution_deg=5.0)
    dirs = sensor.ray_directions()
    assert sensor.ray_directions() is dirs
    with pytest.raises(ValueError):
        dirs[0, 0] = 2.0


@pytest.mark.parametrize("rings", [1, 8, 32])
def test_ray_directions_equal_the_meshgrid_formula(rings):
    # The raycast oracle reads `ray_directions()` too; only this check sees
    # a wrong stored array.
    sensor = SensorModel(rings=rings, vertical_fov_deg=40.0, horizontal_resolution_deg=0.4)
    tt, pp = np.meshgrid(sensor.azimuth_steps(), sensor.ring_elevations(), indexing="ij")
    expected = np.column_stack(
        (
            (np.cos(pp) * np.cos(tt)).ravel(),
            (np.cos(pp) * np.sin(tt)).ravel(),
            np.sin(pp).ravel(),
        )
    )
    sensor.ray_directions()
    assert np.array_equal(sensor.ray_directions(), expected)


def test_stored_rays_leave_sensor_equality_and_hash_alone():
    a, b = SensorModel(rings=4), SensorModel(rings=4)
    a.ray_directions()
    assert a == b and hash(a) == hash(b)
    assert a != SensorModel(rings=5)
    assert "_dirs" not in repr(a)


def test_replaced_sensor_gets_its_own_rays():
    a = SensorModel(rings=4, horizontal_resolution_deg=10.0)
    dirs = a.ray_directions()
    same = dataclasses.replace(a)
    assert same.ray_directions() is not dirs
    assert np.array_equal(same.ray_directions(), dirs)
    assert dataclasses.replace(a, rings=6).ray_directions().shape == (36 * 6, 3)
    assert a.ray_directions() is dirs


def test_sensor_validation():
    for bad in (
        {"max_range": 0.0}, {"max_range": -1.0}, {"max_range": math.nan},
        {"rings": 0},
        {"horizontal_resolution_deg": 0.0}, {"horizontal_resolution_deg": -0.4},
        {"horizontal_resolution_deg": math.nan}, {"horizontal_resolution_deg": math.inf},
        {"vertical_fov_deg": 0.0}, {"vertical_fov_deg": -30.0},
        {"vertical_fov_deg": math.nan}, {"vertical_fov_deg": math.inf},
        {"range_noise_sigma": -0.01}, {"range_noise_sigma": math.nan},
        {"range_noise_sigma": math.inf},
    ):
        with pytest.raises(ParameterError):
            SensorModel(**bad)


# ---------------------------------------------------------------- scenes


def test_patch_rejects_parallel_edges():
    with pytest.raises(ParameterError, match="degenerate"):
        Patch((0, 0, 0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0))


def test_patch_keeps_its_plane():
    patch = Patch((1, -2, 0), (0.5, 3.0, -1.0), (2, 0, 4.5))
    u, v = np.asarray(patch.edge_u, float), np.asarray(patch.edge_v, float)
    assert np.array_equal(patch.normal, np.cross(u, v))
    assert np.array_equal(patch.point, [1.0, -2.0, 0.0]) and patch.point.dtype == np.float64
    assert np.array_equal(patch.u, u) and np.array_equal(patch.v, v)
    assert patch.uu == u @ u and patch.vv == v @ v
    with pytest.raises(ValueError):
        patch.normal[0] = 0.0
    # Equality, hash and repr still read only the three fields.
    twin = Patch((1.0, -2.0, 0.0), (0.5, 3.0, -1.0), (2.0, 0.0, 4.5))
    assert patch == twin and hash(patch) == hash(twin)
    assert "normal" not in repr(patch)


def test_archetype_scenes_build():
    assert len(build_scene(SceneSpec(archetype="canyon")).patches) == 2
    assert len(build_scene(SceneSpec(archetype="open-wall")).patches) == 2
    assert len(build_scene(SceneSpec(archetype="mixed")).patches) > 4
    with pytest.raises(ParameterError):
        build_scene(SceneSpec(archetype="nope"))
    with pytest.raises(ParameterError):
        build_scene(SceneSpec(archetype="custom"))


def test_scene_helpers_patch_counts():
    assert len(canyon_patches(50)) == 2
    assert len(open_corner_patches(0, 20, -10)) == 2
    assert mixed_course_scene().ground


# ---------------------------------------------------------------- raycasting


def test_raycast_ground_plane_geometry():
    # Sensor at 1.5 m over an infinite ground plane: every return obeys
    # z_local = -1.5 exactly (noise off).
    scene = Scene((), ground=True)
    pose = PoseSE3.from_rpy(0, 0, 0, (3.0, -2.0, 1.5))
    sensor = SensorModel(
        rings=8, vertical_fov_deg=60.0, horizontal_resolution_deg=10.0, range_noise_sigma=0.0
    )
    cloud = raycast_frame(scene, pose, sensor, seed=0)
    assert len(cloud) > 0
    assert np.allclose(cloud.points[:, 2], -1.5, atol=1e-9)
    assert np.all(np.linalg.norm(cloud.points, axis=1) <= sensor.max_range + 1e-9)


def test_raycast_wall_hit_distance():
    # A wall 10 m ahead: the horizon ray along +x must return exactly 10 m.
    wall = Patch((10.0, -5.0, 0.0), (0.0, 10.0, 0.0), (0.0, 0.0, 5.0))
    scene = Scene((wall,), ground=False)
    pose = PoseSE3.from_rpy(0, 0, 0, (0.0, 0.0, 1.5))
    sensor = SensorModel(rings=1, horizontal_resolution_deg=45.0, range_noise_sigma=0.0)
    cloud = raycast_frame(scene, pose, sensor, seed=0)
    forward = cloud.points[np.argmax(cloud.points[:, 0])]
    assert forward == pytest.approx([10.0, 0.0, 0.0], abs=1e-9)


def test_raycast_nearest_surface_wins():
    near = Patch((5.0, -5.0, 0.0), (0.0, 10.0, 0.0), (0.0, 0.0, 5.0))
    far = Patch((20.0, -5.0, 0.0), (0.0, 10.0, 0.0), (0.0, 0.0, 5.0))
    scene = Scene((near, far), ground=False)
    pose = PoseSE3.from_rpy(0, 0, 0, (0.0, 0.0, 1.5))
    sensor = SensorModel(rings=1, horizontal_resolution_deg=45.0, range_noise_sigma=0.0)
    cloud = raycast_frame(scene, pose, sensor, seed=0)
    assert np.max(cloud.points[:, 0]) == pytest.approx(5.0)


def test_raycast_noise_deterministic():
    scene = Scene((), ground=True)
    pose = PoseSE3.from_rpy(0, 0, 0, (0.0, 0.0, 1.5))
    sensor = SensorModel(rings=4, horizontal_resolution_deg=10.0, range_noise_sigma=0.02)
    a = raycast_frame(scene, pose, sensor, seed=7)
    b = raycast_frame(scene, pose, sensor, seed=7)
    c = raycast_frame(scene, pose, sensor, seed=8)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


COORD = st.floats(-30.0, 30.0)
# Whole metres and right angles put some rays exactly on patch edges.
ANGLE = st.one_of(
    st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi]), st.floats(-math.pi, math.pi)
)


def metres(lo, hi):
    return st.one_of(st.integers(int(lo), int(hi)).map(float), st.floats(lo, hi))


@st.composite
def oblique_patches(draw):
    """Patches of any orientation: corner and edges drawn freely, edges kept
    from being parallel."""
    while True:
        corner, u, v = (tuple(draw(st.tuples(COORD, COORD, COORD))) for _ in range(3))
        if np.linalg.norm(np.cross(u, v)) >= 1e-3:
            return Patch(corner, u, v)


@st.composite
def raycast_problems(draw):
    """A scene in any patch order (so far patches also come before near ones),
    a sensor and a pose."""
    archetype = draw(st.sampled_from(["canyon", "open-wall", "mixed", "oblique"]))
    if archetype == "oblique":
        patches = draw(st.lists(oblique_patches(), min_size=1, max_size=6))
    else:
        patches = build_scene(SceneSpec(archetype, draw(st.sampled_from([12.0, 100.0])))).patches
    scene = Scene(tuple(draw(st.permutations(patches))), ground=draw(st.booleans()))
    sensor = SensorModel(
        rings=draw(st.integers(1, 64)),
        vertical_fov_deg=draw(st.floats(1.0, 90.0)),
        horizontal_resolution_deg=draw(st.sampled_from([0.4, 1.0, 2.0, 7.5])),
        max_range=draw(st.sampled_from([12.0, 30.0, 50.0, 120.0])),
        range_noise_sigma=draw(st.sampled_from([0.0, 0.01, 0.05])),
    )
    rpy = draw(st.tuples(ANGLE, ANGLE, ANGLE))
    xyz = draw(st.tuples(metres(-15.0, 45.0), metres(-8.0, 8.0), metres(0.2, 4.0)))
    return scene, PoseSE3.from_rpy(*rpy, xyz), sensor, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(raycast_problems())
def test_raycast_equals_the_all_rays_oracle(problem):
    # Casting the ground plane first and culling the rays a patch can no
    # longer win move no bit of the sweep.
    scene, pose, sensor, seed = problem
    got = raycast_frame(scene, pose, sensor, seed=seed)
    with np.errstate(over="ignore"):  # rays (nearly) parallel to a plane
        expected = raycast_all_rays(scene, pose, sensor, seed=seed)
    assert np.array_equal(got.points, expected.points)


# ---------------------------------------------------------------- trajectories


def test_polyline_frame_count_and_heading():
    spec = TrajectorySpec(waypoints=((0.0, 0.0), (12.0, 0.0)), speed=6.0, frame_rate=10.0)
    poses = _polyline_poses(spec)
    assert len(poses) == 20  # 12 m at 0.6 m per frame
    assert poses[0].translation == pytest.approx([0.0, 0.0, 1.5])
    assert poses[5].translation == pytest.approx([3.0, 0.0, 1.5])
    assert poses[3].yaw() == pytest.approx(0.0)


def test_polyline_turns_at_waypoints():
    spec = TrajectorySpec(
        waypoints=((0.0, 0.0), (6.0, 0.0), (6.0, 6.0)), speed=6.0, frame_rate=10.0
    )
    poses = _polyline_poses(spec)
    assert poses[0].yaw() == pytest.approx(0.0)
    assert poses[-1].yaw() == pytest.approx(math.pi / 2)


def test_trajectory_spec_validation():
    with pytest.raises(ParameterError):
        TrajectorySpec(waypoints=((0.0, 0.0),))
    with pytest.raises(ParameterError):
        TrajectorySpec(waypoints=((0.0, 0.0), (1.0, 0.0)), speed=0.0)
    with pytest.raises(ParameterError):
        _polyline_poses(TrajectorySpec(waypoints=((0.0, 0.0), (0.0, 0.0))))
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="finite"):
            TrajectorySpec(waypoints=((0.0, 0.0), (1.0, 0.0)), speed=bad)
        with pytest.raises(ParameterError, match="finite"):
            TrajectorySpec(waypoints=((0.0, 0.0), (1.0, 0.0)), frame_rate=bad)
        with pytest.raises(ParameterError, match="finite"):
            TrajectorySpec(waypoints=((0.0, 0.0), (bad, 0.0)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_polyline_frame_limit(monkeypatch):
    # The bound is checked before any pose is built.
    def built(*args, **kwargs):
        raise AssertionError("a pose was built")

    monkeypatch.setattr(PoseSE3, "from_rpy", built)
    step = 0.6
    for length in (1e300, step * (MAX_FRAMES + 1)):
        spec = TrajectorySpec(waypoints=((0.0, 0.0), (length, 0.0)), speed=6.0, frame_rate=10.0)
        with pytest.raises(ParameterError, match=f"{MAX_FRAMES} frames"):
            _polyline_poses(spec)


@pytest.mark.parametrize("length", [math.nan, math.inf, 0.0, -5.0])
def test_scene_spec_rejects_bad_length(length):
    with pytest.raises(ParameterError, match="scene length"):
        SceneSpec(archetype="canyon", length=length)


# ---------------------------------------------------------------- datasets


def test_generate_dataset_ground_truth_consistent():
    scene = build_scene(SceneSpec(archetype="canyon", length=20.0))
    spec = TrajectorySpec(waypoints=((0.0, 0.0), (18.0, 0.0)), speed=6.0, frame_rate=5.0)
    sensor = SensorModel(rings=4, horizontal_resolution_deg=5.0, max_range=20.0)
    ds = generate_dataset(scene, spec, sensor, seed=3)
    assert len(ds) == len(ds.ground_truth) == 15
    assert all(len(f) > 0 for f in ds.frames)


def test_generate_dataset_deterministic():
    scene = Scene((), ground=True)
    spec = TrajectorySpec(waypoints=((0.0, 0.0), (6.0, 0.0)), speed=6.0, frame_rate=5.0)
    sensor = SensorModel(rings=2, horizontal_resolution_deg=15.0, range_noise_sigma=0.02)
    a = generate_dataset(scene, spec, sensor, seed=5)
    b = generate_dataset(scene, spec, sensor, seed=5)
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa.points, fb.points)
