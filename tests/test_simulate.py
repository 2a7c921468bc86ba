import math

import numpy as np
import pytest

from smvslab.errors import ParameterError
from smvslab.geometry import PointCloud
from smvslab.se3 import PoseSE3
from smvslab.simulate import (
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


def test_sensor_validation():
    with pytest.raises(ParameterError):
        SensorModel(max_range=0.0)
    with pytest.raises(ParameterError):
        SensorModel(rings=0)
    with pytest.raises(ParameterError):
        SensorModel(horizontal_resolution_deg=0.0)


# ---------------------------------------------------------------- scenes


def test_patch_rejects_parallel_edges():
    with pytest.raises(ParameterError):
        Patch((0, 0, 0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0))


def test_archetype_scenes_build():
    assert len(build_scene(SceneSpec(archetype="canyon")).patches) == 2
    assert len(build_scene(SceneSpec(archetype="open-wall")).patches) == 2
    assert len(build_scene(SceneSpec(archetype="mixed")).patches) > 4
    with pytest.raises(ParameterError):
        build_scene(SceneSpec(archetype="nope"))
    with pytest.raises(ParameterError):
        build_scene(SceneSpec(archetype="custom"))


def test_scene_helpers_patch_counts():
    assert len(canyon_patches(50, 12, 5)) == 2
    assert len(open_corner_patches(0, 20, -10, 5)) == 2
    assert mixed_course_scene().ground


# ---------------------------------------------------------------- raycasting


def test_raycast_ground_plane_geometry():
    # Sensor at 1.5 m over an infinite ground plane: every return obeys
    # z_local = -1.5 exactly (noise off).
    scene = Scene((), ground=True)
    pose = PoseSE3.from_rpy(0, 0, 0, (3.0, -2.0, 1.5))
    sensor = SensorModel(rings=8, vertical_fov_deg=60.0, horizontal_resolution_deg=10.0)
    cloud = raycast_frame(scene, pose, sensor, seed=0)
    assert len(cloud) > 0
    assert np.allclose(cloud.points[:, 2], -1.5, atol=1e-9)
    assert np.all(np.linalg.norm(cloud.points, axis=1) <= sensor.max_range + 1e-9)


def test_raycast_wall_hit_distance():
    # A wall 10 m ahead: the horizon ray along +x must return exactly 10 m.
    wall = Patch((10.0, -5.0, 0.0), (0.0, 10.0, 0.0), (0.0, 0.0, 5.0))
    scene = Scene((wall,), ground=False)
    pose = PoseSE3.from_rpy(0, 0, 0, (0.0, 0.0, 1.5))
    sensor = SensorModel(rings=1, horizontal_resolution_deg=45.0)
    cloud = raycast_frame(scene, pose, sensor, seed=0)
    forward = cloud.points[np.argmax(cloud.points[:, 0])]
    assert forward == pytest.approx([10.0, 0.0, 0.0], abs=1e-9)


def test_raycast_nearest_surface_wins():
    near = Patch((5.0, -5.0, 0.0), (0.0, 10.0, 0.0), (0.0, 0.0, 5.0))
    far = Patch((20.0, -5.0, 0.0), (0.0, 10.0, 0.0), (0.0, 0.0, 5.0))
    scene = Scene((near, far), ground=False)
    pose = PoseSE3.from_rpy(0, 0, 0, (0.0, 0.0, 1.5))
    sensor = SensorModel(rings=1, horizontal_resolution_deg=45.0)
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
