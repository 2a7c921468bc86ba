import math

import numpy as np
import pytest

from smvslab.attacks import (
    ATTACK_MODELS,
    DEFAULT_HALF_WIDTH,
    AttackSpec,
    AzimuthWindow,
    apply_attack,
    apply_injection,
    apply_removal,
    attack_dataset,
    spoof_window,
)
from smvslab.datasets import FrameDataset
from smvslab.errors import ParameterError
from smvslab.geometry import PointCloud
from smvslab.se3 import PoseSE3
from smvslab.simulate import SensorModel
from smvslab.trajectory import Trajectory

# The sensor the CLI builds from its default flags.
SENSOR = SensorModel()


def frame_rng(spec, frame_id=0):
    """The generator `attack_dataset` derives for one frame."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([spec.seed, frame_id])))


def random_frame(seed, n=500, spread=20.0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-spread, spread, size=(n, 3))
    pts[:, 2] = rng.uniform(0.0, 4.0, n)
    return PointCloud(pts)


def planar_angles(points):
    return np.arctan2(points[:, 1], points[:, 0])


# ---------------------------------------------------------------- window


def test_window_default_width_is_80_degrees():
    w = AzimuthWindow(center=0.3)
    assert 2 * w.half_width == pytest.approx(math.radians(80.0))


def test_window_membership_matches_angle_oracle():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-10, 10, size=(10_000, 2))
    angles = np.arctan2(pts[:, 1], pts[:, 0])
    for center in (-3.0, -0.4, 0.0, 2.9):
        w = AzimuthWindow(center=center)
        got = w.contains(angles)
        # Independent oracle via modular arithmetic.
        diff = (angles - center + math.pi) % (2 * math.pi) - math.pi
        expected = np.abs(diff) <= w.half_width
        assert np.array_equal(got, expected)


def test_window_wraps_across_pi():
    w = AzimuthWindow(center=math.pi, half_width=math.radians(40))
    assert w.contains([math.pi - 0.1]).all()
    assert w.contains([-math.pi + 0.1]).all()
    assert not w.contains([0.0]).any()


def test_window_half_width_validation():
    with pytest.raises(ParameterError):
        AzimuthWindow(center=0.0, half_width=0.0)
    with pytest.raises(ParameterError):
        AzimuthWindow(center=0.0, half_width=4.0)


# ---------------------------------------------------------------- spec / spoofer


def test_attack_spec_validation():
    with pytest.raises(ParameterError):
        AttackSpec(model="bogus")
    with pytest.raises(ParameterError):
        AttackSpec(wall_distance=0.0)
    with pytest.raises(ParameterError):
        AttackSpec(layers=0)
    with pytest.raises(ParameterError):
        AttackSpec(noise_range=(5.0, 5.0))
    assert set(ATTACK_MODELS) == {"removal_no_noise", "removal_noise", "injection"}


@pytest.mark.parametrize("kwargs", [
    {"wall_distance": math.nan},
    {"wall_distance": math.inf},
    {"noise_range": (-20.0, 5.0)},
    {"noise_range": (math.nan, 5.0)},
    {"noise_range": (1.0, math.nan)},
    {"noise_range": (1.0, math.inf)},
    {"noise_range": (-math.inf, 5.0)},
    {"half_width": 0.0},
    {"half_width": -1.0},
    {"half_width": math.nan},
    {"half_width": 4.0},
], ids=["nan-wall", "inf-wall", "negative-r-min", "nan-r-min", "nan-r-max",
        "inf-r-max", "minus-inf-r-min", "zero-half-width", "negative-half-width",
        "nan-half-width", "half-width-beyond-pi"])
def test_attack_spec_rejects_non_finite_or_negative_distances(kwargs):
    with pytest.raises(ParameterError):
        AttackSpec(**kwargs)


@pytest.mark.parametrize("position, spoofer_range", [
    ((math.nan, 0.0), 18.0),
    ((0.0, math.inf), 18.0),
    ((0.0, 0.0), math.nan),
    ((0.0, 0.0), 0.0),
    ((0.0, 0.0), -1.0),
], ids=["nan-x", "inf-y", "nan-range", "zero-range", "negative-range"])
def test_spoofer_rejects_non_finite_position_and_bad_range(
    position, spoofer_range, monkeypatch
):
    def aimed(*args, **kwargs):
        raise AssertionError("a frame was aimed at")

    # The range is the spec's, the position attack_dataset's: both fail
    # before the first frame.
    monkeypatch.setattr("smvslab.attacks.spoof_window", aimed)
    with pytest.raises(ParameterError, match="spoofer (position|range)"):
        attack_dataset(make_dataset(), position, AttackSpec(spoofer_range=spoofer_range), SENSOR)


def test_spoof_window_geometry():
    pose = PoseSE3.from_rpy(0.0, 0.0, math.pi / 2, (10.0, 0.0, 1.5))
    window = spoof_window(pose, (10.0, 5.0), AttackSpec(spoofer_range=50.0))
    # Spoofer is straight ahead of the rotated sensor.
    assert window.center == pytest.approx(0.0, abs=1e-9)
    assert window.half_width == DEFAULT_HALF_WIDTH


def test_spoof_window_out_of_range():
    pose = PoseSE3.identity()
    assert spoof_window(pose, (100.0, 0.0), AttackSpec(spoofer_range=18.0)) is None


# ---------------------------------------------------------------- removal


def test_removal_without_noise_never_gains_points():
    frame = random_frame(1)
    window = AzimuthWindow(center=0.5)
    spec = AttackSpec(model="removal_no_noise")
    out = apply_removal(frame, window, spec, SENSOR, frame_rng(spec))
    assert len(out) <= len(frame)
    # Every surviving point is outside the window, every removed one inside.
    assert not window.contains(planar_angles(out.points)).any()
    inside = window.contains(planar_angles(frame.points))
    assert len(out) == len(frame) - int(inside.sum())


def test_removal_with_noise_preserves_count():
    frame = random_frame(2)
    window = AzimuthWindow(center=-1.2)
    spec = AttackSpec(model="removal_noise", noise_range=(1.0, 30.0), seed=3)
    out = apply_removal(frame, window, spec, SENSOR, frame_rng(spec))
    assert len(out) == len(frame)


def test_removal_noise_points_land_inside_window_and_range():
    frame = random_frame(3)
    window = AzimuthWindow(center=2.0)
    spec = AttackSpec(model="removal_noise", noise_range=(2.0, 25.0), seed=4)
    sensor = SENSOR
    out = apply_removal(frame, window, spec, sensor, frame_rng(spec))
    inside_before = int(window.contains(planar_angles(frame.points)).sum())
    noise = out.points[len(frame) - inside_before:]
    assert len(noise) == inside_before
    assert window.contains(planar_angles(noise)).all()
    r = np.linalg.norm(noise, axis=1)
    assert np.all(r >= spec.noise_range[0] - 1e-9)
    assert np.all(r <= spec.noise_range[1] + 1e-9)
    vfov = math.radians(sensor.vertical_fov_deg) / 2
    elev = np.arcsin(noise[:, 2] / r)
    assert np.all(np.abs(elev) <= vfov + 1e-9)


# ---------------------------------------------------------------- injection


def test_injection_occludes_exactly_beyond_wall():
    frame = random_frame(4)
    window = AzimuthWindow(center=0.0)
    spec = AttackSpec(model="injection", wall_distance=6.0)
    sensor = SensorModel(rings=16, horizontal_resolution_deg=1.0)
    out = apply_injection(frame, window, spec, sensor)
    azim = planar_angles(frame.points)
    planar = np.hypot(frame.points[:, 0], frame.points[:, 1])
    occluded = window.contains(azim) & (planar > spec.wall_distance)
    survivors = frame.points[~occluded]
    # The original survivors appear verbatim at the front of the output.
    assert np.array_equal(out.points[: len(survivors)], survivors)
    # All injected points sit on the wall arc at the given planar distance.
    wall = out.points[len(survivors):]
    assert len(wall) > 0
    assert np.allclose(np.hypot(wall[:, 0], wall[:, 1]), spec.wall_distance)
    assert window.contains(planar_angles(wall)).all()


def test_injection_ring_count_capped():
    frame = random_frame(5)
    window = AzimuthWindow(center=0.0)
    sensor = SensorModel(rings=16, horizontal_resolution_deg=1.0, max_range=50.0)
    out_few = apply_injection(
        frame, window, AttackSpec(model="injection", layers=4), sensor
    )
    out_many = apply_injection(
        frame, window, AttackSpec(model="injection", layers=100), sensor
    )
    azim = planar_angles(frame.points)
    planar = np.hypot(frame.points[:, 0], frame.points[:, 1])
    base = int((~(window.contains(azim) & (planar > 5.0))).sum())
    assert (len(out_few) - base) == 4 * 80  # 80 steps across 80 deg at 1 deg
    assert (len(out_many) - base) <= 16 * 80


def test_injection_respects_sensor_max_range():
    frame = random_frame(6)
    window = AzimuthWindow(center=0.0)
    sensor = SensorModel(rings=4, vertical_fov_deg=170.0, max_range=10.0)
    out = apply_injection(
        frame, window, AttackSpec(model="injection", wall_distance=9.0), sensor
    )
    assert np.all(np.linalg.norm(out.points, axis=1) <= max(
        10.0, np.linalg.norm(frame.points, axis=1).max()
    ))


def test_injection_wall_distance_must_be_within_range():
    frame = random_frame(7)
    window = AzimuthWindow(center=0.0)
    sensor = SensorModel(max_range=10.0)
    with pytest.raises(ParameterError):
        apply_injection(
            frame, window, AttackSpec(model="injection", wall_distance=12.0), sensor
        )


# ---------------------------------------------------------------- dataset level


def make_dataset(num_frames=4):
    frames = [random_frame(10 + i) for i in range(num_frames)]
    ts = [0.1 * i for i in range(num_frames)]
    poses = [PoseSE3.from_rpy(0, 0, 0, (2.0 * i, 0.0, 1.5)) for i in range(num_frames)]
    return FrameDataset(frames, ts, Trajectory(ts, poses))


def test_attack_dataset_deterministic():
    ds = make_dataset()
    spec = AttackSpec(model="removal_noise", spoofer_range=50.0, seed=9)
    a = attack_dataset(ds, (3.0, 4.0), spec, SENSOR)
    b = attack_dataset(ds, (3.0, 4.0), spec, SENSOR)
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa.points, fb.points)


def test_attack_dataset_out_of_range_frames_untouched():
    ds = make_dataset()
    # In range only near the start of the course.
    spec = AttackSpec(model="removal_no_noise", spoofer_range=3.5, seed=0)
    out = attack_dataset(ds, (0.0, 3.0), spec, SENSOR)
    assert np.array_equal(out.frames[-1].points, ds.frames[-1].points)
    assert out.frames[-1] is ds.frames[-1]
    assert out.frames[0] is not ds.frames[0]
    assert len(out.frames[0]) < len(ds.frames[0])


def test_attack_dataset_needs_ground_truth():
    ds = make_dataset()
    blind = FrameDataset(ds.frames, ds.timestamps)
    with pytest.raises(ParameterError, match="ground truth"):
        attack_dataset(blind, (0.0, 0.0), AttackSpec(), SENSOR)


def test_apply_attack_dispatches_models():
    frame = random_frame(8)
    window = AzimuthWindow(center=0.0)

    def attack(model):
        spec = AttackSpec(model=model)
        return apply_attack(frame, window, spec, SENSOR, frame_rng(spec))

    removal = attack("removal_no_noise")
    noisy = attack("removal_noise")
    injected = attack("injection")
    assert len(removal) < len(frame)
    assert len(noisy) == len(frame)
    assert len(injected) != len(removal)
