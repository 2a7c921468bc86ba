"""Spoofing attack models: HFR removal (with or without salt-and-pepper
noise) and wall injection, applied through a geometric azimuth window."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import FrameDataset
from .errors import ParameterError
from .geometry import PointCloud
from .se3 import PoseSE3
from .simulate import SensorModel

REMOVAL_NO_NOISE = "removal_no_noise"
REMOVAL_NOISE = "removal_noise"
INJECTION = "injection"
ATTACK_MODELS = (REMOVAL_NO_NOISE, REMOVAL_NOISE, INJECTION)

DEFAULT_HALF_WIDTH = math.radians(40.0)
SPOOFER_HEIGHT = 1.0                    # meters above the ground plane


@dataclass(frozen=True)
class AzimuthWindow:
    center: float                       # radians, sensor frame
    half_width: float = DEFAULT_HALF_WIDTH

    def __post_init__(self):
        if not (0 < self.half_width <= math.pi):
            raise ParameterError("half_width must be in (0, pi]")

    def contains(self, azimuths) -> np.ndarray:
        """Membership across the +-pi wrap."""
        diff = np.arctan2(
            np.sin(np.asarray(azimuths) - self.center),
            np.cos(np.asarray(azimuths) - self.center),
        )
        return np.abs(diff) <= self.half_width


@dataclass(frozen=True)
class AttackSpec:
    model: str = REMOVAL_NOISE
    wall_distance: float = 5.0
    layers: int = 10
    noise_range: tuple[float, float] = (1.0, 30.0)
    half_width: float = DEFAULT_HALF_WIDTH
    spoofer_range: float = 18.0         # meters, planar, from the spoofer
    seed: int = 0

    def __post_init__(self):
        if self.model not in ATTACK_MODELS:
            raise ParameterError(f"unknown attack model {self.model!r}")
        if not 0 < self.wall_distance < math.inf:
            raise ParameterError("wall distance must be finite and > 0")
        if self.layers < 1:
            raise ParameterError("need at least 1 injectable layer")
        if not 0 <= self.noise_range[0] < self.noise_range[1] < math.inf:
            raise ParameterError("noise range must satisfy 0 <= r_min < r_max, both finite")
        if not 0 < self.half_width <= math.pi:
            raise ParameterError("half_width must be in (0, pi]")
        if not self.spoofer_range > 0:
            raise ParameterError("spoofer range must be > 0")


def spoof_window(
    victim_pose: PoseSE3, position: tuple[float, float], spec: AttackSpec
) -> AzimuthWindow | None:
    """Window seen by the victim sensor from a spoofer at the world ground
    position `position`, or None when the spoofer is out of range."""
    world = np.array([position[0], position[1], SPOOFER_HEIGHT])
    local = victim_pose.inverse().apply(world.reshape(1, 3))[0]
    planar = math.hypot(local[0], local[1])
    if planar > spec.spoofer_range:
        return None
    return AzimuthWindow(center=math.atan2(local[1], local[0]), half_width=spec.half_width)


def _planar(points: np.ndarray):
    azim = np.arctan2(points[:, 1], points[:, 0])
    rng = np.hypot(points[:, 0], points[:, 1])
    return azim, rng


def apply_removal(
    frame: PointCloud,
    window: AzimuthWindow,
    spec: AttackSpec,
    sensor: SensorModel,
    rng: np.random.Generator,
) -> PointCloud:
    """Delete in-window points; under `REMOVAL_NOISE` replace them
    one-for-one with salt-and-pepper noise (uniform azimuth/elevation/range)."""
    azim, _ = _planar(frame.points)
    inside = window.contains(azim)
    kept = frame.points[~inside]
    if spec.model != REMOVAL_NOISE:
        return PointCloud(kept)
    count = int(np.count_nonzero(inside))
    theta = window.center + rng.uniform(-window.half_width, window.half_width, count)
    vfov = math.radians(sensor.vertical_fov_deg) / 2.0
    phi = rng.uniform(-vfov, vfov, count)
    r = rng.uniform(spec.noise_range[0], spec.noise_range[1], count)
    noise = np.column_stack(
        (r * np.cos(phi) * np.cos(theta), r * np.cos(phi) * np.sin(theta), r * np.sin(phi))
    )
    return PointCloud(np.concatenate([kept, noise], axis=0))


def apply_injection(
    frame: PointCloud,
    window: AzimuthWindow,
    spec: AttackSpec,
    sensor: SensorModel,
) -> PointCloud:
    """Inject a wall arc at fixed planar range across the window.

    The wall occludes original in-window points farther than the wall;
    nearer points survive. The arc is sampled at the sensor's horizontal
    resolution on min(layers, rings) rings centered on the horizon.
    """
    if spec.wall_distance >= sensor.max_range:
        raise ParameterError("wall distance must be below the sensor max range")

    azim, planar = _planar(frame.points)
    inside = window.contains(azim)
    occluded = inside & (planar > spec.wall_distance)
    kept = frame.points[~occluded]

    res = math.radians(sensor.horizontal_resolution_deg)
    steps = int(round(2.0 * window.half_width / res))
    steps = max(steps, 1)
    theta = window.center - window.half_width + (np.arange(steps) + 0.5) * res

    elev = sensor.ring_elevations()
    order = np.argsort(np.abs(elev), kind="stable")
    rings = np.sort(elev[order[: min(spec.layers, len(elev))]])

    d = spec.wall_distance
    tt, pp = np.meshgrid(theta, rings, indexing="ij")
    wall = np.column_stack(
        (
            d * np.cos(tt).ravel(),
            d * np.sin(tt).ravel(),
            d * np.tan(pp).ravel(),
        )
    )
    # Cylindrical wall points can exceed the spherical max range at steep
    # elevations; the sensor would not report those.
    norm = np.linalg.norm(wall, axis=1)
    wall = wall[norm <= sensor.max_range]
    return PointCloud(np.concatenate([kept, wall], axis=0))


def apply_attack(
    frame: PointCloud,
    window: AzimuthWindow,
    spec: AttackSpec,
    sensor: SensorModel,
    rng: np.random.Generator,
) -> PointCloud:
    if spec.model == INJECTION:
        return apply_injection(frame, window, spec, sensor)
    return apply_removal(frame, window, spec, sensor, rng)


def attack_dataset(
    dataset: FrameDataset,
    position: tuple[float, float],
    spec: AttackSpec,
    sensor: SensorModel,
) -> FrameDataset:
    """Apply the attack frame-by-frame from a spoofer at the world ground
    position `position`, aiming at the dataset's ground-truth pose.

    Frames for which the spoofer is out of range pass through as the same
    objects; every other frame is a new PointCloud. Per-frame noise streams
    are derived from (spec.seed, frame id), so the result is deterministic.
    """
    if dataset.ground_truth is None:
        raise ParameterError("attack needs the dataset's ground truth (groundtruth.txt)")
    if not all(map(math.isfinite, position)):
        raise ParameterError(f"spoofer position {tuple(position)} must be finite")
    frames = []
    for i, frame in enumerate(dataset.frames):
        window = spoof_window(dataset.ground_truth.poses[i], position, spec)
        if window is None:
            frames.append(frame)
            continue
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([spec.seed, i]))
        )
        frames.append(apply_attack(frame, window, spec, sensor, rng))
    return FrameDataset(frames, list(dataset.timestamps), dataset.ground_truth)
