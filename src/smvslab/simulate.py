"""Synthetic worlds, a spinning-LiDAR sensor model and raycast dataset
generation with exact ground truth."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import FrameDataset
from .errors import ParameterError
from .geometry import PointCloud
from .se3 import PoseSE3
from .trajectory import Trajectory

WIDTH = 12.0                # meters between the corridor walls
WALL_HEIGHT = 5.0           # meters
SENSOR_HEIGHT = 1.5         # meters above the ground plane
MAX_FRAMES = 1_000_000      # longest course, in frames, a trajectory may have


@dataclass(frozen=True)
class SensorModel:
    """A spinning LiDAR; the defaults are the sensor the attacks are replayed
    against, and the CLI's."""

    rings: int = 16
    vertical_fov_deg: float = 30.0          # total span, symmetric about horizon
    horizontal_resolution_deg: float = 1.0
    max_range: float = 30.0
    range_noise_sigma: float = 0.01

    def __post_init__(self):
        # Written so that NaN fails every check.
        if not self.max_range > 0:
            raise ParameterError(f"max range must be > 0, got {self.max_range}")
        if not 0 < self.horizontal_resolution_deg < math.inf:
            raise ParameterError(
                f"horizontal resolution must be finite and > 0, got {self.horizontal_resolution_deg}"
            )
        if not 0 < self.vertical_fov_deg < math.inf:
            raise ParameterError(f"vertical FOV must be finite and > 0, got {self.vertical_fov_deg}")
        if not 0 <= self.range_noise_sigma < math.inf:
            raise ParameterError(
                f"range noise sigma must be finite and >= 0, got {self.range_noise_sigma}"
            )
        if self.rings < 1:
            raise ParameterError("need at least one ring")

    def ring_elevations(self) -> np.ndarray:
        half = math.radians(self.vertical_fov_deg) / 2.0
        if self.rings == 1:
            return np.array([0.0])
        return np.linspace(-half, half, self.rings)

    def azimuth_steps(self) -> np.ndarray:
        res = math.radians(self.horizontal_resolution_deg)
        steps = int(round(2.0 * math.pi / res))
        return -math.pi + np.arange(steps) * res

    def ray_directions(self) -> np.ndarray:
        """Unit directions for every (ring, azimuth step), sensor frame: one
        read-only array, computed on the first call and kept on the sensor."""
        if "_dirs" not in self.__dict__:
            tt, pp = np.meshgrid(self.azimuth_steps(), self.ring_elevations(), indexing="ij")
            cp = np.cos(pp)
            dirs = np.stack((cp * np.cos(tt), cp * np.sin(tt), np.sin(pp)), axis=-1).reshape(-1, 3)
            dirs.flags.writeable = False
            object.__setattr__(self, "_dirs", dirs)
        return self._dirs


@dataclass(frozen=True)
class Patch:
    """Rectangular wall patch: corner plus two edge vectors, and its plane computed
    once in float64: `point`, `u`, `v`, `normal` = u x v, `uu` = u @ u, `vv` = v @ v."""

    corner: tuple[float, float, float]
    edge_u: tuple[float, float, float]
    edge_v: tuple[float, float, float]
    point: np.ndarray = field(init=False, repr=False, compare=False)
    u: np.ndarray = field(init=False, repr=False, compare=False)
    v: np.ndarray = field(init=False, repr=False, compare=False)
    normal: np.ndarray = field(init=False, repr=False, compare=False)
    uu: float = field(init=False, repr=False, compare=False)
    vv: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        point = np.asarray(self.corner, dtype=np.float64)
        u = np.asarray(self.edge_u, dtype=np.float64)
        v = np.asarray(self.edge_v, dtype=np.float64)
        normal = np.cross(u, v)
        if np.linalg.norm(normal) < 1e-12:
            raise ParameterError("degenerate patch: edge vectors are parallel")
        for name, value in dict(point=point, u=u, v=v, normal=normal, uu=u @ u, vv=v @ v).items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Scene:
    """Wall patches over the ground plane z = 0."""

    patches: tuple[Patch, ...]


@dataclass(frozen=True)
class SceneSpec:
    """A scene archetype and its length in metres. The canyon and open-wall
    walls run that length; the mixed course is fixed (its walls end at
    x = 38 m), so for it the length sets only how far the trajectory drives.
    """

    archetype: str                          # canyon | open-wall | mixed
    length: float = 48.0

    def __post_init__(self):
        if not 0 < self.length < math.inf:
            raise ParameterError(f"scene length must be finite and > 0, got {self.length}")


def _wall_x_span(x0, x1, y, height) -> Patch:
    """Vertical wall along x at fixed y."""
    return Patch((x0, y, 0.0), (x1 - x0, 0.0, 0.0), (0.0, 0.0, height))


def _wall_y_span(y0, y1, x, height) -> Patch:
    """Vertical wall along y at fixed x."""
    return Patch((x, y0, 0.0), (0.0, y1 - y0, 0.0), (0.0, 0.0, height))


def canyon_patches(length, x0=0.0) -> list[Patch]:
    half = WIDTH / 2.0
    return [
        _wall_x_span(x0, x0 + length, -half, WALL_HEIGHT),
        _wall_x_span(x0, x0 + length, half, WALL_HEIGHT),
    ]


def open_corner_patches(x0, x1, y, return_depth=8.0) -> list[Patch]:
    """A dominant wall with a perpendicular return: one azimuth cluster
    that still constrains both ground-plane translations."""
    return [
        _wall_x_span(x0, x1, y, WALL_HEIGHT),
        _wall_y_span(y, y + return_depth, x1, WALL_HEIGHT),
    ]


def build_scene(spec: SceneSpec) -> Scene:
    """Deterministic scene construction from an archetype, over ground."""
    if spec.archetype == "canyon":
        return Scene(tuple(canyon_patches(spec.length)))
    if spec.archetype == "open-wall":
        return Scene(tuple(open_corner_patches(0.0, spec.length, -WIDTH)))
    if spec.archetype == "mixed":
        return mixed_course_scene()
    raise ParameterError(f"unknown archetype {spec.archetype!r}")


# Inward stubs of the mixed course at (x, side), side +1 for the left wall
# and -1 for the right. Aperiodic placement keeps the corridor from
# aliasing onto itself under a one-period registration error.
MIXED_STUB_POSITIONS = (
    (-6, 1), (-3, -1), (2, 1), (7, -1), (11, 1), (16, -1), (18, 1), (23, -1),
)


def mixed_course_scene() -> Scene:
    """Course with a structured canyon segment followed by an open segment
    holding a single dominant corner cluster.

    The canyon spans x in [-10, 24] with aperiodic inward stubs; past it
    the only structure is an 8 m wall with a perpendicular return at
    x in [30, 38], y = -10. Scan matching is well-constrained inside the
    canyon and hangs on the single cluster in the open segment.
    """
    half, depth = WIDTH / 2.0, 1.5
    patches = canyon_patches(34.0, x0=-10.0)
    for x, side in MIXED_STUB_POSITIONS:
        if side > 0:
            patches.append(_wall_y_span(half - depth, half, float(x), WALL_HEIGHT))
        else:
            patches.append(_wall_y_span(-half, -half + depth, float(x), WALL_HEIGHT))
    patches += open_corner_patches(30.0, 38.0, -10.0, return_depth=6.0)
    return Scene(tuple(patches))


@dataclass(frozen=True)
class TrajectorySpec:
    waypoints: tuple[tuple[float, float], ...]
    speed: float = 6.0
    frame_rate: float = 10.0

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise ParameterError("need at least 2 waypoints")
        if not np.isfinite(self.waypoints).all():
            raise ParameterError("waypoints must be finite")
        if not 0 < self.speed < math.inf:
            raise ParameterError("speed must be finite and > 0")
        if not 0 < self.frame_rate < math.inf:
            raise ParameterError("frame rate must be finite and > 0")


def _polyline_poses(spec: TrajectorySpec) -> list[PoseSE3]:
    wps = np.asarray(spec.waypoints, dtype=np.float64)
    seg = np.diff(wps, axis=0)
    with np.errstate(over="ignore"):        # an infinite length fails the frame limit
        seg_len = np.linalg.norm(seg, axis=1)
    if np.any(seg_len < 1e-12):
        raise ParameterError("repeated waypoints")
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = float(cum[-1])
    step = spec.speed / spec.frame_rate
    frames = total / step
    if not frames <= MAX_FRAMES:
        raise ParameterError(
            f"course of {total!r} m at {step!r} m per frame exceeds {MAX_FRAMES} frames"
        )
    count = int(round(frames))
    if count == 0:
        raise ParameterError(
            f"course of {total!r} m at {step!r} m per frame gives no frame"
        )
    poses = []
    for i in range(count):
        s = i * step
        j = int(np.searchsorted(cum, s, side="right")) - 1
        j = min(j, len(seg) - 1)
        frac = (s - cum[j]) / seg_len[j]
        xy = wps[j] + frac * seg[j]
        yaw = math.atan2(seg[j][1], seg[j][0])
        poses.append(
            PoseSE3.from_rpy(0.0, 0.0, yaw, (xy[0], xy[1], SENSOR_HEIGHT))
        )
    return poses


def raycast_frame(
    scene: Scene,
    pose: PoseSE3,
    sensor: SensorModel,
    seed: int | np.random.SeedSequence,
) -> PointCloud:
    """One sensor sweep: nearest patch hit per ray, Gaussian range noise.
    The ground plane goes first, so a patch skips the rays whose ground hit
    is closer; `best` keeps each ray's smallest valid t, so order moves no bit."""
    dirs_local = sensor.ray_directions()
    rotation = pose.rotation_matrix()
    dirs = dirs_local @ rotation.T
    origin = np.asarray(pose.translation, dtype=np.float64)

    # A ray (nearly) parallel to a plane gets a t of +-inf or nan, or overflows.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        best = -origin[2] / dirs[:, 2]
        best[~(np.isfinite(best) & (best > 1e-6))] = np.inf
        for patch in scene.patches:
            t = ((patch.point - origin) @ patch.normal) / (dirs @ patch.normal)
            # Only the rays this patch can still win go on to the in-patch test.
            rays = np.flatnonzero(np.isfinite(t) & (t > 1e-6) & (t < best))
            t = t[rays]
            rel = origin + dirs[rays] * t[:, None] - patch.point
            alpha = rel @ patch.u / patch.uu
            beta = rel @ patch.v / patch.vv
            hit = (alpha >= 0) & (alpha <= 1) & (beta >= 0) & (beta <= 1)
            best[rays[hit]] = t[hit]

    returned = best <= sensor.max_range
    ranges = best[returned]
    if sensor.range_noise_sigma > 0:
        rng = np.random.Generator(np.random.PCG64(seed))
        ranges = ranges + rng.normal(0.0, sensor.range_noise_sigma, len(ranges))
    return PointCloud(dirs_local[returned] * ranges[:, None])


def generate_dataset(
    scene: Scene,
    traj: TrajectorySpec,
    sensor: SensorModel,
    seed: int,
) -> FrameDataset:
    """Raycast every pose along the path; ground truth attached."""
    poses = _polyline_poses(traj)
    timestamps = [i / traj.frame_rate for i in range(len(poses))]
    frames = [
        raycast_frame(scene, pose, sensor, np.random.SeedSequence([seed, i]))
        for i, pose in enumerate(poses)
    ]
    return FrameDataset(frames, timestamps, Trajectory(timestamps, poses))
