"""Two localization pipelines: scan-to-local-map odometry and prior-map localization."""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass

import numpy as np

from .datasets import FrameDataset
from .errors import ParameterError, SmvslabError
from .geometry import (
    LazyCovarianceIndex,
    PointCloud,
    SpatialIndex,
    estimate_covariances,
    voxel_dedup,
    voxel_downsample,
)
from .matching import MatcherConfig, gauss_newton_align
from .se3 import PoseSE3
from .trajectory import Trajectory


class PipelineConfig:
    """The pipelines' fixed settings, read as class attributes."""

    __slots__ = ()
    frame_voxel = 0.5
    map_voxel = 0.5
    local_map_window = 20
    covariance_k = 20
    covariance_epsilon = 1e-3
    matcher = MatcherConfig


# The one set of GICP settings: both pipelines localize with it and SMVS
# scores the matcher they run.
GICP = PipelineConfig()


@dataclass
class FrameStatus:
    frame_id: int
    converged: bool
    iterations: int
    error: str | None


@functools.lru_cache(maxsize=128)
def _prepare_frame(frame: PointCloud) -> PointCloud:
    """Downsampled frame with covariances, cached by frame identity.

    A prepared cloud is reused whenever the same cloud comes back: a frame
    that an attack replay passed through untouched, or a frame that both
    pipelines localize. This holds only while no caller mutates a
    PointCloud (see its docstring).
    """
    down = voxel_downsample(frame, GICP.frame_voxel)
    k = min(GICP.covariance_k, len(down))
    if k < 4:
        raise ParameterError(f"frame too sparse after downsampling ({len(down)} points)")
    return estimate_covariances(down, k=k, epsilon=GICP.covariance_epsilon)


def _align_or_predict(i, source, index, seed):
    """Align frame `i` from `seed`; fall back to the seed itself."""
    try:
        result = gauss_newton_align(source, index, seed)
        return result.pose, FrameStatus(i, result.converged, result.iterations, None)
    except SmvslabError as exc:
        return seed, FrameStatus(i, False, 0, type(exc).__name__)


def odometry_run(dataset: FrameDataset, init: PoseSE3):
    """KISS-ICP-style odometry against a sliding local map.

    Registration runs in the first frame's coordinates: each frame is
    downsampled, seeded with a constant-velocity prediction and aligned
    against the voxel-deduplicated union of the last `local_map_window`
    registered frames. Failed alignments keep the prediction and the run
    continues. `init` places the first frame in the world, and the returned
    poses are world poses.
    """
    if len(dataset) < 1:
        raise ParameterError("dataset must contain at least one frame")

    poses: list[PoseSE3] = []
    statuses: list[FrameStatus] = []
    recent = deque(maxlen=GICP.local_map_window)
    map_index = None
    last_delta = PoseSE3.identity()

    for i, frame in enumerate(dataset.frames):
        source = _prepare_frame(frame)
        if i == 0:
            pose, status = PoseSE3.identity(), FrameStatus(0, True, 0, None)
        else:
            prediction = poses[-1].compose(last_delta)
            pose, status = _align_or_predict(i, source, map_index, prediction)
            last_delta = poses[-1].inverse().compose(pose)
        poses.append(pose)
        statuses.append(status)

        # Local map: voxel-deduplicated union of the registered frames with
        # covariances re-estimated from map-local neighborhoods (per-frame
        # covariances are markedly worse normals near voxel boundaries),
        # estimated only for the map points a match touches.
        recent.append(pose.apply(source.points))
        merged = voxel_dedup(PointCloud(np.concatenate(recent, axis=0)), GICP.map_voxel)
        k = min(GICP.covariance_k, len(merged))
        map_index = LazyCovarianceIndex(merged, k=k, epsilon=GICP.covariance_epsilon)

    return Trajectory(dataset.timestamps, [init.compose(p) for p in poses]), statuses


@functools.lru_cache(maxsize=4)
def _prepare_map(prior_map: PointCloud) -> SpatialIndex:
    """Downsampled prior map with covariances, indexed; cached by map identity
    like `_prepare_frame`."""
    map_down = voxel_downsample(prior_map, GICP.map_voxel)
    k = min(GICP.covariance_k, len(map_down))
    map_cloud = estimate_covariances(map_down, k=k, epsilon=GICP.covariance_epsilon)
    return SpatialIndex(map_cloud)


def priormap_localize(dataset: FrameDataset, prior_map: PointCloud, init: PoseSE3):
    """Localize every frame against a static prior map.

    Each frame is seeded with the previous frame's estimate (the init for
    the first frame); failures keep the seed and are recorded.
    """
    if len(dataset) < 1:
        raise ParameterError("dataset must contain at least one frame")
    if len(prior_map) == 0:
        raise ParameterError("prior map is empty")

    map_index = _prepare_map(prior_map)

    poses: list[PoseSE3] = []
    statuses: list[FrameStatus] = []
    seed = init
    for i, frame in enumerate(dataset.frames):
        source = _prepare_frame(frame)
        seed, status = _align_or_predict(i, source, map_index, seed)
        poses.append(seed)
        statuses.append(status)

    return Trajectory(dataset.timestamps, poses), statuses


def build_prior_map(dataset: FrameDataset, trajectory: Trajectory) -> PointCloud:
    """Union of frames registered at the given poses, voxel-deduplicated."""
    if len(dataset) != len(trajectory):
        raise ParameterError("dataset and trajectory lengths differ")
    chunks = [
        pose.apply(frame.points)
        for frame, pose in zip(dataset.frames, trajectory.poses)
    ]
    return voxel_downsample(PointCloud(np.concatenate(chunks, axis=0)), GICP.map_voxel)
