"""Two localization pipelines: scan-to-local-map odometry and prior-map localization."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .datasets import FrameDataset
from .errors import DegenerateLinearizationError, DivergenceError, ParameterError
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


def prepare_frame(frame: PointCloud) -> PointCloud:
    """A frame as both pipelines match it: downsampled, with covariances."""
    down = voxel_downsample(frame, GICP.frame_voxel)
    k = min(GICP.covariance_k, len(down))
    if k < 4:
        raise ParameterError(f"frame too sparse after downsampling ({len(down)} points)")
    return estimate_covariances(down, k=k, epsilon=GICP.covariance_epsilon)


def prepare_map(prior_map: PointCloud) -> SpatialIndex:
    """A prior map as `priormap_localize` matches against it: downsampled,
    with covariances, indexed."""
    if len(prior_map) == 0:
        raise ParameterError("prior map is empty")
    map_down = voxel_downsample(prior_map, GICP.map_voxel)
    k = min(GICP.covariance_k, len(map_down))
    map_cloud = estimate_covariances(map_down, k=k, epsilon=GICP.covariance_epsilon)
    return SpatialIndex(map_cloud)


def _align_or_predict(i, source, index, seed):
    """Align frame `i` from `seed`; where the matcher finds no correspondence
    or diverges, fall back to the seed itself."""
    try:
        result = gauss_newton_align(source, index, seed)
        return result.pose, FrameStatus(i, result.converged, result.iterations, None)
    except (DegenerateLinearizationError, DivergenceError) as exc:
        return seed, FrameStatus(i, False, 0, type(exc).__name__)


def odometry_run(sources, timestamps, init: PoseSE3):
    """KISS-ICP-style odometry against a sliding local map.

    `sources` are the frames as `prepare_frame` gives them. Registration
    runs in the first frame's coordinates: each frame is seeded with a
    constant-velocity prediction and aligned against the voxel-deduplicated
    union of the last `local_map_window` registered frames. Failed
    alignments keep the prediction and the run continues. `init` places the
    first frame in the world, and the returned poses are world poses.
    """
    if not 0 < len(sources) == len(timestamps):
        raise ParameterError(f"{len(sources)} frames and {len(timestamps)} timestamps")

    poses: list[PoseSE3] = []
    statuses: list[FrameStatus] = []
    recent = deque(maxlen=GICP.local_map_window)
    map_index = None
    last_delta = PoseSE3.identity()

    for i, source in enumerate(sources):
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

    return Trajectory(timestamps, [init.compose(p) for p in poses]), statuses


def priormap_localize(sources, timestamps, map_index: SpatialIndex, init: PoseSE3):
    """Localize every prepared frame (`prepare_frame`) against a prior map
    index (`prepare_map`).

    Each frame is seeded with the previous frame's estimate (the init for
    the first frame); failures keep the seed and are recorded.
    """
    if not 0 < len(sources) == len(timestamps):
        raise ParameterError(f"{len(sources)} frames and {len(timestamps)} timestamps")

    poses: list[PoseSE3] = []
    statuses: list[FrameStatus] = []
    seed = init
    for i, source in enumerate(sources):
        seed, status = _align_or_predict(i, source, map_index, seed)
        poses.append(seed)
        statuses.append(status)

    return Trajectory(timestamps, poses), statuses


def build_prior_map(dataset: FrameDataset, trajectory: Trajectory) -> PointCloud:
    """Union of frames registered at the given poses, voxel-deduplicated."""
    if len(dataset) != len(trajectory):
        raise ParameterError("dataset and trajectory lengths differ")
    chunks = [
        pose.apply(frame.points)
        for frame, pose in zip(dataset.frames, trajectory.poses)
    ]
    return voxel_downsample(PointCloud(np.concatenate(chunks, axis=0)), GICP.map_voxel)
