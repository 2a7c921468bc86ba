"""smvslab: scan-matching vulnerability analysis and LiDAR-spoofing simulation."""

from .geometry import (
    AzimuthBinning,
    PointCloud,
    SpatialIndex,
    azimuth_bin,
    estimate_covariances,
    voxel_downsample,
)
from .matching import LinearSystem, MatchResult, MatcherConfig, gauss_newton_align, linearize
from .se3 import PoseSE3, exp_twist
from .smvs import (
    SmvsConfig,
    SmvsProfile,
    framewise_smvs,
    perturbed_clones,
    pointwise_smvs,
    trajectory_smvs,
)
from .trajectory import Trajectory

__all__ = [
    "AzimuthBinning",
    "LinearSystem",
    "MatchResult",
    "MatcherConfig",
    "PointCloud",
    "PoseSE3",
    "SmvsConfig",
    "SmvsProfile",
    "SpatialIndex",
    "Trajectory",
    "azimuth_bin",
    "estimate_covariances",
    "exp_twist",
    "framewise_smvs",
    "gauss_newton_align",
    "linearize",
    "perturbed_clones",
    "pointwise_smvs",
    "trajectory_smvs",
    "voxel_downsample",
]

__version__ = "0.1.0"
