"""Scan Matching Vulnerability Score: point-wise importances, azimuth-region
scores and the frame-wise aggregate, over single frames or whole runs.

Point-wise importance is I = |x_min_global . x_max_local| where
x_min_global is the eigenvector of the smallest eigenvalue of the global
6x6 matching Hessian and x_max_local the largest-eigenvalue eigenvector
of the point's local Hessian J^T W J, J = [skew(q) | -I]. That Hessian has
rank 3, so x_max_local comes from a 3x3 problem: with M = J J^T =
(1+|q|^2) I - q q^T and u the top eigenvector of M^1/2 W M^1/2, it is
v = J^T M^-1/2 u = [w x q ; -w] with w = M^-1/2 u, a unit vector, and u
comes from the closed-form 3x3 kernel `geometry.smallest_eigenvectors`. The
frame-wise score sums azimuth-region importance mass weighted by
f(d_k) = -d_k + d_th with circular region distance d_k.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field

import numpy as np

from .datasets import FrameDataset
from .errors import AnalysisError, DegenerateLinearizationError, ParameterError
from .geometry import (
    AzimuthBinning,
    LazyCovarianceIndex,
    PointCloud,
    SpatialIndex,
    _cross,
    azimuth_bins,
    estimate_covariances,
    smallest_eigenvectors,
)
from .matching import linearize
from .pipelines import GICP
from .se3 import PoseSE3
from .textio import read_table, to_array, write_table
from .trajectory import Trajectory, poses_from_columns


@dataclass
class SmvsFrameEntry:
    """One frame's score: the fields of its `smvs_profile.csv` row."""

    frame_id: int
    timestamp: float
    smvs: float
    k_center: int                   # peak-score azimuth region
    pose: PoseSE3
    degenerate_spectrum: bool


@dataclass
class SmvsProfile:
    entries: list[SmvsFrameEntry]
    skipped: list[tuple[int, str]] = field(default_factory=list)
    binning: AzimuthBinning = field(default_factory=AzimuthBinning)   # regions of k_center

    def __len__(self):
        return len(self.entries)

    def values(self) -> np.ndarray:
        return np.array([e.smvs for e in self.entries])

    def save_csv(self, path):
        """One line per entry, with the region count and the degenerate flag."""
        rows = [
            (e.frame_id, e.timestamp, e.smvs, e.k_center,
             *e.pose.translation.tolist(), *e.pose.quat.tolist(),
             self.binning.n, int(e.degenerate_spectrum))
            for e in self.entries
        ]
        write_table(path, _PROFILE_LINE, rows, header=_PROFILE_HEADER)


_PROFILE_HEADER = "frame_id,timestamp,smvs,k_center,tx,ty,tz,qx,qy,qz,qw,n_regions,degenerate"
_PROFILE_LINE = "{},{!r},{!r},{}," + ",".join(["{!r}"] * 7) + ",{},{}"


@dataclass(frozen=True)
class SmvsConfig:
    binning: AzimuthBinning = field(default_factory=AzimuthBinning)
    d_th: int = 8
    clone_sigma: float = 0.01
    keep_ratio: float = 0.9
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if self.threads < 1:
            raise ParameterError(f"threads={self.threads} must be >= 1")
        if not 0 <= self.clone_sigma < np.inf:
            raise ParameterError("noise sigma must be finite and >= 0")
        if not (0 < self.keep_ratio <= 1):
            raise ParameterError("keep_ratio must be in (0, 1]")
        if self.d_th > self.binning.n // 2:
            raise ParameterError(f"d_th={self.d_th} exceeds n/2={self.binning.n // 2}")


def perturbed_clones(frame: PointCloud, sigma: float, keep_ratio: float, seed: int):
    """Two independently subsampled and jittered copies of a frame.

    Each clone keeps round(keep_ratio * N) points (original order) and adds
    i.i.d. Gaussian noise of std `sigma` per axis; sub-seeds are spawned
    from `seed` so the same seed always yields bitwise-identical clones.
    """
    n = len(frame)
    if n == 0:
        raise ParameterError("frame is empty")
    keep = int(round(keep_ratio * n))
    keep = max(keep, 1)
    children = np.random.SeedSequence(seed).spawn(2)
    clones = []
    for child in children:
        rng = np.random.Generator(np.random.PCG64(child))
        idx = np.sort(rng.choice(n, size=keep, replace=False))
        pts = frame.points[idx] + rng.normal(0.0, sigma, size=(keep, 3))
        clones.append(PointCloud(pts))
    return clones[0], clones[1]


def _matrix_power(q, a):
    """M^a for M = J J^T = s I - q q^T, s = 1 + |q|^2, batched over q (m, 3).

    M has eigenvalue 1 along q and s across it, so
    M^a = s^a I + ((1 - s^a) / |q|^2) q q^T; expm1 and log1p keep the
    coefficient exact as q -> 0, where it tends to -a.
    """
    r2 = np.einsum("ni,ni->n", q, q)
    log_s = np.log1p(r2)
    c = np.full_like(r2, -a)
    np.divide(-np.expm1(a * log_s), r2, out=c, where=r2 > 0)
    out = c[:, None, None] * (q[:, :, None] * q[:, None, :])
    out[:, [0, 1, 2], [0, 1, 2]] += np.exp(a * log_s)[:, None]
    return out


def _local_directions(q, weights):
    """w = M^-1/2 u per point, u the top eigenvector of M^1/2 W M^1/2.

    q (m, 3) are the matched points at the linearization pose and W
    (m, 3, 3) their weights. The top eigenvector of the rank-3 local
    Hessian J^T W J is v = J^T w = [w x q ; -w], of unit norm. u is the
    smallest eigenvector of -M^1/2 W M^1/2, from the closed-form kernel
    that GICP's covariances use; its sign is arbitrary, which importance,
    an absolute value, ignores. Where M^1/2 W M^1/2 is exactly a multiple
    of I the top direction is undefined and the kernel returns e_0.
    """
    half = _matrix_power(q, 0.5)
    u = smallest_eigenvectors(-(half @ weights @ half))
    return (_matrix_power(q, -0.5) @ u[:, :, None])[:, :, 0]


def pointwise_smvs(source: PointCloud, index: SpatialIndex):
    """Per-point importance of the source cloud against an indexed target.

    Returns (importance, degenerate): the (N,) importances in [0, 1], and
    whether the global Hessian's two smallest eigenvalues (nearly) coincide.

    `index` carries the target's covariances, as a LazyCovarianceIndex
    does. Linearizes once at the identity pose with the pipelines'
    correspondence radius and eigendecomposes the global Hessian for its
    weakest direction x_min.
    No 6x6 local Hessian is formed: with M = J J^T and u the top
    eigenvector of the 3x3 matrix M^1/2 W M^1/2, a matched point's
    strongest local direction is v = [w x q ; -w] with w = M^-1/2 u
    (`_local_directions`), so its importance is
    |v . x_min| = |w . (q x x_min[:3] - x_min[3:])|. Unmatched points get
    importance 0.
    """
    try:
        system = linearize(
            source, index, PoseSE3.identity(), GICP.matcher.max_corr_dist
        )
    except DegenerateLinearizationError as exc:
        raise AnalysisError(str(exc)) from exc

    eigvals, eigvecs = np.linalg.eigh(system.h_global)
    scale = max(abs(float(eigvals[-1])), 1e-300)
    degenerate = bool((eigvals[1] - eigvals[0]) / scale < 1e-6)
    x_min = eigvecs[:, 0].copy()

    q = system.points
    w = _local_directions(q, system.weights)
    importance = np.zeros(len(source))
    importance[system.correspondences >= 0] = np.abs(
        np.einsum("ni,ni->n", w, np.stack(_cross(q.T, x_min[:3]), axis=1) - x_min[3:])
    )
    return np.clip(importance, 0.0, 1.0), degenerate


def framewise_smvs(
    importance: np.ndarray,
    frame: PointCloud,
    binning: AzimuthBinning,
    d_th: int,
):
    """Aggregate the frame's point importances into azimuth-region scores and
    the frame score.

    Returns (smvs, k_center, the (binning.n,) region scores). Points on the z-axis
    cannot be binned and are dropped; if none remain the frame is unanalyzable.
    """
    if d_th > binning.n // 2:
        raise ParameterError(f"d_th={d_th} exceeds n/2={binning.n // 2}")
    bins, valid = azimuth_bins(frame.points, binning)
    if not valid.any():
        raise AnalysisError("all points lie on the z-axis; no azimuths defined")

    scores = np.bincount(
        bins[valid], weights=importance[valid], minlength=binning.n
    ).astype(np.float64)
    k_center = int(np.argmax(scores))
    ks = np.arange(binning.n)
    delta = np.abs(ks - k_center)
    d = np.minimum(delta, binning.n - delta)
    smvs = float(np.sum(scores * (d_th - d)))
    return smvs, k_center, scores


def frame_seed(global_seed: int, frame_id: int) -> int:
    """Deterministic per-frame sub-seed."""
    return int(np.random.SeedSequence([global_seed, frame_id]).generate_state(1)[0])


def trajectory_smvs(
    dataset: FrameDataset,
    benign_trajectory: Trajectory,
    cfg: SmvsConfig,
) -> SmvsProfile:
    """Frame-wise SMVS along a benign run; deterministic given cfg.seed.

    Frames whose analysis fails are skipped and recorded as gaps. Frames
    are independent, so analysis fans out over cfg.threads with results
    merged in frame order.
    """
    if len(dataset) != len(benign_trajectory):
        raise ParameterError("dataset and trajectory lengths differ")

    def work(i):
        """Frame i's profile entry, or the AnalysisError that skips it."""
        source, target = perturbed_clones(
            dataset.frames[i], cfg.clone_sigma, cfg.keep_ratio, frame_seed(cfg.seed, i)
        )
        k = min(GICP.covariance_k, len(source), len(target))
        if k < 4:
            return AnalysisError(f"frame {i} too sparse for covariance estimation")
        source = estimate_covariances(source, k=k, epsilon=GICP.covariance_epsilon)
        target = LazyCovarianceIndex(target, k=k, epsilon=GICP.covariance_epsilon)
        try:
            importance, degenerate = pointwise_smvs(source, target)
            smvs, k_center, _ = framewise_smvs(importance, source, cfg.binning, cfg.d_th)
        except AnalysisError as exc:
            return exc
        return SmvsFrameEntry(
            frame_id=i,
            timestamp=float(dataset.timestamps[i]),
            smvs=smvs,
            k_center=k_center,
            pose=benign_trajectory.poses[i],
            degenerate_spectrum=degenerate,
        )

    if cfg.threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(work, range(len(dataset))))
    else:
        results = [work(i) for i in range(len(dataset))]

    entries = [r for r in results if isinstance(r, SmvsFrameEntry)]
    skipped = [(i, str(r)) for i, r in enumerate(results) if isinstance(r, AnalysisError)]
    return SmvsProfile(entries=entries, skipped=skipped, binning=cfg.binning)


def load_profile_csv(path) -> SmvsProfile:
    """Read `SmvsProfile.save_csv` output back, region count and degenerate
    flags included. Every row must give the same region count, and k_center
    must be a region of it."""
    lines, rows = read_table(path, 13, sep=",", header=True)
    ints = to_array(path, lines, [(r[0], r[3], r[11], r[12]) for r in rows], np.int64)
    floats = to_array(path, lines, [r[1:3] + r[4:11] for r in rows])
    poses = poses_from_columns(path, lines, floats[:, 2:])
    binning = AzimuthBinning()
    entries = []
    for lineno, (frame_id, k_center, n, degenerate), (timestamp, value), pose in zip(
        lines, ints.tolist(), floats[:, :2].tolist(), poses
    ):
        if not entries:
            try:
                binning = AzimuthBinning(n)
            except ParameterError as exc:
                raise ParameterError(f"{path}:{lineno}: {exc}") from None
        elif n != binning.n:
            raise ParameterError(f"{path}:{lineno}: n_regions {n} differs from {binning.n} above")
        if not 0 <= k_center < n:
            raise ParameterError(f"{path}:{lineno}: k_center {k_center} outside [0, {n})")
        if degenerate not in (0, 1):
            raise ParameterError(f"{path}:{lineno}: degenerate {degenerate} is not 0 or 1")
        entries.append(
            SmvsFrameEntry(frame_id, timestamp, value, k_center, pose, bool(degenerate))
        )
    return SmvsProfile(entries=entries, binning=binning)
