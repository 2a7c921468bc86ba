"""Point-cloud containers, spatial indexing, covariance estimation and azimuth binning.

Conventions: right-handed sensor frame, x forward / y left / z up, all
lengths in meters. Azimuth is the full-quadrant atan2(y, x) in (-pi, pi].
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import ParameterError
from .textio import read_array, write_array

TWO_PI = 2.0 * math.pi


class PointCloud:
    """Ordered set of 3D points with optional per-point 3x3 covariances.

    Arrays are copied and frozen at construction; instances are safe to
    share, and equal only to themselves. Callers must never mutate a cloud:
    neither reassign its attributes nor make its arrays writeable again.
    """

    __slots__ = ("points", "covariances")

    def __init__(self, points, covariances=None):
        pts = np.array(points, dtype=np.float64, order="C").reshape(-1, 3)
        if not np.isfinite(pts).all():
            raise ParameterError("point coordinates must be finite")
        pts.setflags(write=False)
        self.points = pts
        if covariances is not None:
            covs = np.array(covariances, dtype=np.float64, order="C").reshape(-1, 3, 3)
            if len(covs) != len(pts):
                raise ParameterError(
                    f"covariance count {len(covs)} != point count {len(pts)}"
                )
            covs.setflags(write=False)
            self.covariances = covs
        else:
            self.covariances = None

    def __len__(self):
        return len(self.points)

    @property
    def has_covariances(self):
        return self.covariances is not None


@dataclass(frozen=True)
class AzimuthBinning:
    """Partition of the horizontal angle into n equal regions."""

    n: int = 72

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise ParameterError(f"region count must be even and >= 4, got {self.n}")

    @property
    def bin_width(self) -> float:
        return TWO_PI / self.n


# Query size, in points times (k + 7), from which a batch is split into parts
# queried at once: one on the calling thread, the others on helper threads.
# A point's serial query costs about k + 7 units on the trees smvslab
# queries (1.14 us per point for k=1 against the 24.5k-point map, 3.5-4.2 us
# for k=20 self-queries of frames). On 2 cores two halves broke even at about
# 1500 points for k=1 and 450 for k=20, both near this size (sweep in
# BENCH_27.json). More cores get more parts, each at least half this size.
SPLIT_QUERY_SIZE = 12_000


def _start_helpers():
    """A fresh pool of one helper per CPU but the caller's; its threads
    start on the first split. A forked child gets its own: the parent's
    threads do not exist there, so work sent to them would never start."""
    global _cpus, _helpers
    if hasattr(os, "sched_getaffinity"):
        _cpus = len(os.sched_getaffinity(0))
    else:
        _cpus = os.cpu_count() or 1
    _helpers = ThreadPoolExecutor(_cpus - 1) if _cpus > 1 else None


_start_helpers()
if hasattr(os, "register_at_fork"):  # absent where processes cannot fork
    os.register_at_fork(after_in_child=_start_helpers)


def _query_parts(n, k):
    """How many parts `SpatialIndex.query` splits n points at k neighbors into."""
    return max(1, min(_cpus, 2 * n * (k + 7) // SPLIT_QUERY_SIZE))


class SpatialIndex:
    """Immutable kd-tree over a non-empty PointCloud; exact nearest-neighbor
    queries.

    The tree splits at sliding midpoints (`balanced_tree=False`), which
    builds faster than median splits and answers scan-matching queries
    faster. A batch whose len(points) * (k + 7) reaches `SPLIT_QUERY_SIZE`
    is split into parts (`_query_parts`): the calling thread queries the first
    and persistent helper threads the others, each with a serial scipy query
    that releases the GIL. (scipy's own `workers` start new threads on every
    call, which costs more than a frame's k=1 query saves.) A point's
    neighbors do not depend on the batch it is queried in, so splitting
    keeps every bit.
    Compared with a balanced tree, the sliding-midpoint one may pick the
    other of two neighbors whose squared distances round to the same float.
    """

    __slots__ = ("cloud", "_tree")

    def __init__(self, cloud: PointCloud):
        if len(cloud) == 0:
            raise ParameterError("cannot index an empty cloud")
        self.cloud = cloud
        self._tree = cKDTree(cloud.points, balanced_tree=False)

    @property
    def has_covariances(self):
        return self.cloud.has_covariances

    def covariances_at(self, ids) -> np.ndarray:
        """Covariances of the indexed points `ids`, shaped (len(ids), 3, 3)."""
        return self.cloud.covariances[ids]

    def query(self, points, k=1, max_distance=np.inf):
        """Raw batched query; returns (distances, ids) arrays shaped (M, k).

        Neighbors farther than `max_distance` may come back as distance inf
        and id len(self.cloud); the search skips the regions beyond it.
        """
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        kk = min(k, len(self.cloud))
        # The tree keeps only neighbors strictly inside its bound, compared
        # in squared distance; the margin keeps every one within max_distance.
        bound = max_distance * (1.0 + 1e-9)
        parts = _query_parts(len(pts), kk)
        if parts == 1:
            d, i = self._tree.query(pts, kk, distance_upper_bound=bound)
        else:
            first, *rest = np.array_split(pts, parts)
            jobs = [_helpers.submit(self._tree.query, part, kk, distance_upper_bound=bound)
                    for part in rest]
            found = [self._tree.query(first, kk, distance_upper_bound=bound)]
            # A part no helper has started yet (other callers' parts may be
            # ahead of it) is taken back rather than waited for.
            found += [self._tree.query(part, kk, distance_upper_bound=bound) if job.cancel()
                      else job.result() for part, job in zip(rest, jobs)]
            d, i = (np.concatenate(arrays) for arrays in zip(*found))
        if kk == 1:
            d = d.reshape(-1, 1)
            i = i.reshape(-1, 1)
        return d, i


class LazyCovarianceIndex(SpatialIndex):
    """Spatial index over a cloud whose GICP covariances are estimated on
    first request, point by point.

    A point's covariance depends only on its k nearest neighbors in the
    cloud, and the covariance kernel works row by row, so each one equals
    what `estimate_covariances(cloud, k, epsilon)` gives, bit for bit. A
    matcher that touches a fraction of the cloud pays for that fraction only.

    An index fills its cache as it is read, so it belongs to one thread:
    `trajectory_smvs` builds one per frame inside its worker, and the
    pipelines are serial.
    """

    __slots__ = ("_k", "_epsilon", "_covs", "_known")

    def __init__(self, cloud: PointCloud, k: int, epsilon: float):
        _check_neighbor_count(cloud, k)
        super().__init__(cloud)
        self._k = k
        self._epsilon = epsilon
        self._covs = np.empty((len(cloud), 3, 3))
        self._known = np.zeros(len(cloud), dtype=bool)

    @property
    def has_covariances(self):
        return True

    def covariances_at(self, ids) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        todo = np.zeros_like(self._known)
        todo[ids] = True
        todo = np.flatnonzero(todo & ~self._known)  # sorted and unique, without a sort
        if len(todo):
            self._covs[todo] = _covariances(self, todo, self._k, self._epsilon)
            self._known[todo] = True
        return self._covs[ids]


def voxel_downsample(cloud: PointCloud, voxel: float) -> PointCloud:
    """One centroid per occupied voxel; output ordered by voxel key."""
    if voxel <= 0:
        raise ParameterError(f"voxel size must be > 0, got {voxel}")
    if len(cloud) == 0:
        return PointCloud(np.empty((0, 3)))
    flat = _voxel_keys(cloud.points, voxel)
    uniq, inverse = np.unique(flat, return_inverse=True)
    sums = np.column_stack(
        [np.bincount(inverse, weights=column, minlength=len(uniq)) for column in cloud.points.T]
    )
    counts = np.bincount(inverse, minlength=len(uniq)).astype(np.float64)
    return PointCloud(sums / counts[:, None])


def _voxel_keys(points: np.ndarray, voxel: float) -> np.ndarray:
    """Collision-free scalar voxel key per point (keys shifted to zero),
    built one contiguous int64 column per coordinate."""
    flat = np.zeros(len(points), dtype=np.int64)
    for column in points.T:
        keys = np.floor(column / voxel).astype(np.int64)
        keys -= keys.min()
        flat = flat * (keys.max() + 1) + keys
    return flat


def voxel_dedup(cloud: PointCloud, voxel: float) -> PointCloud:
    """Keep the first point per occupied voxel, as a points-only cloud."""
    if voxel <= 0:
        raise ParameterError(f"voxel size must be > 0, got {voxel}")
    if len(cloud) == 0:
        return cloud
    flat = _voxel_keys(cloud.points, voxel)
    _, first = np.unique(flat, return_index=True)
    return PointCloud(cloud.points[np.sort(first)])


def _check_neighbor_count(cloud: PointCloud, k: int):
    if k < 4:
        raise ParameterError(f"need k >= 4 neighbors, got {k}")
    if len(cloud) < k:
        raise ParameterError(f"cloud has {len(cloud)} points, need >= {k}")


def _neighbor_covariances(index: SpatialIndex, ids, k: int) -> np.ndarray:
    """k-NN sample covariances of the indexed points `ids`.

    Neighbors are gathered k-major, (k, M, 3): the mean adds whole rows in
    neighbor order, as `mean(axis=1)` does, and BLAS gets each point's 3 x k
    by k x 3 product, so the bits are those of an (M, k, 3) gather. Each step
    works point by point: a point's result does not depend on the other ids.
    """
    pts = index.cloud.points
    nbrs = index.query(pts[ids], k=k)[1]            # the distances go before the gather
    centered = np.take(pts, nbrs.T, axis=0)         # (k, M, 3)
    mean = centered[0].copy()
    for j in range(1, k):
        mean += centered[j]
    mean /= k
    centered -= mean
    return (centered.transpose(1, 2, 0) @ centered.transpose(1, 0, 2)) / (k - 1)


def _cross(a, b):
    """a x b on component triples, each component formed as `np.cross` does."""
    return a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]


def smallest_eigenvectors(a: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of the smallest eigenvalues of symmetric 3x3
    matrices (upper triangles read), batched; every step works row by row.

    With q = tr A / 3, B = A - q I, p = |B|_F / sqrt(6) and
    r = det B / (2 p^3), the eigenvalues are q + 2p cos(acos(r)/3 + 2 pi j/3):
    j = 0 the largest, j = 1 the smallest. That form is accurate for the
    eigenvalue farther from the middle one, the smallest when r <= 0 and the
    largest otherwise. Its eigenvector e is the largest cross product of two
    rows of A - lambda I, or e_0 where they all vanish (A a multiple of I,
    where `eigh` gives e_0 too). When e belongs to the largest eigenvalue,
    n solves the 2x2 problem on the plane normal to e, so n stays accurate
    to rounding over the eigengap where the two smallest eigenvalues (nearly)
    coincide and the cubic's roots lose half their digits.

    The kernel serves any symmetric 3x3, so the top eigenvectors of A are
    `smallest_eigenvectors(-A)`; SMVS takes its local directions that way.
    Six contiguous rows hold the upper entries, and every sum adds from 0 in
    the order numpy reduces a (3, 3, M) stack, so the bits are a stack's.
    """
    a00, a01, a02, a11, a12, a22 = a.reshape(-1, 9)[:, [0, 1, 2, 4, 5, 8]].T.copy()
    q = (a00 + a11 + a22) / 3.0
    b00, b11, b22 = a00 - q, a11 - q, a22 - q
    off = a01 * a01 + a02 * a02 + a12 * a12
    p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * off) / 6.0)
    det = b00 * (b11 * b22 - a12 * a12) - a01 * (a01 * b22 - a12 * a02)
    det += a02 * (a01 * a12 - b11 * a02)
    p3 = p * p * p
    r = np.clip(np.divide(det, 2.0 * p3, out=np.zeros_like(p), where=p3 > 0.0), -1.0, 1.0)
    low = r <= 0.0
    lam = q + 2.0 * p * np.cos(np.arccos(r) / 3.0 + np.where(low, 2.0 * math.pi / 3.0, 0.0))

    m = ((a00 - lam, a01, a02), (a01, a11 - lam, a12), (a02, a12, a22 - lam))
    cross = (_cross(m[1], m[2]), _cross(m[2], m[0]), _cross(m[0], m[1]))
    sq = [sum(x * x for x in c) for c in cross]
    one, top = sq[1] > sq[0], np.maximum(sq[0], sq[1])   # argmax: the first maximum wins
    two, e_sq = sq[2] > top, np.maximum(top, sq[2])
    vanish = e_sq <= (1e-12 * sum(x * x for row in m for x in row)) ** 2
    norm = np.sqrt(np.where(vanish, 1.0, e_sq))
    e = [np.where(vanish, float(i == 0), np.where(two, z, np.where(one, y, x))) / norm
         for i, (x, y, z) in enumerate(zip(*cross))]

    # Orthonormal u, v normal to e (Duff et al., JCGT 2017), then the 2x2
    # problem [[u.Mu, u.Mv], [u.Mv, v.Mv]]: its larger eigenvector lies at
    # angle phi from u, the smaller one at phi + pi/2.
    s = np.copysign(1.0, e[2])
    h = -1.0 / (s + e[2])
    g = e[0] * e[1] * h
    u = (1.0 + s * e[0] * e[0] * h, s * g, -s * e[0])
    v = (g, s + e[1] * e[1] * h, -e[1])
    mu, mv = ([sum(x * y for x, y in zip(row, vec)) for row in m] for vec in (u, v))
    uv = sum(x * y for x, y in zip(u, mv))
    uu_vv = sum(x * y - z * w for x, y, z, w in zip(u, mu, v, mv))
    phi = 0.5 * np.arctan2(2.0 * uv, uu_vv)
    cos, sin = np.cos(phi), np.sin(phi)
    return np.array([np.where(low, ei, cos * vi - sin * ui) for ei, ui, vi in zip(e, u, v)]).T


def _regularize(raw: np.ndarray, epsilon: float) -> np.ndarray:
    """I - (1 - epsilon) n n^T for each covariance, n its smallest eigenvector:
    eigenvalues (epsilon, 1, 1), eigenvectors kept."""
    n = smallest_eigenvectors(raw)
    return np.eye(3) - (1.0 - epsilon) * (n[:, :, None] * n[:, None, :])


def _covariances(index: SpatialIndex, ids, k: int, epsilon: float) -> np.ndarray:
    """GICP covariances of the indexed points `ids`, for both estimators."""
    return _regularize(_neighbor_covariances(index, ids, k), epsilon)


def estimate_covariances(cloud: PointCloud, k: int, epsilon: float = 1e-3) -> PointCloud:
    """Per-point GICP plane-to-plane covariances I - (1 - epsilon) n n^T.

    n is the smallest eigenvector of the sample covariance over the k
    nearest neighbors, found in closed form (`smallest_eigenvectors`), so
    the plane normal gets epsilon and the in-plane directions 1.
    """
    _check_neighbor_count(cloud, k)
    return PointCloud(cloud.points, _covariances(SpatialIndex(cloud), slice(None), k, epsilon))


def azimuth_bins(points, binning: AzimuthBinning):
    """Region index k = floor((theta + pi) / bin_width) mod n of each point,
    theta = atan2(y, x); returns (bins, valid mask).

    z-axis points have no azimuth: they get bin -1 and valid=False.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    valid = (pts[:, 0] != 0.0) | (pts[:, 1] != 0.0)
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    bins = np.floor((theta + math.pi) / binning.bin_width).astype(np.int64) % binning.n
    bins[~valid] = -1
    return bins, valid


def bin_center_angle(k: int, binning: AzimuthBinning) -> float:
    """Center azimuth of region k under the fixed -pi bin origin."""
    return -math.pi + (k + 0.5) * binning.bin_width


def load_xyz(path) -> PointCloud:
    """Read an ASCII "x y z" file; '#' lines are comments."""
    return PointCloud(read_array(path, 3))


def save_xyz(cloud: PointCloud, path):
    write_array(path, cloud.points)
