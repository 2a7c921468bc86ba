"""Point-cloud containers, spatial indexing, covariance estimation and azimuth binning.

Conventions: right-handed sensor frame, x forward / y left / z up, all
lengths in meters. Azimuth is the full-quadrant atan2(y, x) in (-pi, pi].
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import ParameterError, QueryError, UndefinedAzimuthError
from .textio import read_array, write_table

TWO_PI = 2.0 * math.pi


class PointCloud:
    """Ordered set of 3D points with optional per-point 3x3 covariances.

    Arrays are copied and frozen at construction; instances are safe to
    share, and equal only to themselves. Callers must never mutate a cloud:
    neither reassign its attributes nor make its arrays writeable again.
    The pipelines cache work by cloud identity and rely on this.
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

    def select(self, indices) -> "PointCloud":
        """Subcloud at the given indices (covariances follow)."""
        covs = self.covariances[indices] if self.has_covariances else None
        return PointCloud(self.points[indices], covs)

    def with_covariances(self, covariances) -> "PointCloud":
        return PointCloud(self.points, covariances)


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


class SpatialIndex:
    """Immutable kd-tree over a PointCloud; exact nearest-neighbor queries."""

    __slots__ = ("cloud", "_tree")

    def __init__(self, cloud: PointCloud):
        self.cloud = cloud
        self._tree = cKDTree(cloud.points) if len(cloud) else None

    def __len__(self):
        return len(self.cloud)

    @property
    def has_covariances(self):
        return self.cloud.has_covariances

    def covariances_at(self, ids) -> np.ndarray:
        """Covariances of the indexed points `ids`, shaped (len(ids), 3, 3)."""
        return self.cloud.covariances[ids]

    def query(self, points, k=1, max_distance=np.inf):
        """Raw batched query; returns (distances, ids) arrays shaped (M, k).

        Neighbors farther than `max_distance` may come back as distance inf
        and id len(self); the search skips the regions beyond it.
        """
        if self._tree is None:
            raise QueryError("query against an empty index")
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        kk = min(k, len(self.cloud))
        # The tree keeps only neighbors strictly inside its bound, compared
        # in squared distance; the margin keeps every one within max_distance.
        bound = max_distance * (1.0 + 1e-9)
        d, i = self._tree.query(pts, k=kk, workers=-1, distance_upper_bound=bound)
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
    """

    __slots__ = ("_k", "_epsilon", "_covs", "_known", "_lock")

    def __init__(self, cloud: PointCloud, k: int = 20, epsilon: float = 1e-3):
        _check_neighbor_count(cloud, k)
        super().__init__(cloud)
        self._k = k
        self._epsilon = epsilon
        self._covs = np.empty((len(cloud), 3, 3))
        self._known = np.zeros(len(cloud), dtype=bool)
        self._lock = threading.Lock()

    @property
    def has_covariances(self):
        return True

    def covariances_at(self, ids) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        with self._lock:
            todo = np.unique(ids[~self._known[ids]])
            if len(todo):
                raw = _neighbor_covariances(self, todo, self._k)
                self._covs[todo] = _regularize(raw, self._epsilon)
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
    sums = np.zeros((len(uniq), 3))
    np.add.at(sums, inverse, cloud.points)
    counts = np.bincount(inverse, minlength=len(uniq)).astype(np.float64)
    return PointCloud(sums / counts[:, None])


def _voxel_keys(points: np.ndarray, voxel: float) -> np.ndarray:
    """Collision-free scalar voxel key per point (keys shifted to zero)."""
    keys = np.floor(points / voxel).astype(np.int64)
    keys -= keys.min(axis=0)
    dims = keys.max(axis=0) + 1
    return (keys[:, 0] * dims[1] + keys[:, 1]) * dims[2] + keys[:, 2]


def voxel_dedup(cloud: PointCloud, voxel: float) -> PointCloud:
    """Keep the first point (and covariance) per occupied voxel."""
    if voxel <= 0:
        raise ParameterError(f"voxel size must be > 0, got {voxel}")
    if len(cloud) == 0:
        return cloud
    flat = _voxel_keys(cloud.points, voxel)
    _, first = np.unique(flat, return_index=True)
    return cloud.select(np.sort(first))


def _check_neighbor_count(cloud: PointCloud, k: int):
    if k < 4:
        raise ParameterError(f"need k >= 4 neighbors, got {k}")
    if len(cloud) < k:
        raise ParameterError(f"cloud has {len(cloud)} points, need >= {k}")


def _neighbor_covariances(index: SpatialIndex, ids, k: int) -> np.ndarray:
    """k-NN sample covariances of the indexed points `ids`.

    Every step works point by point, so a point's result does not depend
    on which other points are in `ids`.
    """
    pts = index.cloud.points
    _, nbrs = index.query(pts[ids], k=k)
    centered = np.take(pts, nbrs, axis=0)           # (M, k, 3)
    # The mean as `mean(axis=1)` forms it, neighbor by neighbor in order,
    # without its slow strided reduction: the bits are the same.
    mean = centered[:, 0].copy()
    for j in range(1, k):
        mean += centered[:, j]
    mean /= k
    centered -= mean[:, None]
    return (centered.transpose(0, 2, 1) @ centered) / (k - 1)


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
    """
    a00, a01, a02 = a[:, 0, 0], a[:, 0, 1], a[:, 0, 2]
    a11, a12, a22 = a[:, 1, 1], a[:, 1, 2], a[:, 2, 2]
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

    # Matrices are (3, 3, M) and vectors (3, M) from here on.
    m = np.array([[a00 - lam, a01, a02], [a01, a11 - lam, a12], [a02, a12, a22 - lam]])
    cross = np.cross(m[[1, 2, 0]], m[[2, 0, 1]], axis=1)
    cross_sq = (cross * cross).sum(axis=1)
    best = cross_sq.argmax(axis=0)
    at = np.arange(len(a))
    e, e_sq = cross[best, :, at].T, cross_sq[best, at]
    vanish = e_sq <= (1e-12 * (m * m).sum(axis=(0, 1))) ** 2
    e[:, vanish], e_sq[vanish] = [[1.0], [0.0], [0.0]], 1.0
    e /= np.sqrt(e_sq)

    # Orthonormal u, v normal to e (Duff et al., JCGT 2017), then the 2x2
    # problem [[u.Mu, u.Mv], [u.Mv, v.Mv]]: its larger eigenvector lies at
    # angle phi from u, the smaller one at phi + pi/2.
    s = np.copysign(1.0, e[2])
    h = -1.0 / (s + e[2])
    g = e[0] * e[1] * h
    u = np.array([1.0 + s * e[0] * e[0] * h, s * g, -s * e[0]])
    v = np.array([g, s + e[1] * e[1] * h, -e[1]])
    mu, mv = (m * u).sum(axis=1), (m * v).sum(axis=1)
    uv, uu_vv = (u * mv).sum(axis=0), (u * mu - v * mv).sum(axis=0)
    phi = 0.5 * np.arctan2(2.0 * uv, uu_vv)
    return np.where(low, e, np.cos(phi) * v - np.sin(phi) * u).T


def _regularize(raw: np.ndarray, epsilon: float) -> np.ndarray:
    """I - (1 - epsilon) n n^T for each covariance, n its smallest eigenvector:
    eigenvalues (epsilon, 1, 1), eigenvectors kept."""
    n = smallest_eigenvectors(raw)
    return np.eye(3) - (1.0 - epsilon) * (n[:, :, None] * n[:, None, :])


def estimate_covariances(cloud: PointCloud, k: int = 20, epsilon: float = 1e-3) -> PointCloud:
    """Per-point GICP plane-to-plane covariances I - (1 - epsilon) n n^T.

    n is the smallest eigenvector of the sample covariance over the k
    nearest neighbors, found in closed form (`smallest_eigenvectors`), so
    the plane normal gets epsilon and the in-plane directions 1.
    """
    _check_neighbor_count(cloud, k)
    raw = _neighbor_covariances(SpatialIndex(cloud), slice(None), k)
    return cloud.with_covariances(_regularize(raw, epsilon))


def azimuth(p) -> float:
    """Horizontal angle atan2(y, x) in (-pi, pi]; undefined on the z-axis."""
    x, y = float(p[0]), float(p[1])
    if x == 0.0 and y == 0.0:
        raise UndefinedAzimuthError("point lies on the z-axis")
    return math.atan2(y, x)


def azimuth_bin(p, binning: AzimuthBinning) -> int:
    """Region index k = floor((theta + pi) / bin_width) mod n."""
    theta = azimuth(p)
    return int(math.floor((theta + math.pi) / binning.bin_width)) % binning.n


def azimuth_bins(points, binning: AzimuthBinning):
    """Vectorized azimuth_bin; returns (bins, valid mask).

    z-axis points get bin -1 and valid=False instead of raising.
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
    write_table(path, "{!r} {!r} {!r}", cloud.points.tolist())
