import math
import multiprocessing
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from azimuth_oracle import azimuth_bin
from eigen_oracle import smallest_eigenvectors_stacked
from smvslab import geometry, smvs
from smvslab.errors import ParameterError
from smvslab.geometry import (
    AzimuthBinning,
    LazyCovarianceIndex,
    PointCloud,
    SpatialIndex,
    azimuth_bins,
    bin_center_angle,
    estimate_covariances,
    load_xyz,
    save_xyz,
    voxel_dedup,
    voxel_downsample,
)


def test_pointcloud_arrays_frozen():
    cloud = PointCloud([[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 9.0


def test_pointcloud_copies_caller_arrays():
    pts = np.zeros((2, 3))
    covs = np.stack([np.eye(3), np.eye(3)])
    cloud = PointCloud(pts, covs)
    pts[0, 0] = 5.0
    covs[0, 0, 0] = 5.0
    assert cloud.points[0, 0] == 0.0
    assert cloud.covariances[0, 0, 0] == 1.0


def test_pointcloud_rejects_nonfinite():
    with pytest.raises(ParameterError):
        PointCloud([[np.inf, 0.0, 0.0]])


def test_pointcloud_covariance_count_mismatch():
    with pytest.raises(ParameterError):
        PointCloud(np.zeros((3, 3)), np.zeros((2, 3, 3)))


def test_azimuth_binning_validation():
    with pytest.raises(ParameterError):
        AzimuthBinning(3)
    with pytest.raises(ParameterError):
        AzimuthBinning(7)
    assert AzimuthBinning(72).bin_width == pytest.approx(2 * math.pi / 72)


def test_empty_cloud_cannot_be_indexed():
    with pytest.raises(ParameterError, match="empty cloud"):
        SpatialIndex(PointCloud(np.empty((0, 3))))


class ChunksSeen:
    """kd-tree proxy that records the length of every chunk it is asked
    to query, and the thread that asked."""

    def __init__(self, tree):
        self.tree, self.chunks = tree, []

    def query(self, points, *args, **kwargs):
        self.chunks.append((len(points), threading.get_ident()))
        return self.tree.query(points, *args, **kwargs)


def first_split(k):
    """The smallest batch that `SpatialIndex.query` splits at k neighbors,
    given a helper thread."""
    return -(-geometry.SPLIT_QUERY_SIZE // (k + 7))


@pytest.mark.parametrize("k, max_distance", [(1, 0.4), (20, np.inf)])
def test_query_in_one_batch_equals_query_in_chunks(k, max_distance):
    # The batch is split into parts, some for helper threads, and the
    # chunks run whole on the calling thread; a point's neighbors do not
    # depend on either.
    rng = np.random.default_rng(16)
    index = SpatialIndex(PointCloud(rng.uniform(-10.0, 10.0, (4000, 3))))
    points = rng.uniform(-11.0, 11.0, (2 * first_split(k) + 1, 3))
    seen = index._tree = ChunksSeen(index._tree)
    d, i = index.query(points, k=k, max_distance=max_distance)
    split = seen.chunks
    seen.chunks = []
    chunk = first_split(k) // 4
    parts = [index.query(points[s:s + chunk], k=k, max_distance=max_distance)
             for s in range(0, len(points), chunk)]
    expected = np.array_split(points, geometry._query_parts(len(points), k))
    assert sorted(n for n, _ in split) == sorted(len(e) for e in expected)
    assert [n for n, _ in seen.chunks] == [len(points[s:s + chunk]) for s in range(0, len(points), chunk)]
    assert {t for _, t in seen.chunks} == {threading.get_ident()}
    assert np.array_equal(d, np.concatenate([p[0] for p in parts]))
    assert np.array_equal(i, np.concatenate([p[1] for p in parts]))
    if max_distance < np.inf:
        assert np.isinf(d).any() and np.isfinite(d).any()


def test_split_size_grows_with_the_query_and_parts_with_the_cores(monkeypatch):
    # Two halves from 1500 points at k=1 and 445 at k=20, the sizes at which
    # they broke even on 2 cores; on more cores every part keeps at least
    # half the split size, and no host gets more parts than it has CPUs.
    monkeypatch.setattr(geometry, "_cpus", 2)
    assert (first_split(1), first_split(20)) == (1500, 445)
    for k in (1, 4, 20):
        assert geometry._query_parts(first_split(k) - 1, k) == 1
        assert geometry._query_parts(first_split(k), k) == 2
        assert geometry._query_parts(100 * first_split(k), k) == 2
    monkeypatch.setattr(geometry, "_cpus", 1)
    assert geometry._query_parts(100 * first_split(1), 1) == 1
    monkeypatch.setattr(geometry, "_cpus", 8)
    for k in (1, 20):
        for n in range(first_split(k), 6 * first_split(k), 97):
            parts = geometry._query_parts(n, k)
            assert 2 <= parts <= 8
            assert (n // parts) * (k + 7) >= geometry.SPLIT_QUERY_SIZE // 2 - (k + 7)
        assert geometry._query_parts(100 * first_split(k), k) == 8


def test_a_query_splits_into_as_many_parts_as_cpus(monkeypatch):
    # More cores than this host may have: a batch goes out in one part per
    # CPU, and the answer is the serial one.
    with ThreadPoolExecutor(3) as helpers:
        monkeypatch.setattr(geometry, "_cpus", 4)
        monkeypatch.setattr(geometry, "_helpers", helpers)
        rng = np.random.default_rng(7)
        index = SpatialIndex(PointCloud(rng.normal(size=(3000, 3))))
        points = rng.normal(size=(4 * first_split(20) + 3, 3))
        seen = index._tree = ChunksSeen(index._tree)
        d, i = index.query(points, k=20)
    assert sorted(n for n, _ in seen.chunks) == sorted(len(p) for p in np.array_split(points, 4))
    d_ref, i_ref = seen.tree.query(points, k=20)
    assert np.array_equal(d, d_ref) and np.array_equal(i, i_ref)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(1, 0.5), (1, np.inf), (20, np.inf)]),
    st.sampled_from(["normal", "small", "grid"]),
    st.data(),
)
def test_split_query_equals_one_serial_query(seed, k_and_bound, cloud, data):
    # Batches on both sides of the split size, odd lengths, clouds smaller
    # than k (k is clamped) and integer grids, whose exact distance ties the
    # split must resolve as one serial query of the same tree does.
    k, max_distance = k_and_bound
    first = first_split(k)
    batch = data.draw(st.one_of(st.sampled_from([1, 2, 3, first - 1, first, first + 1, 2 * first + 1]),
                                st.integers(1, 3 * first)))
    rng = np.random.default_rng(seed)
    if cloud == "grid":
        pts = rng.integers(-6, 7, (int(rng.integers(1, 3000)), 3)).astype(float)
        queries = rng.integers(-7, 8, (batch, 3)) * 0.5
    else:
        size = int(rng.integers(1, 20)) if cloud == "small" else int(rng.integers(20, 3000))
        pts = rng.normal(size=(size, 3)) * rng.uniform(0.1, 10.0, 3)
        queries = rng.normal(size=(batch, 3)) * 5.0
    d, i = SpatialIndex(PointCloud(pts)).query(queries, k=k, max_distance=max_distance)
    kk = min(k, len(pts))
    tree = cKDTree(pts, balanced_tree=False)
    d_ref, i_ref = tree.query(queries, k=kk, distance_upper_bound=max_distance * (1.0 + 1e-9))
    assert d.shape == i.shape == (batch, kk)
    assert np.array_equal(d, d_ref.reshape(batch, kk))
    assert np.array_equal(i, i_ref.reshape(batch, kk))


def test_callers_on_more_threads_than_cores_share_the_helpers():
    # Each caller splits its own batches; a part that a busy helper has not
    # started is taken back, and every answer is the serial one.
    rng = np.random.default_rng(5)
    index = SpatialIndex(PointCloud(rng.normal(size=(3000, 3))))
    batches = [rng.normal(size=(first_split(4) + j, 3)) for j in range(40)]
    tree = cKDTree(index.cloud.points, balanced_tree=False)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as callers:
            got = list(callers.map(lambda b: index.query(b, k=4), batches, timeout=60.0))
    finally:
        sys.setswitchinterval(switch)
    for batch, (d, i) in zip(batches, got):
        d_ref, i_ref = tree.query(batch, k=4)
        assert np.array_equal(d, d_ref) and np.array_equal(i, i_ref)


class HelperAwaited:
    """kd-tree proxy whose queries on the thread that made it wait until
    another thread has queried, so that a split is seen to reach a helper
    however the threads are scheduled; it records every querying thread."""

    def __init__(self, tree):
        self.tree, self.caller, self.threads = tree, threading.get_ident(), set()
        self.helped = threading.Event()

    def query(self, points, *args, **kwargs):
        self.threads.add(threading.get_ident())
        if threading.get_ident() == self.caller:
            self.helped.wait(10.0)
        self.helped.set()  # a part the caller takes back does not wait again
        return self.tree.query(points, *args, **kwargs)


def _split_query_in_child(conn):
    """Run in a forked child: a split query, whether it equals the serial
    one, and whether a helper thread ran a part of it."""
    rng = np.random.default_rng(1)
    index = SpatialIndex(PointCloud(rng.normal(size=(500, 3))))
    points = rng.normal(size=(2 * first_split(3), 3))
    seen = index._tree = HelperAwaited(index._tree)
    d, i = index.query(points, k=3)
    d_ref, i_ref = seen.tree.query(points, k=3)
    conn.send((np.array_equal(d, d_ref) and np.array_equal(i, i_ref), len(seen.threads) > 1))


# Python 3.12+ warns on every fork of a process with threads; the test forks
# one on purpose.
@pytest.mark.filterwarnings(r"ignore:This process \(pid=\d+\) is multi-threaded:DeprecationWarning")
def test_a_forked_child_splits_queries_on_its_own_helpers():
    # Queries in the parent start the helper threads; a forked child has
    # none of them, and must neither wait for one nor lose its own.
    index = SpatialIndex(PointCloud(np.random.default_rng(2).normal(size=(500, 3))))
    index.query(np.zeros((2 * first_split(3), 3)), k=3)
    fork = multiprocessing.get_context("fork")
    receive, send = fork.Pipe(duplex=False)
    child = fork.Process(target=_split_query_in_child, args=(send,))
    child.start()
    finished = receive.poll(60.0)
    child.join(5.0)
    if child.is_alive():
        child.kill()
        child.join()
    assert finished and child.exitcode == 0
    serial, helped = receive.recv()
    assert serial
    assert helped == (geometry._helpers is not None)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(1, 0.5), (1, np.inf), (20, np.inf)]))
def test_query_equals_balanced_tree_on_tie_free_clouds(seed, k_and_bound):
    # Random coordinates leave no two squared distances equal, so the
    # sliding-midpoint tree finds what a balanced one does.
    k, max_distance = k_and_bound
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(int(rng.integers(k, 3000)), 3)) * rng.uniform(0.1, 10.0, 3)
    queries = rng.normal(size=(int(rng.integers(1, 1500)), 3)) * 5.0
    d, i = SpatialIndex(PointCloud(pts)).query(queries, k=k, max_distance=max_distance)
    bound = max_distance * (1.0 + 1e-9)
    d_ref, i_ref = cKDTree(pts).query(queries, k=k, workers=-1, distance_upper_bound=bound)
    assert np.array_equal(d, d_ref.reshape(len(queries), k))
    assert np.array_equal(i, i_ref.reshape(len(queries), k))


def test_voxel_downsample_centroids():
    pts = np.array(
        [
            [0.1, 0.1, 0.1],
            [0.3, 0.3, 0.3],
            [2.1, 0.1, 0.1],
        ]
    )
    out = voxel_downsample(PointCloud(pts), 1.0)
    assert len(out) == 2
    rows = {tuple(np.round(p, 6)) for p in out.points}
    assert tuple(np.round([0.2, 0.2, 0.2], 6)) in rows
    assert tuple(np.round([2.1, 0.1, 0.1], 6)) in rows


def test_voxel_downsample_bruteforce_oracle():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-3, 3, size=(200, 3))
    voxel = 0.7
    out = voxel_downsample(PointCloud(pts), voxel)
    groups = {}
    for p in pts:
        groups.setdefault(tuple(np.floor(p / voxel).astype(int)), []).append(p)
    expected = {tuple(np.round(np.mean(g, axis=0), 9)) for g in groups.values()}
    got = {tuple(np.round(p, 9)) for p in out.points}
    assert got == expected


def _voxel_downsample_add_at(points, voxel):
    """The `np.add.at` centroid sums that `voxel_downsample` is checked
    against bit for bit, over voxel keys built in (N, 3) form, so a change
    of key order fails too."""
    keys = np.floor(points / voxel).astype(np.int64)
    keys -= keys.min(axis=0)
    dims = keys.max(axis=0) + 1
    flat = (keys[:, 0] * dims[1] + keys[:, 1]) * dims[2] + keys[:, 2]
    uniq, inverse = np.unique(flat, return_inverse=True)
    sums = np.zeros((len(uniq), 3))
    np.add.at(sums, inverse, points)
    return sums / np.bincount(inverse, minlength=len(uniq)).astype(np.float64)[:, None]


@st.composite
def voxel_clouds(draw):
    """Clouds of 1-300 points with negative coordinates and repeated rows."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(-draw(st.floats(0.1, 40.0)), draw(st.floats(0.1, 40.0)), size=(n, 3))
    repeats = rng.integers(0, n, size=draw(st.integers(0, n)))
    pts = np.concatenate([pts, pts[repeats]])
    return pts[rng.permutation(len(pts))], draw(st.floats(0.05, 2.0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(voxel_clouds())
@example((np.array([[-1.25, 3.5, -0.1]]), 0.05))
def test_voxel_downsample_equals_the_add_at_sums(problem):
    pts, voxel = problem
    assert np.array_equal(voxel_downsample(PointCloud(pts), voxel).points,
                          _voxel_downsample_add_at(pts, voxel))


def test_voxel_dedup_keeps_first_point():
    pts = np.array([[0.1, 0.1, 0.1], [0.4, 0.4, 0.4], [3.0, 3.0, 3.0]])
    out = voxel_dedup(PointCloud(pts), 1.0)
    assert len(out) == 2
    assert np.allclose(out.points[0], pts[0])


def test_voxel_size_validation():
    with pytest.raises(ParameterError):
        voxel_downsample(PointCloud(np.zeros((1, 3))), 0.0)
    with pytest.raises(ParameterError):
        voxel_dedup(PointCloud(np.zeros((1, 3))), -1.0)


def test_estimate_covariances_regularized_spectrum():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(50, 3))
    out = estimate_covariances(PointCloud(pts), k=10, epsilon=1e-3)
    w = np.linalg.eigvalsh(out.covariances)
    assert np.allclose(np.sort(w, axis=1), [1e-3, 1.0, 1.0])


def test_estimate_covariances_plane_normal():
    # Points on z=0: the epsilon direction must be the plane normal.
    rng = np.random.default_rng(4)
    pts = np.column_stack([rng.uniform(-5, 5, 100), rng.uniform(-5, 5, 100), np.zeros(100)])
    out = estimate_covariances(PointCloud(pts), k=10, epsilon=1e-3)
    for cov in out.covariances[:10]:
        w, v = np.linalg.eigh(cov)
        assert w[0] == pytest.approx(1e-3)
        assert abs(v[:, 0] @ [0, 0, 1]) == pytest.approx(1.0, abs=1e-9)


def test_estimate_covariances_eigvectors_from_raw():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(40, 3)) * [3.0, 1.0, 0.2]
    out = estimate_covariances(PointCloud(pts), k=8, epsilon=1e-2)
    for i in range(len(pts)):
        # Brute-force sample covariance of the 8 nearest points (itself included).
        nbrs = pts[np.argsort(np.linalg.norm(pts - pts[i], axis=1))[:8]]
        centered = nbrs - nbrs.mean(axis=0)
        _, v_raw = np.linalg.eigh(centered.T @ centered / 7)
        w, v = np.linalg.eigh(out.covariances[i])
        # Same eigenframe: the raw smallest direction carries epsilon.
        assert abs(v_raw[:, 0] @ v[:, 0]) == pytest.approx(1.0, abs=1e-6)


PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)
UNIT = st.floats(0.0, 1.0)


def eigh_regularized(raw, epsilon):
    """The covariance construction the closed form replaced: a full `eigh`,
    eigenvalues set to (epsilon, 1, 1) in ascending order, eigenvectors kept."""
    _, v = np.linalg.eigh(raw)
    return np.einsum("nij,j,nkj->nik", v, np.array([epsilon, 1.0, 1.0]), v)


@st.composite
def psd_matrices(draw):
    """Symmetric PSD 3x3 with eigenvalues scale * (t0, t1, 1) in a random frame."""
    quat = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
    rot = Rotation.from_quat(quat).as_matrix() if np.linalg.norm(quat) > 1e-3 else np.eye(3)
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    lam = scale * np.array([draw(UNIT), draw(UNIT), 1.0])
    a = rot @ np.diag(lam) @ rot.T
    return 0.5 * (a + a.T)


@PROPERTY_SETTINGS
@given(psd_matrices(), st.sampled_from([1e-3, 1e-2]))
def test_smallest_eigenvector_kernel(a, epsilon):
    n = geometry.smallest_eigenvectors(a[None])[0]
    w = np.linalg.eigvalsh(a)
    assert abs(np.linalg.norm(n) - 1.0) <= 1e-12
    assert np.linalg.norm(a @ n - w[0] * n) <= 1e-9 * w[2]
    cov = geometry._regularize(a[None], epsilon)[0]
    assert np.abs(np.linalg.eigvalsh(cov) - [epsilon, 1.0, 1.0]).max() <= 1e-12
    # Both constructions are accurate to rounding over the eigengap (eigh
    # itself is off the exact eigenvector by ~2e-10 at a gap of 1e-6 w[2]),
    # so they agree to 1e-10 where the gap is 1e-3 w[2] and widen below it.
    gap = min(w[1] - w[0], w[2] - w[1])
    if gap >= 1e-6 * w[2]:
        oracle = eigh_regularized(a[None], epsilon)[0]
        assert np.abs(cov - oracle).max() <= 1e-13 * w[2] / gap


@PROPERTY_SETTINGS
@given(psd_matrices())
def test_top_eigenvector_from_negated_matrix(a):
    # SMVS takes top eigenvectors as the smallest ones of -A.
    u = geometry.smallest_eigenvectors(-a[None])[0]
    w, v = np.linalg.eigh(a)
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
    assert np.linalg.norm(a @ u - w[2] * u) <= 1e-9 * w[2]
    if w[2] - w[1] >= 1e-6 * w[2]:
        assert min(np.linalg.norm(u - v[:, 2]), np.linalg.norm(u + v[:, 2])) <= 1e-9


def test_top_eigenvector_without_a_unique_top_direction():
    rot = Rotation.from_rotvec([0.3, -1.1, 0.7]).as_matrix()
    repeated = rot @ np.diag([1.0, 3.0, 3.0]) @ rot.T
    scalar = 2.5 * np.eye(3)
    for a in (repeated, scalar):
        u = geometry.smallest_eigenvectors(-a[None])[0]
        assert np.isfinite(u).all()
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
        assert np.linalg.norm(a @ u - np.linalg.eigvalsh(a)[2] * u) <= 1e-12
    # q = 0 and W = I make M^1/2 W M^1/2 = I: every direction is on top.
    w = smvs._local_directions(np.zeros((1, 3)), np.eye(3)[None])[0]
    assert np.isfinite(w).all()
    assert abs(np.linalg.norm(w) - 1.0) <= 1e-12


def eigen_kernel_batch(family, rng, n=64):
    """n symmetric 3x3 matrices of one family where the kernel branches."""
    rot = Rotation.random(n, random_state=rng).as_matrix()
    scale = 10.0 ** rng.uniform(-6.0, 6.0, (n, 1, 1))
    if family == "symmetric":
        x = rng.normal(size=(n, 3, 3))
        return scale * (x + x.transpose(0, 2, 1))
    if family in ("psd", "negated_psd", "lower_garbage"):
        a = scale * np.einsum("nij,nj,nkj->nik", rot, rng.uniform(0.0, 1.0, (n, 3)), rot)
        if family == "lower_garbage":
            # Only upper triangles are read.
            a[:, [1, 2, 2], [0, 0, 1]] = rng.normal(size=(n, 3)) * 1e3
        return -a if family == "negated_psd" else a
    if family == "scalar_or_zero":
        return rng.choice([0.0, -0.0, 1.0, -1.0], (n, 1, 1)) * scale * np.eye(3)
    if family == "rank_one":
        v = rng.normal(size=(n, 3))
        return scale * v[:, :, None] * v[:, None, :]
    if family == "near_repeated":
        lam = np.array([1.0, 1.0 + 1e-9, 2.0])[rng.permuted(np.tile([0, 1, 2], (n, 1)), axis=1)]
        return scale * rng.choice([-1.0, 1.0], (n, 1, 1)) * np.einsum("nij,nj,nkj->nik", rot, lam, rot)
    assert family == "ones"
    # s D (I + 11^T) D, D a diagonal of signs: for s > 0 lambda is exact and
    # the three cross products tie in norm, equal or opposite, so argmax's
    # first-index rule decides e's sign.
    d = rng.choice([-1.0, 1.0], (n, 3))
    s = rng.choice([-1.0, 1.0], (n, 1, 1)) * 2.0 ** rng.integers(-20, 21, (n, 1, 1))
    return s * d[:, :, None] * (np.eye(3) + 1.0) * d[:, None, :]


EIGEN_FAMILIES = [
    "symmetric", "psd", "negated_psd", "lower_garbage", "scalar_or_zero",
    "rank_one", "near_repeated", "ones",
]


@settings(max_examples=160, deadline=None, derandomize=True)
@given(st.sampled_from(EIGEN_FAMILIES), st.integers(0, 2**32 - 1))
def test_smallest_eigenvectors_equal_the_stacked_kernel(family, seed):
    a = eigen_kernel_batch(family, np.random.default_rng(seed))
    got = geometry.smallest_eigenvectors(a)
    expected = smallest_eigenvectors_stacked(a)
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))
    assert got.strides == expected.strides
    upper = np.triu(a) + np.triu(a, 1).transpose(0, 2, 1)
    assert np.array_equal(geometry.smallest_eigenvectors(upper), got)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.lists(st.integers(0, 59), max_size=40), min_size=1, max_size=6),
)
def test_lazy_covariances_on_any_sequence_of_id_batches(seed, batches):
    # Repeated, unordered, empty and already-known ids, over several calls.
    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.normal(size=(60, 3)) * [4.0, 2.0, 0.3])
    eager = estimate_covariances(cloud, k=8, epsilon=1e-3).covariances
    lazy = LazyCovarianceIndex(cloud, k=8, epsilon=1e-3)
    asked = set()
    for ids in batches:
        got = lazy.covariances_at(ids)
        assert got.shape == (len(ids), 3, 3)
        assert np.array_equal(got, eager[np.array(ids, dtype=np.int64)])
        asked.update(ids)
    assert np.array_equal(np.flatnonzero(lazy._known), sorted(asked))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([4, 7, 20]))
def test_neighbor_covariances_equal_fancy_index_mean(seed, k):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(int(rng.integers(k, 400)), 3)) * rng.uniform(0.01, 50.0, 3)
    index = SpatialIndex(PointCloud(pts + rng.uniform(-1e3, 1e3, 3)))
    for ids in (slice(None), rng.integers(0, len(pts), 25)):
        p = index.cloud.points
        neigh = p[index.query(p[ids], k=k)[1]]
        centered = neigh - neigh.mean(axis=1, keepdims=True)
        expected = (centered.transpose(0, 2, 1) @ centered) / (k - 1)
        assert np.array_equal(geometry._neighbor_covariances(index, ids, k), expected)


def test_covariances_of_degenerate_neighborhoods():
    # Exact plane (smallest eigenvalue 0), line (two smallest equal),
    # isotropic blob (all equal) and k coincident points (zero matrix).
    grid = np.array([[i, j, 0.0] for i in range(4) for j in range(4)])
    line = np.outer(np.arange(8.0), [1.0, 2.0, -0.5])
    blob = np.vstack([np.eye(3), -np.eye(3)])
    same = np.full((5, 3), 1.5)
    epsilon = 1e-3
    for pts, normal_to in ((grid, None), (line, [1.0, 2.0, -0.5]), (blob, None), (same, None)):
        cov = estimate_covariances(PointCloud(pts), k=len(pts), epsilon=epsilon).covariances
        assert np.isfinite(cov).all()
        assert np.abs(np.linalg.eigvalsh(cov) - [epsilon, 1.0, 1.0]).max() <= 1e-12
        if normal_to is not None:
            # The line direction lies in the (1, 1) eigenspace.
            d = np.array(normal_to) / np.linalg.norm(normal_to)
            assert np.abs(cov @ d - d).max() <= 1e-12
    plane = estimate_covariances(PointCloud(grid), k=len(grid), epsilon=epsilon).covariances
    assert np.abs(plane - np.diag([1.0, 1.0, epsilon])).max() <= 1e-15
    # A multiple of I has every direction as an eigenvector; like eigh,
    # the kernel then returns e_0.
    scalar = np.stack([np.zeros((3, 3)), 2.0 * np.eye(3)])
    got = geometry._regularize(scalar, epsilon)
    assert np.abs(got - eigh_regularized(scalar, epsilon)).max() <= 1e-15


def test_lazy_covariances_equal_estimate_covariances():
    # Estimated point by point on request, in any order and batch size, the
    # covariances are those of the whole-cloud estimate, bit for bit.
    rng = np.random.default_rng(8)
    cloud = PointCloud(rng.normal(size=(300, 3)) * [4.0, 2.0, 0.3])
    eager = estimate_covariances(cloud, k=12, epsilon=1e-2).covariances
    lazy = LazyCovarianceIndex(cloud, k=12, epsilon=1e-2)
    assert lazy.has_covariances
    for size in (1, 5, 40, 300):
        ids = rng.integers(0, len(cloud), size)
        assert np.array_equal(lazy.covariances_at(ids), eager[ids])
    everything = np.arange(len(cloud))[::-1]
    assert np.array_equal(lazy.covariances_at(everything), eager[everything])
    with pytest.raises(ParameterError):
        LazyCovarianceIndex(cloud, k=3, epsilon=1e-3)
    with pytest.raises(ParameterError):
        LazyCovarianceIndex(PointCloud(np.zeros((5, 3))), k=6, epsilon=1e-3)


def test_estimate_covariances_validation():
    cloud = PointCloud(np.random.default_rng(6).normal(size=(10, 3)))
    with pytest.raises(ParameterError):
        estimate_covariances(cloud, k=3)
    with pytest.raises(ParameterError):
        estimate_covariances(cloud, k=11)


def test_azimuth_matches_atan2():
    # Each point's region spans its atan2 angle.
    binning = AzimuthBinning(72)
    pts = np.random.default_rng(7).normal(size=(50, 3))
    bins, valid = azimuth_bins(pts, binning)
    assert valid.all()
    for p, k in zip(pts, bins):
        offset = math.atan2(p[1], p[0]) - bin_center_angle(k, binning)
        assert abs(offset) <= binning.bin_width / 2.0 + 1e-12


def test_azimuth_undefined_on_z_axis():
    pts = [(0.0, 0.0, 1.0), (-0.0, 0.0, -2.0), (1.0, 0.0, 0.0)]
    bins, valid = azimuth_bins(pts, AzimuthBinning(72))
    assert valid.tolist() == [False, False, True]
    assert bins.tolist()[:2] == [-1, -1]


def test_azimuth_bin_formula():
    binning = AzimuthBinning(72)
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(200, 3))
    bins, _ = azimuth_bins(pts, binning)
    for p, k in zip(pts, bins):
        theta = math.atan2(p[1], p[0])
        expected = int(math.floor((theta + math.pi) / binning.bin_width)) % 72
        assert k == expected


def test_azimuth_bins_vectorized_matches_scalar():
    binning = AzimuthBinning(36)
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(100, 3))
    pts[7] = [0.0, 0.0, 2.0]
    bins, valid = azimuth_bins(pts, binning)
    assert not valid[7] and bins[7] == -1
    for i, p in enumerate(pts):
        if valid[i]:
            assert bins[i] == azimuth_bin(p, binning)


def test_bin_center_angle_roundtrip():
    binning = AzimuthBinning(72)
    angles = [bin_center_angle(k, binning) for k in range(72)]
    bins, _ = azimuth_bins([(math.cos(a), math.sin(a), 0.0) for a in angles], binning)
    assert bins.tolist() == list(range(72))


def test_xyz_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    cloud = PointCloud(rng.normal(size=(30, 3)))
    path = tmp_path / "cloud.xyz"
    save_xyz(cloud, path)
    back = load_xyz(path)
    assert np.array_equal(back.points, cloud.points)


def test_load_xyz_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("1 2 3\n4 5\n")
    with pytest.raises(ParameterError, match=":2"):
        load_xyz(path)
    path.write_text("1 2 3\n4 5 x\n")
    with pytest.raises(ParameterError, match=":2"):
        load_xyz(path)


def test_load_xyz_skips_comments(tmp_path):
    path = tmp_path / "c.xyz"
    path.write_text("# header\n1 2 3\n\n4 5 6\n")
    assert len(load_xyz(path)) == 2
