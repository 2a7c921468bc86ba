import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from local_hessians import skew
from smvslab import geometry
from smvslab.errors import AnalysisError, ParameterError
from smvslab.geometry import (
    AzimuthBinning,
    LazyCovarianceIndex,
    PointCloud,
    SpatialIndex,
    bin_center_angle,
    estimate_covariances,
)
from smvslab.matching import linearize
from smvslab.pipelines import GICP
from smvslab.se3 import PoseSE3
from smvslab.smvs import (
    SmvsConfig,
    _local_directions,
    frame_seed,
    framewise_smvs,
    load_profile_csv,
    perturbed_clones,
    pointwise_smvs,
    trajectory_smvs,
)


def structured_frame(seed, n=200):
    rng = np.random.default_rng(seed)
    ground = np.column_stack(
        [rng.uniform(-8, 8, n), rng.uniform(-8, 8, n), np.zeros(n)]
    )
    wall = np.column_stack(
        [rng.uniform(-8, 8, n), np.full(n, 6.0), rng.uniform(0, 4, n)]
    )
    return PointCloud(np.concatenate([ground, wall]))


# ---------------------------------------------------------------- clones


def test_clones_deterministic():
    frame = structured_frame(0)
    a1, b1 = perturbed_clones(frame, 0.02, 0.8, 42)
    a2, b2 = perturbed_clones(frame, 0.02, 0.8, 42)
    assert np.array_equal(a1.points, a2.points)
    assert np.array_equal(b1.points, b2.points)


def test_clones_independent():
    frame = structured_frame(1)
    a, b = perturbed_clones(frame, 0.02, 0.8, 0)
    assert not np.array_equal(a.points, b.points)


def test_clone_size_is_rounded_keep_ratio():
    frame = structured_frame(2, n=101)  # 202 points total
    a, b = perturbed_clones(frame, 0.01, 0.9, 0)
    assert len(a) == round(0.9 * 202)
    assert len(b) == round(0.9 * 202)


def test_clones_sigma_zero_subsets_original():
    frame = structured_frame(3)
    a, _ = perturbed_clones(frame, 0.0, 0.5, 1)
    original = {tuple(p) for p in frame.points}
    assert all(tuple(p) in original for p in a.points)


def test_clone_params_validation():
    with pytest.raises(ParameterError):
        SmvsConfig(clone_sigma=-0.1)
    for sigma in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="noise sigma must be finite"):
            SmvsConfig(clone_sigma=sigma)
    with pytest.raises(ParameterError):
        SmvsConfig(keep_ratio=0.0)
    with pytest.raises(ParameterError):
        SmvsConfig(keep_ratio=1.5)
    with pytest.raises(ParameterError):
        perturbed_clones(PointCloud(np.empty((0, 3))), 0.01, 0.9, 0)


def test_config_rejects_threads_below_one():
    for threads in (0, -2):
        with pytest.raises(ParameterError, match=f"threads={threads} must be >= 1"):
            SmvsConfig(threads=threads)
    assert SmvsConfig(threads=2).threads == 2


def test_config_rejects_d_th_beyond_half_the_regions():
    with pytest.raises(ParameterError, match="d_th=40 exceeds n/2=36"):
        SmvsConfig(d_th=40)
    with pytest.raises(ParameterError, match="d_th=5 exceeds n/2=4"):
        SmvsConfig(binning=AzimuthBinning(8), d_th=5)
    assert SmvsConfig(d_th=36).d_th == 36


# ---------------------------------------------------------------- point-wise


def prepared_clones(seed, sigma=0.01):
    frame = structured_frame(seed)
    src, tgt = perturbed_clones(frame, sigma, 0.9, seed)
    return estimate_covariances(src, k=10), estimate_covariances(tgt, k=10)


def identity_linearization(source, index):
    """The linearization `pointwise_smvs` scores: at the identity, with the
    pipelines' correspondence radius."""
    return linearize(source, index, PoseSE3.identity(), GICP.matcher.max_corr_dist)


def dense_importance_oracle(source, target, max_corr_dist=2.0):
    """Recompute importances from scratch with per-point dense eigensolves."""
    from scipy.linalg import cholesky, eigh
    from scipy.spatial import cKDTree

    tree = cKDTree(target.points)
    d, j = tree.query(source.points, k=1)
    matched = d <= max_corr_dist
    locals_h = np.zeros((len(source), 6, 6))
    h_global = np.zeros((6, 6))
    for i in range(len(source)):
        if not matched[i]:
            continue
        a = source.points[i]
        w = np.linalg.inv(target.covariances[j[i]] + source.covariances[i])
        l = cholesky((w + w.T) / 2, lower=True)
        sk = np.array(
            [[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]], dtype=float
        )
        jac = l.T @ np.hstack([sk, -np.eye(3)])
        locals_h[i] = jac.T @ jac
        h_global += locals_h[i]
    _, vg = eigh(h_global)
    x_min = vg[:, 0]
    importance = np.zeros(len(source))
    for i in range(len(source)):
        if not matched[i]:
            continue
        _, vl = eigh(locals_h[i])
        importance[i] = abs(vl[:, -1] @ x_min)
    return importance, matched


def test_pointwise_matches_dense_oracle():
    for seed in range(3):
        source, target = prepared_clones(seed)
        importance, _ = pointwise_smvs(source, SpatialIndex(target))
        oracle, matched = dense_importance_oracle(source, target)
        system = identity_linearization(source, SpatialIndex(target))
        assert np.array_equal(system.correspondences >= 0, matched)
        assert np.max(np.abs(importance - oracle)) < 1e-9


@st.composite
def local_problems(draw):
    """A point q, from the origin out to 50 m, and an SPD weight A A^T + eps I."""
    direction = draw(arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)))
    norm = np.linalg.norm(direction)
    radius = draw(st.one_of(st.just(0.0), st.floats(0.0, 50.0)))
    q = radius * direction / norm if norm > 0 else np.zeros(3)
    a = draw(arrays(np.float64, (3, 3), elements=st.floats(-1.0, 1.0)))
    weight = a @ a.T + draw(st.floats(0.01, 1.0)) * np.eye(3)
    return q, weight


@settings(max_examples=200, deadline=None, derandomize=True)
@given(local_problems())
def test_local_direction_is_top_eigenvector_of_local_hessian(problem):
    q, weight = problem
    w = _local_directions(q[None], weight[None])[0]
    v = np.concatenate([np.cross(w, q), -w])
    jac = np.hstack([skew(q), -np.eye(3)])
    hessian = jac.T @ weight @ jac
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    lam = np.linalg.eigvalsh(hessian)
    assert np.linalg.norm(hessian @ v - lam[-1] * v) <= 1e-9 * lam[-1]
    if lam[-1] - lam[-2] >= 1e-6 * lam[-1]:
        v_ref = np.linalg.eigh(hessian)[1][:, -1]
        assert abs(abs(v @ v_ref) - 1.0) < 1e-9


def test_pointwise_lazy_target_bit_identical():
    k, eps = GICP.covariance_k, GICP.covariance_epsilon
    for seed in range(3):
        src, tgt = perturbed_clones(structured_frame(seed), 0.01, 0.9, seed)
        source = estimate_covariances(src, k=k, epsilon=eps)
        eager_index = SpatialIndex(estimate_covariances(tgt, k=k, epsilon=eps))
        lazy_index = LazyCovarianceIndex(tgt, k=k, epsilon=eps)
        eager, eager_degenerate = pointwise_smvs(source, eager_index)
        lazy, lazy_degenerate = pointwise_smvs(source, lazy_index)
        assert np.array_equal(lazy, eager)
        assert lazy_degenerate == eager_degenerate
        eager_system = identity_linearization(source, eager_index)
        lazy_system = identity_linearization(source, lazy_index)
        assert np.array_equal(lazy_system.h_global, eager_system.h_global)
        assert np.array_equal(lazy_system.correspondences, eager_system.correspondences)


def test_pointwise_importance_in_unit_interval():
    source, target = prepared_clones(4)
    importance, _ = pointwise_smvs(source, SpatialIndex(target))
    assert np.all(importance >= 0.0)
    assert np.all(importance <= 1.0)


def test_pointwise_unmatched_importance_zero():
    rng = np.random.default_rng(5)
    base = structured_frame(5)
    src_pts = np.concatenate([base.points, [[500.0, 500.0, 0.0]]])
    source = estimate_covariances(PointCloud(src_pts), k=10)
    target = estimate_covariances(
        PointCloud(base.points + rng.normal(0, 0.01, base.points.shape)), k=10
    )
    importance, _ = pointwise_smvs(source, SpatialIndex(target))
    assert identity_linearization(source, SpatialIndex(target)).correspondences[-1] < 0
    assert importance[-1] == 0.0


def test_pointwise_rotation_equivariance():
    # Rotating both clouds about the origin preserves every importance.
    from smvslab.se3 import PoseSE3

    source, target = prepared_clones(6)
    rot = PoseSE3.from_rpy(0.0, 0.0, 0.7).rotation_matrix()
    src_r = PointCloud(source.points @ rot.T, rot @ source.covariances @ rot.T)
    tgt_r = PointCloud(target.points @ rot.T, rot @ target.covariances @ rot.T)
    importance, _ = pointwise_smvs(source, SpatialIndex(target))
    importance_r, _ = pointwise_smvs(src_r, SpatialIndex(tgt_r))
    assert np.max(np.abs(importance - importance_r)) < 1e-7


def test_pointwise_no_overlap_raises():
    a = estimate_covariances(structured_frame(7), k=10)
    b = PointCloud(a.points + 1000.0, a.covariances)
    with pytest.raises(AnalysisError):
        pointwise_smvs(a, SpatialIndex(b))


def test_degenerate_spectrum_flagged_for_corridor():
    # A single infinite-like plane leaves several near-zero global directions.
    rng = np.random.default_rng(8)
    plane = np.column_stack(
        [rng.uniform(-10, 10, 400), rng.uniform(-10, 10, 400), np.zeros(400)]
    )
    source = estimate_covariances(PointCloud(plane), k=10)
    target = estimate_covariances(
        PointCloud(plane + rng.normal(0, 0.005, plane.shape)), k=10
    )
    _, degenerate = pointwise_smvs(source, SpatialIndex(target))
    assert degenerate


# ---------------------------------------------------------------- frame-wise


def importance_at_bins(bin_scores, binning):
    """One synthetic point per (bin, score) pair placed at the bin center."""
    pts, vals = [], []
    for k, s in bin_scores:
        ang = bin_center_angle(k, binning)
        pts.append((math.cos(ang), math.sin(ang), 0.0))
        vals.append(s)
    return np.asarray(vals, dtype=np.float64), PointCloud(np.asarray(pts))


def test_framewise_single_bin_closed_form():
    binning = AzimuthBinning(72)
    s = 0.37
    imp, cloud = importance_at_bins([(11, s)], binning)
    smvs, k_center, _ = framewise_smvs(imp, cloud, binning, d_th=8)
    assert k_center == 11
    assert abs(smvs - 8 * s) < 1e-12


def test_framewise_adjacent_bins_closed_form():
    binning = AzimuthBinning(72)
    s1, s2 = 0.6, 0.25
    imp, cloud = importance_at_bins([(20, s1), (21, s2)], binning)
    smvs, k_center, _ = framewise_smvs(imp, cloud, binning, d_th=8)
    assert k_center == 20
    assert abs(smvs - (8 * s1 + 7 * s2)) < 1e-12


def test_framewise_uniform_closed_form():
    binning = AzimuthBinning(72)
    s = 0.5
    imp, cloud = importance_at_bins([(k, s) for k in range(72)], binning)
    smvs, k_center, _ = framewise_smvs(imp, cloud, binning, d_th=8)
    assert k_center == 0  # ties resolve to the smallest region id
    assert abs(smvs - (-720.0 * s)) < 1e-12


def test_framewise_score_mass_conserved():
    source, target = prepared_clones(9)
    importance, _ = pointwise_smvs(source, SpatialIndex(target))
    binning = AzimuthBinning(72)
    _, _, scores = framewise_smvs(importance, source, binning, d_th=8)
    from smvslab.geometry import azimuth_bins

    _, valid = azimuth_bins(source.points, binning)
    assert scores.sum() == pytest.approx(importance[valid].sum())


def test_framewise_rotation_by_whole_bins_shifts_center():
    binning = AzimuthBinning(72)
    imp, cloud = importance_at_bins([(10, 0.5), (11, 0.2)], binning)
    smvs, k_center, _ = framewise_smvs(imp, cloud, binning, d_th=8)
    shift = 5
    rotated = PointCloud(
        cloud.points
        @ np.array(
            [
                [math.cos(shift * binning.bin_width), math.sin(shift * binning.bin_width), 0],
                [-math.sin(shift * binning.bin_width), math.cos(shift * binning.bin_width), 0],
                [0, 0, 1],
            ]
        )
    )
    smvs_r, k_center_r, _ = framewise_smvs(imp, rotated, binning, d_th=8)
    assert k_center_r == (k_center + shift) % 72
    assert smvs_r == pytest.approx(smvs)


def test_framewise_d_th_validation():
    binning = AzimuthBinning(8)
    imp, cloud = importance_at_bins([(0, 1.0)], binning)
    with pytest.raises(ParameterError):
        framewise_smvs(imp, cloud, binning, d_th=5)


def test_framewise_all_z_axis_raises():
    cloud = PointCloud([[0.0, 0.0, 1.0], [0.0, 0.0, -2.0]])
    with pytest.raises(AnalysisError):
        framewise_smvs(np.ones(2), cloud, AzimuthBinning(72), d_th=8)


# ---------------------------------------------------------------- trajectory


def tiny_dataset(num_frames=3):
    from smvslab.datasets import FrameDataset
    from smvslab.se3 import PoseSE3
    from smvslab.trajectory import Trajectory

    frames = [structured_frame(100 + i, n=80) for i in range(num_frames)]
    ts = [0.1 * i for i in range(num_frames)]
    poses = [PoseSE3.from_rpy(0, 0, 0.01 * i, (i, 0.0, 0.0)) for i in range(num_frames)]
    return FrameDataset(frames, ts, Trajectory(ts, poses))


def test_frame_seed_deterministic_and_distinct():
    assert frame_seed(7, 3) == frame_seed(7, 3)
    assert frame_seed(7, 3) != frame_seed(7, 4)
    assert frame_seed(7, 3) != frame_seed(8, 3)


def test_trajectory_smvs_deterministic(tmp_path):
    ds = tiny_dataset()
    cfg = SmvsConfig(seed=11)
    p1 = trajectory_smvs(ds, ds.ground_truth, cfg)
    p2 = trajectory_smvs(ds, ds.ground_truth, cfg)
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    p1.save_csv(f1)
    p2.save_csv(f2)
    assert f1.read_bytes() == f2.read_bytes()


def test_trajectory_smvs_thread_count_invariant(tmp_path):
    ds = tiny_dataset(4)
    p1 = trajectory_smvs(ds, ds.ground_truth, SmvsConfig(seed=11, threads=1))
    p4 = trajectory_smvs(ds, ds.ground_truth, SmvsConfig(seed=11, threads=4))
    f1, f4 = tmp_path / "t1.csv", tmp_path / "t4.csv"
    p1.save_csv(f1)
    p4.save_csv(f4)
    assert f1.read_bytes() == f4.read_bytes()


def test_trajectory_smvs_builds_two_trees_per_frame(monkeypatch):
    builds = []

    def counting_tree(points, *args, **kwargs):
        builds.append(len(points))
        return original(points, *args, **kwargs)

    original = geometry.cKDTree
    monkeypatch.setattr(geometry, "cKDTree", counting_tree)
    ds = tiny_dataset(3)
    profile = trajectory_smvs(ds, ds.ground_truth, SmvsConfig(seed=11))
    assert len(profile) == 3
    assert len(builds) == 2 * 3


def test_trajectory_smvs_length_mismatch():
    ds = tiny_dataset()
    from smvslab.trajectory import Trajectory

    short = Trajectory(ds.ground_truth.timestamps[:2], ds.ground_truth.poses[:2])
    with pytest.raises(ParameterError):
        trajectory_smvs(ds, short, SmvsConfig())


def test_profile_csv_roundtrip(tmp_path):
    ds = tiny_dataset()
    profile = trajectory_smvs(ds, ds.ground_truth, SmvsConfig(binning=AzimuthBinning(36), seed=5))
    path = tmp_path / "profile.csv"
    profile.save_csv(path)
    back = load_profile_csv(path)
    assert len(back) == len(profile)
    assert back.binning == AzimuthBinning(36)
    for a, b in zip(profile.entries, back.entries):
        assert a.frame_id == b.frame_id
        assert a.smvs == b.smvs
        assert a.k_center == b.k_center
        assert a.degenerate_spectrum == b.degenerate_spectrum
        assert np.allclose(a.pose.translation, b.pose.translation)
        assert np.allclose(a.pose.quat, b.pose.quat)


def test_load_profile_csv_rejects_malformed_rows(tmp_path):
    header = "frame_id,timestamp,smvs,k_center,tx,ty,tz,qx,qy,qz,qw,n_regions,degenerate\n"
    good = "0,0.0,0.5,3,0.0,0.0,0.0,0.0,0.0,0.0,1.0,72,0\n"
    path = tmp_path / "profile.csv"
    path.write_text(header + good + "1,0.1,oops\n")
    with pytest.raises(ParameterError, match=r"profile\.csv:3: expected 13 fields"):
        load_profile_csv(path)
    path.write_text(header + good + good.replace("0.5", "oops"))
    with pytest.raises(ParameterError, match=r"profile\.csv:3: non-numeric"):
        load_profile_csv(path)
    for bad, message in (
        ("1,0.1,nan,3,0.0,0.0,0.0,0.0,0.0,0.0,1.0,72,0\n", "non-finite"),
        ("1,0.1,0.5,3,inf,0.0,0.0,0.0,0.0,0.0,1.0,72,0\n", "non-finite"),
        ("1,0.1,0.5,3,0.0,0.0,0.0,0.0,0.0,0.0,2.0,72,0\n", "quaternion norm"),
        ("1,0.1,0.5,3,0.0,0.0,0.0,0.0,0.0,0.0,1.0,36,0\n", "n_regions 36 differs from 72"),
        ("1,0.1,0.5,72,0.0,0.0,0.0,0.0,0.0,0.0,1.0,72,0\n", r"k_center 72 outside \[0, 72\)"),
        ("1,0.1,0.5,3,0.0,0.0,0.0,0.0,0.0,0.0,1.0,72,7\n", "degenerate 7 is not 0 or 1"),
    ):
        path.write_text(header + good + bad)
        with pytest.raises(ParameterError, match=rf"profile\.csv:3: {message}"):
            load_profile_csv(path)
    path.write_text(header + good.replace(",72,", ",7,"))
    with pytest.raises(ParameterError, match=r"profile\.csv:2: region count must be even"):
        load_profile_csv(path)
    path.write_text(header + good + "\n")
    assert len(load_profile_csv(path)) == 1
