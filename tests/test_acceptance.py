"""End-to-end acceptance criteria.

Each test prints exactly one PASS/FAIL line (visible even under output
capture) and asserts the stated threshold. The shared synthetic course is
the "mixed" archetype: a structured canyon followed by an open segment
with a single wall cluster, 80 frames at 10 Hz.
"""

import filecmp
import math
import os
import time

import numpy as np
import pytest

from local_hessians import local_hessians
from smvslab.attacks import AttackSpec, AzimuthWindow, apply_injection, apply_removal, attack_dataset
from smvslab.cli import dispatch
from smvslab.geometry import AzimuthBinning, PointCloud, SpatialIndex, bin_center_angle
from smvslab.matching import linearize, matching_cost
from smvslab.metrics import ape, rpe
from smvslab.pipelines import GICP, build_prior_map, odometry_run, priormap_localize
from smvslab.placement import choose_recommended, optimize_placement
from smvslab.se3 import PoseSE3, left_update
from smvslab.simulate import SceneSpec, SensorModel, TrajectorySpec, build_scene, generate_dataset
from smvslab.smvs import SmvsConfig, framewise_smvs, pointwise_smvs, trajectory_smvs
from smvslab.trajectory import Trajectory

SENSOR = SensorModel(
    rings=16,
    vertical_fov_deg=30.0,
    horizontal_resolution_deg=1.0,
    max_range=30.0,
    range_noise_sigma=0.01,
)
COURSE = TrajectorySpec(waypoints=((0.0, 0.0), (48.0, 0.0)), speed=6.0, frame_rate=10.0)
ATTACK_NOISE_RANGE = (1.0, 30.0)
SPOOFER_RANGE = 18.0
STANDOFF = 12.0


def announce(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


# ------------------------------------------------------------ shared course


@pytest.fixture(scope="session")
def course():
    scene = build_scene(SceneSpec(archetype="mixed"))
    return generate_dataset(scene, COURSE, SENSOR, seed=1)


@pytest.fixture(scope="session")
def prior_map(course):
    return build_prior_map(course, course.ground_truth)


@pytest.fixture(scope="session")
def benign_runs(course, prior_map):
    init = course.ground_truth.poses[0]
    odom_est, _ = odometry_run(course, init)
    pm_est, _ = priormap_localize(course, prior_map, init=init)
    return ape(odom_est, course.ground_truth), ape(pm_est, course.ground_truth)


@pytest.fixture(scope="session")
def smvs_profile(course):
    return trajectory_smvs(course, course.ground_truth, SmvsConfig(seed=7, threads=4))


def spoofer_toward_peak_region(entry):
    """Spoofer position at a fixed standoff along the frame's peak-score direction."""
    angle = entry.pose.yaw() + bin_center_angle(entry.k_center, AzimuthBinning())
    p = entry.pose.translation
    return (p[0] + STANDOFF * math.cos(angle), p[1] + STANDOFF * math.sin(angle))


def attack_spec(seed):
    return AttackSpec(model="removal_noise", noise_range=ATTACK_NOISE_RANGE,
                      spoofer_range=SPOOFER_RANGE, seed=seed)


def attacked_ape_pair(course, prior_map, spoofer, seed):
    """APE RMSE of both pipelines on one attacked replay."""
    attacked = attack_dataset(course, spoofer, attack_spec(seed), SENSOR)
    init = course.ground_truth.poses[0]
    odom_est, _ = odometry_run(attacked, init)
    odom = ape(odom_est, course.ground_truth).rmse
    pm_est, _ = priormap_localize(attacked, prior_map, init=init)
    pm = ape(pm_est, course.ground_truth).rmse
    return odom, pm


def attacked_priormap_ape(course, prior_map, position, seed):
    attacked = attack_dataset(course, position, attack_spec(seed), SENSOR)
    est, _ = priormap_localize(attacked, prior_map, init=course.ground_truth.poses[0])
    return ape(est, course.ground_truth).rmse


# ------------------------------------------------------------ criterion 1


def random_matching_problem(seed, n=40):
    rng = np.random.default_rng(seed)
    tgt = rng.uniform(-5, 5, size=(n, 3))
    src = tgt + rng.normal(0.0, 0.05, size=(n, 3))

    def spd(k):
        a = rng.normal(size=(k, 3, 3))
        return np.einsum("nij,nkj->nik", a, a) + 0.5 * np.eye(3)

    from smvslab.se3 import exp_twist

    pose = exp_twist(0.05 * rng.normal(size=6))
    return (
        PointCloud(src, spd(n)),
        SpatialIndex(PointCloud(tgt, spd(n))),
        pose,
    )


def test_criterion_1_linearization(capsys):
    start = time.monotonic()
    worst_grad = 0.0
    worst_sum = 0.0
    worst_jac = 0.0
    eps = 1e-6
    for seed in range(20):
        source, index, pose = random_matching_problem(seed)
        system = linearize(source, index, pose, GICP.matcher.max_corr_dist)
        matched = system.correspondences >= 0
        chol = np.linalg.cholesky(system.weights)
        b_pts = index.cloud.points[system.correspondences[matched]]
        src_matched = source.points[matched]

        def residuals(delta):
            # Whitened residuals with correspondences and weights fixed at
            # the base pose, as the linearization holds them.
            p = left_update(pose, delta)
            q = src_matched @ p.rotation_matrix().T + p.translation
            return np.einsum("nji,nj->ni", chol, b_pts - q)

        # Gradient of the fixed-correspondence cost vs central differences.
        grad_fd = np.zeros(6)
        for k in range(6):
            e = np.zeros(6)
            e[k] = eps
            up = matching_cost(
                source, index.cloud, system.correspondences, system.weights,
                left_update(pose, e),
            )
            dn = matching_cost(
                source, index.cloud, system.correspondences, system.weights,
                left_update(pose, -e),
            )
            grad_fd[k] = (up - dn) / (2 * eps)
        analytic = 2.0 * system.b_global
        rel = np.linalg.norm(grad_fd - analytic) / max(np.linalg.norm(grad_fd), 1.0)
        worst_grad = max(worst_grad, rel)

        # Per-point Jacobian of the whitened residual vs central differences.
        jac_fd = np.zeros((len(src_matched), 3, 6))
        for k in range(6):
            e = np.zeros(6)
            e[k] = eps
            jac_fd[:, :, k] = (residuals(e) - residuals(-e)) / (2 * eps)
        h_fd = np.einsum("nij,nik->njk", jac_fd, jac_fd)
        local = local_hessians(system)
        h_analytic = local[matched]
        scale = max(np.abs(h_fd).max(), 1.0)
        worst_jac = max(worst_jac, np.abs(h_fd - h_analytic).max() / scale)

        # Global Hessian must equal the sum of the local ones.
        total = local.sum(axis=0)
        denom = max(np.abs(system.h_global).max(), 1.0)
        worst_sum = max(worst_sum, np.abs(total - system.h_global).max() / denom)

    elapsed = time.monotonic() - start
    ok = worst_grad < 1e-5 and worst_jac < 1e-5 and worst_sum < 1e-9 and elapsed < 10.0
    announce(
        capsys,
        f"[criterion 1] {'PASS' if ok else 'FAIL'} linearization: "
        f"grad rel err {worst_grad:.2e} (<1e-5), jacobian rel err {worst_jac:.2e} "
        f"(<1e-5), hessian-sum rel err {worst_sum:.2e} (<1e-9), {elapsed:.1f}s (<10s)",
    )
    assert worst_grad < 1e-5
    assert worst_jac < 1e-5
    assert worst_sum < 1e-9
    assert elapsed < 10.0


# ------------------------------------------------------------ criterion 2


def dense_importance_oracle(source, target, max_corr_dist=2.0):
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
        chol = cholesky((w + w.T) / 2, lower=True)
        sk = np.array(
            [[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]], dtype=float
        )
        jac = chol.T @ np.hstack([sk, -np.eye(3)])
        locals_h[i] = jac.T @ jac
        h_global += locals_h[i]
    _, vg = eigh(h_global)
    x_min = vg[:, 0]
    importance = np.zeros(len(source))
    for i in range(len(source)):
        if matched[i]:
            _, vl = eigh(locals_h[i])
            importance[i] = abs(vl[:, -1] @ x_min)
    return importance


def test_criterion_2_pointwise_oracle(capsys):
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        pts = rng.uniform(-8, 8, size=(200, 3))
        jitter = pts + rng.normal(0.0, 0.03, size=pts.shape)

        def spd():
            a = rng.normal(size=(200, 3, 3))
            return np.einsum("nij,nkj->nik", a, a) + 0.3 * np.eye(3)

        source = PointCloud(pts, spd())
        target = PointCloud(jitter, spd())
        importance, _ = pointwise_smvs(source, SpatialIndex(target))
        oracle = dense_importance_oracle(source, target)
        worst = max(worst, float(np.max(np.abs(importance - oracle))))
    ok = worst < 1e-9
    announce(
        capsys,
        f"[criterion 2] {'PASS' if ok else 'FAIL'} point-wise importance vs dense "
        f"eigendecomposition oracle: max |dI| {worst:.2e} (<1e-9) over 10 frames",
    )
    assert worst < 1e-9


# ------------------------------------------------------------ criterion 3


def importance_at_bins(bin_scores, binning):
    pts, vals = [], []
    for k, s in bin_scores:
        ang = bin_center_angle(k, binning)
        pts.append((math.cos(ang), math.sin(ang), 0.0))
        vals.append(s)
    return np.asarray(vals, dtype=np.float64), PointCloud(np.asarray(pts))


def test_criterion_3_framewise_closed_forms(capsys):
    binning = AzimuthBinning(72)
    s, s1, s2 = 0.37, 0.61, 0.23
    imp, cloud = importance_at_bins([(11, s)], binning)
    single = framewise_smvs(imp, cloud, binning, d_th=8)[0]
    imp, cloud = importance_at_bins([(20, s1), (21, s2)], binning)
    adjacent = framewise_smvs(imp, cloud, binning, d_th=8)[0]
    imp, cloud = importance_at_bins([(k, s) for k in range(72)], binning)
    uniform = framewise_smvs(imp, cloud, binning, d_th=8)[0]
    err_single = abs(single - 8 * s)
    err_adjacent = abs(adjacent - (8 * s1 + 7 * s2))
    err_uniform = abs(uniform - (-720.0 * s))
    ok = max(err_single, err_adjacent, err_uniform) < 1e-12
    announce(
        capsys,
        f"[criterion 3] {'PASS' if ok else 'FAIL'} frame-wise closed forms: "
        f"single-bin err {err_single:.1e}, adjacent err {err_adjacent:.1e}, "
        f"uniform(-720s) err {err_uniform:.1e} (all <1e-12)",
    )
    assert err_single < 1e-12
    assert err_adjacent < 1e-12
    assert err_uniform < 1e-12


# ------------------------------------------------------------ criterion 4


@pytest.mark.slow
def test_criterion_4_smvs_error_rank_separation(
    capsys, course, prior_map, smvs_profile
):
    start = time.monotonic()
    values = smvs_profile.values()
    hi_entry = smvs_profile.entries[int(np.argmax(values))]
    lo_entry = smvs_profile.entries[int(np.argmin(values))]
    spoofer_hi = spoofer_toward_peak_region(hi_entry)
    spoofer_lo = spoofer_toward_peak_region(lo_entry)

    results = {"hi": {"odom": [], "pm": []}, "lo": {"odom": [], "pm": []}}
    for name, spoofer in (("hi", spoofer_hi), ("lo", spoofer_lo)):
        for seed in range(10):
            odom, pm = attacked_ape_pair(course, prior_map, spoofer, seed)
            results[name]["odom"].append(odom)
            results[name]["pm"].append(pm)

    ratio_odom = np.mean(results["hi"]["odom"]) / np.mean(results["lo"]["odom"])
    ratio_pm = np.mean(results["hi"]["pm"]) / np.mean(results["lo"]["pm"])
    elapsed = time.monotonic() - start
    ok = ratio_odom >= 5.0 and ratio_pm >= 5.0 and elapsed < 600.0
    announce(
        capsys,
        f"[criterion 4] {'PASS' if ok else 'FAIL'} SMVS-error rank separation "
        f"(10 seeds each): odometry hi/lo {ratio_odom:.1f}x, prior-map hi/lo "
        f"{ratio_pm:.1f}x (both >=5x), {elapsed:.0f}s (<600s)",
    )
    assert ratio_odom >= 5.0
    assert ratio_pm >= 5.0
    assert elapsed < 600.0


# ------------------------------------------------------------ criterion 5


@pytest.mark.slow
def test_criterion_5_placement_superiority(capsys, course, prior_map, smvs_profile):
    start = time.monotonic()
    seeds = (0, 1, 2)
    placement = optimize_placement(smvs_profile, top_m=10, standoff=12.5)
    optimized = choose_recommended(placement)
    opt_apes = [
        attacked_priormap_ape(course, prior_map, optimized, seed) for seed in seeds
    ]

    rng = np.random.default_rng(2024)
    random_medians = []
    for _ in range(20):
        pos = (rng.uniform(-10.0, 44.0), rng.uniform(-14.0, 14.0))
        apes = [attacked_priormap_ape(course, prior_map, pos, seed) for seed in seeds]
        random_medians.append(float(np.median(apes)))

    opt_median = float(np.median(opt_apes))
    rand_median = float(np.median(random_medians))
    ratio = opt_median / rand_median
    elapsed = time.monotonic() - start
    ok = ratio >= 3.0 and elapsed < 900.0
    announce(
        capsys,
        f"[criterion 5] {'PASS' if ok else 'FAIL'} placement optimization: "
        f"optimizer median APE {opt_median:.3f} m vs random median {rand_median:.3f} m "
        f"= {ratio:.1f}x (>=3x), {elapsed:.0f}s (<900s)",
    )
    assert ratio >= 3.0
    assert elapsed < 900.0


# ------------------------------------------------------------ criterion 6


def test_criterion_6_attack_geometry(capsys):
    rng = np.random.default_rng(42)
    pts2d = rng.uniform(-20, 20, size=(10_000, 2))
    angles = np.arctan2(pts2d[:, 1], pts2d[:, 0])
    mismatches = 0
    for center in (-2.5, 0.0, 1.3, 3.1):
        window = AzimuthWindow(center=center)
        got = window.contains(angles)
        diff = (angles - center + math.pi) % (2 * math.pi) - math.pi
        expected = np.abs(diff) <= math.radians(40.0)
        mismatches += int(np.count_nonzero(got != expected))

    frame = PointCloud(
        np.column_stack([pts2d, rng.uniform(0.0, 4.0, len(pts2d))])
    )
    no_gain = True
    for center in (-2.5, 0.0, 0.7, 3.1):
        removed = apply_removal(
            frame,
            AzimuthWindow(center=center),
            AttackSpec(model="removal_no_noise"),
            SENSOR,
            rng,
        )
        no_gain = no_gain and len(removed) <= len(frame)
    window = AzimuthWindow(center=0.7)

    spec = AttackSpec(model="injection", wall_distance=6.0)
    injected = apply_injection(frame, window, spec, SENSOR)
    azim = np.arctan2(frame.points[:, 1], frame.points[:, 0])
    planar = np.hypot(frame.points[:, 0], frame.points[:, 1])
    occluded = window.contains(azim) & (planar > spec.wall_distance)
    survivors = frame.points[~occluded]
    occlusion_exact = np.array_equal(injected.points[: len(survivors)], survivors)

    ok = mismatches == 0 and no_gain and occlusion_exact
    announce(
        capsys,
        f"[criterion 6] {'PASS' if ok else 'FAIL'} attack geometry: 80-degree window "
        f"mismatches {mismatches}/40000 (=0), removal gains none: {no_gain}, "
        f"injection occludes exactly the in-window points beyond D: {occlusion_exact}",
    )
    assert mismatches == 0
    assert no_gain
    assert occlusion_exact


# ------------------------------------------------------------ criterion 7


def test_criterion_7_benign_baselines(capsys, course, benign_runs):
    odom_stats, pm_stats = benign_runs
    frames = len(course)
    ok = odom_stats.rmse < 0.1 and pm_stats.rmse < 0.1 and frames >= 50
    announce(
        capsys,
        f"[criterion 7] {'PASS' if ok else 'FAIL'} benign baselines over {frames} "
        f"frames (>=50): odometry APE RMSE {odom_stats.rmse:.4f} m, prior-map "
        f"{pm_stats.rmse:.4f} m (both <0.1 m)",
    )
    assert frames >= 50
    assert odom_stats.rmse < 0.1
    assert pm_stats.rmse < 0.1


# ------------------------------------------------------------ criterion 8


def trees_identical(a, b):
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    if mismatch or errors:
        return False
    return all(
        trees_identical(os.path.join(a, d), os.path.join(b, d))
        for d in cmp.common_dirs
    )


def test_criterion_8_pipeline_determinism(capsys, tmp_path):
    def run_pipeline(out, threads):
        argv = [
            "pipeline",
            "--out", str(out),
            "--seed", "9",
            "--threads", str(threads),
            "--pipeline", "priormap",
            "--archetype", "mixed",
            "--length", "12.0",
            "--speed", "6.0",
            "--rate", "10.0",
            "--rings", "8",
            "--hres", "2.0",
            "--max-range", "25.0",
            "--range-noise", "0.01",
            "--top-m", "5",
        ]
        assert dispatch(argv) == 0

    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run_pipeline(a, 1)
    run_pipeline(b, 1)
    run_pipeline(c, 4)
    rerun_ok = trees_identical(str(a), str(b))
    threads_ok = trees_identical(str(a), str(c))
    ok = rerun_ok and threads_ok
    announce(
        capsys,
        f"[criterion 8] {'PASS' if ok else 'FAIL'} pipeline determinism: "
        f"byte-identical trees across reruns: {rerun_ok}, across threads 1 vs 4: "
        f"{threads_ok}",
    )
    assert rerun_ok
    assert threads_ok


# ------------------------------------------------------------ criterion 9


def random_trajectory(seed, n=25):
    rng = np.random.default_rng(seed)
    ts = np.arange(n) * 0.1
    poses = []
    for _ in range(n):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        poses.append(PoseSE3(q, rng.normal(size=3)))
    return Trajectory(ts, poses)


def test_criterion_9_metrics_oracles(capsys):
    worst_ape = 0.0
    worst_rpe = 0.0
    for seed in range(5):
        est = random_trajectory(2 * seed)
        ref = random_trajectory(2 * seed + 1)
        stats = ape(est, ref, align_first_pose=False)
        trans = np.array(
            [
                np.linalg.norm(e.translation - r.translation)
                for e, r in zip(est.poses, ref.poses)
            ]
        )
        worst_ape = max(
            worst_ape,
            abs(stats.rmse - math.sqrt(np.mean(trans**2))),
            abs(stats.mean - trans.mean()),
            abs(stats.max - trans.max()),
        )
        delta = 2
        rel = rpe(est, ref, delta=delta)
        errs = []
        for i in range(len(est) - delta):
            rel_est = est.poses[i].inverse().compose(est.poses[i + delta])
            rel_ref = ref.poses[i].inverse().compose(ref.poses[i + delta])
            errs.append(np.linalg.norm(rel_ref.inverse().compose(rel_est).translation))
        worst_rpe = max(
            worst_rpe, abs(rel.mean - np.mean(errs)), abs(rel.max - np.max(errs))
        )

    ref = random_trajectory(99)
    offset = np.array([3.0, 4.0, 0.0])
    shifted = Trajectory(
        ref.timestamps, [PoseSE3(p.quat, p.translation + offset) for p in ref.poses]
    )
    offset_ape = ape(shifted, ref, align_first_pose=False)
    offset_rpe = rpe(shifted, ref)
    offset_ape_err = abs(offset_ape.rmse - 5.0)
    offset_rpe_err = offset_rpe.max

    ok = (
        worst_ape < 1e-12
        and worst_rpe < 1e-12
        and offset_ape_err < 1e-12
        and offset_rpe_err < 1e-9
    )
    announce(
        capsys,
        f"[criterion 9] {'PASS' if ok else 'FAIL'} metrics oracles: APE err "
        f"{worst_ape:.1e}, RPE err {worst_rpe:.1e} (<1e-12); constant-offset APE "
        f"err {offset_ape_err:.1e}, constant-offset RPE {offset_rpe_err:.1e}",
    )
    assert worst_ape < 1e-12
    assert worst_rpe < 1e-12
    assert offset_ape_err < 1e-12
    assert offset_rpe_err < 1e-9
