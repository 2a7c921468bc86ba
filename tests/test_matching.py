from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from local_hessians import local_hessians, matched_hessians, skew
from smvslab.errors import DegenerateLinearizationError, ParameterError
from smvslab.geometry import PointCloud, SpatialIndex, estimate_covariances
from smvslab.matching import (
    gauss_newton_align,
    linearize,
    matching_cost,
)
from smvslab.pipelines import GICP
from smvslab.se3 import PoseSE3, exp_twist, left_update

RADIUS = GICP.matcher.max_corr_dist


def random_spd(rng, n):
    """Random well-conditioned 3x3 SPD matrices."""
    a = rng.normal(size=(n, 3, 3))
    return np.einsum("nij,nkj->nik", a, a) + 0.5 * np.eye(3)


def make_problem(seed, n=40, offset=0.05):
    rng = np.random.default_rng(seed)
    tgt_pts = rng.uniform(-5, 5, size=(n, 3))
    src_pts = tgt_pts + rng.normal(0.0, offset, size=(n, 3))
    source = PointCloud(src_pts, random_spd(rng, n))
    target = PointCloud(tgt_pts, random_spd(rng, n))
    return source, SpatialIndex(target)


def random_pose(rng, scale=0.05):
    return exp_twist(scale * rng.normal(size=6))


def fd_gradient(source, index, system, pose, eps=1e-6):
    """Central finite differences of the fixed-correspondence cost."""
    grad = np.zeros(6)
    for i in range(6):
        e = np.zeros(6)
        e[i] = eps
        up = matching_cost(
            source, index.cloud, system.correspondences, system.weights,
            left_update(pose, e),
        )
        dn = matching_cost(
            source, index.cloud, system.correspondences, system.weights,
            left_update(pose, -e),
        )
        grad[i] = (up - dn) / (2 * eps)
    return grad


def test_gradient_matches_finite_differences():
    # d(cost)/d(delta) at delta=0 must equal 2 * b_global.
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        source, index = make_problem(seed)
        pose = random_pose(rng)
        system = linearize(source, index, pose, RADIUS)
        grad = fd_gradient(source, index, system, pose)
        analytic = 2.0 * system.b_global
        denom = max(np.linalg.norm(grad), 1.0)
        assert np.linalg.norm(grad - analytic) / denom < 1e-5


def test_global_hessian_is_sum_of_local():
    source, index = make_problem(3)
    system = linearize(source, index, PoseSE3.identity(), RADIUS)
    total = local_hessians(system).sum(axis=0)
    assert np.allclose(total, system.h_global, rtol=1e-12, atol=1e-12)


def test_global_hessian_positive_semidefinite():
    for seed in range(5):
        source, index = make_problem(seed)
        system = linearize(source, index, PoseSE3.identity(), RADIUS)
        assert np.linalg.eigvalsh(system.h_global)[0] > -1e-9
        for h in local_hessians(system):
            assert np.linalg.eigvalsh(h)[0] > -1e-9


def test_cost_matches_mahalanobis_definition():
    source, index = make_problem(4)
    pose = random_pose(np.random.default_rng(4))
    system = linearize(source, index, pose, RADIUS)
    rot = pose.rotation_matrix()
    total = 0.0
    row = 0
    for i, j in enumerate(system.correspondences):
        if j < 0:
            continue
        q = rot @ source.points[i] + pose.translation
        d = index.cloud.points[j] - q
        c = index.cloud.covariances[j] + rot @ source.covariances[i] @ rot.T
        total += d @ np.linalg.solve(c, d)
        # The cached weight must equal the inverse combined covariance.
        assert np.allclose(system.weights[row], np.linalg.inv(c))
        row += 1
    assert total == pytest.approx(system.cost, rel=1e-9)


def test_permutation_invariance():
    source, index = make_problem(6)
    system = linearize(source, index, PoseSE3.identity(), RADIUS)
    perm = np.random.default_rng(6).permutation(len(source))
    shuffled = PointCloud(source.points[perm], source.covariances[perm])
    system2 = linearize(shuffled, index, PoseSE3.identity(), RADIUS)
    assert np.allclose(system2.h_global, system.h_global)
    assert np.allclose(system2.b_global, system.b_global)
    assert system2.cost == pytest.approx(system.cost)
    assert np.array_equal(system2.correspondences, system.correspondences[perm])


def test_unmatched_points_have_empty_rows():
    source = PointCloud(
        [[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]], np.stack([np.eye(3)] * 2)
    )
    target = PointCloud([[0.1, 0.0, 0.0]], np.eye(3)[None])
    system = linearize(source, SpatialIndex(target), PoseSE3.identity(), 2.0)
    assert system.correspondences[1] == -1
    assert np.all(local_hessians(system)[1] == 0.0)
    assert system.num_correspondences == 1


def test_linearize_no_correspondences_raises():
    source = PointCloud([[0.0, 0.0, 0.0]], np.eye(3)[None])
    target = PointCloud([[50.0, 0.0, 0.0]], np.eye(3)[None])
    with pytest.raises(DegenerateLinearizationError):
        linearize(source, SpatialIndex(target), PoseSE3.identity(), 1.0)


def test_linearize_requires_covariances():
    bare = PointCloud([[0.0, 0.0, 0.0]])
    with_cov = PointCloud([[0.0, 0.0, 0.0]], np.eye(3)[None])
    with pytest.raises(ParameterError):
        linearize(bare, SpatialIndex(with_cov), PoseSE3.identity(), RADIUS)
    with pytest.raises(ParameterError):
        linearize(with_cov, SpatialIndex(bare), PoseSE3.identity(), RADIUS)


def structured_cloud(seed, n=300):
    """Two perpendicular planes plus ground: fully constrained geometry."""
    rng = np.random.default_rng(seed)
    ground = np.column_stack(
        [rng.uniform(-5, 5, n), rng.uniform(-5, 5, n), np.zeros(n)]
    )
    wall_a = np.column_stack(
        [rng.uniform(-5, 5, n), np.full(n, 5.0), rng.uniform(0, 3, n)]
    )
    wall_b = np.column_stack(
        [np.full(n, 5.0), rng.uniform(-5, 5, n), rng.uniform(0, 3, n)]
    )
    return PointCloud(np.concatenate([ground, wall_a, wall_b]))


def test_gauss_newton_recovers_known_transform():
    target = estimate_covariances(structured_cloud(7), k=10)
    true_pose = PoseSE3.from_rpy(0.0, 0.0, 0.05, (0.3, -0.2, 0.1))
    # Source observed from true_pose: moving it by true_pose recreates target.
    src_pts = true_pose.inverse().apply(target.points)
    source = estimate_covariances(PointCloud(src_pts), k=10)
    result = gauss_newton_align(source, SpatialIndex(target), PoseSE3.identity())
    assert result.converged
    assert np.linalg.norm(result.pose.translation - true_pose.translation) < 1e-3
    assert result.pose.rotation_angle_to(true_pose) < 1e-3


def test_gauss_newton_final_cost_not_worse_than_initial():
    target = estimate_covariances(structured_cloud(8), k=10)
    init = PoseSE3.from_rpy(0.0, 0.0, 0.03, (0.2, 0.1, 0.0))
    source = estimate_covariances(PointCloud(init.inverse().apply(target.points)), k=10)
    start = linearize(source, SpatialIndex(target), PoseSE3.identity(), RADIUS).cost
    result = gauss_newton_align(source, SpatialIndex(target), PoseSE3.identity())
    assert result.final_cost <= start


def test_gauss_newton_empty_inputs():
    cloud = estimate_covariances(structured_cloud(9, n=20), k=5)
    empty = PointCloud(np.empty((0, 3)))
    with pytest.raises(ParameterError):
        gauss_newton_align(empty, SpatialIndex(cloud), PoseSE3.identity())
    with pytest.raises(ParameterError, match="empty cloud"):
        SpatialIndex(empty)


def whitened_reference(source, index, pose, max_corr_dist=2.0):
    """The linearization spelled out point by point, as GICP writes it.

    Brute-force nearest targets; W = (C_B + R C_A R^T)^-1 with Cholesky
    factor L, whitened residual r = L^T d and Jacobian J = L^T [skew(q) | -I];
    H = sum J^T J, g = sum J^T r and cost = sum |r|^2.
    """
    rot = pose.rotation_matrix()
    tgt = index.cloud
    n = len(source)
    ids = np.full(n, -1)
    local = np.zeros((n, 6, 6))
    h, g, cost, weights = np.zeros((6, 6)), np.zeros(6), 0.0, []
    for i in range(n):
        q = rot @ source.points[i] + pose.translation
        dist = np.linalg.norm(tgt.points - q, axis=1)
        j = int(np.argmin(dist))
        if dist[j] > max_corr_dist:
            continue
        ids[i] = j
        w = np.linalg.inv(tgt.covariances[j] + rot @ source.covariances[i] @ rot.T)
        w = 0.5 * (w + w.T)
        chol = np.linalg.cholesky(w)
        r = chol.T @ (tgt.points[j] - q)
        jac = chol.T @ np.hstack([skew(q), -np.eye(3)])
        local[i] = jac.T @ jac
        h += local[i]
        g += jac.T @ r
        cost += r @ r
        weights.append(w)
    return SimpleNamespace(
        ids=ids, h=h, g=g, cost=cost, weights=np.array(weights), local=local
    )


def reference_cost_at(source, index, ref, pose):
    """sum d^T W d at another pose, correspondences and weights from `ref`."""
    rot = pose.rotation_matrix()
    total = 0.0
    for i, w in zip(np.flatnonzero(ref.ids >= 0), ref.weights):
        d = index.cloud.points[ref.ids[i]] - (rot @ source.points[i] + pose.translation)
        total += d @ w @ d
    return total


def test_normal_equations_match_linearize():
    # linearize builds H, g and the cost straight from W and skew(q); they
    # must equal the whitened per-point reference.
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        source, index = make_problem(seed, n=60)
        pose = random_pose(rng)
        system = linearize(source, index, pose, RADIUS)
        ref = whitened_reference(source, index, pose)
        assert np.array_equal(system.correspondences, ref.ids)
        scale = np.abs(ref.h).max()
        assert np.abs(system.h_global - ref.h).max() < 1e-12 * scale
        assert np.allclose(system.b_global, ref.g, rtol=0.0, atol=1e-12 * scale)
        assert system.cost == pytest.approx(ref.cost, rel=1e-12)
        assert np.allclose(system.weights, ref.weights, rtol=1e-12, atol=0.0)
        # Re-evaluating at the linearization pose gives its own cost, and at
        # another pose the reference's fixed-correspondence cost.
        fixed = (source, index.cloud, system.correspondences, system.weights)
        assert matching_cost(*fixed, pose) == pytest.approx(system.cost, rel=1e-12)
        other = left_update(pose, 0.01 * rng.normal(size=6))
        expected = reference_cost_at(source, index, ref, other)
        assert matching_cost(*fixed, other) == pytest.approx(expected, rel=1e-12)


@st.composite
def matching_problems(draw):
    """Random points near their targets, SPD covariances and a pose.

    Points come from a drawn seed so that nearest targets have no ties;
    the covariances A A^T + eps I are drawn directly.
    """
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tgt_pts = rng.uniform(-5, 5, size=(n, 3))
    src_pts = tgt_pts + rng.normal(0.0, 0.05, size=(n, 3))

    def spd():
        a = draw(arrays(np.float64, (n, 3, 3), elements=st.floats(-1.0, 1.0)))
        eps = draw(st.floats(0.05, 1.0))
        return np.einsum("nij,nkj->nik", a, a) + eps * np.eye(3)

    source = PointCloud(src_pts, spd())
    index = SpatialIndex(PointCloud(tgt_pts, spd()))
    rot = draw(arrays(np.float64, 3, elements=st.floats(-0.2, 0.2)))
    trans = draw(arrays(np.float64, 3, elements=st.floats(-0.3, 0.3)))
    return source, index, exp_twist(np.concatenate([rot, trans]))


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@PROPERTY_SETTINGS
@given(matching_problems())
def test_linearize_matches_whitened_reference(problem):
    source, index, pose = problem
    ref = whitened_reference(source, index, pose)
    if not (ref.ids >= 0).any():
        with pytest.raises(DegenerateLinearizationError):
            linearize(source, index, pose, RADIUS)
        return
    system = linearize(source, index, pose, RADIUS)
    assert np.array_equal(system.correspondences, ref.ids)
    assert system.num_correspondences == len(ref.weights)
    scale = np.abs(ref.h).max()
    assert np.abs(system.h_global - ref.h).max() <= 1e-12 * scale
    assert np.abs(system.b_global - ref.g).max() <= 1e-12 * max(np.abs(ref.g).max(), scale)
    assert system.cost == pytest.approx(ref.cost, rel=1e-12)
    w_scale = np.abs(ref.weights).max(axis=(1, 2))[:, None, None]
    assert (np.abs(system.weights - ref.weights) <= 1e-12 * w_scale).all()


@PROPERTY_SETTINGS
@given(matching_problems())
def test_local_hessians_sum_to_global_and_are_psd(problem):
    source, index, pose = problem
    try:
        system = linearize(source, index, pose, RADIUS)
    except DegenerateLinearizationError:
        return
    ref = whitened_reference(source, index, pose)
    local = local_hessians(system)
    scale = np.abs(system.h_global).max()
    assert np.abs(local.sum(axis=0) - system.h_global).max() <= 1e-12 * scale
    assert np.abs(local - ref.local).max() <= 1e-12 * scale
    matched = system.correspondences >= 0
    assert np.array_equal(matched_hessians(system), local[matched])
    assert not local[~matched].any()
    for h in local[matched]:
        assert np.linalg.eigvalsh(h)[0] >= -1e-12 * np.abs(h).max()


@PROPERTY_SETTINGS
@given(matching_problems(), arrays(np.float64, 6, elements=st.floats(-0.05, 0.05)))
def test_matching_cost_reevaluates_fixed_correspondences(problem, step):
    source, index, pose = problem
    try:
        system = linearize(source, index, pose, RADIUS)
    except DegenerateLinearizationError:
        return
    fixed = (source, index.cloud, system.correspondences, system.weights)
    assert matching_cost(*fixed, pose) == pytest.approx(system.cost, rel=1e-12)
    other = left_update(pose, step)
    ref = whitened_reference(source, index, pose)
    expected = reference_cost_at(source, index, ref, other)
    assert matching_cost(*fixed, other) == pytest.approx(expected, rel=1e-12, abs=1e-300)


@PROPERTY_SETTINGS
@given(matching_problems())
def test_linear_system_points_are_matched_sources_at_the_pose(problem):
    source, index, pose = problem
    try:
        system = linearize(source, index, pose, RADIUS)
    except DegenerateLinearizationError:
        return
    matched = system.correspondences >= 0
    assert np.array_equal(system.points, pose.apply(source.points)[matched])


def test_inverse_sym3_matches_linalg_inv():
    from smvslab.matching import _inverse_sym3

    m = random_spd(np.random.default_rng(7), 200)
    got = _inverse_sym3(m)
    assert np.allclose(got, np.linalg.inv(m), rtol=1e-12, atol=1e-14)
    assert np.array_equal(got, np.transpose(got, (0, 2, 1)))
