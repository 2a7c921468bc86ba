"""GICP-style distribution-to-distribution matching with explicit Gauss-Newton.

The cost per correspondence (a_i, b_i) is the Mahalanobis distance
d_i^T W_i d_i with d_i = b_i - T a_i and W_i = (C_i^B + R C_i^A R^T)^-1,
the weight held fixed within one linearization. With q_i = T a_i and
J_i = [skew(q_i) | -I], the normal equations are H = sum J_i^T W_i J_i and
g = sum J_i^T W_i d_i. `linearize` builds H, g and the cost straight from
W and q and never forms the per-point local Hessians J_i^T W_i J_i, which
sum to H; the linearization tests build those as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLinearizationError, DivergenceError, ParameterError
from .geometry import PointCloud, SpatialIndex, _cross
from .se3 import PoseSE3, left_update


class MatcherConfig:
    """The matcher's fixed settings, read as class attributes."""

    __slots__ = ()
    max_corr_dist = 2.0
    max_iterations = 30
    convergence_tol = 1e-6
    min_eigenvalue = 1e-6           # damping kicks in below this
    max_damping_retries = 8


@dataclass
class LinearSystem:
    """One linearization: the global normal equations, and the fixed
    correspondences, weights and matched points they were built from."""

    h_global: np.ndarray            # (6, 6)
    b_global: np.ndarray            # (6,)
    correspondences: np.ndarray     # (N,) target ids, -1 where unmatched
    cost: float
    weights: np.ndarray             # (m, 3, 3), matched rows only
    points: np.ndarray              # (m, 3) matched source points q = T a at the pose

    @property
    def num_correspondences(self) -> int:
        return len(self.weights)


@dataclass
class MatchResult:
    pose: PoseSE3
    iterations: int
    converged: bool
    final_cost: float               # cost at the last linearization pose


def _inverse_sym3(m):
    """Closed-form inverse of symmetric positive definite 3x3 matrices, batched."""
    a, b, c = m[:, 0, 0], m[:, 0, 1], m[:, 0, 2]
    d, e, f = m[:, 1, 1], m[:, 1, 2], m[:, 2, 2]
    out = np.empty_like(m)
    out[:, 0, 0] = d * f - e * e
    out[:, 0, 1] = out[:, 1, 0] = c * e - b * f
    out[:, 0, 2] = out[:, 2, 0] = b * e - c * d
    out[:, 1, 1] = a * f - c * c
    out[:, 1, 2] = out[:, 2, 1] = b * c - a * e
    out[:, 2, 2] = a * d - b * b
    det = a * out[:, 0, 0] + b * out[:, 0, 1] + c * out[:, 0, 2]
    out /= det[:, None, None]
    return out


def _rotate_covariances(covs, rotation):
    """R C R^T for a stack of 3x3 matrices C, as two (3n, 3) x (3, 3) products."""
    n = len(covs)
    c_rt = (covs.reshape(-1, 3) @ rotation.T).reshape(n, 3, 3)
    r_c_rt = c_rt.transpose(0, 2, 1).reshape(-1, 3) @ rotation.T   # rows of (R C R^T)^T
    return r_c_rt.reshape(n, 3, 3).transpose(0, 2, 1)


# S = skew(q) has S[a, c] = sum_e LEVI_CIVITA[a, e, c] q_e.
_LEVI_CIVITA = np.zeros((3, 3, 3))
_LEVI_CIVITA[0, 1, 2] = _LEVI_CIVITA[1, 2, 0] = _LEVI_CIVITA[2, 0, 1] = 1.0
_LEVI_CIVITA[0, 2, 1] = _LEVI_CIVITA[2, 1, 0] = _LEVI_CIVITA[1, 0, 2] = -1.0


def _correspond(source_world, target_index, max_corr_dist):
    d, i = target_index.query(source_world, k=1, max_distance=max_corr_dist)
    d = d[:, 0]
    ids = i[:, 0].astype(np.int64)
    matched = d <= max_corr_dist
    ids[~matched] = -1
    return ids, matched


def linearize(
    source: PointCloud,
    target_index: SpatialIndex,
    pose: PoseSE3,
    max_corr_dist: float,
) -> LinearSystem:
    """Build the Gauss-Newton normal equations at the given pose.

    Jacobians use the left-multiplicative perturbation T <- Exp(delta)*T,
    giving d(T a)/dw = -skew(T a) and d(T a)/dv = I for each matched point.
    With S = skew(q), H = sum [S | -I]^T W [S | -I] and g = sum [S | -I]^T W d;
    the sums over points are taken as matrix products of q and W, with S
    spelled out through the Levi-Civita symbol.
    """
    if max_corr_dist <= 0:
        raise ParameterError("max_corr_dist must be > 0")
    if not source.has_covariances or not target_index.has_covariances:
        raise ParameterError("both clouds must carry covariances")
    if len(source) == 0:
        raise ParameterError("source cloud is empty")

    rotation = pose.rotation_matrix()
    src_world = source.points @ rotation.T + pose.translation
    ids, matched = _correspond(src_world, target_index, max_corr_dist)
    if not matched.any():
        raise DegenerateLinearizationError("no correspondences within max_corr_dist")
    matched_ids = ids[matched]
    q = src_world[matched]
    b_pts = target_index.cloud.points[matched_ids]
    weights = _inverse_sym3(
        target_index.covariances_at(matched_ids)
        + _rotate_covariances(source.covariances[matched], rotation)
    )
    d = b_pts - q
    wd = np.einsum("nij,nj->ni", weights, d)
    m = len(q)
    w9 = weights.reshape(m, 9)
    qw = (q.T @ w9).reshape(3, 3, 3)                                    # sum q_e W_cb
    qqw = ((q[:, :, None] * q[:, None, :]).reshape(m, 9).T @ w9).reshape(3, 3, 3, 3)
    h = np.empty((6, 6))
    h[:3, :3] = np.einsum("cea,dfb,efcd->ab", _LEVI_CIVITA, _LEVI_CIVITA, qqw)   # S^T W S
    h[:3, 3:] = np.einsum("aec,ecb->ab", _LEVI_CIVITA, qw)                       # S W
    h[3:, :3] = h[:3, 3:].T
    h[3:, 3:] = w9.sum(axis=0).reshape(3, 3)
    # S^T W d = (W d) x q
    g = np.concatenate([np.stack(_cross(wd.T, q.T), axis=1).sum(axis=0), -wd.sum(axis=0)])
    return LinearSystem(
        h_global=h,
        b_global=g,
        correspondences=ids,
        cost=float(np.einsum("ni,ni->", d, wd)),
        weights=weights,
        points=q,
    )


def matching_cost(
    source: PointCloud,
    target: PointCloud,
    correspondences: np.ndarray,
    weights: np.ndarray,
    pose: PoseSE3,
) -> float:
    """Cost at a pose with correspondences and weights held fixed.

    `weights` holds one 3x3 matrix per matched correspondence, in the
    order the matched points appear in the source cloud.
    """
    matched = correspondences >= 0
    d = target.points[correspondences[matched]] - pose.apply(source.points[matched])
    return float(np.einsum("ni,ni->", d, np.einsum("nij,nj->ni", weights, d)))


def gauss_newton_align(source: PointCloud, index: SpatialIndex, init: PoseSE3) -> MatchResult:
    """Iterate linearize + damped solve from `init` until the update norm converges.

    Levenberg damping is added to the H diagonal whenever the smallest
    eigenvalue drops below `MatcherConfig.min_eigenvalue`, and increased
    until the step does not raise the fixed-correspondence cost
    (`matching_cost`).
    """
    pose = init
    cost = float("nan")
    converged = False
    iterations = 0

    for iterations in range(1, MatcherConfig.max_iterations + 1):
        system = linearize(source, index, pose, MatcherConfig.max_corr_dist)
        cost = system.cost
        eigvals = np.linalg.eigvalsh(system.h_global)
        lam = 0.0
        if eigvals[0] < MatcherConfig.min_eigenvalue:
            lam = MatcherConfig.min_eigenvalue - eigvals[0]

        step = None
        for _ in range(MatcherConfig.max_damping_retries + 1):
            h = system.h_global + lam * np.eye(6)
            try:
                delta = -np.linalg.solve(h, system.b_global)
            except np.linalg.LinAlgError:
                delta = np.full(6, np.nan)
            if not np.isfinite(delta).all():
                raise DivergenceError("non-finite Gauss-Newton update")
            candidate = left_update(pose, delta)
            candidate_cost = matching_cost(
                source, index.cloud, system.correspondences, system.weights, candidate
            )
            if candidate_cost <= cost + 1e-12 * max(1.0, cost):
                step = (candidate, delta)
                break
            lam = max(lam * 10.0, MatcherConfig.min_eigenvalue)
        if step is None:
            # No damping level improved the fixed-correspondence cost;
            # keep the current pose and stop.
            break
        pose, delta = step
        if np.linalg.norm(delta) < MatcherConfig.convergence_tol:
            converged = True
            break

    return MatchResult(
        pose=pose,
        iterations=iterations,
        converged=converged,
        final_cost=cost,
    )
