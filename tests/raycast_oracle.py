"""The all-rays raycast, the oracle that `simulate.raycast_frame` is checked
against bit for bit.

Every patch computes the hit point and the in-patch test for every ray,
where `raycast_frame` goes on only with the rays the patch can still win.
"""

import numpy as np

from smvslab.geometry import PointCloud


def raycast_all_rays(scene, pose, sensor, seed=0) -> PointCloud:
    """One sensor sweep: nearest patch hit per ray, Gaussian range noise."""
    dirs_local = sensor.ray_directions()
    rotation = pose.rotation_matrix()
    dirs = dirs_local @ rotation.T
    origin = np.asarray(pose.translation, dtype=np.float64)

    best = np.full(len(dirs), np.inf)
    for patch in scene.patches:
        corner = np.asarray(patch.corner, dtype=np.float64)
        u = np.asarray(patch.edge_u, dtype=np.float64)
        v = np.asarray(patch.edge_v, dtype=np.float64)
        normal = np.cross(u, v)
        denom = dirs @ normal
        with np.errstate(divide="ignore", invalid="ignore"):
            t = ((corner - origin) @ normal) / denom
        hit = np.isfinite(t) & (t > 1e-6)
        t = np.where(hit, t, 0.0)
        q = origin + dirs * t[:, None]
        rel = q - corner
        uu, vv = u @ u, v @ v
        alpha = rel @ u / uu
        beta = rel @ v / vv
        hit &= (alpha >= 0) & (alpha <= 1) & (beta >= 0) & (beta <= 1)
        closer = hit & (t < best)
        best[closer] = t[closer]
    dz = dirs[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -origin[2] / dz
    hit = np.isfinite(t) & (t > 1e-6)
    closer = hit & (t < best)
    best[closer] = t[closer]

    returned = best <= sensor.max_range
    ranges = best[returned]
    if sensor.range_noise_sigma > 0:
        rng = np.random.Generator(np.random.PCG64(seed))
        ranges = ranges + rng.normal(0.0, sensor.range_noise_sigma, len(ranges))
    return PointCloud(dirs_local[returned] * ranges[:, None])
