"""The (3, 3, M)-stack eigenvector kernel, the oracle that
`geometry.smallest_eigenvectors` is checked against bit for bit.

It stacks the rows of A - lambda I, takes their cross products with
`np.cross`, picks the largest with `argmax` and gathers it with a fancy
index, where `smallest_eigenvectors` spells out the same arithmetic
component by component on contiguous rows.
"""

import math

import numpy as np


def smallest_eigenvectors_stacked(a: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of the smallest eigenvalues of symmetric 3x3
    matrices (upper triangles read), batched."""
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

    s = np.copysign(1.0, e[2])
    h = -1.0 / (s + e[2])
    g = e[0] * e[1] * h
    u = np.array([1.0 + s * e[0] * e[0] * h, s * g, -s * e[0]])
    v = np.array([g, s + e[1] * e[1] * h, -e[1]])
    mu, mv = (m * u).sum(axis=1), (m * v).sum(axis=1)
    uv, uu_vv = (u * mv).sum(axis=0), (u * mu - v * mv).sum(axis=0)
    phi = 0.5 * np.arctan2(2.0 * uv, uu_vv)
    return np.where(low, e, np.cos(phi) * v - np.sin(phi) * u).T
