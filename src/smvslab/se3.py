"""Rigid transforms and the 6-vector tangent parameterization.

Twist ordering is (wx, wy, wz, vx, vy, vz): rotation radians first, then
translation meters. Updates are left-multiplicative, T <- Exp(delta) * T,
with Exp acting as Rodrigues on the rotation block and identity on the
translation block.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.transform import Rotation

from .errors import ParameterError


class PoseSE3:
    """Unit quaternion (x, y, z, w) plus translation."""

    __slots__ = ("quat", "translation")

    def __init__(self, quat, translation):
        q = np.asarray(quat, dtype=np.float64).reshape(4)
        # Copy, so a caller's writable array cannot change a frozen pose.
        t = np.array(translation, dtype=np.float64).reshape(3)
        norm = np.linalg.norm(q)
        if abs(norm - 1.0) > 1e-6:
            raise ParameterError(f"quaternion norm {norm} too far from 1")
        q = q / norm
        # Fix the double-cover sign for reproducible serialization.
        if q[3] < 0:
            q = -q
        q.setflags(write=False)
        t.setflags(write=False)
        self.quat = q
        self.translation = t

    @classmethod
    def identity(cls) -> "PoseSE3":
        return cls((0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0))

    @classmethod
    def from_rpy(cls, roll, pitch, yaw, translation=(0.0, 0.0, 0.0)) -> "PoseSE3":
        q = Rotation.from_euler("xyz", [roll, pitch, yaw]).as_quat()
        return cls(q, translation)

    def rotation_matrix(self) -> np.ndarray:
        return Rotation.from_quat(self.quat).as_matrix()

    def apply(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation_matrix().T + self.translation

    def compose(self, other: "PoseSE3") -> "PoseSE3":
        """self * other (apply other first)."""
        r1 = Rotation.from_quat(self.quat)
        r2 = Rotation.from_quat(other.quat)
        q = (r1 * r2).as_quat()
        # Rotate with the matrix: scipy's Rotation.apply rejects read-only arrays.
        t = r1.as_matrix() @ other.translation + self.translation
        return PoseSE3(q, t)

    def inverse(self) -> "PoseSE3":
        r_inv = Rotation.from_quat(self.quat).inv()
        return PoseSE3(r_inv.as_quat(), -(r_inv.as_matrix() @ self.translation))

    def yaw(self) -> float:
        """Heading about +z of the rotated x-axis."""
        fwd = self.rotation_matrix()[:, 0]
        return math.atan2(fwd[1], fwd[0])

    def rotation_angle_to(self, other: "PoseSE3") -> float:
        """Geodesic angle between the two rotations, radians."""
        r = Rotation.from_quat(self.quat).inv() * Rotation.from_quat(other.quat)
        return float(np.linalg.norm(r.as_rotvec()))

    def __repr__(self):
        q = tuple(round(v, 9) for v in self.quat)
        t = tuple(round(v, 9) for v in self.translation)
        return f"PoseSE3(quat={q}, t={t})"


def exp_twist(delta) -> PoseSE3:
    """Map a twist (w, v) to a transform: Rodrigues rotation, translation v."""
    # A writable copy: scipy's Rotation.from_rotvec rejects read-only arrays.
    d = np.array(delta, dtype=np.float64).reshape(6)
    if not np.isfinite(d).all():
        raise ParameterError("twist must be finite")
    rot = Rotation.from_rotvec(d[:3])
    return PoseSE3(rot.as_quat(), d[3:])


def left_update(pose: PoseSE3, delta) -> PoseSE3:
    """T <- Exp(delta) * T."""
    return exp_twist(delta).compose(pose)
