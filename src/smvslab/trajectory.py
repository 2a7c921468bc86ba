"""World-frame trajectories and TUM-style file I/O."""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .se3 import PoseSE3


class Trajectory:
    """Time-ordered sequence of world poses."""

    __slots__ = ("timestamps", "poses")

    def __init__(self, timestamps, poses):
        ts = np.asarray(timestamps, dtype=np.float64).reshape(-1)
        poses = list(poses)
        if len(ts) != len(poses):
            raise ParameterError("timestamp / pose count mismatch")
        if len(ts) > 1 and not np.all(np.diff(ts) > 0):
            raise ParameterError("timestamps must be strictly increasing")
        ts.setflags(write=False)
        self.timestamps = ts
        self.poses = poses

    def __len__(self):
        return len(self.poses)

    def save(self, path):
        """Write TUM lines: timestamp tx ty tz qx qy qz qw."""
        with open(path, "w") as f:
            for t, pose in zip(self.timestamps, self.poses):
                tx, ty, tz = (float(v) for v in pose.translation)
                qx, qy, qz, qw = (float(v) for v in pose.quat)
                f.write(
                    f"{float(t)!r} {tx!r} {ty!r} {tz!r} {qx!r} {qy!r} {qz!r} {qw!r}\n"
                )

    @classmethod
    def load(cls, path) -> "Trajectory":
        ts, poses = [], []
        with open(path, "r") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 8:
                    raise ParameterError(f"{path}:{lineno}: expected 8 fields")
                try:
                    vals = [float(v) for v in parts]
                except ValueError:
                    raise ParameterError(f"{path}:{lineno}: non-numeric field") from None
                if not np.isfinite(vals).all():
                    raise ParameterError(f"{path}:{lineno}: non-finite field")
                try:
                    pose = PoseSE3(vals[4:8], vals[1:4])
                except ParameterError as exc:
                    raise ParameterError(f"{path}:{lineno}: {exc}") from None
                ts.append(vals[0])
                poses.append(pose)
        return cls(ts, poses)
