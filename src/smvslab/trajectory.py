"""World-frame trajectories and TUM-style file I/O."""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .se3 import PoseSE3
from .textio import read_table, to_array, write_table


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
        rows = [
            (t, *pose.translation.tolist(), *pose.quat.tolist())
            for t, pose in zip(self.timestamps.tolist(), self.poses)
        ]
        write_table(path, " ".join(["{!r}"] * 8), rows)

    @classmethod
    def load(cls, path) -> "Trajectory":
        lines, rows = read_table(path, 8)
        values = to_array(path, lines, rows)
        # Column slices, not indices: an empty file gives a (0, 0) array.
        return cls(values[:, :1], poses_from_columns(path, lines, values[:, 1:]))


def poses_from_columns(path, lines, values) -> list[PoseSE3]:
    """One pose per row of tx ty tz qx qy qz qw; a bad quaternion fails its line."""
    poses = []
    for lineno, row in zip(lines, values.tolist()):
        try:
            poses.append(PoseSE3(row[3:7], row[0:3]))
        except ParameterError as exc:
            raise ParameterError(f"{path}:{lineno}: {exc}") from None
    return poses
