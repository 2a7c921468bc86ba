"""A fixed calibration kernel that reads the machine's current speed.

On a shared 2-core virtual machine the same operation can take 25 % longer
from one minute to the next, and differ by as much again between two runs,
because other tenants load the host. The benchmark therefore times this
kernel right before every operation and set-up and divides the measured
time by the kernel's slowdown: its time over its nominal time, about what
it takes on an unloaded 2-core box. The result is the time the operation
would have taken on that box. The raw times are reported next to the
scaled ones.

The kernel never calls smvslab, so no change to the program moves it. It
mixes the kinds of work the workloads do: a kd-tree build and k=20 query
on both cores, batched 3x3 eigen-analysis and inverses, and writing,
reading and parsing a text file of floats. A workload chooses how many
text lines to use, so that the kernel's mix resembles its own.
"""

from __future__ import annotations

import os
import time

import numpy as np
from scipy.spatial import cKDTree

POINTS = 1500
NUMERIC_NOMINAL_S = 0.017       # kd-tree and linear algebra part
LINE_NOMINAL_S = 4.8e-6         # per text line written, read and parsed


class Calibration:
    """Times the kernel; inputs are fixed, so every call does the same work."""

    def __init__(self, workdir, text_lines):
        rng = np.random.default_rng(20250217)
        self.points = rng.normal(size=(POINTS, 3))
        m = rng.normal(size=(POINTS, 3, 3))
        self.spd = m @ m.transpose(0, 2, 1) + np.eye(3)
        self.values = rng.normal(size=text_lines).tolist()
        self.path = os.path.join(workdir, "calibration.txt")
        self.nominal_s = NUMERIC_NOMINAL_S + LINE_NOMINAL_S * text_lines

    def __call__(self) -> float:
        """The machine's current slowdown: kernel time over nominal time."""
        start = time.perf_counter()
        _, ids = cKDTree(self.points).query(self.points, k=20, workers=-1)
        neighbors = self.points[ids]
        centered = neighbors - neighbors.mean(axis=1, keepdims=True)
        np.linalg.eigh(np.einsum("nki,nkj->nij", centered, centered))
        np.linalg.inv(self.spd)
        with open(self.path, "w") as f:
            for v in self.values:
                f.write(f"{v!r} {v!r} {v!r}\n")
        with open(self.path) as f:
            parsed = [float(x) for line in f for x in line.split()]
        os.remove(self.path)
        elapsed = time.perf_counter() - start
        if len(parsed) != 3 * len(self.values):
            raise RuntimeError("calibration kernel read back the wrong number of values")
        return elapsed / self.nominal_s
