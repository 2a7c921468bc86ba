"""Trajectory error metrics (APE, RPE) and SMVS-vs-error bucket tables."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .textio import write_table
from .trajectory import Trajectory


@dataclass
class ApeStats:
    rmse: float
    mean: float
    std: float
    max: float
    rot_rmse_deg: float


@dataclass
class RpeStats:
    max: float
    mean: float
    rot_max_deg: float


def _associate(est: Trajectory, ref: Trajectory):
    """Match poses by timestamp within 1e-6 s, truncated to the shorter run."""
    pairs = []
    j = 0
    for i, t in enumerate(est.timestamps):
        while j < len(ref) and ref.timestamps[j] < t - 1e-6:
            j += 1
        if j < len(ref) and abs(ref.timestamps[j] - t) <= 1e-6:
            pairs.append((i, j))
    return pairs


def _stats(values: np.ndarray):
    rmse = float(np.sqrt(np.mean(values ** 2)))
    return rmse, float(values.mean()), float(values.std()), float(values.max())


def ape(est: Trajectory, ref: Trajectory, align_first_pose: bool = True) -> ApeStats:
    """Absolute pose error between two trajectories, paired by timestamp.

    With align_first_pose the estimate is rigidly moved so its first
    associated pose coincides with the reference one.
    """
    pairs = _associate(est, ref)
    if not pairs:
        raise ParameterError("no timestamp associations between trajectories")
    est_poses = [est.poses[i] for i, _ in pairs]
    ref_poses = [ref.poses[j] for _, j in pairs]

    if align_first_pose:
        correction = ref_poses[0].compose(est_poses[0].inverse())
        est_poses = [correction.compose(p) for p in est_poses]

    trans = np.array(
        [
            np.linalg.norm(e.translation - r.translation)
            for e, r in zip(est_poses, ref_poses)
        ]
    )
    rot = np.array(
        [math.degrees(e.rotation_angle_to(r)) for e, r in zip(est_poses, ref_poses)]
    )
    t_rmse, t_mean, t_std, t_max = _stats(trans)
    return ApeStats(
        rmse=t_rmse,
        mean=t_mean,
        std=t_std,
        max=t_max,
        rot_rmse_deg=_stats(rot)[0],
    )


def rpe(est: Trajectory, ref: Trajectory, delta: int = 1) -> RpeStats:
    """Relative pose error over a fixed step of `delta` pose pairs, the
    pairs associated by timestamp as in `ape`."""
    pairs = _associate(est, ref)
    if delta < 1 or len(pairs) < delta + 1:
        raise ParameterError(f"need delta >= 1 and more than delta={delta} associated poses")
    trans, rot = [], []
    for (i, j), (k, l) in zip(pairs, pairs[delta:]):
        rel_est = est.poses[i].inverse().compose(est.poses[k])
        rel_ref = ref.poses[j].inverse().compose(ref.poses[l])
        err = rel_ref.inverse().compose(rel_est)
        trans.append(np.linalg.norm(err.translation))
        rot.append(math.degrees(rel_est.rotation_angle_to(rel_ref)))
    trans = np.asarray(trans)
    rot = np.asarray(rot)
    return RpeStats(max=float(trans.max()), mean=float(trans.mean()), rot_max_deg=float(rot.max()))


DEFAULT_BUCKET_EDGES = (-6000.0, -3000.0, -1000.0)


@dataclass
class RunRecord:
    smvs: float
    model: str
    ape_m: float                    # APE translation RMSE
    ape_deg: float                  # APE rotation RMSE


@dataclass
class BucketCell:
    mean_m: float
    std_m: float
    mean_deg: float
    std_deg: float
    count: int


@dataclass
class BucketTable:
    edges: tuple[float, ...]                    # n thresholds, n + 1 buckets
    cells: dict = field(default_factory=dict)   # (bucket index, model) -> BucketCell

    def bucket_label(self, idx: int) -> str:
        if idx == 0:
            return f"S < {self.edges[0]:g}"
        if idx == len(self.edges):
            return f"{self.edges[-1]:g} < S"
        return f"{self.edges[idx - 1]:g} < S < {self.edges[idx]:g}"

    def save_csv(self, path):
        models = sorted({m for _, m in self.cells})
        columns = [f"{m}_mean_m,{m}_std_m,{m}_mean_deg,{m}_std_deg,{m}_count" for m in models]
        header = ",".join(["bucket", *columns])
        rows = []
        for b in range(len(self.edges) + 1):
            row = [self.bucket_label(b)]
            for m in models:
                cell = self.cells.get((b, m))
                if cell is None:
                    row += ["n/a"] * 5
                else:
                    row += [repr(v) for v in (cell.mean_m, cell.std_m, cell.mean_deg, cell.std_deg)]
                    row.append(cell.count)
            rows.append(row)
        write_table(path, ",".join(["{}"] * (1 + 5 * len(models))), rows, header=header)


def bucket_index(smvs: float, edges) -> int:
    """The number of thresholds below `smvs`: bucket 0 holds everything up to
    edges[0], and the last bucket is open above."""
    return bisect_left(edges, smvs)


def bucket_report(runs: list[RunRecord], edges=DEFAULT_BUCKET_EDGES) -> BucketTable:
    """Group runs by SMVS bucket and attack model; mean +- std per cell.

    `edges` are the thresholds between buckets: one or more finite, strictly
    increasing values. A run whose SMVS is nan (no score) falls in no bucket."""
    edges = tuple(edges)
    if not edges or not all(map(math.isfinite, edges)) or any(
        b <= a for a, b in zip(edges, edges[1:])
    ):
        raise ParameterError(
            f"bucket edges {edges} must be one or more finite, strictly increasing values"
        )
    table = BucketTable(edges=edges)
    groups: dict[tuple[int, str], list[RunRecord]] = {}
    for run in runs:
        if math.isnan(run.smvs):
            continue
        groups.setdefault((bucket_index(run.smvs, edges), run.model), []).append(run)
    for key, members in groups.items():
        m = np.array([r.ape_m for r in members])
        d = np.array([r.ape_deg for r in members])
        table.cells[key] = BucketCell(
            mean_m=float(m.mean()),
            std_m=float(m.std()),
            mean_deg=float(d.mean()),
            std_deg=float(d.std()),
            count=len(members),
        )
    return table
