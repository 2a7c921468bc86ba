import math

import numpy as np
import pytest

from smvslab.errors import ParameterError
from smvslab.metrics import (
    DEFAULT_BUCKET_EDGES,
    RunRecord,
    ape,
    bucket_index,
    bucket_report,
    rpe,
)
from smvslab.se3 import PoseSE3
from smvslab.trajectory import Trajectory


def random_trajectory(seed, n=20):
    rng = np.random.default_rng(seed)
    ts = np.arange(n) * 0.1
    poses = []
    for i in range(n):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        poses.append(PoseSE3(q, rng.normal(size=3)))
    return Trajectory(ts, poses)


def test_ape_matches_direct_recomputation():
    est = random_trajectory(0)
    ref = random_trajectory(1)
    stats = ape(est, ref, align_first_pose=False)
    trans = np.array(
        [
            np.linalg.norm(e.translation - r.translation)
            for e, r in zip(est.poses, ref.poses)
        ]
    )
    assert stats.rmse == pytest.approx(math.sqrt(np.mean(trans**2)), abs=1e-12)
    assert stats.mean == pytest.approx(trans.mean(), abs=1e-12)
    assert stats.max == pytest.approx(trans.max(), abs=1e-12)
    assert stats.std == pytest.approx(trans.std(), abs=1e-12)


def test_ape_constant_offset_is_offset_norm():
    ref = random_trajectory(2)
    offset = np.array([3.0, 4.0, 0.0])
    est = Trajectory(
        ref.timestamps,
        [PoseSE3(p.quat, p.translation + offset) for p in ref.poses],
    )
    stats = ape(est, ref, align_first_pose=False)
    assert stats.rmse == pytest.approx(5.0, abs=1e-12)
    assert stats.max == pytest.approx(5.0, abs=1e-12)
    assert stats.rot_rmse_deg == pytest.approx(0.0, abs=1e-9)


def test_ape_first_pose_alignment_removes_rigid_offset():
    ref = random_trajectory(3)
    move = PoseSE3.from_rpy(0.0, 0.0, 0.5, (2.0, -1.0, 0.3))
    est = Trajectory(ref.timestamps, [move.compose(p) for p in ref.poses])
    stats = ape(est, ref, align_first_pose=True)
    assert stats.rmse == pytest.approx(0.0, abs=1e-9)


def test_ape_requires_timestamp_associations():
    ref = random_trajectory(4)
    # Shift timestamps so that no pose associates.
    est = Trajectory(np.asarray(ref.timestamps) + 1000.0, list(ref.poses))
    with pytest.raises(ParameterError):
        ape(est, ref)


def test_rpe_matches_direct_recomputation():
    est = random_trajectory(5)
    ref = random_trajectory(6)
    delta = 3
    stats = rpe(est, ref, delta=delta)
    trans, rot = [], []
    for i in range(len(est) - delta):
        rel_est = est.poses[i].inverse().compose(est.poses[i + delta])
        rel_ref = ref.poses[i].inverse().compose(ref.poses[i + delta])
        trans.append(
            np.linalg.norm(rel_ref.inverse().compose(rel_est).translation)
        )
        rot.append(math.degrees(rel_est.rotation_angle_to(rel_ref)))
    assert stats.mean == pytest.approx(np.mean(trans), abs=1e-12)
    assert stats.max == pytest.approx(np.max(trans), abs=1e-12)
    assert stats.rot_max_deg == pytest.approx(np.max(rot), abs=1e-12)


def test_rpe_constant_offset_is_zero():
    ref = random_trajectory(7)
    offset = np.array([3.0, 4.0, 0.0])
    est = Trajectory(
        ref.timestamps,
        [PoseSE3(p.quat, p.translation + offset) for p in ref.poses],
    )
    stats = rpe(est, ref, delta=1)
    assert stats.max == pytest.approx(0.0, abs=1e-9)
    assert stats.rot_max_deg == pytest.approx(0.0, abs=1e-9)


def test_rpe_pairs_poses_by_timestamp():
    # The estimate skips the reference's second pose; pairing by index would
    # compare a 2 m step against a 1 m one.
    ref = Trajectory(
        [0.0, 0.1, 0.2, 0.3], [PoseSE3.from_rpy(0, 0, 0, (i, 0.0, 0.0)) for i in range(4)]
    )
    est = Trajectory([0.0, 0.2, 0.3], [ref.poses[i] for i in (0, 2, 3)])
    assert ape(est, ref).rmse == 0.0
    stats = rpe(est, ref)
    assert stats.max == 0.0
    # Three associated poses: two one-step pairs, one two-step pair, none of three steps.
    assert rpe(est, ref, delta=2).max == 0.0
    with pytest.raises(ParameterError):
        rpe(est, ref, delta=3)


def test_rpe_too_short():
    t = random_trajectory(8, n=3)
    with pytest.raises(ParameterError):
        rpe(t, t, delta=5)
    with pytest.raises(ParameterError):
        rpe(t, t, delta=0)


def test_bucket_index_edges():
    edges = DEFAULT_BUCKET_EDGES
    # Bucket 0 is everything up to edges[0]; the last bucket is open above.
    assert bucket_index(-20000.0, edges) == 0
    assert bucket_index(-7000.0, edges) == 0
    assert bucket_index(-4000.0, edges) == 1
    assert bucket_index(-2000.0, edges) == 2
    assert bucket_index(-500.0, edges) == 3
    assert bucket_index(100.0, edges) == 3


def test_bucket_report_totals_and_cells():
    runs = [
        RunRecord(smvs=-9000.0, model="removal_noise", ape_m=4.0, ape_deg=1.0),
        RunRecord(smvs=-9500.0, model="removal_noise", ape_m=6.0, ape_deg=1.0),
        RunRecord(smvs=-500.0, model="injection", ape_m=0.5, ape_deg=1.0),
    ]
    table = bucket_report(runs)
    assert sum(c.count for c in table.cells.values()) == 3
    cell = table.cells[(0, "removal_noise")]
    assert cell.count == 2
    assert cell.mean_m == pytest.approx(5.0)
    assert cell.std_m == pytest.approx(1.0)
    assert table.cells[(3, "injection")].count == 1


def test_bucket_table_csv_has_na_for_empty_cells(tmp_path):
    runs = [RunRecord(smvs=-9000.0, model="removal_noise", ape_m=1.0, ape_deg=1.0)]
    table = bucket_report(runs)
    path = tmp_path / "table.csv"
    table.save_csv(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + len(DEFAULT_BUCKET_EDGES) + 1   # header, n + 1 buckets
    assert "n/a" in lines[3]  # some bucket other than the populated one


def test_bucket_report_leaves_unscored_runs_out():
    # runs.csv writes nan when no replaced frame was scored; such a run is
    # in no bucket, least of all the most vulnerable-looking bucket 0.
    runs = [
        RunRecord(smvs=math.nan, model="removal_noise", ape_m=1.0, ape_deg=2.0),
        RunRecord(smvs=-500.0, model="removal_noise", ape_m=3.0, ape_deg=4.0),
    ]
    table = bucket_report(runs)
    assert list(table.cells) == [(3, "removal_noise")]
    assert table.cells[(3, "removal_noise")].count == 1
    assert bucket_report(runs[:1]).cells == {}


@pytest.mark.parametrize("edges", [
    (), (5.0, 1.0, -3.0), (0.0, 0.0), (0.0, math.nan), (-math.inf, 0.0),
])
def test_bucket_report_rejects_bad_edges(edges):
    with pytest.raises(ParameterError, match="one or more finite, strictly increasing"):
        bucket_report([], edges)


def test_bucket_report_accepts_two_edges():
    runs = [RunRecord(smvs=2.0, model="injection", ape_m=1.0, ape_deg=1.0)]
    table = bucket_report(runs, (1.0,))
    assert [table.bucket_label(b) for b in range(2)] == ["S < 1", "1 < S"]
    assert table.cells[(1, "injection")].count == 1


def test_bucket_labels():
    table = bucket_report([])
    assert table.bucket_label(0) == "S < -6000"
    assert table.bucket_label(1) == "-6000 < S < -3000"
    assert table.bucket_label(3) == "-1000 < S"
