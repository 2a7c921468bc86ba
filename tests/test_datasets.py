import re

import numpy as np
import pytest

from manifests import read_manifest
from smvslab.datasets import FrameDataset, load_dataset, save_dataset
from smvslab.errors import ParameterError
from smvslab.geometry import PointCloud
from smvslab.se3 import PoseSE3
from smvslab.textio import write_manifest
from smvslab.trajectory import Trajectory


def sample_dataset(n=3):
    rng = np.random.default_rng(0)
    frames = [PointCloud(rng.normal(size=(10, 3))) for _ in range(n)]
    ts = [0.1 * i for i in range(n)]
    poses = [PoseSE3.from_rpy(0, 0, 0.1 * i, (i, 0.0, 1.5)) for i in range(n)]
    return FrameDataset(frames, ts, Trajectory(ts, poses))


def test_dataset_roundtrip(tmp_path):
    ds = sample_dataset()
    save_dataset(ds, tmp_path)
    back = load_dataset(tmp_path)
    assert len(back) == len(ds)
    for a, b in zip(back.frames, ds.frames):
        assert np.array_equal(a.points, b.points)
    assert back.timestamps == ds.timestamps
    for a, b in zip(back.ground_truth.poses, ds.ground_truth.poses):
        assert np.allclose(a.translation, b.translation)
        assert np.allclose(a.quat, b.quat)


def test_dataset_frame_files_zero_padded(tmp_path):
    save_dataset(sample_dataset(), tmp_path)
    names = sorted(p.name for p in tmp_path.glob("*.xyz"))
    assert names == ["000000.xyz", "000001.xyz", "000002.xyz"]


def test_load_dataset_without_ground_truth(tmp_path):
    ds = FrameDataset(sample_dataset().frames, [0.0, 0.1, 0.2])
    save_dataset(ds, tmp_path)
    back = load_dataset(tmp_path)
    assert back.ground_truth is None
    assert back.timestamps == [0.0, 1.0, 2.0]


def test_load_dataset_rejects_ground_truth_length_mismatch(tmp_path):
    save_dataset(sample_dataset(), tmp_path)
    (tmp_path / "000002.xyz").unlink()
    gt_path = tmp_path / "groundtruth.txt"
    with pytest.raises(ParameterError, match=f"^{re.escape(str(gt_path))}: 3 poses for 2 frames$"):
        load_dataset(tmp_path)


def test_load_dataset_empty_dir(tmp_path):
    with pytest.raises(ParameterError):
        load_dataset(tmp_path)


def test_frame_timestamp_mismatch():
    with pytest.raises(ParameterError):
        FrameDataset([PointCloud([[0.0, 0.0, 0.0]])], [0.0, 1.0])


def test_ground_truth_length_mismatch():
    ds = sample_dataset()
    short = Trajectory(ds.timestamps[:2], ds.ground_truth.poses[:2])
    with pytest.raises(ParameterError, match="^ground truth: 2 poses for 3 frames$"):
        FrameDataset(ds.frames, ds.timestamps, short)


def test_manifest_roundtrip_sorted(tmp_path):
    path = tmp_path / "manifest.txt"
    write_manifest(path, {"zeta": 1, "alpha": "two", "mid": 3.5})
    lines = path.read_text().strip().splitlines()
    assert lines == ["alpha=two", "mid=3.5", "zeta=1"]
    back = read_manifest(path)
    assert back == {"alpha": "two", "mid": "3.5", "zeta": "1"}


def test_trajectory_roundtrip(tmp_path):
    ds = sample_dataset()
    path = tmp_path / "traj.txt"
    ds.ground_truth.save(path)
    back = Trajectory.load(path)
    assert np.array_equal(back.timestamps, ds.ground_truth.timestamps)
    for a, b in zip(back.poses, ds.ground_truth.poses):
        assert np.array_equal(a.translation, b.translation)
        assert np.array_equal(a.quat, b.quat)


def test_trajectory_requires_increasing_timestamps():
    p = PoseSE3.identity()
    with pytest.raises(ParameterError):
        Trajectory([0.0, 0.0], [p, p])
    with pytest.raises(ParameterError):
        Trajectory([1.0, 0.5], [p, p])
    with pytest.raises(ParameterError):
        Trajectory([0.0], [p, p])


def test_trajectory_load_validates_fields(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.0 1 2 3 0 0 0\n")
    with pytest.raises(ParameterError, match=":1"):
        Trajectory.load(path)
    good = "0.0 1 2 3 0 0 0 1\n"
    for bad in ("0.1 1 two 3 0 0 0 1\n", "0.1 nan 2 3 0 0 0 1\n", "0.1 1 2 3 0 0 0 2\n"):
        path.write_text(good + bad)
        with pytest.raises(ParameterError, match=re.escape(f"{path}:2:")):
            Trajectory.load(path)
