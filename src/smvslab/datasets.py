"""On-disk dataset layout: NNNNNN.xyz frames, groundtruth.txt, manifest.txt."""

from __future__ import annotations

import os

from .errors import ParameterError
from .geometry import load_xyz, save_xyz
from .trajectory import Trajectory


class FrameDataset:
    """In-memory sequence of scans with timestamps and optional ground truth."""

    __slots__ = ("frames", "timestamps", "ground_truth")

    def __init__(self, frames, timestamps, ground_truth: Trajectory | None = None):
        frames = list(frames)
        timestamps = list(timestamps)
        if len(frames) != len(timestamps):
            raise ParameterError("frame / timestamp count mismatch")
        if ground_truth is not None and len(ground_truth) != len(frames):
            raise ParameterError(f"ground truth: {len(ground_truth)} poses for {len(frames)} frames")
        self.frames = frames
        self.timestamps = timestamps
        self.ground_truth = ground_truth

    def __len__(self):
        return len(self.frames)


def save_dataset(dataset: FrameDataset, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    for i, frame in enumerate(dataset.frames):
        save_xyz(frame, os.path.join(out_dir, f"{i:06d}.xyz"))
    if dataset.ground_truth is not None:
        dataset.ground_truth.save(os.path.join(out_dir, "groundtruth.txt"))


def load_dataset(in_dir) -> FrameDataset:
    names = sorted(n for n in os.listdir(in_dir) if n.endswith(".xyz"))
    if not names:
        raise ParameterError(f"no .xyz frames found in {in_dir}")
    frames = [load_xyz(os.path.join(in_dir, n)) for n in names]
    gt_path = os.path.join(in_dir, "groundtruth.txt")
    if not os.path.exists(gt_path):
        return FrameDataset(frames, [float(i) for i in range(len(frames))])
    ground_truth = Trajectory.load(gt_path)
    if len(ground_truth) != len(frames):
        raise ParameterError(f"{gt_path}: {len(ground_truth)} poses for {len(frames)} frames")
    return FrameDataset(frames, list(ground_truth.timestamps), ground_truth)
