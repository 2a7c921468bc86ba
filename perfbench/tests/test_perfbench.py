"""Tests of the benchmark's own statistics, tracing and checks.

Run from the repository root with: python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import run  # noqa: E402
from calibration import Calibration  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from smvslab import datasets, geometry, smvs  # noqa: E402
from smvslab.se3 import PoseSE3  # noqa: E402
from smvslab.trajectory import Trajectory  # noqa: E402


# ------------------------------------------------------------ percentiles


def test_ops_needed_leaves_ten_samples_above_p90():
    n = run.ops_needed(0.9)
    assert n == 100
    samples = list(range(n))
    p90 = run.percentile(samples, 0.9)
    assert sum(s > p90 for s in samples) >= 10


def test_percentile_refuses_too_few_samples_beyond():
    with pytest.raises(ValueError):
        run.percentile(list(range(run.ops_needed(0.9) - 1)), 0.9)
    assert run.percentile([3.0, 1.0, 2.0], 0.5, min_beyond=1) == 2.0


# ------------------------------------------------------------ self time


def span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_times_on_nested_spans():
    spans = [
        span("smvs.outer", 0.0, 10.0, -1),
        span("geometry.child", 1.0, 4.0, 0),
        span("matching.child", 5.0, 9.0, 0),
        span("geometry.grandchild", 6.0, 7.0, 2),
        span("bench.counter", 9.0, 9.5, 0),
        span("se3.later", 11.0, 11.5, -1),
    ]
    assert tracer.self_times(spans) == pytest.approx([2.5, 3.0, 3.0, 1.0, 0.5, 0.5])
    by_name, by_layer, bench_self = tracer.aggregate(spans, wall_s=12.0)
    assert by_name["smvs.outer"] == pytest.approx(2.5)
    assert by_layer["geometry"] == pytest.approx(4.0)
    assert by_layer["matching"] == pytest.approx(3.0)
    assert bench_self == pytest.approx(12.0 - 10.5 + 0.5)
    assert tracer.trace_error_s(by_layer, bench_self, 12.0) == pytest.approx(0.0)


def test_tracer_wraps_every_lookup_name_and_restores():
    modules = {n.rpartition(".")[2]: m for n, m in sys.modules.items() if n.startswith("smvslab")}
    original = geometry.estimate_covariances
    cloud = geometry.PointCloud(np.random.default_rng(0).normal(size=(64, 3)))
    with tracer.Tracer().installed(modules) as t:
        assert smvs.estimate_covariances is geometry.estimate_covariances is not original
        smvs.estimate_covariances(cloud, k=8)
    assert geometry.estimate_covariances is original and smvs.estimate_covariances is original
    names = [s[0] for s in t.spans]
    top = names.index("geometry.estimate_covariances")
    for child in ("geometry.SpatialIndex.__init__", "geometry.SpatialIndex.query"):
        assert t.spans[names.index(child)][tracer.PARENT] == top
    assert t.spans[names.index("geometry.SpatialIndex.query")][tracer.TAG] == "knn"


# ------------------------------------------------------------ failed operations


def test_raising_or_wrong_ops_count_as_failed():
    def boom():
        raise RuntimeError("boom")

    tally = run.Tally()
    for op in (
        workloads.Op(1, lambda: 1, lambda out: []),
        workloads.Op(1, boom, lambda out: []),
        workloads.Op(1, lambda: 1, lambda out: ["wrong answer"]),
        workloads.Op(1, lambda: 1, lambda out: 1 / 0),
    ):
        run.run_op(op, tally, calibrate=lambda: 1.0)
    assert (tally.attempted, tally.failed, len(tally.op_s), tally.frames) == (4, 3, 1, 1)
    assert "boom" in tally.problems[0] and "wrong answer" in tally.problems[1]


# ------------------------------------------------------------ round trip


def test_roundtrip_check_rejects_a_perturbed_dataset(tmp_path):
    rng = np.random.default_rng(1)
    frames = [geometry.PointCloud(rng.normal(size=(50, 3))) for _ in range(2)]
    truth = Trajectory([0.0, 0.1], [PoseSE3.from_rpy(0.0, 0.0, 0.3, (1.0, 2.0, 0.5))] * 2)
    saved = datasets.FrameDataset(frames, [0.0, 0.1], truth)
    datasets.save_dataset(saved, tmp_path)
    assert workloads.roundtrip_problems(saved, datasets.load_dataset(tmp_path)) == []

    points = frames[1].points.copy()
    points[7, 2] = np.nextafter(points[7, 2], np.inf)
    perturbed = datasets.FrameDataset([frames[0], geometry.PointCloud(points)], [0.0, 0.1], truth)
    assert workloads.roundtrip_problems(perturbed, datasets.load_dataset(tmp_path)) == [
        "frame 1 points differ"
    ]


# ------------------------------------------------------------ metric names


class TinyWorkload:
    """Stands in for a real workload: many quick calls into one layer."""

    name = "tiny"
    calibration_lines = 100

    def setup(self, seed, workdir):
        return geometry.PointCloud(np.random.default_rng(seed).normal(size=(40, 3)))

    def new_pass(self, cloud):
        ops = [
            workloads.Op(1, lambda: geometry.voxel_downsample(cloud, 0.5), lambda out: [])
            for _ in range(run.ops_needed(run.P90))
        ]
        return ops, lambda: "same"


def test_runs_report_exactly_the_metrics_benchmark_json_names(tmp_path, monkeypatch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modules = {n.rpartition(".")[2]: m for n, m in sys.modules.items() if n.startswith("smvslab")}
    monkeypatch.setattr(run, "OUT", tmp_path)

    calibrate = Calibration(str(tmp_path), text_lines=100)
    tally, fingerprints, metrics, _ = run.measure(TinyWorkload(), 0, 0.01, str(tmp_path), calibrate)
    assert tally.failed == 0 and set(fingerprints) == {"same"}
    assert {(k, u) for k, (_, u) in metrics.items()} == {(m["name"], m["unit"]) for m in spec["end_to_end"]}
    assert all(v > 0 for v, _ in metrics.values())

    tally, _, metrics, detail = run.traced(TinyWorkload(), 0, 0.01, str(tmp_path), calibrate, modules)
    assert tally.failed == 0 and detail["trace_error_s"] < 1e-9
    assert {(k, u) for k, (_, u) in metrics.items()} == {(m["name"], m["unit"]) for m in spec["per_layer"]}
    assert metrics["geometry.voxel_downsample.self_s"][0] > 0
