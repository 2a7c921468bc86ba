import numpy as np
import pytest

from smvslab.datasets import FrameDataset
from smvslab.errors import ParameterError
from smvslab.geometry import PointCloud
from smvslab.metrics import ape
from smvslab.matching import MatcherConfig
from smvslab.pipelines import (
    PipelineConfig,
    build_prior_map,
    odometry_run,
    priormap_localize,
)
from smvslab.se3 import PoseSE3
from smvslab.simulate import (
    SceneSpec,
    SensorModel,
    TrajectorySpec,
    build_scene,
    generate_dataset,
)
from smvslab.trajectory import Trajectory


@pytest.fixture(scope="module")
def short_course():
    scene = build_scene(SceneSpec(archetype="mixed"))
    spec = TrajectorySpec(
        waypoints=((0.0, 0.0), (12.0, 0.0)), speed=6.0, frame_rate=5.0
    )
    sensor = SensorModel(
        rings=8, horizontal_resolution_deg=2.0, max_range=25.0, range_noise_sigma=0.01
    )
    return generate_dataset(scene, spec, sensor, seed=11)


def relative_gt(ds):
    origin = ds.ground_truth.poses[0]
    return Trajectory(
        ds.ground_truth.timestamps,
        [origin.inverse().compose(p) for p in ds.ground_truth.poses],
    )


def test_odometry_tracks_short_course(short_course):
    est, statuses = odometry_run(short_course)
    assert len(est) == len(short_course)
    # The first frame pins the odometry origin.
    assert np.allclose(est.poses[0].translation, 0.0)
    stats = ape(est, relative_gt(short_course))
    assert stats.rmse < 0.1
    assert all(s.error is None for s in statuses)


def test_odometry_statuses_cover_all_frames(short_course):
    _, statuses = odometry_run(short_course)
    assert [s.frame_id for s in statuses] == list(range(len(short_course)))


def test_priormap_tracks_short_course(short_course):
    prior = build_prior_map(short_course, short_course.ground_truth)
    init = short_course.ground_truth.poses[0]
    est, statuses = priormap_localize(short_course, prior, init=init)
    stats = ape(est, short_course.ground_truth)
    assert stats.rmse < 0.1
    assert all(s.converged for s in statuses)


def test_priormap_locks_on_from_identity_init(short_course):
    prior = build_prior_map(short_course, short_course.ground_truth)
    est, _ = priormap_localize(short_course, prior, init=PoseSE3.identity())
    # Identity init coincides with the ground-truth start except for height,
    # so localization still locks on.
    assert np.isfinite([p.translation for p in est.poses]).all()


def test_empty_dataset_rejected():
    empty = FrameDataset([], [])
    with pytest.raises(ParameterError):
        odometry_run(empty)
    with pytest.raises(ParameterError):
        priormap_localize(empty, PointCloud([[0.0, 0.0, 0.0]]), init=PoseSE3.identity())


def test_empty_prior_map_rejected(short_course):
    with pytest.raises(ParameterError):
        priormap_localize(short_course, PointCloud(np.empty((0, 3))), init=PoseSE3.identity())


def test_sparse_frame_rejected():
    tiny = PointCloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    ds = FrameDataset([tiny], [0.0])
    with pytest.raises(ParameterError):
        odometry_run(ds)


def test_build_prior_map_length_mismatch(short_course):
    gt = short_course.ground_truth
    short_traj = Trajectory(gt.timestamps[:2], gt.poses[:2])
    with pytest.raises(ParameterError):
        build_prior_map(short_course, short_traj)


def test_failed_alignment_falls_back_to_prediction():
    # Second frame has no overlap with the first: alignment must fail but
    # the run continues with the constant-velocity prediction.
    rng = np.random.default_rng(0)
    base = rng.uniform(-5, 5, size=(300, 3))
    far = base + 500.0
    ds = FrameDataset([PointCloud(base), PointCloud(far), PointCloud(far)], [0.0, 0.1, 0.2])
    est, statuses = odometry_run(ds)
    assert not statuses[1].converged
    assert statuses[1].error is not None
    assert len(est) == 3


def test_pipeline_config_defaults():
    cfg = PipelineConfig()
    assert cfg.local_map_window == 20
    assert cfg.frame_voxel == 0.5
    assert cfg.covariance_k == 20
    # The settings are fixed: neither config takes a value.
    with pytest.raises(TypeError):
        PipelineConfig(frame_voxel=1.0)
    with pytest.raises(TypeError):
        MatcherConfig(max_iterations=5)
    # Every setting the benchmark reads keeps its value.
    assert cfg.map_voxel == 0.5
    assert cfg.covariance_epsilon == 1e-3
    assert cfg.matcher.max_corr_dist == 2.0


def test_cached_preparation_matches_fresh(short_course):
    # Prepared frames and prior maps are cached by cloud identity; a run
    # that reuses them gives exactly what a run on never-seen copies gives.
    prior = build_prior_map(short_course, short_course.ground_truth)
    init = short_course.ground_truth.poses[0]

    def runs(course, prior_map):
        return odometry_run(course), priormap_localize(course, prior_map, init=init)

    # Copies have identities no cache has seen, so the first run misses.
    copies = FrameDataset(
        [PointCloud(f.points) for f in short_course.frames],
        short_course.timestamps,
        short_course.ground_truth,
    )
    prior_copy = PointCloud(prior.points)
    fresh = runs(copies, prior_copy)
    cached = runs(copies, prior_copy)
    for (est_a, st_a), (est_b, st_b) in zip(fresh, cached):
        for a, b in zip(est_a.poses, est_b.poses):
            assert np.array_equal(a.quat, b.quat)
            assert np.array_equal(a.translation, b.translation)
        assert st_a == st_b
