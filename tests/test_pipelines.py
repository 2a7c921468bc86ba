import numpy as np
import pytest

from smvslab.errors import ParameterError
from smvslab.geometry import PointCloud
from smvslab.metrics import ape
from smvslab.matching import MatcherConfig
from smvslab.pipelines import (
    PipelineConfig,
    build_prior_map,
    odometry_run,
    prepare_frame,
    prepare_map,
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


@pytest.fixture(scope="module")
def short_sources(short_course):
    return [prepare_frame(f) for f in short_course.frames]


@pytest.fixture(scope="module")
def short_map_index(short_course):
    return prepare_map(build_prior_map(short_course, short_course.ground_truth))


def test_odometry_tracks_short_course(short_course, short_sources):
    init = short_course.ground_truth.poses[0]
    est, statuses = odometry_run(short_sources, short_course.timestamps, init)
    assert len(est) == len(short_course)
    # The first frame sits at the init.
    assert np.allclose(est.poses[0].translation, init.translation)
    stats = ape(est, short_course.ground_truth)
    assert stats.rmse < 0.1
    assert all(s.error is None for s in statuses)


def test_odometry_statuses_cover_all_frames(short_course, short_sources):
    _, statuses = odometry_run(
        short_sources, short_course.timestamps, short_course.ground_truth.poses[0]
    )
    assert [s.frame_id for s in statuses] == list(range(len(short_course)))


def test_priormap_tracks_short_course(short_course, short_sources, short_map_index):
    init = short_course.ground_truth.poses[0]
    est, statuses = priormap_localize(
        short_sources, short_course.timestamps, short_map_index, init
    )
    stats = ape(est, short_course.ground_truth)
    assert stats.rmse < 0.1
    assert all(s.converged for s in statuses)


def test_priormap_locks_on_from_identity_init(short_course, short_sources, short_map_index):
    est, _ = priormap_localize(
        short_sources, short_course.timestamps, short_map_index, PoseSE3.identity()
    )
    # Identity init coincides with the ground-truth start except for height,
    # so localization still locks on.
    assert np.isfinite([p.translation for p in est.poses]).all()


def test_empty_dataset_rejected(short_map_index):
    with pytest.raises(ParameterError):
        odometry_run([], [], PoseSE3.identity())
    with pytest.raises(ParameterError):
        priormap_localize([], [], short_map_index, PoseSE3.identity())


def test_timestamp_count_mismatch_rejected(short_course, short_sources, short_map_index):
    # Checked before the first frame is aligned, not when the poses are
    # paired with the timestamps at the end.
    ts = short_course.timestamps[:-1]
    init = short_course.ground_truth.poses[0]
    with pytest.raises(ParameterError, match="frames and"):
        odometry_run(short_sources, ts, init)
    with pytest.raises(ParameterError, match="frames and"):
        priormap_localize(short_sources, ts, short_map_index, init)


def test_empty_prior_map_rejected():
    with pytest.raises(ParameterError):
        prepare_map(PointCloud(np.empty((0, 3))))


def test_sparse_frame_rejected():
    tiny = PointCloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ParameterError):
        prepare_frame(tiny)


def test_unprepared_sources_raise(short_course, short_map_index):
    # A caller error is not a failed alignment: a frame without covariances
    # raises instead of leaving a prediction behind.
    raw = short_course.frames[:3]
    ts = short_course.timestamps[:3]
    init = short_course.ground_truth.poses[0]
    with pytest.raises(ParameterError, match="covariances"):
        odometry_run(raw, ts, init)
    with pytest.raises(ParameterError, match="covariances"):
        priormap_localize(raw, ts, short_map_index, init)


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
    sources = [prepare_frame(PointCloud(p)) for p in (base, far, far)]
    est, statuses = odometry_run(sources, [0.0, 0.1, 0.2], PoseSE3.identity())
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


def test_reused_preparation_matches_fresh(short_course, short_sources, short_map_index):
    # Prepared frames and map indexes are plain values: runs that share them
    # give exactly what runs on freshly prepared copies give.
    init = short_course.ground_truth.poses[0]
    ts = short_course.timestamps

    def runs(sources, map_index):
        return (
            odometry_run(sources, ts, init),
            priormap_localize(sources, ts, map_index, init),
        )

    reused = runs(short_sources, short_map_index)
    copies = [prepare_frame(PointCloud(f.points)) for f in short_course.frames]
    prior_copy = build_prior_map(short_course, short_course.ground_truth)
    fresh = runs(copies, prepare_map(PointCloud(prior_copy.points)))
    for (est_a, st_a), (est_b, st_b) in zip(reused, fresh):
        for a, b in zip(est_a.poses, est_b.poses):
            assert np.array_equal(a.quat, b.quat)
            assert np.array_equal(a.translation, b.translation)
        assert st_a == st_b
