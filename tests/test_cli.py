import filecmp
import inspect
import math
import os
import subprocess
import sys

import pytest

import smvslab
from manifests import read_manifest
from smvslab.attacks import AttackSpec, attack_dataset
from smvslab.cli import _attack_spec_from, _sensor_from, _smvs_cfg_from, build_parser, dispatch
from smvslab.datasets import FrameDataset, load_dataset, save_dataset
from smvslab.geometry import AzimuthBinning, PointCloud
from smvslab.metrics import rpe
from smvslab.pipelines import prepare_frame
from smvslab.placement import choose_recommended, optimize_placement
from smvslab.simulate import SceneSpec, SensorModel, TrajectorySpec
from smvslab.smvs import SmvsConfig, SmvsProfile, load_profile_csv
from smvslab.trajectory import Trajectory

FAST_SENSOR = [
    "--rings", "8", "--hres", "2.0", "--max-range", "25.0", "--range-noise", "0.01",
]
SHORT_COURSE = ["--length", "12.0", "--speed", "6.0", "--rate", "10.0"]


def run(argv):
    return dispatch(argv)


def scene_args(out, seed=3):
    return (
        ["scene", "--out", str(out), "--seed", str(seed), "--archetype", "mixed"]
        + SHORT_COURSE
        + FAST_SENSOR
    )


def trees_equal(a, b):
    cmp = filecmp.dircmp(str(a), str(b))
    if cmp.left_only or cmp.right_only or cmp.diff_files:
        return False
    match, mismatch, errors = filecmp.cmpfiles(
        str(a), str(b), cmp.common_files, shallow=False
    )
    return not mismatch and not errors


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["odom"])  # missing required flags
    assert exc.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["frobnicate"])
    assert exc.value.code == 2


def test_no_flags_build_the_library_defaults():
    # Each default is the library's: the CLI with only --out builds exactly
    # what the types and functions default to.
    parser = build_parser()
    course = TrajectorySpec(waypoints=((0.0, 0.0), (1.0, 0.0)))
    for command in ("scene", "pipeline"):
        args = parser.parse_args([command, "--out", "unused"])
        assert _sensor_from(args) == SensorModel()
        assert SceneSpec(args.archetype, args.length) == SceneSpec("mixed")
        assert (args.speed, args.rate) == (course.speed, course.frame_rate)
    assert _attack_spec_from(args, seed=0) == AttackSpec(seed=0)
    assert _smvs_cfg_from(args, seed=0) == SmvsConfig()
    placement = inspect.signature(optimize_placement).parameters
    assert args.top_m == placement["top_m"].default
    assert args.standoff == placement["standoff"].default
    args = parser.parse_args(["eval", "--out", "unused", "--est", "e", "--ref", "r"])
    assert args.rpe_delta == inspect.signature(rpe).parameters["delta"].default


def test_domain_error_exits_1(tmp_path):
    scene_dir = tmp_path / "scene"
    assert run(scene_args(scene_dir)) == 0
    # Attack without a spoofer position is a domain error, not a crash.
    code = run(
        ["attack", "--dataset", str(scene_dir), "--out", str(tmp_path / "atk")]
        + FAST_SENSOR
    )
    assert code == 1


def test_smvs_bad_d_th_exits_1_before_any_frame(tmp_path, capsys, monkeypatch):
    scene_dir = tmp_path / "scene"
    assert run(scene_args(scene_dir)) == 0

    def analysed(*args, **kwargs):
        raise AssertionError("a frame was analysed")

    monkeypatch.setattr("smvslab.smvs.perturbed_clones", analysed)
    code = run(["smvs", "--dataset", str(scene_dir), "--out", str(tmp_path / "smvs"),
                "--d-th", "40"])
    assert code == 1
    assert "error: d_th=40 exceeds n/2=36" in capsys.readouterr().err


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_smvs_non_finite_clone_sigma_exits_1_before_any_frame(
    tmp_path, capsys, monkeypatch, sigma
):
    scene_dir = tmp_path / "scene"
    assert run(scene_args(scene_dir)) == 0

    def analysed(*args, **kwargs):
        raise AssertionError("a frame was analysed")

    monkeypatch.setattr("smvslab.smvs.perturbed_clones", analysed)
    code = run(["smvs", "--dataset", str(scene_dir), "--out", str(tmp_path / "smvs"),
                "--clone-sigma", sigma])
    assert code == 1
    assert "error: noise sigma must be finite and >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["smvs", "pipeline"])
@pytest.mark.parametrize("threads", [0, -2])
def test_threads_below_one_exit_1_before_any_frame(
    tmp_path, capsys, monkeypatch, command, threads
):
    def simulated(*args, **kwargs):
        raise AssertionError("a frame was simulated or loaded")

    monkeypatch.setattr("smvslab.cli._simulate", simulated)
    monkeypatch.setattr("smvslab.cli.load_dataset", simulated)
    argv = [command, "--out", str(tmp_path / "out"), "--threads", str(threads)]
    if command == "smvs":
        argv += ["--dataset", str(tmp_path / "scene")]
    assert run(argv) == 1
    assert f"error: threads={threads} must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--window-deg", "0"],
    ["--spoofer-range", "0"],
    ["--noise-min", "5", "--noise-max", "1"],
    ["--layers", "0"],
    ["--wall-dist", "0"],
    ["--top-m", "1"],
    ["--standoff", "nan"],
    ["--attack", "inject", "--wall-dist", "26", "--max-range", "25"],
], ids=["window-deg", "spoofer-range", "noise-range", "layers", "wall-dist", "top-m",
        "standoff", "wall-beyond-range"])
def test_pipeline_bad_attack_flag_exits_1_and_writes_nothing(tmp_path, capsys, flags):
    out = tmp_path / "out"
    argv = ["pipeline", "--out", str(out), "--top-m", "5"] + SHORT_COURSE + FAST_SENSOR
    assert run(argv + flags) == 1
    assert "error:" in capsys.readouterr().err
    assert os.listdir(out) == []


# setuptools' notice that reading `[tool.setuptools]` is beta; the only warning
# this read raises, and not smvslab's.
@pytest.mark.filterwarnings(r"ignore:Support for `\[tool\.setuptools\]`.*beta:UserWarning")
def test_pyproject_reads_the_package_version():
    from setuptools.config.pyprojecttoml import read_configuration

    root = os.path.dirname(os.path.dirname(os.path.dirname(smvslab.__file__)))
    config = read_configuration(os.path.join(root, "pyproject.toml"))
    assert config["project"]["version"] == smvslab.__version__


@pytest.mark.parametrize("argv, env", [
    (["odom", "--dataset", "nope"], {}),
    (["eval", "--est", "nope.txt", "--ref", "nope.txt"], {}),
    (["scene", "--config", "nope.cfg"], {}),
    (["scene"], {"SMVSLAB_SEED": "abc"}),
    (["localize", "--dataset", ".", "--map", "000000.xyz", "--init-traj", "empty.txt"], {}),
    (["place", "--profile", "profile.csv"], {}),
    (["report", "--runs", "runs.csv", "--edges", "a,b"], {}),
    (["report", "--runs", "runs.csv", "--edges", "5,1,-3"], {}),
    (["place", "--profile", "profile4.csv", "--standoff", "nan"], {}),
    (["place", "--profile", "profile4.csv", "--standoff", "inf"], {}),
    (["scene", "--length", "nan"], {}),
    (["scene", "--rate", "nan"], {}),
    (["scene", "--length", "-5"], {}),
    (["scene", "--length", "0.2"], {}),
    (["scene", "--speed", "inf"], {}),
    (["scene", "--max-range", "nan"], {}),
    (["scene", "--vfov", "nan"], {}),
    (["scene", "--hres", "nan"], {}),
    (["scene", "--range-noise", "nan"], {}),
    (["scene", "--range-noise", "-1"], {}),
    (["attack", "--dataset", "attack", "--spoofer-x", "nan", "--spoofer-y", "0"], {}),
    (["attack", "--dataset", "attack", "--window-deg", "0",
      "--spoofer-x", "500", "--spoofer-y", "500"], {}),
], ids=["missing-dataset", "missing-trajectory", "missing-config", "bad-seed-env",
        "empty-init-trajectory", "one-frame-profile", "non-numeric-edges",
        "decreasing-edges", "nan-standoff", "inf-standoff", "nan-length", "nan-rate",
        "negative-length", "no-frame-length", "inf-speed", "nan-max-range", "nan-vfov",
        "nan-hres", "nan-range-noise", "negative-range-noise", "nan-spoofer-x",
        "window-deg-zero"])
def test_bad_input_exits_1_without_traceback(tmp_path, argv, env):
    # A one-frame dataset (the frame doubles as the map), its copy with
    # ground truth, a trajectory file with no poses, a one-frame and a
    # four-frame SMVS profile and a one-row run table.
    (tmp_path / "000000.xyz").write_text("0.0 0.0 0.0\n1.0 0.0 0.0\n")
    (tmp_path / "attack").mkdir()
    (tmp_path / "attack" / "000000.xyz").write_text("0.0 0.0 0.0\n1.0 0.0 0.0\n")
    (tmp_path / "attack" / "groundtruth.txt").write_text("0.0 0.0 0.0 0.0 0.0 0.0 0.0 1.0\n")
    (tmp_path / "runs.csv").write_text("smvs,model,ape_m,ape_deg\n-5000.0,injection,0.1,0.2\n")
    (tmp_path / "empty.txt").write_text("# timestamp tx ty tz qx qy qz qw\n")
    header = "frame_id,timestamp,smvs,k_center,tx,ty,tz,qx,qy,qz,qw,n_regions,degenerate\n"
    (tmp_path / "profile.csv").write_text(
        header + "0,0.0,-100.0,40,0.0,0.0,0.0,0.0,0.0,0.0,1.0,72,0\n"
    )
    (tmp_path / "profile4.csv").write_text(header + "".join(
        f"{i},{0.1 * i},{-100.0 * i},{40 + i},{2.0 * i},0.0,0.0,0.0,0.0,0.0,1.0,72,0\n"
        for i in range(4)
    ))
    src = os.path.dirname(os.path.dirname(smvslab.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "smvslab.cli", *argv, "--out", str(tmp_path / "out")],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src, **env},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    if "--window-deg" in argv:
        assert "--window-deg" in proc.stderr


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_scene_rejects_a_course_beyond_the_frame_limit(tmp_path, capsys, monkeypatch):
    # 1e300 m overflows the course length to inf; 1e100 m is finite and far
    # past the limit at 0.6 m per frame. The bound must fire before the
    # first pose; the patch stops a missing bound after a few poses, before
    # it can fill memory.
    from smvslab.se3 import PoseSE3

    original = PoseSE3.from_rpy
    built = []

    def counting(*args, **kwargs):
        built.append(1)
        if len(built) > 3:
            raise AssertionError("poses built past the frame limit")
        return original(*args, **kwargs)

    monkeypatch.setattr(PoseSE3, "from_rpy", counting)
    for length in ("1e300", "1e100"):
        argv = ["scene", "--out", str(tmp_path / "scene"), "--length", length]
        assert run(argv) == 1
        assert "frames" in capsys.readouterr().err
        assert not built


def test_scene_writes_dataset_and_manifest(tmp_path):
    out = tmp_path / "scene"
    assert run(scene_args(out)) == 0
    ds = load_dataset(out)
    assert len(ds) == 20
    assert ds.ground_truth is not None
    manifest = read_manifest(out / "manifest.txt")
    assert manifest["seed"] == "3"
    assert manifest["command"] == "scene"


def test_scene_deterministic_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(scene_args(a)) == 0
    assert run(scene_args(b)) == 0
    assert trees_equal(a, b)


def test_seed_env_fallback(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("SMVSLAB_SEED", "3")
    argv = ["scene", "--out", "", "--archetype", "mixed"] + SHORT_COURSE + FAST_SENSOR
    argv[2] = str(a)
    assert run(argv) == 0
    monkeypatch.delenv("SMVSLAB_SEED")
    assert run(scene_args(b)) == 0
    assert trees_equal(a, b)


def test_odom_eval_chain(tmp_path):
    scene_dir = tmp_path / "scene"
    odom_dir = tmp_path / "odom"
    eval_dir = tmp_path / "eval"
    assert run(scene_args(scene_dir)) == 0
    assert run(["odom", "--dataset", str(scene_dir), "--out", str(odom_dir)]) == 0
    est = Trajectory.load(odom_dir / "trajectory.txt")
    assert len(est) == 20
    assert (
        run(
            [
                "eval",
                "--est", str(odom_dir / "trajectory.txt"),
                "--ref", str(scene_dir / "groundtruth.txt"),
                "--out", str(eval_dir),
            ]
        )
        == 0
    )
    metrics = dict(
        line.split(",")
        for line in (eval_dir / "metrics.csv").read_text().strip().splitlines()[1:]
    )
    assert float(metrics["ape_rmse_m"]) < 0.5


def test_smvs_and_place_chain(tmp_path):
    scene_dir = tmp_path / "scene"
    smvs_dir = tmp_path / "smvs"
    place_dir = tmp_path / "place"
    assert run(scene_args(scene_dir)) == 0
    assert run(
        ["smvs", "--dataset", str(scene_dir), "--out", str(smvs_dir), "--seed", "5"]
    ) == 0
    profile = (smvs_dir / "smvs_profile.csv").read_text().strip().splitlines()
    assert profile[0].startswith("frame_id,timestamp,smvs,k_center")
    assert len(profile) == 21
    assert run(
        [
            "place",
            "--profile", str(smvs_dir / "smvs_profile.csv"),
            "--out", str(place_dir),
            "--top-m", "5",
        ]
    ) == 0
    assert (place_dir / "placement.txt").exists()
    assert (place_dir / "intersections.csv").exists()


def test_smvs_writes_skipped_frames(tmp_path):
    scene_dir = tmp_path / "scene"
    smvs_dir = tmp_path / "smvs"
    assert run(scene_args(scene_dir)) == 0
    ds = load_dataset(scene_dir)
    frames = list(ds.frames)
    frames[4] = PointCloud(frames[4].points[:3])
    save_dataset(FrameDataset(frames, ds.timestamps, ds.ground_truth), scene_dir)
    assert run(
        ["smvs", "--dataset", str(scene_dir), "--out", str(smvs_dir), "--seed", "5"]
    ) == 0
    skipped = (smvs_dir / "smvs_skipped.csv").read_text().splitlines()
    assert skipped == [
        "frame_id,reason", "4,frame 4 too sparse for covariance estimation",
    ]
    profile = load_profile_csv(smvs_dir / "smvs_profile.csv")
    assert [e.frame_id for e in profile.entries] == [i for i in range(20) if i != 4]


def test_attack_command_writes_attacked_dataset(tmp_path):
    scene_dir = tmp_path / "scene"
    atk_dir = tmp_path / "atk"
    assert run(scene_args(scene_dir)) == 0
    assert run(
        [
            "attack",
            "--dataset", str(scene_dir),
            "--out", str(atk_dir),
            "--spoofer-x", "6.0",
            "--spoofer-y", "4.0",
            "--attack", "hfr",
            "--seed", "2",
        ]
        + FAST_SENSOR
    ) == 0
    original = load_dataset(scene_dir)
    attacked = load_dataset(atk_dir)
    assert len(attacked) == len(original)
    assert sum(len(f) for f in attacked.frames) < sum(len(f) for f in original.frames)


def test_report_command(tmp_path):
    runs = tmp_path / "runs.csv"
    runs.write_text(
        "smvs,model,ape_m,ape_deg\n"
        "-9000.0,removal_noise,4.0,2.0\n"
        "-500.0,injection,0.2,0.1\n"
    )
    out = tmp_path / "report"
    assert run(["report", "--runs", str(runs), "--out", str(out)]) == 0
    table = (out / "bucket_table.csv").read_text().strip().splitlines()
    assert len(table) == 5


def test_report_one_edge_writes_two_buckets(tmp_path):
    runs = tmp_path / "runs.csv"
    runs.write_text("smvs,model,ape_m,ape_deg\n-9000.0,removal_noise,4.0,2.0\n")
    out = tmp_path / "report"
    assert run(["report", "--runs", str(runs), "--out", str(out), "--edges", "-5000"]) == 0
    table = (out / "bucket_table.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in table] == ["bucket", "S < -5000", "-5000 < S"]
    assert table[1].endswith(",1") and table[2].endswith(",n/a")


def test_report_on_runs_file_without_rows(tmp_path):
    # No model, so one field per line, the header included.
    runs = tmp_path / "runs.csv"
    runs.write_text("smvs,model,ape_m,ape_deg\n")
    out = tmp_path / "report"
    assert run(["report", "--runs", str(runs), "--out", str(out)]) == 0
    table = (out / "bucket_table.csv").read_text().splitlines()
    assert table[0] == "bucket"
    assert all("," not in line for line in table)


def test_report_rejects_malformed_rows(tmp_path, capsys):
    runs = tmp_path / "runs.csv"
    out = tmp_path / "report"
    header = "smvs,model,ape_m,ape_deg\n-9000.0,removal_noise,4.0,2.0\n"
    for bad in ("-500.0,injection\n", "-500.0,injection,oops,0.1\n"):
        runs.write_text(header + bad)
        assert run(["report", "--runs", str(runs), "--out", str(out)]) == 1
        assert f"{runs}:3:" in capsys.readouterr().err
    assert not (out / "bucket_table.csv").exists()


def test_flags_win_over_config_file(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("rings=4\nhres=4.0\nmax-range=20.0\nrange-noise=0.02\n")
    out = tmp_path / "scene"
    assert run(
        ["scene", "--out", str(out), "--rings", "8", "--hres=2.0", "--max-r", "25.0",
         "--config", str(cfg)]
        + SHORT_COURSE
    ) == 0
    manifest = read_manifest(out / "manifest.txt")
    assert manifest["rings"] == "8"
    assert manifest["hres"] == "2.0"
    assert manifest["max_range"] == "25.0"
    assert manifest["range_noise"] == "0.02"        # not given: the config fills it


def test_config_file_fills_defaults(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed=3\nlength=12.0\nspeed=6.0\nrate=10.0\nrings=8\nhres=2.0\nmax-range=25.0\nrange-noise=0.01\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(
        ["scene", "--out", str(a), "--archetype", "mixed", "--config", str(cfg)]
    ) == 0
    assert run(scene_args(b)) == 0
    assert trees_equal(a, b)


def test_config_file_rejects_bad_lines(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    for bad in ("rings=four\n", "rings 4\n", "ringz=4\n"):
        cfg.write_text(bad)
        out = tmp_path / "scene"
        assert run(["scene", "--out", str(out), "--config", str(cfg)] + SHORT_COURSE) == 1
        assert str(cfg) in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()


@pytest.mark.parametrize("pipeline", ["odometry", "priormap"])
def test_pipeline_writes_full_tree(tmp_path, pipeline):
    out = tmp_path / "run"
    assert run(
        ["pipeline", "--out", str(out), "--seed", "9", "--pipeline", pipeline,
         "--archetype", "mixed", "--top-m", "5"]
        + SHORT_COURSE
        + FAST_SENSOR
    ) == 0
    expected = {
        "dataset", "attacked_dataset", "benign_trajectory.txt", "benign_frames.csv",
        "attacked_trajectory.txt", "attacked_frames.csv", "smvs_profile.csv", "smvs_skipped.csv",
        "placement.txt", "intersections.csv", "metrics.csv", "runs.csv",
        "bucket_table.csv", "manifest.txt",
    }
    if pipeline == "priormap":
        expected.add("prior_map.xyz")
    assert {p.name for p in out.iterdir()} == expected
    frames = [f"{i:06d}.xyz" for i in range(20)]
    for name in ("dataset", "attacked_dataset"):
        assert sorted(p.name for p in (out / name).iterdir()) == frames + ["groundtruth.txt"]
    for run_name in ("benign", "attacked"):
        assert len(Trajectory.load(out / f"{run_name}_trajectory.txt")) == 20
        rows = (out / f"{run_name}_frames.csv").read_text().strip().splitlines()
        assert rows[0] == "frame_id,converged,iterations,error"
        assert [r.split(",")[0] for r in rows[1:]] == [str(i) for i in range(20)]
    runs = (out / "runs.csv").read_text().strip().splitlines()
    assert runs[0] == "smvs,model,ape_m,ape_deg" and len(runs) == 2
    smvs, model, ape_m, ape_deg = runs[1].split(",")
    assert model == "removal_noise"
    assert all(math.isfinite(float(v)) for v in (smvs, ape_m, ape_deg))
    metrics = (out / "metrics.csv").read_text().strip().splitlines()
    assert [m.split(",")[0] for m in metrics] == [
        "metric", "ape_rmse_m", "ape_max_m", "ape_rot_rmse_deg", "rpe_max_m",
    ]


@pytest.mark.slow
def test_pipeline_prepares_each_frame_once_and_the_attacked_again(tmp_path, monkeypatch):
    # A course of more than 128 frames, with a spoofer in range of about
    # half of them: the benign run's prepared frames serve the attacked run
    # wherever the attack left the frame as it was.
    prepared = []
    replays = []

    def counting_prepare_frame(frame):
        prepared.append(frame)
        return prepare_frame(frame)

    def recording_attack_dataset(ds, *rest):
        attacked = attack_dataset(ds, *rest)
        replays.append((ds, attacked))
        return attacked

    monkeypatch.setattr("smvslab.cli.prepare_frame", counting_prepare_frame)
    monkeypatch.setattr("smvslab.cli.attack_dataset", recording_attack_dataset)
    out = tmp_path / "run"
    assert run(
        ["pipeline", "--out", str(out), "--seed", "0", "--archetype", "mixed",
         "--length", "14", "--speed", "1", "--rings", "8", "--hres", "2",
         "--spoofer-range", "13"]
    ) == 0
    (ds, attacked), = replays
    touched = sum(a is not f for a, f in zip(attacked.frames, ds.frames))
    assert len(ds) > 128
    assert 0 < touched < len(ds)
    assert len(prepared) == len(ds) + touched


def test_pipeline_places_with_the_profiles_region_count(tmp_path):
    # Criterion 8's course, binned into 36 regions instead of 72.
    out = tmp_path / "run"
    assert run(
        ["pipeline", "--out", str(out), "--seed", "9", "--pipeline", "priormap",
         "--archetype", "mixed", "--top-m", "5", "--n-regions", "36"]
        + SHORT_COURSE
        + FAST_SENSOR
    ) == 0
    placed = read_manifest(out / "placement.txt")
    center = (float(placed["center_x"]), float(placed["center_y"]))
    entries = load_profile_csv(out / "smvs_profile.csv").entries
    for n, expected in ((36, True), (72, False)):
        profile = SmvsProfile(entries, binning=AzimuthBinning(n))
        result = optimize_placement(profile, top_m=5, standoff=12.5)
        assert (center == pytest.approx(tuple(result.center), abs=1e-9)) is expected
    # The profile file carries its region count, so `place` reading it back
    # puts the centre where the pipeline did.
    place_dir = tmp_path / "place"
    assert run(
        ["place", "--profile", str(out / "smvs_profile.csv"), "--out", str(place_dir),
         "--top-m", "5"]
    ) == 0
    replaced = read_manifest(place_dir / "placement.txt")
    assert center == pytest.approx(
        (float(replaced["center_x"]), float(replaced["center_y"])), abs=1e-9
    )


@pytest.mark.parametrize("pipeline", ["odometry", "priormap"])
def test_stage_commands_replay_the_pipeline(tmp_path, pipeline):
    # Criterion 8's course and sensor. Each stage command, given what the
    # pipeline wrote before that stage, writes the pipeline's files byte for
    # byte. (`smvs` is left out: a pose read back from a file can differ
    # from the in-memory pose in its last bit.)
    tree = tmp_path / "run"
    assert run(
        ["pipeline", "--out", str(tree), "--seed", "9", "--pipeline", pipeline,
         "--archetype", "mixed", "--top-m", "5"]
        + SHORT_COURSE
        + FAST_SENSOR
    ) == 0

    def same(out, names, prefix=""):
        return all(filecmp.cmp(out / n, tree / (prefix + n), shallow=False) for n in names)

    def localize(dataset, run_name):
        out = tmp_path / run_name
        argv = ["--dataset", str(tree / dataset), "--out", str(out)]
        if pipeline == "priormap":
            argv = ["localize", *argv, "--map", str(tree / "prior_map.xyz")]
        else:
            argv = ["odom", *argv]
        assert run(argv) == 0
        return same(out, ["trajectory.txt", "frames.csv"], prefix=run_name + "_")

    assert localize("dataset", "benign")

    place = tmp_path / "place"
    assert run(["place", "--profile", str(tree / "smvs_profile.csv"), "--out", str(place),
                "--top-m", "5"]) == 0
    assert same(place, ["placement.txt", "intersections.csv"])

    profile = load_profile_csv(tree / "smvs_profile.csv")
    x, y = choose_recommended(optimize_placement(profile, top_m=5))
    attacked = tmp_path / "attacked_dataset"
    assert run(["attack", "--dataset", str(tree / "dataset"), "--out", str(attacked),
                "--seed", "9", "--spoofer-x", repr(float(x)), "--spoofer-y", repr(float(y))]
               + FAST_SENSOR) == 0
    frames = [f"{i:06d}.xyz" for i in range(20)]
    assert same(attacked, frames + ["groundtruth.txt"], prefix="attacked_dataset/")

    assert localize("attacked_dataset", "attacked")
