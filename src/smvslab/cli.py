"""Command-line entry point chaining scene generation, localization, SMVS
profiling, placement, attack simulation and evaluation."""

from __future__ import annotations

import argparse
import inspect
import math
import os
import sys

from . import __version__
from .attacks import (
    INJECTION,
    REMOVAL_NO_NOISE,
    REMOVAL_NOISE,
    AttackSpec,
    attack_dataset,
    check_wall_in_range,
)
from .datasets import FrameDataset, load_dataset, save_dataset
from .errors import ParameterError, SmvslabError
from .geometry import AzimuthBinning, load_xyz, save_xyz
from .metrics import DEFAULT_BUCKET_EDGES, RunRecord, ape, bucket_report, rpe
from .pipelines import build_prior_map, odometry_run, prepare_frame, prepare_map, priormap_localize
from .placement import check_placement, choose_recommended, optimize_placement, save_placement
from .se3 import PoseSE3
from .simulate import SceneSpec, SensorModel, TrajectorySpec, build_scene, generate_dataset
from .smvs import SmvsConfig, load_profile_csv, trajectory_smvs
from .textio import read_table, to_array, write_manifest, write_table
from .trajectory import Trajectory

ATTACK_FLAG_TO_MODEL = {
    "hfr": REMOVAL_NO_NOISE,
    "hfr-noise": REMOVAL_NOISE,
    "inject": INJECTION,
}


def _apply_config_defaults(parser, args, argv):
    """Plain-text key=value config fills in anything the flags in `argv` left
    at default. A flag counts as given in full, as `--flag=value` or as an
    abbreviation argparse accepted. Values go through the flag's own type;
    a key the subcommand does not define, or a value its flag rejects,
    raises ParameterError naming the file and line."""
    path = args.config
    subcommands = next(a for a in parser._actions if a.dest == "command")
    actions = {a.dest: a for a in subcommands.choices[args.command]._actions if a.option_strings}
    given = [a.split("=", 1)[0] for a in argv if a.startswith("--") and a != "--"]
    lines, rows = read_table(path, 2, sep="=")
    for lineno, (key, raw) in zip(lines, rows):
        key, raw = key.strip(), raw.strip()
        where = f"{path}:{lineno}"
        action = actions.get(key.replace("-", "_"))
        if action is None or action.dest in ("help", "config"):
            raise ParameterError(f"{where}: unknown key {key!r} for {args.command}")
        try:
            if isinstance(action.default, bool):
                value = raw.lower() in ("1", "true", "yes")
            else:
                value = action.type(raw) if action.type else raw
        except ValueError:
            raise ParameterError(f"{where}: bad value {raw!r} for {key}") from None
        if action.choices is not None and value not in action.choices:
            raise ParameterError(f"{where}: bad value {raw!r} for {key}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ParameterError(f"{where}: non-finite field")
        if not any(flag.startswith(g) for flag in action.option_strings for g in given):
            setattr(args, action.dest, value)


def _default_seed() -> int:
    env = os.environ.get("SMVSLAB_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise ParameterError(f"SMVSLAB_SEED={env!r} is not an integer") from None


def _add_common(p):
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (SMVSLAB_SEED fallback)")
    p.add_argument("--config", default=None, help="key=value config file; flags win")


def _default(fn, name):
    """The default of `fn`'s parameter `name`. Each flag reads a default that a
    library type or function owns from it, so the CLI's defaults are the library's."""
    return inspect.signature(fn).parameters[name].default


def _add_course(p):
    p.add_argument("--archetype", default="mixed",
                   choices=["canyon", "open-wall", "mixed"])
    p.add_argument("--length", type=float, default=SceneSpec.length,
                   help="drive length, m; also the walls' length, except for mixed, "
                        "whose fixed course ends at x = 38 m")
    p.add_argument("--speed", type=float, default=TrajectorySpec.speed)
    p.add_argument("--rate", type=float, default=TrajectorySpec.frame_rate)


def _add_sensor(p):
    p.add_argument("--rings", type=int, default=SensorModel.rings)
    p.add_argument("--vfov", type=float, default=SensorModel.vertical_fov_deg,
                   help="total vertical FOV, degrees")
    p.add_argument("--hres", type=float, default=SensorModel.horizontal_resolution_deg,
                   help="horizontal resolution, degrees")
    p.add_argument("--max-range", type=float, default=SensorModel.max_range)
    p.add_argument("--range-noise", type=float, default=SensorModel.range_noise_sigma)


def _add_smvs(p):
    p.add_argument("--threads", type=int, default=SmvsConfig.threads)
    p.add_argument("--n-regions", type=int, default=AzimuthBinning.n)
    p.add_argument("--d-th", type=int, default=SmvsConfig.d_th)
    p.add_argument("--clone-sigma", type=float, default=SmvsConfig.clone_sigma)
    p.add_argument("--keep-ratio", type=float, default=SmvsConfig.keep_ratio)


def _add_attack(p):
    p.add_argument("--attack", choices=sorted(ATTACK_FLAG_TO_MODEL), default="hfr-noise")
    p.add_argument("--wall-dist", type=float, default=AttackSpec.wall_distance)
    p.add_argument("--layers", type=int, default=AttackSpec.layers)
    p.add_argument("--noise-min", type=float, default=AttackSpec.noise_range[0])
    p.add_argument("--noise-max", type=float, default=AttackSpec.noise_range[1])
    p.add_argument("--window-deg", type=float, default=math.degrees(2 * AttackSpec.half_width),
                   help="full window width")
    p.add_argument("--spoofer-x", type=float, default=None)
    p.add_argument("--spoofer-y", type=float, default=None)
    p.add_argument("--spoofer-range", type=float, default=AttackSpec.spoofer_range)


def _add_placement(p):
    p.add_argument("--top-m", type=int, default=_default(optimize_placement, "top_m"))
    p.add_argument("--standoff", type=float, default=_default(optimize_placement, "standoff"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smvslab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scene", help="generate a synthetic dataset with ground truth")
    _add_common(p)
    _add_sensor(p)
    _add_course(p)

    p = sub.add_parser("odom", help="scan-to-local-map odometry")
    _add_common(p)
    p.add_argument("--dataset", required=True)

    p = sub.add_parser("localize", help="prior-map localization")
    _add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--map", required=True, help="prior map .xyz file")
    p.add_argument("--init-traj", default=None,
                   help="trajectory file whose first pose seeds localization")

    p = sub.add_parser("smvs", help="SMVS profile along a benign run")
    _add_common(p)
    _add_smvs(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--traj", default=None, help="benign trajectory (default: ground truth)")

    p = sub.add_parser("place", help="optimize spoofer placement from a profile")
    _add_common(p)
    _add_placement(p)
    p.add_argument("--profile", required=True)

    p = sub.add_parser("attack", help="apply a spoofing model to a dataset")
    _add_common(p)
    _add_sensor(p)
    _add_attack(p)
    p.add_argument("--dataset", required=True)

    p = sub.add_parser("eval", help="APE / RPE between two trajectories")
    _add_common(p)
    p.add_argument("--est", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--no-align", action="store_true")
    p.add_argument("--rpe-delta", type=int, default=_default(rpe, "delta"))

    p = sub.add_parser("report", help="SMVS bucket table from run records")
    _add_common(p)
    p.add_argument("--runs", required=True,
                   help="CSV with columns smvs,model,ape_m,ape_deg")
    p.add_argument("--edges", default=",".join(str(e) for e in DEFAULT_BUCKET_EDGES))

    p = sub.add_parser("pipeline", help="run the whole chain end to end")
    _add_common(p)
    _add_sensor(p)
    _add_smvs(p)
    _add_attack(p)
    _add_placement(p)
    _add_course(p)
    p.add_argument("--pipeline", choices=["odometry", "priormap"], default="odometry")
    return parser


def _sensor_from(args) -> SensorModel:
    return SensorModel(
        rings=args.rings,
        vertical_fov_deg=args.vfov,
        horizontal_resolution_deg=args.hres,
        max_range=args.max_range,
        range_noise_sigma=args.range_noise,
    )


def _smvs_cfg_from(args, seed) -> SmvsConfig:
    return SmvsConfig(
        binning=AzimuthBinning(args.n_regions),
        d_th=args.d_th,
        clone_sigma=args.clone_sigma,
        keep_ratio=args.keep_ratio,
        seed=seed,
        threads=args.threads,
    )


def _attack_spec_from(args, seed) -> AttackSpec:
    half_width = math.radians(args.window_deg / 2.0)
    # AttackSpec's own check, worded in the flag's degrees.
    if not 0 < half_width <= math.pi:
        raise ParameterError(f"--window-deg must be in (0, 360], got {args.window_deg!r}")
    return AttackSpec(
        model=ATTACK_FLAG_TO_MODEL[args.attack],
        wall_distance=args.wall_dist,
        layers=args.layers,
        noise_range=(args.noise_min, args.noise_max),
        half_width=half_width,
        spoofer_range=args.spoofer_range,
        seed=seed,
    )


# Path-valued arguments stay out of the manifest so identically-configured
# runs produce byte-identical output trees regardless of where they live.
_PATH_ARGS = {
    "out", "dataset", "map", "profile", "est", "ref", "runs", "init_traj",
    "traj", "config",
}


def _manifest_from(args, seed) -> dict:
    # "seed" is skipped in favor of the resolved value (flag or env fallback);
    # "threads" is an execution detail that does not affect the results.
    skip = _PATH_ARGS | {"command", "seed", "threads"}
    out = {"seed": seed, "command": args.command}
    for key, value in sorted(vars(args).items()):
        if key not in skip:
            out[key] = value
    return out


def _simulate(args, seed) -> FrameDataset:
    scene = build_scene(SceneSpec(archetype=args.archetype, length=args.length))
    traj = TrajectorySpec(
        waypoints=((0.0, 0.0), (args.length, 0.0)),
        speed=args.speed,
        frame_rate=args.rate,
    )
    return generate_dataset(scene, traj, _sensor_from(args), seed=seed)


def _save_run(out, prefix, trajectory, statuses):
    """Write `<prefix>trajectory.txt` and the per-frame `<prefix>frames.csv`."""
    trajectory.save(os.path.join(out, prefix + "trajectory.txt"))
    rows = [(s.frame_id, int(s.converged), s.iterations, s.error or "") for s in statuses]
    header = "frame_id,converged,iterations,error"
    write_table(os.path.join(out, prefix + "frames.csv"), "{},{},{},{}", rows, header=header)


def _save_metrics(path, rows: dict):
    write_table(path, "{},{!r}", rows.items(), header="metric,value")


def _localize(sources, timestamps, pipeline, origin, map_index):
    """Run the chosen pipeline over the prepared `sources` from the world pose
    `origin`."""
    if pipeline == "priormap":
        return priormap_localize(sources, timestamps, map_index, origin)
    return odometry_run(sources, timestamps, origin)


def _start_pose(ds) -> PoseSE3:
    """Where a run starts in the world: the ground truth's first pose, else
    the identity."""
    return ds.ground_truth.poses[0] if ds.ground_truth is not None else PoseSE3.identity()


def _save_profile(out, profile):
    """Write `smvs_profile.csv` and `smvs_skipped.csv`, one row per skipped
    frame with its reason; the header is written even when none was skipped."""
    profile.save_csv(os.path.join(out, "smvs_profile.csv"))
    write_table(os.path.join(out, "smvs_skipped.csv"), "{},{}", profile.skipped,
                header="frame_id,reason")


def _place(profile, args):
    result = optimize_placement(profile, top_m=args.top_m, standoff=args.standoff)
    save_placement(
        result,
        os.path.join(args.out, "placement.txt"),
        os.path.join(args.out, "intersections.csv"),
    )
    return result


def _cmd_scene(args, seed):
    ds = _simulate(args, seed)
    save_dataset(ds, args.out)


def _cmd_odom(args, seed):
    ds = load_dataset(args.dataset)
    sources = [prepare_frame(f) for f in ds.frames]
    _save_run(args.out, "", *odometry_run(sources, ds.timestamps, _start_pose(ds)))


def _cmd_localize(args, seed):
    ds = load_dataset(args.dataset)
    prior = load_xyz(args.map)
    init = _start_pose(ds)
    if args.init_traj:
        poses = Trajectory.load(args.init_traj).poses
        if not poses:
            raise SmvslabError(f"{args.init_traj}: no poses")
        init = poses[0]
    map_index = prepare_map(prior)
    sources = [prepare_frame(f) for f in ds.frames]
    _save_run(args.out, "", *priormap_localize(sources, ds.timestamps, map_index, init))


def _cmd_smvs(args, seed):
    cfg = _smvs_cfg_from(args, seed)
    ds = load_dataset(args.dataset)
    if args.traj:
        benign = Trajectory.load(args.traj)
    elif ds.ground_truth is not None:
        benign = ds.ground_truth
    else:
        raise SmvslabError("no benign trajectory: pass --traj or provide groundtruth.txt")
    _save_profile(args.out, trajectory_smvs(ds, benign, cfg))


def _cmd_place(args, seed):
    _place(load_profile_csv(args.profile), args)


def _cmd_attack(args, seed):
    spec = _attack_spec_from(args, seed)
    if args.spoofer_x is None or args.spoofer_y is None:
        raise SmvslabError("attack needs --spoofer-x and --spoofer-y")
    ds = load_dataset(args.dataset)
    attacked = attack_dataset(ds, (args.spoofer_x, args.spoofer_y), spec, _sensor_from(args))
    save_dataset(attacked, args.out)


def _cmd_eval(args, seed):
    est = Trajectory.load(args.est)
    ref = Trajectory.load(args.ref)
    stats = ape(est, ref, align_first_pose=not args.no_align)
    rel = rpe(est, ref, delta=args.rpe_delta)
    _save_metrics(os.path.join(args.out, "metrics.csv"), {
        "ape_rmse_m": stats.rmse,
        "ape_mean_m": stats.mean,
        "ape_std_m": stats.std,
        "ape_max_m": stats.max,
        "ape_rot_rmse_deg": stats.rot_rmse_deg,
        "rpe_max_m": rel.max,
        "rpe_mean_m": rel.mean,
        "rpe_rot_max_deg": rel.rot_max_deg,
    })


def _cmd_report(args, seed):
    lines, rows = read_table(args.runs, 4, sep=",", header=True)
    # SMVS is nan when no attacked frame has a profile entry (see pipeline).
    smvs = to_array(args.runs, lines, [r[:1] for r in rows], finite=False)
    apes = to_array(args.runs, lines, [r[2:] for r in rows])
    runs = [
        RunRecord(smvs=s, model=r[1], ape_m=ape_m, ape_deg=ape_deg)
        for (s,), r, (ape_m, ape_deg) in zip(smvs.tolist(), rows, apes.tolist())
    ]
    try:
        edges = tuple(float(v) for v in args.edges.split(","))
    except ValueError:
        raise ParameterError(
            f"--edges {args.edges!r} is not a comma-separated list of numbers"
        ) from None
    table = bucket_report(runs, edges)
    table.save_csv(os.path.join(args.out, "bucket_table.csv"))


def _cmd_pipeline(args, seed):
    out = args.out
    cfg = _smvs_cfg_from(args, seed)
    spec = _attack_spec_from(args, seed)
    sensor = _sensor_from(args)
    # The placement and the injected wall run these checks again later;
    # running them first means a bad flag writes nothing.
    check_placement(args.top_m, args.standoff)
    if spec.model == INJECTION:
        check_wall_in_range(spec, sensor)
    ds = _simulate(args, seed)
    save_dataset(ds, os.path.join(out, "dataset"))

    gt = ds.ground_truth
    origin = gt.poses[0]
    map_index = None
    if args.pipeline == "priormap":
        prior = build_prior_map(ds, gt)
        save_xyz(prior, os.path.join(out, "prior_map.xyz"))
        map_index = prepare_map(prior)
    sources = [prepare_frame(f) for f in ds.frames]
    benign, statuses = _localize(sources, ds.timestamps, args.pipeline, origin, map_index)
    _save_run(out, "benign_", benign, statuses)

    profile = trajectory_smvs(ds, benign, cfg)
    _save_profile(out, profile)

    position = choose_recommended(_place(profile, args))
    attacked = attack_dataset(ds, position, spec, sensor)
    save_dataset(attacked, os.path.join(out, "attacked_dataset"))

    # attack_dataset passes the frames out of the spoofer's range through as
    # the same objects, so the replaced frames are the attacked segment, and
    # only they need preparing again.
    touched = [a is not f for a, f in zip(attacked.frames, ds.frames)]
    sources = [prepare_frame(a) if t else s for a, t, s in zip(attacked.frames, touched, sources)]
    est, statuses = _localize(sources, attacked.timestamps, args.pipeline, origin, map_index)
    _save_run(out, "attacked_", est, statuses)

    stats = ape(est, gt)
    rel = rpe(est, gt)
    _save_metrics(os.path.join(out, "metrics.csv"), {
        "ape_rmse_m": stats.rmse,
        "ape_max_m": stats.max,
        "ape_rot_rmse_deg": stats.rot_rmse_deg,
        "rpe_max_m": rel.max,
    })

    segment_smvs = max(
        (e.smvs for e in profile.entries if touched[e.frame_id]), default=float("nan")
    )
    row = (segment_smvs, spec.model, stats.rmse, stats.rot_rmse_deg)
    header = "smvs,model,ape_m,ape_deg"
    write_table(os.path.join(out, "runs.csv"), "{!r},{},{!r},{!r}", [row], header=header)
    table = bucket_report([RunRecord(*row)])
    table.save_csv(os.path.join(out, "bucket_table.csv"))


_COMMANDS = {
    "scene": _cmd_scene,
    "odom": _cmd_odom,
    "localize": _cmd_localize,
    "smvs": _cmd_smvs,
    "place": _cmd_place,
    "attack": _cmd_attack,
    "eval": _cmd_eval,
    "report": _cmd_report,
    "pipeline": _cmd_pipeline,
}


def dispatch(argv=None) -> int:
    """Run one subcommand; on success its `--out` also gets manifest.txt."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config_defaults(parser, args, argv)
        seed = args.seed if args.seed is not None else _default_seed()
        os.makedirs(args.out, exist_ok=True)
        _COMMANDS[args.command](args, seed)
    except (SmvslabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_manifest(os.path.join(args.out, "manifest.txt"), _manifest_from(args, seed))
    return 0


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
