"""Benchmark for smvslab: one workload per run, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload smvs-profile --seed 1 --seconds 25 --trace 0

The program is imported from `src/` next to this directory; nothing needs
to be installed. With `--trace 0` the run reports the end-to-end metrics:
set-up time (median of several set-ups), per-operation time (median and
90th percentile), frames per second of timed work and peak memory. Times
are scaled to a nominal machine speed read by a calibration kernel before
every operation (see calibration.py). With `--trace 1` it alternates
untraced and traced courses (one set-up plus one pass) and reports the
time and counts of each layer per course. See README.md in this directory
for the workloads and metrics.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it holds the environment, noise readings, the known-gap
probe and the answer fingerprints.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from calibration import Calibration
from tracer import LAYERS, PARENT, TAG, Tracer, aggregate, self_times, trace_error_s, wrapper_cost_s

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WARMUP_S = 1.0          # untimed operations at the start of a run
SETUP_SAMPLES = 9       # fewest set-ups a run takes the median of
P90 = 0.9
MIN_BEYOND = 10         # samples that must lie above a reported percentile
DEFERRED_WORKLOADS = ("odometry", "priormap", "attack-sweep")

# Named spans whose self time is reported on its own, per traced course.
SELF_TIMED = (
    "geometry.estimate_covariances",
    "geometry.voxel_downsample",
    "geometry.save_xyz",
    "geometry.load_xyz",
    "matching.linearize",
    "matching.matching_cost",
    "smvs.pointwise_smvs",
    "smvs.perturbed_clones",
    "smvs.framewise_smvs",
    "smvs.trajectory_smvs",
    "placement.optimize_placement",
    "simulate.raycast_frame",
    "datasets.save_dataset",
    "datasets.load_dataset",
    "attacks.apply_attack",
)
COUNTED = (
    "smvs.frames_skipped",
    "smvs.degenerate_frames",
    "simulate.rays",
    "datasets.bytes_written",
    "datasets.bytes_read",
    "attacks.points_removed",
    "attacks.points_added",
)
QUERY = "geometry.SpatialIndex.query"
QUERY_PARENTS = ("geometry.estimate_covariances", "matching.linearize")


# ------------------------------------------------------------ statistics


def nearest_rank(n, q) -> int:
    """0-based index of the q-quantile among n sorted samples."""
    return max(math.ceil(q * n) - 1, 0)


def ops_needed(q, min_beyond=MIN_BEYOND) -> int:
    """Fewest samples that leave min_beyond of them above the q-quantile."""
    n = min_beyond
    while n - 1 - nearest_rank(n, q) < min_beyond:
        n += 1
    return n


def percentile(samples, q, min_beyond=MIN_BEYOND) -> float:
    """Nearest-rank q-quantile, refused unless min_beyond samples lie above it."""
    ordered = sorted(samples)
    rank = nearest_rank(len(ordered), q)
    if len(ordered) - 1 - rank < min_beyond:
        raise ValueError(
            f"{len(ordered)} samples leave {len(ordered) - 1 - rank} above the "
            f"{q:g} quantile; need {min_beyond}"
        )
    return ordered[rank]


# ------------------------------------------------------------ running operations


class Tally:
    """Outcome of the operations of one run."""

    def __init__(self):
        self.op_s = []          # (measured s, machine slowdown) per successful timed operation
        self.frames = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, what):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def scaled_s(self, first=0):
        """Operation times at the nominal machine speed."""
        return [t / slowdown for t, slowdown in self.op_s[first:]]


def run_op(op, tally: Tally, calibrate):
    """Time op.run() after a calibration, check its output, count a raise or a problem as failed."""
    tally.attempted += 1
    slowdown = calibrate()
    start = time.perf_counter()
    try:
        out = op.run()
        elapsed = time.perf_counter() - start
        problems = op.check(out)
    except Exception:  # an operation's failure is counted; the run goes on
        tally.fail(traceback.format_exc(limit=3))
        return
    if problems:
        tally.fail("; ".join(map(str, problems[:5])))
        return
    tally.op_s.append((elapsed, slowdown))
    tally.frames += op.frames


def run_pass(workload, course, tally: Tally, calibrate) -> str:
    ops, fingerprint = workload.new_pass(course)
    for op in ops:
        run_op(op, tally, calibrate)
    return fingerprint()


def timed_setup(workload, seed, workdir, calibrate):
    """A fresh course and its set-up time as (measured s, machine slowdown).

    A set-up is timed once where an operation is timed a hundred times, so
    its slowdown is the median of three calibrations, not one.
    """
    slowdown = statistics.median(calibrate() for _ in range(3))
    start = time.perf_counter()
    course = workload.setup(seed, workdir)
    return course, (time.perf_counter() - start, slowdown)


# ------------------------------------------------------------ environment and noise


def cpu_steal_ticks():
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def noise_reading():
    try:
        load = os.getloadavg()
    except OSError:
        load = None
    return {"loadavg": load, "steal_ticks": cpu_steal_ticks(), "time": time.time()}


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        return (ROOT / ".git" / ref[5:]).read_text().strip()
    except OSError:
        return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "smvslab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


def known_gap_probe():
    """Whether PoseSE3.compose works, which the pipelines need."""
    from smvslab.se3 import PoseSE3

    try:
        PoseSE3.identity().compose(PoseSE3.from_rpy(0.0, 0.0, 0.1, (1.0, 0.0, 0.0)))
    except Exception as exc:  # report whatever breaks the pipelines' pose chain
        return {
            "pipelines_runnable": False,
            "error": f"{type(exc).__name__}: {exc}",
            "deferred_workloads": list(DEFERRED_WORKLOADS),
        }
    return {"pipelines_runnable": True, "error": None, "deferred_workloads": []}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------ the two kinds of run


class NotMeasured(Exception):
    """Too few operations succeeded to report the metrics."""


class RunClock:
    """Ends a run at the lap boundary nearest to its time budget."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.start = self.last = time.perf_counter()
        self.lap_s = 0.0

    def lap(self):
        now = time.perf_counter()
        self.lap_s, self.last = now - self.last, now

    def more(self) -> bool:
        return self.last - self.start + 0.5 * self.lap_s < self.seconds


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"p25": q1, "p50": q2, "p75": q3}


def measure(workload, seed, seconds, workdir, calibrate):
    """Untraced run: warm-up, then whole timed passes, each after a fresh set-up.

    Set-ups are spread over the run, like the passes, so that their median
    sees the same machine as the operations do.
    """
    setups = []

    def fresh_course():
        course, timing = timed_setup(workload, seed, workdir, calibrate)
        setups.append(timing)
        return course

    warm_ops, _ = workload.new_pass(fresh_course())
    start = time.perf_counter()
    for op in warm_ops:
        run_op(op, Tally(), calibrate)
        if time.perf_counter() - start > WARMUP_S:
            break

    tally = Tally()
    fingerprints = []
    need = ops_needed(P90)
    clock = RunClock(seconds)
    while clock.more() or (len(tally.op_s) < need and not tally.failed):
        fingerprints.append(run_pass(workload, fresh_course(), tally, calibrate))
        clock.lap()
    if len(tally.op_s) < need:
        raise NotMeasured(
            f"{len(tally.op_s)} of {tally.attempted} operations succeeded, need {need}; "
            f"first failure: {tally.problems[0] if tally.problems else None}"
        )
    while len(setups) < SETUP_SAMPLES:
        fresh_course()

    def timings(op_s, setup_s):
        return {
            "frames_per_s": tally.frames / sum(op_s),
            "op_s.p50": statistics.median(op_s),
            "op_s.p90": percentile(op_s, P90),
            "setup_s": statistics.median(setup_s),
        }

    metrics = timings(tally.scaled_s(), [t / slowdown for t, slowdown in setups])
    units = {"frames_per_s": "1/s", "op_s.p50": "s", "op_s.p90": "s", "setup_s": "s"}
    metrics = {name: (value, units[name]) for name, value in metrics.items()}
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    detail = {
        "passes": len(fingerprints),
        "ops": len(tally.op_s),
        "measured": timings([t for t, _ in tally.op_s], [t for t, _ in setups]),
        "slowdown": quartiles([slowdown for _, slowdown in tally.op_s + setups]),
    }
    return tally, fingerprints, metrics, detail


def traced(workload, seed, seconds, workdir, calibrate, modules):
    """Alternate an untraced and a traced course (set-up plus one pass).

    Per-layer times are as measured; the overhead compares the two kinds
    of course at the nominal machine speed, because the machine's speed
    drifts more between two courses than tracing costs.
    """
    tally = Tally()
    tracer = Tracer()
    fingerprints = []
    course_s = {False: 0.0, True: 0.0}     # scaled time of all courses, by traced
    traced_wall_s = 0.0
    courses = 0
    clock = RunClock(seconds)
    while clock.more():
        for tracing in (False, True):
            first = len(tally.op_s)
            with tracer.installed(modules) if tracing else contextlib.nullcontext():
                t0 = time.perf_counter()
                course, setup = timed_setup(workload, seed, workdir, calibrate)
                fingerprints.append(run_pass(workload, course, tally, calibrate))
                if tracing:
                    traced_wall_s += time.perf_counter() - t0
            course_s[tracing] += setup[0] / setup[1] + sum(tally.scaled_s(first))
        courses += 1
        clock.lap()

    metrics = layer_metrics(tracer, traced_wall_s, courses)
    metrics["trace.overhead_s"] = ((course_s[True] - course_s[False]) / courses, "s")
    error = trace_error_s(*aggregate(tracer.spans, traced_wall_s)[1:], traced_wall_s)
    if error > 1e-6 * max(traced_wall_s, 1.0) or min(self_times(tracer.spans), default=0.0) < -1e-6:
        tally.fail(f"self times miss the traced wall time by {error:.3g} s")

    spans_path = OUT / f"{workload.name}-seed{seed}-spans.csv"
    tracer.write_csv(spans_path)
    detail = {
        "courses": courses,
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "trace_error_s": error,
    }
    return tally, fingerprints, metrics, detail


def layer_metrics(tracer, wall_s, courses):
    """Per-layer metrics of the traced courses, per course."""
    spans, counts = tracer.spans, tracer.counts
    by_name, by_layer, bench_self = aggregate(spans, wall_s)
    per = 1.0 / courses
    metrics = {f"{layer}.self_s": (by_layer[layer] * per, "s") for layer in LAYERS}
    metrics["bench.self_s"] = (bench_self * per, "s")
    metrics["trace.wall_s"] = (wall_s * per, "s")
    metrics["trace.overhead_est_s"] = (wrapper_cost_s() * len(spans) * per, "s")
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = (by_name.get(name, 0.0) * per, "s")

    query = {"knn": 0.0, "nn": 0.0}
    by_parent = dict.fromkeys(QUERY_PARENTS, 0.0)
    builds = build_s = poses = pose_s = linearizations = 0
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        if name == QUERY:
            query[span[TAG]] += own
            parent = spans[span[PARENT]][0] if span[PARENT] >= 0 else None
            if parent in by_parent:
                by_parent[parent] += own
        elif name == "geometry.SpatialIndex.__init__":
            builds += 1
            build_s += own
        elif name == "matching.linearize":
            linearizations += 1
        if name.startswith("se3.PoseSE3."):
            pose_s += own
            poses += name == "se3.PoseSE3.__init__"
    metrics[f"{QUERY}_s.knn"] = (query["knn"] * per, "s")
    metrics[f"{QUERY}_s.nn"] = (query["nn"] * per, "s")
    for parent, own in by_parent.items():
        metrics[f"{QUERY}_s.parent.{parent.split('.')[-1]}"] = (own * per, "s")
    metrics["geometry.SpatialIndex.build_s"] = (build_s * per, "s")
    metrics["geometry.SpatialIndex.builds"] = (builds * per, "count")
    metrics["se3.PoseSE3.calls"] = (poses * per, "count")
    metrics["se3.PoseSE3.self_s"] = (pose_s * per, "s")
    metrics["matching.linearize.calls"] = (linearizations * per, "count")
    sources = counts["matching.linearize.sources"]
    ratio = counts["matching.linearize.matched"] / sources if sources else 0.0
    metrics["matching.linearize.match_ratio"] = (ratio, "ratio")
    for name in COUNTED:
        metrics[name] = (counts[name] * per, "B" if name.startswith("datasets.bytes") else "count")
    return metrics


# ------------------------------------------------------------ entry point


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    if not (SRC / "smvslab" / "__init__.py").is_file():
        print(f"error: smvslab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]
    modules = {
        name.rpartition(".")[2]: module
        for name, module in sys.modules.items()
        if name == "smvslab" or name.startswith("smvslab.")
    }

    probe = known_gap_probe()
    before = noise_reading()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        calibrate = Calibration(workdir, workload.calibration_lines)
        run = (workload, args.seed, args.seconds, workdir, calibrate)
        if args.trace:
            tally, fingerprints, metrics, detail = traced(*run, modules)
        else:
            tally, fingerprints, metrics, detail = measure(*run)
    except NotMeasured as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    after = noise_reading()

    consistent = len(set(fingerprints)) == 1
    if not consistent:
        tally.problems.append(f"passes disagree: fingerprints {sorted(set(fingerprints))}")
    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        fingerprint=fingerprints[0] if fingerprints else None,
        problems=tally.problems,
        probe=probe,
        environment=environment(),
        noise={"before": before, "after": after},
    )
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": tally.failed == 0 and consistent,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
