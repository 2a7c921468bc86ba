"""The benchmark's workloads, each a set-up plus passes of short operations.

All three run on the acceptance course: the "mixed" archetype, 48 m at
6 m/s and 10 Hz (80 frames), seen by a 16-ring sensor with a 30 degree
vertical field of view, 1 degree horizontal resolution, 30 m range and
0.01 m range noise. The benchmark seed is the course's noise seed and
derives every other seed, so one seed always gives the same inputs.

A pass covers the whole course, so every run sees the same mix of canyon
and open frames. Each operation returns its outputs to an untimed check,
which lists what is wrong with them. Each pass ends with a fingerprint of
its answers; every pass of a run must give the same one.

Program functions are called through their module (`geometry.voxel_downsample`)
so that a traced run sees the calls. Checks and fingerprints call the
program through the references taken below, at import, so that the traced
run does not count their work as the layers' work.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from smvslab import attacks, datasets, geometry, matching, pipelines, placement, simulate, smvs
from smvslab.se3 import PoseSE3
from smvslab.trajectory import Trajectory

SENSOR = simulate.SensorModel(
    rings=16,
    vertical_fov_deg=30.0,
    horizontal_resolution_deg=1.0,
    max_range=30.0,
    range_noise_sigma=0.01,
)
COURSE = simulate.TrajectorySpec(waypoints=((0.0, 0.0), (48.0, 0.0)), speed=6.0, frame_rate=10.0)
ATTACK_NOISE_RANGE = (1.0, 30.0)
LOCALIZE = pipelines.PipelineConfig()
POSE_STEPS = 8          # linearizations per scan-to-map frame

_check_cost = matching.matching_cost
_save_profile_csv = smvs.SmvsProfile.save_csv


@dataclass
class Op:
    """One timed call into the program and the check of what it returned."""

    frames: int
    run: Callable[[], Any]
    check: Callable[[Any], list]


@dataclass
class Course:
    seed: int
    workdir: str
    scene: simulate.Scene
    data: datasets.FrameDataset
    prior: Any = None           # scan-to-map's map index

    @property
    def poses(self):
        return self.data.ground_truth.poses

    def window(self, start, stop):
        ts = self.data.timestamps[start:stop]
        return ts, Trajectory(ts, self.poses[start:stop])


def make_course(seed, workdir) -> Course:
    scene = simulate.build_scene(simulate.SceneSpec(archetype="mixed"))
    return Course(seed, workdir, scene, simulate.generate_dataset(scene, COURSE, SENSOR, seed=seed))


def windows(n, size):
    return [(s, min(s + size, n)) for s in range(0, n, size)]


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def _all_finite(values) -> bool:
    return bool(np.isfinite(np.asarray(values, dtype=np.float64)).all())


# ------------------------------------------------------------ smvs-profile


class SmvsProfileWorkload:
    """`trajectory_smvs` over windows of ground-truth frames, then placement."""

    name = "smvs-profile"
    window = 1
    calibration_lines = 1500

    def setup(self, seed, workdir) -> Course:
        return make_course(seed, workdir)

    def new_pass(self, course: Course):
        cfg = smvs.SmvsConfig(seed=course.seed, threads=1)
        spans = windows(len(course.data), self.window)
        entries = []
        results = {}

        def op(start, stop):
            ts, truth = course.window(start, stop)
            sub = datasets.FrameDataset(course.data.frames[start:stop], ts)
            window_cfg = replace(cfg, seed=course.seed * 100 + start)
            last = stop == len(course.data)

            def run():
                profile = smvs.trajectory_smvs(sub, truth, window_cfg)
                entries.extend(replace(e, frame_id=e.frame_id + start) for e in profile.entries)
                placed = placement.optimize_placement(smvs.SmvsProfile(list(entries))) if last else None
                return profile, placed

            def check(out):
                profile, placed = out
                problems = [f"frame {start + i} skipped: {why}" for i, why in profile.skipped]
                if len(profile.entries) != stop - start:
                    problems.append(f"{len(profile.entries)} entries for {stop - start} frames")
                if not _all_finite(profile.values()):
                    problems.append(f"non-finite SMVS in frames {start}..{stop - 1}")
                if placed is not None:
                    results["placed"] = placed
                    if not _all_finite([*placed.center, *placed.recommended.ravel()]):
                        problems.append("non-finite placement")
                return problems

            return Op(stop - start, run, check)

        def fingerprint():
            path = os.path.join(course.workdir, "smvs_profile.csv")
            _save_profile_csv(smvs.SmvsProfile(entries), path)
            with open(path, "rb") as f:
                csv_bytes = f.read()
            placed = results.get("placed")
            recommended = None if placed is None else placed.recommended.tobytes()
            return digest(csv_bytes, recommended)

        return [op(s, e) for s, e in spans], fingerprint


# ------------------------------------------------------------ scan-to-map


@dataclass
class PriorMap:
    cloud: geometry.PointCloud
    index: geometry.SpatialIndex


def pose_steps(a: PoseSE3, b: PoseSE3, steps: int):
    """steps + 1 poses from a to b: linear translation, normalized-lerp rotation."""
    qb = b.quat if np.dot(a.quat, b.quat) >= 0 else -b.quat
    out = []
    for j in range(steps + 1):
        f = j / steps
        q = (1.0 - f) * a.quat + f * qb
        out.append(PoseSE3(q / np.linalg.norm(q), (1.0 - f) * a.translation + f * b.translation))
    return out


def system_problems(system, pose, source, target) -> list:
    """What is wrong with one linearization, judged from its own outputs."""
    problems = []
    h = system.h_global
    scale = max(float(np.abs(h).max()), 1e-300)
    if not _all_finite(h) or not math.isfinite(system.cost):
        return ["non-finite linear system"]
    if np.abs(h - h.T).max() > 1e-9 * scale:
        problems.append("h_global not symmetric")
    if np.linalg.eigvalsh(0.5 * (h + h.T))[0] < -1e-9 * scale:
        problems.append("h_global not positive semi-definite")
    if system.cost < 0:
        problems.append(f"negative cost {system.cost}")
    again = _check_cost(source, target, system.correspondences, system.weights, pose)
    if abs(again - system.cost) > 1e-9 * max(abs(system.cost), 1e-300):
        problems.append(f"matching_cost {again!r} != linearize cost {system.cost!r}")
    return problems


class ScanToMapWorkload:
    """Frame preparation and matching against a static prior map."""

    name = "scan-to-map"
    calibration_lines = 1500

    def setup(self, seed, workdir) -> Course:
        course = make_course(seed, workdir)
        prior = pipelines.build_prior_map(course.data, course.data.ground_truth)
        down = geometry.voxel_downsample(prior, LOCALIZE.map_voxel)
        k = min(LOCALIZE.covariance_k, len(down))
        cloud = geometry.estimate_covariances(down, k=k, epsilon=LOCALIZE.covariance_epsilon)
        course.prior = PriorMap(cloud, geometry.SpatialIndex(cloud))
        return course

    def new_pass(self, course: Course):
        prior = course.prior
        max_corr = LOCALIZE.matcher.max_corr_dist
        answers = []

        def op(i):
            frame = course.data.frames[i]
            poses = pose_steps(course.poses[max(i - 1, 0)], course.poses[i], POSE_STEPS)

            def run():
                down = geometry.voxel_downsample(frame, LOCALIZE.frame_voxel)
                k = min(LOCALIZE.covariance_k, len(down))
                source = geometry.estimate_covariances(down, k=k, epsilon=LOCALIZE.covariance_epsilon)
                systems, costs = [], []
                for pose, following in zip(poses[:-1], poses[1:]):
                    system = matching.linearize(source, prior.index, pose, max_corr)
                    systems.append(system)
                    costs.append(
                        matching.matching_cost(
                            source, prior.cloud, system.correspondences, system.weights, following
                        )
                    )
                return source, systems, costs

            def check(out):
                source, systems, costs = out
                problems = []
                for system, pose in zip(systems, poses):
                    problems += system_problems(system, pose, source, prior.cloud)
                if not _all_finite(costs) or min(costs) < 0:
                    problems.append(f"bad matching costs {costs}")
                answers.append(
                    (len(source), [s.num_correspondences for s in systems],
                     [s.cost for s in systems], costs)
                )
                return [f"frame {i}: {p}" for p in problems]

            return Op(1, run, check)

        return [op(i) for i in range(len(course.data))], lambda: digest(answers)


# ------------------------------------------------------------ course-io


def roundtrip_problems(saved: datasets.FrameDataset, loaded: datasets.FrameDataset) -> list:
    """Differences between a dataset and what was read back from disk.

    Points, timestamps and translations must match bit for bit; quaternions
    to 1e-15, because the loader renormalizes them.
    """
    if len(saved) != len(loaded):
        return [f"{len(loaded)} frames read back, {len(saved)} written"]
    problems = [
        f"frame {i} points differ"
        for i, (a, b) in enumerate(zip(saved.frames, loaded.frames))
        if not np.array_equal(a.points, b.points)
    ]
    if not np.array_equal(np.asarray(saved.timestamps), np.asarray(loaded.timestamps)):
        problems.append("timestamps differ")
    if loaded.ground_truth is None:
        return problems + ["ground truth missing"]
    for i, (a, b) in enumerate(zip(saved.ground_truth.poses, loaded.ground_truth.poses)):
        if not np.array_equal(a.translation, b.translation):
            problems.append(f"pose {i} translation differs")
        if np.abs(a.quat - b.quat).max() > 1e-15:
            problems.append(f"pose {i} rotation differs")
    return problems


def attack_for(seed, frame_id):
    """Seed-derived spoofing window and attack model for one frame."""
    rng = np.random.default_rng([seed, frame_id, 1])
    window = attacks.AzimuthWindow(center=float(rng.uniform(-math.pi, math.pi)))
    spec = attacks.AttackSpec(
        model=attacks.ATTACK_MODELS[frame_id % len(attacks.ATTACK_MODELS)],
        noise_range=ATTACK_NOISE_RANGE,
        seed=seed,
    )
    return window, spec


class CourseIoWorkload:
    """Raycast, attack, save and load windows of the course."""

    name = "course-io"
    window = 4
    calibration_lines = 8000    # its time is mostly formatting and parsing text

    def setup(self, seed, workdir) -> Course:
        return make_course(seed, workdir)

    def new_pass(self, course: Course):
        seed = course.seed
        counts = []

        def op(start, stop):
            ids = range(start, stop)
            plans = [attack_for(seed, i) for i in ids]
            ts, truth = course.window(start, stop)
            out_dir = os.path.join(course.workdir, f"frames-{start:03d}")

            def run():
                scans = [
                    simulate.raycast_frame(course.scene, course.poses[i], SENSOR, np.random.SeedSequence([seed, i]))
                    for i in ids
                ]
                attacked = [
                    attacks.apply_attack(
                        scan, window, spec, SENSOR,
                        np.random.Generator(np.random.PCG64(np.random.SeedSequence([spec.seed, i]))),
                    )
                    for i, scan, (window, spec) in zip(ids, scans, plans)
                ]
                saved = datasets.FrameDataset(attacked, ts, truth)
                datasets.save_dataset(saved, out_dir)
                return scans, saved, datasets.load_dataset(out_dir)

            def check(out):
                scans, saved, loaded = out
                shutil.rmtree(out_dir)
                problems = [
                    f"frame {i} raycast differs from the course"
                    for i, scan in zip(ids, scans)
                    if not np.array_equal(scan.points, course.data.frames[i].points)
                ]
                counts.extend(len(f) for f in saved.frames)
                return problems + roundtrip_problems(saved, loaded)

            return Op(stop - start, run, check)

        return [op(s, e) for s, e in windows(len(course.data), self.window)], lambda: digest(counts)


WORKLOADS = {w.name: w for w in (SmvsProfileWorkload(), ScanToMapWorkload(), CourseIoWorkload())}
