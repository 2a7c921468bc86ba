"""Spoofer placement from an SMVS profile, in one pass over arrays: cast
a half-line from each top frame toward its peak-score region, intersect
them pairwise (forward of both origins), drop points beyond 2 sigma, and
place the spoofer on the line through the bounding-box center that is
perpendicular to the trajectory."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError, ParameterError
from .geometry import bin_center_angle
from .smvs import SmvsProfile
from .textio import write_table

STANDOFF_BOUNDS = (10.0, 15.0)          # meters; the requested standoff is clamped


@dataclass
class PlacementResult:
    kept_points: np.ndarray             # (M, 2)
    bbox_min: np.ndarray
    bbox_max: np.ndarray
    center: np.ndarray                  # (C_x, C_y)
    trajectory_direction: np.ndarray    # unit
    placement_direction: np.ndarray     # unit, perpendicular to trajectory
    line_intersection: np.ndarray       # center projected onto the trajectory
    standoff: float
    recommended: np.ndarray             # (2, 2), the two candidate positions


def top_frames(profile: SmvsProfile, top_m: int):
    """Frames with the highest frame-wise SMVS; ties go to earlier frames."""
    entries = sorted(profile.entries, key=lambda e: (-e.smvs, e.frame_id))
    return entries[: min(top_m, len(entries))]


def critical_directions(profile: SmvsProfile, top_m: int) -> tuple[np.ndarray, np.ndarray]:
    """One half-line per top frame, as (origins, directions) (m, 2) arrays:
    from the frame's world position toward the world-frame azimuth of the
    peak-score region's bin center."""
    if len(profile) < 2:
        raise ParameterError("need a profile with at least 2 frames")
    if top_m < 2:
        raise ParameterError("top_m must be >= 2")
    entries = top_frames(profile, top_m)
    origins = np.array([e.pose.translation[:2] for e in entries], dtype=np.float64)
    world = [e.pose.yaw() + bin_center_angle(e.k_center, profile.binning) for e in entries]
    directions = np.array([(math.cos(w), math.sin(w)) for w in world])
    return origins, directions


def intersect_halflines(origins: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """All pairwise intersections lying forward of both origins."""
    if len(origins) < 2:
        raise ParameterError("need at least 2 half-lines")
    a, b = np.triu_indices(len(origins), k=1)       # pairs a < b, row-major order
    o1, d1 = origins[a], directions[a]
    o2, d2 = origins[b], directions[b]
    cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    diff = o2 - o1
    # (Near-)parallel pairs divide by a tiny or zero cross; the mask drops them.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t1 = (diff[:, 0] * d2[:, 1] - diff[:, 1] * d2[:, 0]) / cross
        t2 = (diff[:, 0] * d1[:, 1] - diff[:, 1] * d1[:, 0]) / cross
    forward = (np.abs(cross) >= 1e-9) & (t1 >= 0) & (t2 >= 0)
    return o1[forward] + t1[forward, None] * d1[forward]


def filter_outliers(points) -> np.ndarray:
    """The points within +-2 sigma of the per-axis mean. A zero-sigma axis
    keeps everything on that axis."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if len(pts) < 1:
        raise ParameterError("need at least 1 intersection point")
    mu = pts.mean(axis=0)
    sigma = pts.std(axis=0)
    keep = np.ones(len(pts), dtype=bool)
    for axis in range(2):
        if sigma[axis] > 0:
            keep &= np.abs(pts[:, axis] - mu[axis]) <= 2.0 * sigma[axis]
    return pts[keep]


def fit_direction(points) -> tuple[np.ndarray, np.ndarray]:
    """Total-least-squares line through 2D points: (mean, unit direction)."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    mean = pts.mean(axis=0)
    centered = pts - mean
    cov = centered.T @ centered
    if np.linalg.norm(cov) < 1e-18:
        raise DegenerateFitError("all positions coincide; cannot fit a line")
    w, v = np.linalg.eigh(cov)
    direction = v[:, -1]
    if direction[0] < 0 or (direction[0] == 0 and direction[1] < 0):
        direction = -direction
    return mean, direction


def optimize_placement(
    profile: SmvsProfile,
    top_m: int = 10,
    standoff: float = 12.5,
) -> PlacementResult:
    """Placement from the top-m frames in one pass.

    The half-lines' forward crossings are filtered to +-2 sigma; their
    bounding-box center is projected onto the trajectory fitted through
    the half-line origins (the top frames' positions), and the two
    recommended positions sit at the clamped standoff on either side of
    that point, perpendicular to the trajectory.
    """
    if not math.isfinite(standoff):
        raise ParameterError(f"standoff={standoff} must be finite")
    origins, directions = critical_directions(profile, top_m)
    points = intersect_halflines(origins, directions)
    if len(points) == 0:
        # No forward crossings: fall back to the half-line origins' spread
        # so a placement still exists for near-parallel direction sets.
        points = origins + standoff * directions
    kept = filter_outliers(points)
    bbox_min = kept.min(axis=0)
    bbox_max = kept.max(axis=0)
    center = 0.5 * (bbox_min + bbox_max)

    traj_point, traj_dir = fit_direction(origins)
    perp = np.array([-traj_dir[1], traj_dir[0]])
    along = (center - traj_point) @ traj_dir
    intersection = traj_point + along * traj_dir
    s = float(np.clip(standoff, *STANDOFF_BOUNDS))
    return PlacementResult(
        kept_points=kept,
        bbox_min=bbox_min,
        bbox_max=bbox_max,
        center=center,
        trajectory_direction=traj_dir,
        placement_direction=perp,
        line_intersection=intersection,
        standoff=s,
        recommended=np.stack([intersection + s * perp, intersection - s * perp]),
    )


def choose_recommended(result: PlacementResult) -> np.ndarray:
    """Pick the candidate on the same side as the intersection cluster."""
    side = (result.center - result.line_intersection) @ result.placement_direction
    return result.recommended[0] if side >= 0 else result.recommended[1]


def save_placement(result: PlacementResult, path, csv_path):
    """key=value lines of the result; `csv_path` gets the kept intersections."""

    def xy(name, v):
        return [(f"{name}_x", float(v[0])), (f"{name}_y", float(v[1]))]

    rows = [
        *xy("center", result.center),
        *xy("bbox_min", result.bbox_min),
        *xy("bbox_max", result.bbox_max),
        *xy("trajectory_dir", result.trajectory_direction),
        *xy("placement_dir", result.placement_direction),
        ("standoff", float(result.standoff)),
        *xy("recommended_a", result.recommended[0]),
        *xy("recommended_b", result.recommended[1]),
    ]
    write_table(path, "{}={!r}", rows)
    write_table(csv_path, "{!r},{!r}", result.kept_points.tolist(), header="x,y")
