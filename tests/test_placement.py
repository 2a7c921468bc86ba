import math

import numpy as np
import pytest

from smvslab.errors import DegenerateFitError, ParameterError
from smvslab.geometry import AzimuthBinning, bin_center_angle
from smvslab.placement import (
    HalfLine2D,
    choose_recommended,
    critical_directions,
    filter_outliers,
    fit_direction,
    intersect_halflines,
    optimize_placement,
    placement_line,
    save_placement,
    top_frames,
)
from smvslab.se3 import PoseSE3
from smvslab.smvs import FrameSmvs, SmvsFrameEntry, SmvsProfile


def make_entry(frame_id, value, k_center, position, yaw=0.0):
    return SmvsFrameEntry(
        frame_id=frame_id,
        timestamp=0.1 * frame_id,
        smvs=FrameSmvs(value=value, k_center=k_center),
        pose=PoseSE3.from_rpy(0.0, 0.0, yaw, (position[0], position[1], 1.5)),
        degenerate_spectrum=False,
    )


def k_for_angle(angle, n=72):
    """Region index whose bin center points along `angle` for a yaw-0 pose."""
    binning = AzimuthBinning(n)
    k = int(math.floor((angle + math.pi) / binning.bin_width)) % n
    return k


# ---------------------------------------------------------------- primitives


def test_halfline_direction_must_be_unit():
    with pytest.raises(ParameterError):
        HalfLine2D(origin=(0.0, 0.0), direction=(1.0, 1.0))


def test_intersect_two_crossing_lines():
    a = HalfLine2D((0.0, 0.0), (1.0, 0.0))
    b = HalfLine2D((2.0, -2.0), (0.0, 1.0))
    pts = intersect_halflines([a, b])
    assert pts.shape == (1, 2)
    assert pts[0] == pytest.approx([2.0, 0.0])


def test_intersect_ignores_backward_crossings():
    a = HalfLine2D((0.0, 0.0), (1.0, 0.0))
    b = HalfLine2D((-2.0, -2.0), (0.0, 1.0))  # crosses behind a's origin
    assert len(intersect_halflines([a, b])) == 0


def test_intersect_ignores_parallel():
    a = HalfLine2D((0.0, 0.0), (1.0, 0.0))
    b = HalfLine2D((0.0, 1.0), (1.0, 0.0))
    assert len(intersect_halflines([a, b])) == 0
    with pytest.raises(ParameterError):
        intersect_halflines([a])


def test_filter_outliers_two_sigma():
    rng = np.random.default_rng(0)
    cluster = rng.normal(0.0, 0.5, size=(40, 2))
    outlier = np.array([[50.0, 50.0]])
    kept, bbox_min, bbox_max, center = filter_outliers(np.vstack([cluster, outlier]))
    assert len(kept) == 40
    assert np.all(bbox_min <= center) and np.all(center <= bbox_max)
    assert np.allclose(center, 0.5 * (bbox_min + bbox_max))


def test_filter_outliers_zero_sigma_axis_keeps_all():
    pts = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    kept, _, _, _ = filter_outliers(pts)
    assert len(kept) == 3


def test_fit_direction_recovers_line():
    rng = np.random.default_rng(1)
    t = rng.uniform(-10, 10, 100)
    pts = np.column_stack([t, 0.5 * t + 3.0]) + rng.normal(0, 0.01, (100, 2))
    _, direction = fit_direction(pts)
    expected = np.array([1.0, 0.5]) / math.hypot(1.0, 0.5)
    assert abs(direction @ expected) > 0.9999


def test_fit_direction_vertical_line():
    pts = np.column_stack([np.full(20, 2.0), np.linspace(-5, 5, 20)])
    _, direction = fit_direction(pts)
    assert abs(direction @ [0.0, 1.0]) > 0.9999


def test_fit_direction_coincident_points():
    with pytest.raises(DegenerateFitError):
        fit_direction(np.ones((5, 2)))


# ---------------------------------------------------------------- profile chain


def linear_profile(n=72):
    """Vehicle going +x; the five highest-SMVS frames all look toward a
    common target near (20, -12), in n azimuth regions."""
    entries = []
    target = np.array([20.0, -12.0])
    for i in range(10):
        pos = np.array([2.0 * i, 0.0])
        angle = math.atan2(*(target - pos)[::-1])
        value = 100.0 - 50.0 * abs(i - 5)  # peak SMVS near the middle
        entries.append(make_entry(i, value, k_for_angle(angle, n), pos))
    return SmvsProfile(entries=entries, binning=AzimuthBinning(n))


def test_top_frames_ordering_and_ties():
    profile = linear_profile()
    top = top_frames(profile, 3)
    values = [e.smvs.value for e in top]
    assert values == sorted(values, reverse=True)
    tied = SmvsProfile(
        entries=[make_entry(i, 1.0, 0, (i, 0.0)) for i in range(4)]
    )
    assert [e.frame_id for e in top_frames(tied, 2)] == [0, 1]


def test_critical_directions_point_toward_peak_region():
    # The profile's own region count sets the bin centers.
    for n in (72, 36):
        lines = critical_directions(linear_profile(n), top_m=5)
        assert len(lines) == 5
        for line in lines:
            # Each half-line must roughly aim at the common target.
            to_target = np.array([20.0, -12.0]) - np.asarray(line.origin)
            to_target /= np.linalg.norm(to_target)
            assert np.asarray(line.direction) @ to_target > 0.99


def test_critical_directions_account_for_yaw():
    # Same geometry expressed with a rotated body frame must give the same
    # world directions.
    target = np.array([0.0, 15.0])
    yaw = math.pi / 2
    entries = []
    for i in range(4):
        pos = np.array([0.0, 2.0 * i])
        world_angle = math.atan2(*(target - pos)[::-1])
        entries.append(
            make_entry(i, 10.0 - i, k_for_angle(world_angle - yaw), pos, yaw=yaw)
        )
    lines = critical_directions(SmvsProfile(entries=entries), top_m=4)
    for line in lines:
        to_target = target - np.asarray(line.origin)
        to_target /= np.linalg.norm(to_target)
        assert np.asarray(line.direction) @ to_target > 0.98


def test_optimize_placement_converges_near_target():
    profile = linear_profile()
    result = optimize_placement(profile, top_m=5)
    # Intersections cluster near the common aim point.
    assert np.linalg.norm(result.center - [20.0, -12.0]) < 3.0
    # The placement line is perpendicular to the +x trajectory.
    assert abs(result.trajectory_direction @ [1.0, 0.0]) > 0.999
    assert abs(result.placement_direction @ [0.0, 1.0]) > 0.999
    # Recommended positions sit at the clamped standoff from the trajectory.
    for cand in result.recommended:
        assert abs(abs(cand[1]) - result.standoff) < 1e-9
    picked = choose_recommended(result)
    assert picked[1] < 0  # same side as the aim cluster


def test_placement_standoff_clamped():
    profile = linear_profile()
    low = optimize_placement(profile, top_m=5, standoff=2.0)
    high = optimize_placement(profile, top_m=5, standoff=99.0)
    assert low.standoff == 10.0
    assert high.standoff == 15.0


def test_placement_line_projection():
    profile = linear_profile()
    center = (7.0, -9.0)
    result = placement_line(center, profile, top_m=5, standoff=12.0, kept_points=[center])
    # Projection of the center onto the y=0 trajectory keeps x, zeroes y.
    assert result.line_intersection == pytest.approx([7.0, 0.0])
    assert result.standoff == 12.0


def test_placement_requires_enough_frames():
    tiny = SmvsProfile(entries=[make_entry(0, 1.0, 0, (0.0, 0.0))])
    with pytest.raises(ParameterError):
        critical_directions(tiny, top_m=5)
    with pytest.raises(ParameterError):
        optimize_placement(linear_profile(), top_m=1)


def test_parallel_directions_fall_back():
    # All high-SMVS frames look the same way: no forward intersections.
    entries = [
        make_entry(i, 10.0, k_for_angle(-math.pi / 2), (2.0 * i, 0.0))
        for i in range(5)
    ]
    result = optimize_placement(SmvsProfile(entries=entries), top_m=5, standoff=12.0)
    # Directions are quantized to bin centers, so allow a small deviation.
    assert result.center[1] == pytest.approx(-12.0, abs=0.1)


def test_save_placement_roundtrip(tmp_path):
    result = optimize_placement(linear_profile(), top_m=5)
    txt = tmp_path / "placement.txt"
    csv = tmp_path / "intersections.csv"
    save_placement(result, txt, csv)
    fields = dict(
        line.split("=", 1) for line in txt.read_text().strip().splitlines()
    )
    assert float(fields["center_x"]) == pytest.approx(result.center[0])
    assert float(fields["recommended_a_y"]) == pytest.approx(result.recommended[0][1])
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "x,y"
    assert len(rows) - 1 == len(result.kept_points)
