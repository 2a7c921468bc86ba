import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smvslab.errors import DegenerateFitError, ParameterError
from smvslab.geometry import AzimuthBinning, bin_center_angle
from smvslab.placement import (
    STANDOFF_BOUNDS,
    choose_recommended,
    critical_directions,
    filter_outliers,
    fit_direction,
    intersect_halflines,
    optimize_placement,
    save_placement,
    top_frames,
)
from smvslab.se3 import PoseSE3
from smvslab.smvs import SmvsFrameEntry, SmvsProfile


def make_entry(frame_id, value, k_center, position, yaw=0.0):
    return SmvsFrameEntry(
        frame_id=frame_id,
        timestamp=0.1 * frame_id,
        smvs=value,
        k_center=k_center,
        pose=PoseSE3.from_rpy(0.0, 0.0, yaw, (position[0], position[1], 1.5)),
        degenerate_spectrum=False,
    )


def k_for_angle(angle, n=72):
    """Region index whose bin center points along `angle` for a yaw-0 pose."""
    binning = AzimuthBinning(n)
    k = int(math.floor((angle + math.pi) / binning.bin_width)) % n
    return k


# ---------------------------------------------------------------- primitives


def halflines(*pairs):
    """(origins, directions) arrays from (origin, direction) pairs."""
    return tuple(np.array(column, dtype=np.float64) for column in zip(*pairs))


def test_intersect_two_crossing_lines():
    pts = intersect_halflines(*halflines(((0.0, 0.0), (1.0, 0.0)), ((2.0, -2.0), (0.0, 1.0))))
    assert pts.shape == (1, 2)
    assert pts[0] == pytest.approx([2.0, 0.0])


def test_intersect_ignores_backward_crossings():
    # The second half-line crosses the first behind its origin.
    lines = halflines(((0.0, 0.0), (1.0, 0.0)), ((-2.0, -2.0), (0.0, 1.0)))
    assert len(intersect_halflines(*lines)) == 0


def test_intersect_ignores_parallel():
    origins, directions = halflines(((0.0, 0.0), (1.0, 0.0)), ((0.0, 1.0), (1.0, 0.0)))
    assert len(intersect_halflines(origins, directions)) == 0
    with pytest.raises(ParameterError):
        intersect_halflines(origins[:1], directions[:1])


def test_filter_outliers_two_sigma():
    rng = np.random.default_rng(0)
    cluster = rng.normal(0.0, 0.5, size=(40, 2))
    outlier = np.array([[50.0, 50.0]])
    kept = filter_outliers(np.vstack([cluster, outlier]))
    assert np.array_equal(kept, cluster)


def test_filter_outliers_zero_sigma_axis_keeps_all():
    pts = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    assert len(filter_outliers(pts)) == 3


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
    values = [e.smvs for e in top]
    assert values == sorted(values, reverse=True)
    tied = SmvsProfile(
        entries=[make_entry(i, 1.0, 0, (i, 0.0)) for i in range(4)]
    )
    assert [e.frame_id for e in top_frames(tied, 2)] == [0, 1]


def test_critical_directions_point_toward_peak_region():
    # The profile's own region count sets the bin centers.
    for n in (72, 36):
        origins, directions = critical_directions(linear_profile(n), top_m=5)
        assert origins.shape == directions.shape == (5, 2)
        # Each half-line must roughly aim at the common target.
        to_target = np.array([20.0, -12.0]) - origins
        to_target /= np.linalg.norm(to_target, axis=1, keepdims=True)
        assert np.all(np.sum(directions * to_target, axis=1) > 0.99)


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
    origins, directions = critical_directions(SmvsProfile(entries=entries), top_m=4)
    to_target = target - origins
    to_target /= np.linalg.norm(to_target, axis=1, keepdims=True)
    assert np.all(np.sum(directions * to_target, axis=1) > 0.98)


def test_optimize_placement_converges_near_target():
    profile = linear_profile()
    result = optimize_placement(profile, top_m=5)
    # Intersections cluster near the common aim point, the center of
    # their bounding box.
    assert np.linalg.norm(result.center - [20.0, -12.0]) < 3.0
    assert np.all(result.bbox_min <= result.center) and np.all(result.center <= result.bbox_max)
    assert np.array_equal(result.center, 0.5 * (result.bbox_min + result.bbox_max))
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


@pytest.mark.parametrize("standoff", [math.nan, math.inf, -math.inf])
def test_placement_rejects_non_finite_standoff(standoff):
    with pytest.raises(ParameterError, match="must be finite"):
        optimize_placement(linear_profile(), top_m=5, standoff=standoff)


def test_placement_line_projection():
    result = optimize_placement(linear_profile(), top_m=5, standoff=12.0)
    # Projection of the center onto the y=0 trajectory keeps x, zeroes y.
    assert result.line_intersection == pytest.approx([result.center[0], 0.0])
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


# ---------------------------------------------------------------- properties


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
COORD = st.floats(-30.0, 30.0)
# Shared angles make parallel and anti-parallel pairs common.
ANGLE = st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi]), st.floats(-math.pi, math.pi))


def pairwise_forward_crossings(origins, directions):
    """Scalar oracle: forward crossings of every pair i < j, in that order."""
    points = []
    for i in range(len(origins)):
        for j in range(i + 1, len(origins)):
            (ox1, oy1), (dx1, dy1) = origins[i], directions[i]
            (ox2, oy2), (dx2, dy2) = origins[j], directions[j]
            cross = dx1 * dy2 - dy1 * dx2
            if abs(cross) < 1e-9:
                continue
            ex, ey = ox2 - ox1, oy2 - oy1
            t1 = (ex * dy2 - ey * dx2) / cross
            t2 = (ex * dy1 - ey * dx1) / cross
            if t1 >= 0 and t2 >= 0:
                points.append((ox1 + t1 * dx1, oy1 + t1 * dy1))
    return np.array(points, dtype=np.float64).reshape(-1, 2)


@PROPERTY_SETTINGS
@given(st.lists(st.tuples(COORD, COORD, ANGLE), min_size=2, max_size=8))
@example([(0.0, 0.0, 0.0), (2.0, 0.0, math.pi / 2)])   # crossing at an origin: t2 == 0
@example([(2.0, 0.0, math.pi / 2), (0.0, 0.0, 0.0)])   # and t1 == 0
def test_intersect_halflines_matches_pairwise_oracle(lines):
    origins = np.array([(x, y) for x, y, _ in lines])
    directions = np.array([(math.cos(a), math.sin(a)) for _, _, a in lines])
    points = intersect_halflines(origins, directions)
    assert np.array_equal(points, pairwise_forward_crossings(origins, directions))


@st.composite
def profiles(draw):
    """Random profiles: tied or spread values, any yaw, 8 to 72 regions."""
    binning = AzimuthBinning(draw(st.sampled_from([8, 36, 72])))
    value = st.one_of(st.integers(0, 3).map(float), st.floats(-1e4, 1e4))
    entries = [
        make_entry(i, draw(value), draw(st.integers(0, binning.n - 1)),
                   (draw(COORD), draw(COORD)), yaw=draw(ANGLE))
        for i in range(draw(st.integers(2, 12)))
    ]
    return SmvsProfile(entries=entries, binning=binning)


@PROPERTY_SETTINGS
@given(profiles(), st.integers(2, 12), st.floats(0.0, 30.0))
def test_optimize_placement_invariants(profile, top_m, standoff):
    try:
        result = optimize_placement(profile, top_m=top_m, standoff=standoff)
    except DegenerateFitError:
        origins, _ = critical_directions(profile, top_m)
        assert np.ptp(origins, axis=0).max() < 1e-8
        return
    traj, perp = result.trajectory_direction, result.placement_direction
    assert abs(perp @ traj) <= 1e-15
    assert np.linalg.norm(perp) == pytest.approx(1.0, abs=1e-12)
    # The recommended points sit at the standoff on either side of the line
    # intersection, along the placement direction.
    assert STANDOFF_BOUNDS[0] <= result.standoff <= STANDOFF_BOUNDS[1]
    scale = max(1.0, np.abs(result.line_intersection).max())
    offsets = result.recommended - result.line_intersection
    assert offsets @ perp == pytest.approx([result.standoff, -result.standoff], abs=1e-12 * scale)
    assert np.abs(offsets @ traj).max() <= 1e-12 * scale
    # The line intersection is the box center's foot on the trajectory.
    scale = max(scale, np.abs(result.center).max())
    assert abs((result.center - result.line_intersection) @ traj) <= 1e-9 * scale
    kept = result.kept_points
    assert len(kept) >= 1
    assert np.all(result.bbox_min <= kept) and np.all(kept <= result.bbox_max)
    assert np.array_equal(result.bbox_min, kept.min(axis=0))
    assert np.array_equal(result.bbox_max, kept.max(axis=0))
    assert np.array_equal(result.center, 0.5 * (result.bbox_min + result.bbox_max))
