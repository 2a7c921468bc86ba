import ast
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import smvslab
from smvslab.cli import dispatch
from smvslab.errors import ParameterError
from smvslab.geometry import AzimuthBinning, PointCloud, load_xyz, save_xyz
from smvslab.se3 import PoseSE3
from smvslab.smvs import FrameSmvs, SmvsFrameEntry, SmvsProfile, load_profile_csv
from smvslab.textio import read_array, read_table, to_array
from smvslab.trajectory import Trajectory

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def test_only_textio_opens_files():
    package = os.path.dirname(smvslab.__file__)
    calls = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "textio.py":
            continue
        with open(os.path.join(package, name)) as f:
            tree = ast.parse(f.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == "open":
                    calls.append(f"{name}:{node.lineno}")
    assert calls == []


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


@PROPERTY_SETTINGS
@given(arrays(np.float64, st.tuples(st.integers(0, 20), st.just(3)), elements=FINITE))
@example(np.array([[-0.0, 5e-324, -2.225073858507201e-308], [1.7e308, -1.7e308, 0.1]]))
def test_xyz_roundtrip_is_bit_exact(points):
    cloud = PointCloud(points)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cloud.xyz")
        save_xyz(cloud, path)
        assert bits(load_xyz(path).points) == bits(cloud.points)


def line_reader(path):
    return to_array(path, *read_table(path, 3))


def outcome(read, path):
    """Shape and bytes of what `read` returns, or the ParameterError it raises."""
    try:
        values = read(path)
    except ParameterError as e:
        return "ParameterError", str(e)
    return values.shape, bits(values)


XYZ_CASES = {
    "empty": "",
    "blank": " \n\t\n\n",
    "comment-lines": "# x y z\n1 2 3\n# mid\n4 5 6\n",
    "trailing-comment": "1 2 3 # x\n",
    "tabs": "1\t2\t3\n\t4 \t5 6\t\n",
    "crlf": "1 2 3\r\n4 5 6\r\n",
    "no-final-newline": "1 2 3\n4 5 6",
    "blank-lines-between": "\n1 2 3\n\n \n4 5 6\n\n",
    "one-row": "0.1 -0.2 0.3\n",
    "one-column": "1\n2\n3\n",
    "underscore": "1_0 2 3\n",
    "overflow": "1e500 2 3\n",
    "nan": "1 nan 3\n",
    "minus-infinity": "1 2 -infinity\n",
    "two-fields": "1 2 3\n1 2\n",
    "four-fields": "1 2 3 4\n",
    "letter": "1 x 3\n",
    "hex-float": "0x1p3 2 3\n",
    "form-feed-inside": "1 2 3\x0c4 5 6\n",
    "nbsp-inside": "1\xa02 3\n",
    "next-line-inside": "1 2\x853\n",
    "bom": "\ufeff1 2 3\n",
    "full-width-digit": "\uff11 2 3\n",
    "nul": "1 2 3\x00\n",
    "subnormals": "5e-324 -2.225073858507201e-308 -0.0\n",
    "max-floats": "1.7976931348623157e308 -1.7976931348623157e308 0.1\n",
    "beyond-max": "1 -1.8e308 3\n",
}


@pytest.mark.parametrize("text", XYZ_CASES.values(), ids=XYZ_CASES.keys())
def test_read_array_matches_the_line_reader(tmp_path, text):
    path = tmp_path / "cloud.xyz"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(lambda p: read_array(p, 3), path) == outcome(line_reader, path)


@pytest.mark.parametrize("text", ["", "\n", "  \n\t\n"], ids=["empty", "newline", "blank"])
def test_blank_xyz_loads_as_no_points_without_warning(tmp_path, text):
    path = tmp_path / "cloud.xyz"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(load_xyz(path)) == 0


SPACES = st.sampled_from([" ", "  ", "\t", " \t "])


@st.composite
def decorated_xyz(draw):
    """A table as `save_xyz` writes it, then re-spaced, with '#' and blank
    lines drawn in between."""
    points = draw(arrays(np.float64, st.tuples(st.integers(0, 12), st.just(3)), elements=FINITE))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cloud.xyz")
        save_xyz(PointCloud(points), path)
        with open(path) as f:
            rows = f.read().split()
    lines = []
    for i in range(0, len(rows), 3):
        lines += draw(st.lists(st.sampled_from(["", " ", "# comment", "#", "\t# 1 2 3"]), max_size=1))
        seps = [draw(SPACES) for _ in range(2)]
        lead, trail = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from(["", " ", "\t"]))
        lines.append(lead + rows[i] + seps[0] + rows[i + 1] + seps[1] + rows[i + 2] + trail)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@PROPERTY_SETTINGS
@given(decorated_xyz())
def test_read_array_is_the_line_reader_bit_for_bit(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cloud.xyz")
        with open(path, "w") as f:
            f.write(text)
        assert outcome(lambda p: read_array(p, 3), path) == outcome(line_reader, path)


def unit_quaternions():
    return arrays(np.float64, 4, elements=st.floats(-1.0, 1.0)).filter(
        lambda q: np.linalg.norm(q) > 0.1
    ).map(lambda q: q / np.linalg.norm(q))


def poses():
    return st.builds(PoseSE3, unit_quaternions(), arrays(np.float64, 3, elements=FINITE))


@PROPERTY_SETTINGS
@given(st.lists(st.tuples(FINITE, poses()), max_size=8, unique_by=lambda tp: tp[0]))
def test_trajectory_roundtrip(stamped):
    stamped.sort(key=lambda tp: tp[0])
    traj = Trajectory([t for t, _ in stamped], [p for _, p in stamped])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "traj.txt")
        traj.save(path)
        back = Trajectory.load(path)
    assert bits(back.timestamps) == bits(traj.timestamps)
    for a, b in zip(back.poses, traj.poses):
        assert bits(a.translation) == bits(b.translation)
        assert np.abs(a.quat - b.quat).max() <= 1e-15


@st.composite
def profiles(draw):
    binning = AzimuthBinning(2 * draw(st.integers(2, 64)))
    entries = [
        SmvsFrameEntry(
            frame_id=draw(st.integers(0, 10**6)),
            timestamp=draw(FINITE),
            smvs=FrameSmvs(value=draw(FINITE), k_center=draw(st.integers(0, binning.n - 1))),
            pose=draw(poses()),
            degenerate_spectrum=draw(st.booleans()),
        )
        for _ in range(draw(st.integers(0, 6)))
    ]
    return SmvsProfile(entries, binning=binning)


@PROPERTY_SETTINGS
@given(profiles())
def test_profile_roundtrip(profile):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "profile.csv")
        profile.save_csv(path)
        back = load_profile_csv(path)
    if profile.entries:
        assert back.binning == profile.binning
    assert len(back) == len(profile)
    for a, b in zip(back.entries, profile.entries):
        assert (a.frame_id, a.smvs.k_center, a.degenerate_spectrum) == (
            b.frame_id, b.smvs.k_center, b.degenerate_spectrum
        )
        assert bits([a.timestamp, a.smvs.value]) == bits([b.timestamp, b.smvs.value])
        assert bits(a.pose.translation) == bits(b.pose.translation)
        assert np.abs(a.pose.quat - b.pose.quat).max() <= 1e-15


PROFILE_HEADER = "frame_id,timestamp,smvs,k_center,tx,ty,tz,qx,qy,qz,qw,n_regions,degenerate"


def profile_row(i):
    """A profile row on a straight course whose peak regions all point ahead-left."""
    return f"{i},{0.1 * i!r},{-100.0 * i!r},{40 + i},{2.0 * i!r},0.0,0.0,0.0,0.0,0.0,1.0,72,0"


GOOD_PROFILE = [profile_row(i) for i in range(4)]

# reader: file name, header, good rows, then a row with a wrong field count,
# one with a non-numeric field and one with a non-finite field.
READERS = {
    "xyz": ("000000.xyz", None, ["0.0 0.0 1.0", "1.0 2.0 3.0"],
            ["1.0 2.0", "1.0 x 3.0", "1.0 inf 3.0"]),
    "tum": ("traj.txt", None, ["0.0 1 2 3 0 0 0 1", "0.1 1 2 3 0 0 0 1"],
            ["0.2 1 2 3 0 0 0", "0.2 1 two 3 0 0 0 1", "0.2 nan 2 3 0 0 0 1"]),
    "profile": ("profile.csv", PROFILE_HEADER, GOOD_PROFILE,
                [profile_row(9)[:-2], profile_row(9).replace("-900.0", "oops"),
                 profile_row(9).replace("-900.0", "-inf")]),
    # pipeline writes nan SMVS for a run whose attacked frames have no profile entry.
    "runs": ("runs.csv", "smvs,model,ape_m,ape_deg",
             ["nan,injection,0.2,0.1", "-9000.0,removal_noise,4.0,2.0"],
             ["-500.0,injection", "-500.0,injection,oops,0.1", "-500.0,injection,inf,0.1"]),
    "config": ("cfg.txt", None, ["top-m=3", "standoff=12.5"],
               ["top-m 3", "top-m=three", "standoff=inf"]),
}


def write_lines(path, header, rows):
    """Write header, a comment, a blank line and the rows; return the line
    number of the last row."""
    lines = ([header] if header else []) + ["# a comment", ""] + rows
    path.write_text("\n".join(lines) + "\n")
    return len(lines)


def read_argv(reader, path, tmp_path):
    """A CLI command that reads `path` with the reader."""
    out = ["--out", str(tmp_path / "out")]
    if reader == "xyz":
        return ["odom", "--dataset", str(path.parent)] + out
    if reader == "tum":
        return ["eval", "--est", str(path), "--ref", str(path)] + out
    if reader == "runs":
        return ["report", "--runs", str(path)] + out
    if reader == "profile":
        return ["place", "--profile", str(path)] + out
    profile = tmp_path / "good_profile.csv"
    write_lines(profile, PROFILE_HEADER, GOOD_PROFILE)
    return ["place", "--profile", str(profile), "--config", str(path)] + out


@pytest.mark.parametrize("reader", sorted(READERS))
def test_readers_skip_comments_and_fail_with_path_and_line(tmp_path, capsys, reader):
    name, header, good, bad_rows = READERS[reader]
    path = tmp_path / "in" / name
    path.parent.mkdir()
    write_lines(path, header, good)
    if reader == "xyz":
        assert len(load_xyz(path)) == len(good)
    else:
        assert dispatch(read_argv(reader, path, tmp_path)) == 0
    for bad in bad_rows:
        lineno = write_lines(path, header, good + [bad])
        assert dispatch(read_argv(reader, path, tmp_path)) == 1
        assert f"error: {path}:{lineno}:" in capsys.readouterr().err
