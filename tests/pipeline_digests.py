"""Per-file SHA-256 digests of `smvslab pipeline` output trees, and the
committed table they are checked against (`pipeline_digests.json`).

The trees are criterion 8's run (prior-map pipeline, seed 9, 12 m course),
its `--pipeline odometry` twin, and `pipeline --pipeline odometry --seed 9`
on the CLI's default 48 m course (80 raycast frames and a placement from
28 kept half-line intersections). A change that means to move bits
regenerates the table in the same diff, and names the files that moved:

    PYTHONPATH=src python tests/pipeline_digests.py

The table also records the Python, numpy and scipy versions it was made
with, and the host's kernels: numpy's OpenBLAS build and core, and numpy's
enabled CPU features and compiled dispatch targets. The digests hold only
where the same kernels run, so a failure on another host can be told apart
from a program change.
"""

import ctypes
import glob
import hashlib
import json
import os
import platform
import sys
import tempfile

import numpy as np
import scipy
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from smvslab.cli import dispatch

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pipeline_digests.json")
COURSE = [
    "--seed", "9",
    "--archetype", "mixed",
    "--length", "12.0",
    "--speed", "6.0",
    "--rate", "10.0",
    "--rings", "8",
    "--hres", "2.0",
    "--max-range", "25.0",
    "--range-noise", "0.01",
    "--top-m", "5",
]
# tree name: `pipeline` arguments after `--out` and `--threads`
TREES = {
    "priormap": ["--pipeline", "priormap"] + COURSE,
    "odometry": ["--pipeline", "odometry"] + COURSE,
    "odometry-48m": ["--pipeline", "odometry", "--seed", "9"],
}


def toolchain() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def host() -> dict:
    """numpy's OpenBLAS configuration (None where numpy ships no
    scipy-openblas), the CPU features numpy enables here, and the dispatch
    targets it was built with."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    found = glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))
    openblas = None
    if found:
        get_config = ctypes.CDLL(found[0]).scipy_openblas_get_config64_
        get_config.argtypes = []
        get_config.restype = ctypes.c_char_p
        openblas = get_config().decode()
    return {
        "openblas": openblas,
        "numpy_cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
        "numpy_cpu_dispatch": list(__cpu_dispatch__),
    }


def tree_digests(out, tree, threads=1) -> dict:
    """Run the pipeline of `TREES[tree]` into `out`; {relative path: sha256
    hex} of every file."""
    argv = ["pipeline", "--out", str(out), "--threads", str(threads)]
    if dispatch(argv + TREES[tree]) != 0:
        raise RuntimeError(f"pipeline {tree} failed")
    digests = {}
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            digests[os.path.relpath(path, out).replace(os.sep, "/")] = digest
    return dict(sorted(digests.items()))


def load_table() -> dict:
    with open(TABLE) as fh:
        return json.load(fh)


def main():
    trees = {}
    with tempfile.TemporaryDirectory() as tmp:
        for tree in TREES:
            trees[tree] = tree_digests(os.path.join(tmp, tree), tree)
    with open(TABLE, "w") as fh:
        json.dump({"toolchain": toolchain(), "host": host(), "trees": trees}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {TABLE}: {sum(map(len, trees.values()))} files", file=sys.stderr)


if __name__ == "__main__":
    main()
