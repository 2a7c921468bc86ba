"""Per-file SHA-256 digests of `smvslab pipeline` output trees, and the
committed table they are checked against (`pipeline_digests.json`).

The trees are criterion 8's run (prior-map pipeline, seed 9, 12 m course)
and its `--pipeline odometry` twin. A change that means to move bits
regenerates the table in the same diff, and names the files that moved:

    PYTHONPATH=src python tests/pipeline_digests.py

The table also records the Python, numpy and scipy versions it was made
with, so that a toolchain change can be told apart from a program change.
"""

import hashlib
import json
import os
import platform
import sys
import tempfile

import numpy as np
import scipy

from smvslab.cli import dispatch

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pipeline_digests.json")
PIPELINES = ("priormap", "odometry")
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


def toolchain() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def tree_digests(out, pipeline, threads=1) -> dict:
    """Run the pipeline into `out`; {relative path: sha256 hex} of every file."""
    argv = ["pipeline", "--out", str(out), "--threads", str(threads), "--pipeline", pipeline]
    if dispatch(argv + COURSE) != 0:
        raise RuntimeError(f"pipeline {pipeline} failed")
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
        for pipeline in PIPELINES:
            trees[pipeline] = tree_digests(os.path.join(tmp, pipeline), pipeline)
    with open(TABLE, "w") as fh:
        json.dump({"toolchain": toolchain(), "trees": trees}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {TABLE}: {sum(map(len, trees.values()))} files", file=sys.stderr)


if __name__ == "__main__":
    main()
