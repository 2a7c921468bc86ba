"""The APE RMSE of every attacked replay that acceptance criteria 4 and 5
run, pinned by `repr` in `sweep_apes.json`.

Criterion 4 replays a high- and a low-SMVS spoofer over ten seeds through
both pipelines (40 values); criterion 5 replays the optimized position and
20 random ones over three seeds through the prior-map pipeline (63 values).
Their printed ratios have three digits, so a change that moves one replay
can pass them; after its own assertions each criterion compares every
replay with this table. A change that means to move bits regenerates the
table in the same diff, by running the two criteria:

    PYTHONPATH=src python tests/sweep_apes.py

The table is written only if both criteria got past their own assertions.
"""

import json
import os
import sys

import pytest

from pipeline_digests import host, toolchain

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, "sweep_apes.json")
CRITERIA = ("criterion_4", "criterion_5")


def check_sweep(record_property, criterion, apes):
    """Record `apes` ({"spoofer/seed/pipeline": APE RMSE}) on the test's
    report and fail unless every `repr` equals the table's."""
    got = {key: repr(value) for key, value in apes.items()}
    record_property(criterion, got)
    with open(TABLE) as fh:
        table = json.load(fh)
    expected = table[criterion]
    differ = sorted(
        f"{key}: table {expected.get(key)}, this run {got.get(key)}"
        for key in expected.keys() | got.keys()
        if expected.get(key) != got.get(key)
    )
    if differ:
        pytest.fail(
            f"{len(differ)} of {len(expected)} {criterion} replays differ from "
            f"sweep_apes.json:\n  " + "\n  ".join(differ)
            + f"\ntable made with {table['toolchain']}\n  on {table['host']}"
            + f"\nthis run with {toolchain()}\n  on {host()}"
        )


class _Recorder:
    """pytest plugin that collects the values `check_sweep` records."""

    def __init__(self):
        self.apes = {}

    def pytest_runtest_logreport(self, report):
        if report.when == "call":
            self.apes.update(report.user_properties)


def main():
    recorder = _Recorder()
    code = pytest.main(
        [os.path.join(HERE, "test_acceptance.py"), "-q", "-k", " or ".join(CRITERIA)],
        plugins=[recorder],
    )
    missing = [c for c in CRITERIA if c not in recorder.apes]
    if missing:
        sys.exit(f"{', '.join(missing)} did not reach the comparison (pytest exit {code})")
    with open(TABLE, "w") as fh:
        json.dump({"toolchain": toolchain(), "host": host(),
                   **{c: recorder.apes[c] for c in CRITERIA}}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {TABLE}: {sum(map(len, recorder.apes.values()))} replays", file=sys.stderr)


if __name__ == "__main__":
    main()
