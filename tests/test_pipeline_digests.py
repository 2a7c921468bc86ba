"""Output trees keep their bits: `pipeline` runs must give the per-file
SHA-256 digests committed in `pipeline_digests.json`.

Criterion 8 compares trees within one commit; this compares them with the
commit that made the table. `pipeline_digests.py` beside this file
regenerates the table, in the diff of a change that means to move bits.
"""

import pytest

import pipeline_digests
from pipeline_digests import host, load_table, toolchain, tree_digests


def _check_tree(out, tree, threads):
    table = load_table()
    expected = table["trees"][tree]
    got = tree_digests(out, tree, threads)
    differ = sorted(
        f"{name}: {'missing' if name not in got else 'extra' if name not in expected else 'changed'}"
        for name in expected.keys() | got.keys()
        if expected.get(name) != got.get(name)
    )
    if differ:
        pytest.fail(
            f"{len(differ)} of {len(expected)} files differ from pipeline_digests.json "
            f"({tree}, --threads {threads}):\n  " + "\n  ".join(differ)
            + f"\ntable made with {table['toolchain']}\n  on {table['host']}"
            + f"\nthis run with {toolchain()}\n  on {host()}"
        )


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("pipeline", ["priormap", "odometry"])
def test_pipeline_tree_digests_match_the_table(tmp_path, pipeline, threads):
    """Criterion 8's 12 m course, both pipelines."""
    _check_tree(tmp_path / "out", pipeline, threads)


@pytest.mark.slow
def test_default_48m_odometry_tree_matches_the_table(tmp_path):
    """The CLI's default 48 m course: 80 raycast frames and a placement
    from 28 kept half-line intersections."""
    _check_tree(tmp_path / "out", "odometry-48m", 1)


def test_emulate_skips_a_setting_this_cpu_cannot_run(monkeypatch, capsys):
    monkeypatch.setattr(pipeline_digests, "EMULATED", {"imagined": ({}, ("NO_SUCH_FEATURE",))})
    pipeline_digests.emulate()
    assert capsys.readouterr().out == "imagined: skipped, this CPU lacks NO_SUCH_FEATURE\n"
