"""Output trees keep their bits: criterion 8's `pipeline` runs must give the
per-file SHA-256 digests committed in `pipeline_digests.json`.

Criterion 8 compares trees within one commit; this compares them with the
commit that made the table. `pipeline_digests.py` beside this file
regenerates the table, in the diff of a change that means to move bits.
"""

import pytest

from pipeline_digests import PIPELINES, load_table, toolchain, tree_digests


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("pipeline", PIPELINES)
def test_pipeline_tree_digests_match_the_table(tmp_path, pipeline, threads):
    table = load_table()
    expected = table["trees"][pipeline]
    got = tree_digests(tmp_path / "out", pipeline, threads)
    differ = sorted(
        f"{name}: {'missing' if name not in got else 'extra' if name not in expected else 'changed'}"
        for name in expected.keys() | got.keys()
        if expected.get(name) != got.get(name)
    )
    if differ:
        pytest.fail(
            f"{len(differ)} of {len(expected)} files differ from pipeline_digests.json "
            f"({pipeline}, --threads {threads}):\n  " + "\n  ".join(differ)
            + f"\ntable made with {table['toolchain']}\nthis run with {toolchain()}"
        )
