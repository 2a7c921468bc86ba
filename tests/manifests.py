"""Reads back the key=value manifests that smvslab writes (`manifest.txt`,
`placement.txt`), for the tests that check them."""

from smvslab.textio import read_table


def read_manifest(path) -> dict:
    """key=value lines, keys and values stripped."""
    _, rows = read_table(path, 2, sep="=")
    return {key.strip(): value.strip() for key, value in rows}
