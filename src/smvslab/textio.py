"""smvslab's text files: line tables and key=value manifests.

A table has one row per line, its fields split on `sep` (None: runs of
whitespace), under an optional header line. Readers skip blank and '#'
lines and fail on a bad line with ParameterError("<path>:<line>: ...").
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError


def read_table(path, n_fields, sep=None, header=False):
    """Line numbers and text fields of the data lines; `header` skips line 1."""
    lines, rows = [], []
    with open(path, "r") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line[0] == "#" or (header and lineno == 1):
                continue
            row = line.split(sep)
            if len(row) != n_fields:
                raise ParameterError(f"{path}:{lineno}: expected {n_fields} fields, got {len(row)}")
            lines.append(lineno)
            rows.append(row)
    return lines, rows


def to_array(path, lines, rows, dtype=np.float64, finite=True):
    """`read_table` rows parsed as `float()` or `int()` would, as a 2-D array;
    with `finite`, a nan or infinite value fails its line too."""
    try:
        values = np.array(rows, dtype=dtype).reshape(len(rows), len(rows[0]) if rows else 0)
    except (ValueError, OverflowError):
        for lineno, row in zip(lines, rows):
            try:
                np.array(row, dtype=dtype)
            except (ValueError, OverflowError):
                raise ParameterError(f"{path}:{lineno}: non-numeric field") from None
        raise
    if finite:
        bad = ~np.isfinite(values).all(axis=1)
        if bad.any():
            raise ParameterError(f"{path}:{lines[int(np.argmax(bad))]}: non-finite field")
    return values


def write_table(path, line, rows, header=None):
    """Write `header`, if given, then `line.format(*row)` per row. `{!r}` writes
    a Python float as the shortest text that reads back to the same bits
    (numpy's float64 repr is `np.float64(...)`, so convert with `tolist()`)."""
    fmt = (line + "\n").format
    with open(path, "w") as f:
        if header is not None:
            f.write(header + "\n")
        f.writelines(fmt(*row) for row in rows)


def write_manifest(path, params: dict):
    write_table(path, "{}={}", sorted(params.items()))


def read_manifest(path) -> dict:
    """key=value lines, keys and values stripped."""
    _, rows = read_table(path, 2, sep="=")
    return {key.strip(): value.strip() for key, value in rows}
