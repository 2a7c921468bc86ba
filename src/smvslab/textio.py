"""smvslab's text files: line tables and key=value manifests.

A table has one row per line, its fields split on `sep` (None: runs of
whitespace), under an optional header line. Readers skip blank and '#'
lines and fail on a bad line with ParameterError("<path>:<line>: ...").
`read_array` and `write_array` read and write a whole numeric table (the
`.xyz` frames) in one pass; the reader falls back to the line reader, which
stays the reference and names the bad line, unless it gets a clean array.
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


def read_array(path, n_fields):
    """`to_array(path, *read_table(path, n_fields))` in one pass: numpy's C
    parser reads the whole text; any file it does not turn into finite rows
    of `n_fields` values ('#' lines, fields such as `1_0` that only `float()`
    takes, a bad line, a blank file) goes through the line reader instead.
    Lines split at newlines only, as in `read_table`; `splitlines()` would
    also split at the form feeds and other separators it keeps in a line."""
    with open(path, "r") as f:
        text = f.read()
    if text and not text.isspace():  # on no data, loadtxt warns and returns shape (0, 1)
        try:
            values = np.loadtxt(text.split("\n"), dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if values.shape[1] == n_fields and np.isfinite(values).all():
                return values
    return to_array(path, *read_table(path, n_fields))


def write_table(path, line, rows, header=None):
    """Write `header`, if given, then `line.format(*row)` per row. `{!r}` writes
    a Python float as the shortest text that reads back to the same bits
    (numpy's float64 repr is `np.float64(...)`, so convert with `tolist()`)."""
    fmt = (line + "\n").format
    with open(path, "w") as f:
        if header is not None:
            f.write(header + "\n")
        f.writelines(fmt(*row) for row in rows)


def write_array(path, values):
    """`write_table(path, "{!r} ... {!r}", values.tolist())` in one format call."""
    line = " ".join(["{!r}"] * values.shape[1]) + "\n"
    with open(path, "w") as f:
        f.write((line * len(values)).format(*values.ravel().tolist()))


def write_manifest(path, params: dict):
    write_table(path, "{}={}", sorted(params.items()))
