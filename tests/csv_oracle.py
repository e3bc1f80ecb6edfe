"""Per-cell CSV writer: the formatting oracle for the command line.

The command line builds the lines of a block of rows as one byte array,
integer cells by digit arithmetic (`cli._lines`), and writes them a block
at a time (`cli._write_csv`).  This writer takes rows of raw values,
formats every cell on its own with `fmt` and writes the whole text at
once; the tests require the same bytes from both.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np


def fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.15g}"


def raw_rows(*columns):
    """Rows of unformatted values, in place of `cli._lines`."""
    return zip(*columns)


def write_csv(header, rows, out: str | None, preamble: str | None = None):
    lines = []
    if preamble:
        lines.append(preamble)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
