"""The one writer of artifact files, so that reruns stay byte-identical.

JSON is written with indent 2, sorted keys and a trailing newline.
Dataclasses become dicts (``dataclasses.asdict``) and numpy scalars
Python values.  A CSV file is a header line and one line per row: a float
is written with ``repr`` (full precision, ``nan``), a bool as
``true``/``false``, ``None`` as an empty cell and an int or str with
``str``.  Columns of Python floats (``ndarray.tolist()``) take the fast
path.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np


def _plain(obj):
    """json.dump hook: dataclass -> dict, numpy scalar -> Python scalar."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_plain)
        fh.write("\n")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):  # np.float64 too: its repr is not a float's
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    # formatted column by column: a column of Python floats goes through
    # repr in one C-level map, as fast as a hand-written f-string loop
    columns = [
        map(repr, col) if set(map(type, col)) == {float} else map(_cell, col)
        for col in zip(*rows)
    ]
    lines = [",".join(header), *map(",".join, zip(*columns))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
