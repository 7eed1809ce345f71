"""Exact bytes of the artifact format: what reruns are compared against."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from diskinspect.artifacts import write_csv, write_json


@dataclass
class Inner:
    value: float
    flag: bool


@dataclass
class Outer:
    name: str
    inner: Inner
    pair: tuple
    missing: None
    count: int
    third: float


def test_json_bytes(tmp_path):
    obj = Outer(
        name="x",
        inner=Inner(value=np.float64(0.1), flag=True),
        pair=(math.nan, np.int64(7)),
        missing=None,
        count=3,
        third=1.0 / 3.0,
    )
    path = tmp_path / "a.json"
    write_json(obj, path)
    assert path.read_bytes() == (
        b'{\n'
        b'  "count": 3,\n'
        b'  "inner": {\n'
        b'    "flag": true,\n'
        b'    "value": 0.1\n'
        b'  },\n'
        b'  "missing": null,\n'
        b'  "name": "x",\n'
        b'  "pair": [\n'
        b'    NaN,\n'
        b'    7\n'
        b'  ],\n'
        b'  "third": 0.3333333333333333\n'
        b'}\n'
    )


def test_json_rejects_unknown_objects(tmp_path):
    with pytest.raises(TypeError):
        write_json({"a": object()}, tmp_path / "a.json")


def test_csv_bytes(tmp_path):
    rows = [
        (0.1, True, None, 7, "NoCrossing", 1e-300),
        (math.nan, False, "x", np.int64(2), np.float64(1.0 / 3.0), np.float64(-2.5e10)),
    ]
    path = tmp_path / "a.csv"
    write_csv(path, ("a", "b", "c", "d", "e", "f"), rows)
    assert path.read_bytes() == (
        b"a,b,c,d,e,f\n"
        b"0.1,true,,7,NoCrossing,1e-300\n"
        b"nan,false,x,2,0.3333333333333333,-25000000000.0\n"
    )


def test_csv_without_rows(tmp_path):
    path = tmp_path / "a.csv"
    write_csv(path, ("x", "y"), iter(()))
    assert path.read_bytes() == b"x,y\n"
