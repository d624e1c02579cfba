"""CSV ingestion: what `load_csv` accepts and what it refuses."""

import numpy as np
import pytest

from stableshap.data import load_csv
from stableshap.errors import ConfigError


def _write(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_text(text)
    return path


def test_finite_cells_load(tmp_path):
    ds = load_csv(_write(tmp_path, "a,b,y\n1.5,-2,0\n1e300,-0.0,1\n"), "y")
    np.testing.assert_array_equal(ds.X, [[1.5, -2.0], [1e300, -0.0]])
    np.testing.assert_array_equal(ds.y, [0.0, 1.0])


@pytest.mark.parametrize("cell", ["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e400"])
@pytest.mark.parametrize("column", ["a", "y"])
def test_non_finite_cell_refused(tmp_path, cell, column):
    row = {"a": "1.0", "b": "2.0", "y": "3.0"} | {column: f" {cell} "}
    path = _write(tmp_path, "a,b,y\n0,0,0\n" + ",".join(row.values()) + "\n")
    with pytest.raises(ConfigError, match=(
            rf"d\.csv:3: value '{cell}' in column '{column}' reads as")):
        load_csv(path, "y")


@pytest.mark.parametrize("code", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_encoding_refused(tmp_path, code):
    path = _write(tmp_path, "c,y\nred,1\nblue,2\n")
    with pytest.raises(ConfigError, match=(
            r"d\.csv:3: value 'blue' in column 'c' reads as")):
        load_csv(path, "y", encodings={"c": {"red": 0, "blue": code}})


@pytest.mark.parametrize("text,features,message", [
    ("f0,f0,f2,y\n1,2,3,4\n", None, "d.csv: column 'f0' appears twice in the header"),
    ("f0,y,f0\n1,2,3\n", ["f0"], "d.csv: column 'f0' appears twice in the header"),
    ("f0,f1,f2,y\n1,2,3,4\n", ["f2", "f2"],
     "d.csv: column 'f2' appears twice in the feature list"),
])
def test_repeated_column_refused(tmp_path, text, features, message):
    with pytest.raises(ConfigError, match=message):
        load_csv(_write(tmp_path, text), "y", features)
