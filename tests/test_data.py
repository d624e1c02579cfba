"""CSV ingestion: what `load_csv` accepts and what it refuses."""

import numpy as np
import pytest

from stableshap.data import as_int_labels, load_csv, split_indices
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


def test_undeclared_encoded_value_refused(tmp_path):
    path = _write(tmp_path, "c,y\nred,1\nblue,2\n")
    with pytest.raises(ConfigError, match=(
            r"d\.csv:3: value 'blue' in column 'c' has no declared encoding")):
        load_csv(path, "y", encodings={"c": {"red": 0}})


def test_unreadable_file_refused(tmp_path):
    with pytest.raises(ConfigError, match=r"cannot open dataset .*absent\.csv"):
        load_csv(tmp_path / "absent.csv", "y")


@pytest.mark.parametrize("text,features,message", [
    ("", None, r"d\.csv: empty file"),
    ("a,y\n", None, r"d\.csv: no data rows"),
    ("a,y\n\n , \n", None, r"d\.csv: no data rows"),
    ("a,b,y\n1,2,3\n", ["a", "z"], r"d\.csv: feature columns not in header: \['z'\]"),
    ("a,b,y\n1,2,3\n", ["a", "y"], r"d\.csv: target 'y' cannot also be a feature"),
    ("a,b,y\n1,2,3\n4,5\n", None, r"d\.csv:3: expected 3 cells, got 2"),
])
def test_malformed_file_refused(tmp_path, text, features, message):
    with pytest.raises(ConfigError, match=message):
        load_csv(_write(tmp_path, text), "y", features)


def test_blank_lines_skipped(tmp_path):
    ds = load_csv(_write(tmp_path, "a,y\n1,2\n\n , \n3,4\n"), "y")
    np.testing.assert_array_equal(ds.X, [[1.0], [3.0]])
    np.testing.assert_array_equal(ds.y, [2.0, 4.0])


@pytest.mark.parametrize("n_rows,fraction,message", [
    (10, 0.0, "held-out fraction 0.0 outside"),
    (10, 1.0, "held-out fraction 1.0 outside"),
    (2, 0.9, "held-out fraction 0.9 leaves no rows to fit on"),
])
def test_held_out_fraction_refused(n_rows, fraction, message):
    with pytest.raises(ConfigError, match=message):
        split_indices(n_rows, fraction, seed=0)


def test_non_integer_class_labels_refused():
    np.testing.assert_array_equal(as_int_labels(np.array([0.0, 2.0]), "d.csv"), [0, 2])
    with pytest.raises(ConfigError, match="d.csv: classification targets must be integer"):
        as_int_labels(np.array([0.0, 1.5]), "d.csv")
