"""CSV ingestion and deterministic train/held-out splitting.

Parsing is strict: every feature cell must be numeric, or the column must
carry a declared value-to-integer encoding in the run configuration, and
every cell, target included, must be finite (``nan``, ``inf`` and overflowing
literals are refused). Errors name the file, line, and column so misdeclared
datasets fail loudly instead of silently shifting attribution indices or
turning into NaN attributions. A column named twice, in the header or in the
feature list, is refused too.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray            # (n, M) float
    y: np.ndarray            # (n,) float, or int labels for classification
    feature_names: tuple[str, ...]
    path: str


def _parse_cell(raw: str, column: str, encoding: dict | None,
                where: str) -> float:
    raw = raw.strip()
    if encoding is not None:
        if raw not in encoding:
            raise ConfigError(
                f"{where}: value {raw!r} in column {column!r} has no declared encoding"
            )
        code = encoding[raw]
        if isinstance(code, bool) or not isinstance(code, (int, float)):
            raise ConfigError(f"{where}: value {raw!r} in column {column!r} is encoded "
                              f"as {code!r}, not a number")
        try:
            value = float(code)
        except OverflowError:  # an integer past a float's range reads as an infinity
            value = math.inf if code > 0 else -math.inf
    else:
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(
                f"{where}: non-numeric value {raw!r} in column {column!r}; "
                f"declare an integer encoding for categorical columns"
            ) from None
    if not math.isfinite(value):
        raise ConfigError(
            f"{where}: value {raw!r} in column {column!r} reads as {value}; "
            f"every cell must be finite"
        )
    return value


def load_csv(path, target: str, features: list[str] | None = None,
             encodings: dict[str, dict] | None = None) -> Dataset:
    """Read a header-first CSV into a feature matrix and target vector."""
    path = Path(path)
    encodings = encodings or {}
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ConfigError(f"cannot open dataset {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if target not in header:
            raise ConfigError(f"{path}: target column {target!r} not in header {header}")
        if features is None:
            features = [h for h in header if h != target]
        for names, what in ((header, "header"), (features, "feature list")):
            twice = [name for name, count in Counter(names).items() if count > 1]
            if twice:
                raise ConfigError(f"{path}: column {twice[0]!r} appears twice in the {what}")
        missing = [c for c in features if c not in header]
        if missing:
            raise ConfigError(f"{path}: feature columns not in header: {missing}")
        if target in features:
            raise ConfigError(f"{path}: target {target!r} cannot also be a feature")
        col_idx = {c: header.index(c) for c in features + [target]}
        rows, targets = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ConfigError(
                    f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}"
                )
            where = f"{path}:{line_no}"
            rows.append([
                _parse_cell(row[col_idx[c]], c, encodings.get(c), where)
                for c in features
            ])
            targets.append(
                _parse_cell(row[col_idx[target]], target, encodings.get(target), where)
            )
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    X = np.array(rows, dtype=float)
    y = np.array(targets, dtype=float)
    return Dataset(X, y, tuple(features), str(path))


def split_indices(n_rows: int, heldout_fraction: float,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (fit, held-out) row-index split of the original row order."""
    if not 0.0 < heldout_fraction < 1.0:
        raise ConfigError(f"held-out fraction {heldout_fraction} outside (0, 1)")
    n_heldout = max(1, round(n_rows * heldout_fraction))
    if n_heldout >= n_rows:
        raise ConfigError(
            f"held-out fraction {heldout_fraction} leaves no rows to fit on"
        )
    rng = np.random.Generator(np.random.Philox(seed))
    perm = rng.permutation(n_rows)
    heldout = np.sort(perm[:n_heldout])
    fit = np.sort(perm[n_heldout:])
    return fit, heldout


def as_int_labels(y: np.ndarray, context: str) -> np.ndarray:
    labels = y.astype(np.int64)
    if not np.all(labels == y):
        raise ConfigError(f"{context}: classification targets must be integer labels")
    return labels
