"""k-NN probabilities against the exact-distance oracle, ties included."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableshap import KNNClassifierModel, models


def knn_proba_oracle(model: KNNClassifierModel, rows) -> np.ndarray:
    """Vote fractions of the k nearest by ``((row - t) ** 2).sum()``, distance
    ties broken by training-row order: the model's definition, unoptimized."""
    rows = np.asarray(rows, dtype=float)
    d2 = ((rows[:, None, :] - model.X[None, :, :]) ** 2).sum(axis=2)
    votes = model.y[np.argsort(d2, axis=1, kind="stable")[:, :model.k]]
    return np.stack([(votes == c).mean(axis=1) for c in model.classes], axis=1)


@st.composite
def knn_cases(draw):
    m = draw(st.integers(2, 16))
    grid = draw(st.booleans())  # integer features: many exactly equal distances
    copies = draw(st.integers(1, 3))  # duplicated training rows, labels drawn apart
    offset = draw(st.sampled_from([0.0, 1e6, 1e7, 1e8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def features(n):
        if grid:
            return rng.integers(-2, 3, size=(n, m)).astype(float)
        return rng.normal(size=(n, m))

    base = features(draw(st.integers(1, 40)))
    X = np.repeat(base, copies, axis=0)[rng.permutation(len(base) * copies)]
    y = rng.integers(0, 3, size=len(X))
    k = draw(st.integers(1, len(X)))
    i, j = rng.integers(0, len(X), size=(2, 8))
    queries = np.vstack([features(16), X, (X[i] + X[j]) / 2])  # midpoints tie
    return X + offset, y, k, queries + offset


class TestKNNAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(knn_cases())
    def test_probabilities_bit_identical(self, case):
        X, y, k, queries = case
        model = KNNClassifierModel(X, y, k=k)
        assert np.array_equal(model.predict_proba(queries),
                              knn_proba_oracle(model, queries))

    @pytest.mark.parametrize("first_label", [0, 1])
    def test_equidistant_tie_goes_to_lower_row(self, first_label):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([first_label, 1 - first_label])
        model = KNNClassifierModel(X, y, k=1)
        assert model.predicted_class(np.zeros(2)) == first_label

    def test_non_finite_rows_match_oracle(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(9, 3))
        model = KNNClassifierModel(X, rng.integers(0, 2, size=9), k=4)
        rows = np.array([[np.nan, 0.0, 0.0], [np.inf, 1.0, 0.0],
                         [1e200, 0.0, 0.0], [0.1, 0.2, 0.3]])
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = model.predict_proba(rows), knn_proba_oracle(model, rows)
        assert np.array_equal(got, want)


def test_recheck_runs_only_on_near_ties(monkeypatch):
    seen = []
    nearest = models._stable_nearest
    monkeypatch.setattr(models, "_stable_nearest",
                        lambda rows, X, k: seen.append(rows.copy()) or nearest(rows, X, k))
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [5.0, 5.0]])
    model = KNNClassifierModel(X, np.array([0, 1, 1]), k=1)
    tie, clear = [0.0, 3.0], [0.9, 0.1]
    assert np.array_equal(model.predict_proba([tie, clear]), [[1.0, 0.0], [1.0, 0.0]])
    assert len(seen) == 1 and np.array_equal(seen[0], [tie])
