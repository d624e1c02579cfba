"""k-NN probabilities against the exact-distance oracle, ties included."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableshap import (
    ST_SHAP,
    ClassProbabilityModel,
    KNNClassifierModel,
    NonFinitePayoffError,
    explain,
    models,
)


def knn_proba_oracle(model: KNNClassifierModel, rows) -> np.ndarray:
    """Vote fractions of the k nearest by ``((row - t) ** 2).sum()``, distance
    ties broken by training-row order, and NaN for a row holding NaN or
    +-inf: the model's definition, unoptimized."""
    rows = np.asarray(rows, dtype=float)
    d2 = ((rows[:, None, :] - model.X[None, :, :]) ** 2).sum(axis=2)
    votes = model.y[np.argsort(d2, axis=1, kind="stable")[:, :model.k]]
    proba = np.stack([(votes == c).mean(axis=1) for c in model.classes], axis=1)
    proba[~np.isfinite(rows).all(axis=1)] = np.nan
    return proba


@st.composite
def knn_cases(draw):
    m = draw(st.integers(2, 16))
    grid = draw(st.booleans())  # integer features: many exactly equal distances
    copies = draw(st.integers(1, 3))  # duplicated training rows, labels drawn apart
    offset = draw(st.sampled_from([0.0, 1e6, 1e7, 1e8]))
    # 1e-30: squared differences underflow float32; 1e19: they overflow it
    scale = draw(st.sampled_from([1.0, 1.0, 1e-30, 1e19]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def features(n):
        if grid:
            return scale * rng.integers(-2, 3, size=(n, m))
        return scale * rng.normal(size=(n, m))

    base = features(draw(st.integers(1, 40)))
    X = np.repeat(base, copies, axis=0)[rng.permutation(len(base) * copies)]
    # labels need not be 0..c-1: negative and non-contiguous sets too
    labels = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4, unique=True))
    y = rng.choice(labels, size=len(X))
    # k = len(X) - 1 reads the (k+1)-th distance from the sorted row's last column
    k = draw(st.one_of(st.integers(1, len(X)), st.just(max(len(X) - 1, 1))))
    i, j = rng.integers(0, len(X), size=(2, 8))
    queries = np.vstack([features(16), X, (X[i] + X[j]) / 2])  # midpoints tie
    # entries that make a row's fast distances NaN or infinite (1e200 squared
    # overflows): at every k such a row must go to the exact recheck; 1e39 is
    # finite in float64 and infinite in float32, so such a row must go on to
    # the float64 pass
    for value in draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf, 1e200, 1e39]),
                               max_size=4)):
        queries[rng.integers(len(queries)), rng.integers(m)] = value
    if draw(st.booleans()):  # push the ties into a second block
        queries = np.vstack([features(models._PREDICT_CHUNK), queries])
    return X + offset, y, k, queries + offset


class TestKNNAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(knn_cases())
    def test_probabilities_bit_identical(self, case):
        X, y, k, queries = case
        model = KNNClassifierModel(X, y, k=k)
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = model.predict_proba(queries), knn_proba_oracle(model, queries)
        assert np.array_equal(got, want, equal_nan=True)

    def test_deep_pivot_on_a_large_training_set(self):
        # hundreds of training rows and a boundary deep among them: the k-th
        # and (k+1)-th smallest come from columns k - 1 and k of each sorted
        # row, and every row at or below the k-th votes
        rng = np.random.default_rng(5)
        X = rng.normal(size=(300, 4))
        model = KNNClassifierModel(X, rng.integers(0, 3, size=300), k=120)
        queries = rng.normal(size=(1500, 4))
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
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("k", [4, 9])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_gets_nan_and_leaves_the_block_alone(self, value, k):
        rng = np.random.default_rng(4)
        model = KNNClassifierModel(rng.normal(size=(9, 3)), rng.integers(0, 3, size=9), k=k)
        rows = rng.normal(size=(6, 3))
        before = model.predict_proba(rows)
        rows[2, 1] = value
        got = model.predict_proba(rows)
        assert np.isnan(got[2]).all()
        assert np.delete(got, 2, axis=0).tobytes() == np.delete(before, 2, axis=0).tobytes()


@pytest.mark.parametrize("where", ["nan instance", "inf background cell"])
def test_explain_of_a_non_finite_input_raises(where):
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 5))
    model = ClassProbabilityModel(KNNClassifierModel(X, rng.integers(0, 3, size=40), k=3), 0)
    x, background = X[0].copy(), X[1:8].copy()
    if where == "nan instance":
        x[2] = np.nan
    else:
        background[3, 1] = np.inf
    with pytest.raises(NonFinitePayoffError):
        explain(x, model, background, ST_SHAP, 20, seed=0)


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


def _features_with(row, column, value):
    X = np.zeros((10, 2))
    X[row, column] = value
    return X


@pytest.mark.parametrize("X, y, message", [
    (np.zeros(10), np.zeros(10, dtype=int), r"must be 2-D, got shape \(10,\)"),
    (np.zeros((10, 2)), np.zeros((10, 1), dtype=int), r"labels of shape \(10, 1\)"),
    (np.zeros((10, 2)), np.arange(12),
     r"labels of shape \(12,\) for features of shape \(10, 2\)"),
    (_features_with(3, 0, np.nan), np.zeros(10, dtype=int), "row 3, column 0 is nan"),
    (_features_with(7, 1, -np.inf), np.zeros(10, dtype=int), "row 7, column 1 is -inf"),
], ids=["features-1d", "labels-2d", "extra-labels", "nan-feature", "inf-feature"])
def test_malformed_training_set_refused(X, y, message):
    with pytest.raises(ValueError, match=message):
        KNNClassifierModel(X, y, k=3)


def _bound_case(name):
    """(training rows, query rows) of one adversarial scale."""
    rng = np.random.default_rng(list(name.encode()))
    X, rows = rng.normal(size=(120, 13)), rng.normal(size=(300, 13))
    if name == "offset":
        X, rows = X + 1e8, rows + 1e8
    elif name in ("scale 1e-30", "scale 1e-20"):
        scale = float(name.split()[1])
        X, rows = scale * X, scale * rows
    elif name == "column x1e3":
        X[:, 0] *= 1e3
        rows[:, 0] *= 1e3
    elif name == "near 1e19":
        # |t|^2 and 2 r.t stay below float32's 3.4e38: the bound covers only
        # finite fast distances
        X, rows = 6e18 * rng.uniform(-1, 1, (120, 3)), 6e18 * rng.uniform(-1, 1, (300, 3))
    rows = np.vstack([rows, X[:20]])  # distance 0 to a training row
    return X, rows


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", ["normal", "offset", "scale 1e-30", "scale 1e-20",
                                  "column x1e3", "near 1e19"])
def test_fast_distances_stay_within_half_the_stated_bound(name, dtype):
    # the pass's err is E = 2 E0, with E0 the derived bound on
    # |G + |a|^2 - D|: G the fast distance, |a|^2 the row's shift (its
    # centred values at the pass's precision) and D the exact formula
    X, rows = _bound_case(name)
    mean = X.mean(axis=0)
    fast = models._DistancePass(mean, X - mean, dtype)
    g, err = fast.distances(rows)
    a = (rows - mean).astype(dtype).astype(np.longdouble)
    shift = (a * a).sum(axis=1)
    exact = ((rows[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    assert np.isfinite(g).all() and np.isfinite(err).all()
    gap = np.abs(g.astype(np.longdouble) + shift[:, None] - exact)
    assert (gap <= err[:, None].astype(np.longdouble) / 2).all()


def test_rows_past_float32_range_go_on_to_float64(monkeypatch):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(120, 13))
    model = KNNClassifierModel(X, rng.integers(0, 3, size=120), k=5)
    fast, slow = model._passes
    assert (fast.dtype, slow.dtype) == (np.float32, np.float64)
    seen = []
    near = slow.near
    monkeypatch.setattr(slow, "near", lambda rows, k: seen.append(rows.copy()) or near(rows, k))
    queries = rng.normal(size=(40, 13))
    queries[[3, 17], [0, 5]] = [1e39, -1e39]  # finite in float64 only
    assert np.array_equal(model.predict_proba(queries), knn_proba_oracle(model, queries))
    assert len(seen) == 1
    handed_down = {tuple(row) for row in seen[0]}
    assert tuple(queries[3]) in handed_down and tuple(queries[17]) in handed_down


@pytest.mark.parametrize("n_train, scale, k, kept", [
    (120, 1.0, 5, True),
    (1000, 1e3, 5, False),  # unstandardised: float32 cannot separate most neighbours
    (120, 1e3, 1, True),  # a probe row's own zero distance would make it look unsure
    (1000, 1e3, 1, False),
])
def test_float32_pass_is_kept_only_where_it_decides(n_train, scale, k, kept):
    rng = np.random.default_rng(9)
    X = rng.normal(size=(n_train, 13))
    X[:, 0] *= scale
    model = KNNClassifierModel(X, rng.integers(0, 3, size=n_train), k=k)
    assert [p.dtype for p in model._passes] == [np.float32, np.float64][not kept:]
    # the probe's verdict is the one fresh queries from the same data would give
    queries = rng.normal(size=(500, 13))
    queries[:, 0] *= scale
    mean = X.mean(axis=0)
    fast = models._DistancePass(mean, X - mean, np.float32)
    assert (2 * np.count_nonzero(fast.near(queries, k)[1]) <= len(queries)) == kept


@pytest.mark.parametrize("case", ["norms overflow", "gap overflows"])
def test_values_past_float32_range_raise_no_warning(case):
    rng = np.random.default_rng(10)
    if case == "norms overflow":
        X = rng.normal(size=(60, 4))
        X[[2, 9], [1, 3]] = [1e39, -1e20]  # |t|^2 overflows float32 for both
        queries = np.vstack([rng.normal(size=(30, 4)), X[:5]])
        queries[[0, 31], [2, 0]] = [1e39, -1e39]
    else:  # finite float32 distances -1e38 and 3e38, whose gap overflows
        X = np.array([[1e19, 0.0], [-1e19, 0.0]])
        queries = X.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = KNNClassifierModel(X, np.arange(len(X)) % 2, k=1)
        got = model.predict_proba(queries)
        want = knn_proba_oracle(model, queries)
    assert np.array_equal(got, want)
