import tracemalloc
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableshap import (
    CallableModel,
    OracleCapError,
    RidgeRegressionModel,
    SyntheticGame,
    exact_shap,
    exact_shap_game,
)
from stableshap.exact import CAP, _phis_from_values, _subset_weights

from conftest import (
    GLOVE_EXACT,
    CountingGameModel,
    exact_shap_permutation,
    random_table_game,
)


class TestSubsetFormula:
    def test_glove(self, glove_game):
        v = exact_shap_game(glove_game)
        assert np.allclose(v.phis, GLOVE_EXACT, atol=1e-12)
        assert v.phi0 == 0.0
        assert v.eval_count == 8

    def test_additive(self):
        v = exact_shap_game(SyntheticGame.additive([1.0, 2.0, 3.0]))
        assert np.allclose(v.phis, [1.0, 2.0, 3.0], atol=1e-12)

    def test_two_player_closed_form(self):
        game = SyntheticGame.from_table(2, {0: 0.0, 1: 1.0, 2: 2.0, 3: 4.0})
        v = exact_shap_game(game)
        assert np.allclose(v.phis, [1.5, 2.5], atol=1e-12)

    def test_model_with_background(self):
        rng = np.random.default_rng(17)
        m = 5
        w = rng.normal(size=m)
        model = CallableModel(lambda rows: rows @ w + 3.0, m)
        x = rng.normal(size=m)
        bg = rng.normal(size=(8, m))
        v = exact_shap(x, model, bg)
        assert np.allclose(v.phis, w * (x - bg.mean(axis=0)), atol=1e-10)
        assert v.phi0 == pytest.approx(float(bg.mean(axis=0) @ w + 3.0))

    def test_cap_refusal_names_required_count(self):
        game = SyntheticGame.additive(np.ones(21))
        with pytest.raises(OracleCapError, match="21 features needs 2097152 .* cap is 20"):
            exact_shap_game(game)

    @pytest.mark.parametrize("m", [1, 2, 7, 13])
    def test_pairs_by_reshape_bitwise_equal_to_the_indexed_sum(self, m):
        # indexing each coalition holding i and its partner: same deltas, order, reduction
        values = np.random.default_rng(m).normal(size=2**m)
        ints = np.arange(2**m)
        sizes = np.array([bin(int(s)).count("1") for s in ints])
        weights = _subset_weights(m)
        want = np.empty(m)
        for i in range(m):
            with_i = ints[(ints >> i & 1) == 1]
            want[i] = np.add.reduce(weights[sizes[with_i]]
                                    * (values[with_i] - values[with_i ^ (1 << i)]))
        got = _phis_from_values(values, m)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_subset_weights_are_the_exact_rationals_rounded(self):
        # (s-1)! (M-s)! / M! as an exact rational, rounded to a float once
        for m in range(1, 61):
            want = [0.0] + [float(Fraction(factorial(s - 1) * factorial(m - s), factorial(m)))
                            for s in range(1, m + 1)]
            got = _subset_weights(m)
            assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64)), m

    def test_each_coalition_evaluated_once(self):
        rng = np.random.default_rng(23)
        model = CountingGameModel(random_table_game(rng, 7))
        v = exact_shap(None, model, None)
        assert model.calls == 2**7 == v.eval_count

    def test_peak_memory_at_the_cap(self):
        # the figure exact.CAP's comment states; 20 MiB leaves room for
        # allocator noise, not for another 2^20 array of 8-byte numbers
        rng = np.random.default_rng(29)
        x, bg, w = rng.normal(size=CAP), rng.normal(size=(1, CAP)), rng.normal(size=CAP)
        tracemalloc.start()
        try:
            exact_shap(x, RidgeRegressionModel(w, 0.5), bg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 << 20


class TestPermutationFormula:
    def test_glove(self, glove_game):
        v = exact_shap_permutation(glove_game)
        assert np.allclose(v.phis, GLOVE_EXACT, atol=1e-12)

    def test_symmetric_cardinality_game(self):
        v = exact_shap_permutation(SyntheticGame.cardinality(3, [0, 1, 4, 9]))
        assert np.allclose(v.phis, [3.0, 3.0, 3.0], atol=1e-12)

    def test_two_player_agrees_with_closed_form(self):
        game = SyntheticGame.from_table(2, {0: 0.5, 1: 1.0, 2: 2.0, 3: 4.0})
        v = exact_shap_permutation(game)
        assert np.allclose(v.phis, [(1.0 - 0.5 + 4.0 - 2.0) / 2,
                                    (2.0 - 0.5 + 4.0 - 1.0) / 2], atol=1e-12)

    def test_cap(self):
        with pytest.raises(ValueError, match="orderings"):
            exact_shap_permutation(SyntheticGame.cardinality(9, list(range(10))))


class TestOracleAgreement:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_two_routes_agree(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 8))
        game = random_table_game(rng, m, v_empty=float(rng.normal()))
        a = exact_shap_game(game)
        b = exact_shap_permutation(game)
        assert np.allclose(a.phis, b.phis, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_efficiency_and_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 9))
        game = random_table_game(rng, m, v_empty=float(rng.normal()))
        v = exact_shap_game(game)
        delta = game.value_of_mask(2**m - 1) - game.value_of_mask(0)
        assert abs(sum(v.phis) - delta) < 1e-9
        sym = SyntheticGame.cardinality(m, rng.normal(size=m + 1))
        s = exact_shap_game(sym)
        assert np.allclose(s.phis, s.phis[0], atol=1e-10)
