import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableshap import GameModel, SyntheticGame, jaccard_n, kendall_tau
from stableshap.explainer import Explanation, fit
from stableshap.metrics import adherence, r2_score
from stableshap.sampling import WeightedCoalitionSet, materialize, plan_st_shap
from stableshap.value_function import evaluate_batch

from conftest import tau_b_oracle

index_sets = st.lists(
    st.sets(st.integers(0, 8), min_size=1, max_size=6), min_size=2, max_size=8
)


class TestJaccard:
    def test_identical_sets(self):
        assert jaccard_n([{1, 2, 3}] * 20) == 1.0

    def test_pairwise_example(self):
        assert jaccard_n([{1, 2}, {2, 3}]) == pytest.approx(1 / 3)

    def test_three_sets(self):
        assert jaccard_n([{1, 2, 3, 4}, {1, 2, 3, 5}, {1, 2, 3, 6}]) == 0.5

    def test_needs_two_nonempty_sets(self):
        with pytest.raises(ValueError):
            jaccard_n([{1, 2}])
        with pytest.raises(ValueError):
            jaccard_n([{1}, set()])

    @given(index_sets, st.randoms())
    def test_permutation_invariant(self, sets, rnd):
        shuffled = list(sets)
        rnd.shuffle(shuffled)
        assert jaccard_n(sets) == jaccard_n(shuffled)

    @given(index_sets, st.sets(st.integers(0, 8), min_size=1, max_size=6))
    def test_monotone_nonincreasing_in_sets(self, sets, extra):
        assert jaccard_n(sets + [extra]) <= jaccard_n(sets)


class TestKendallTau:
    def test_self_agreement(self):
        a = [0.3, -1.0, 2.5, 0.0]
        assert kendall_tau(a, a) == pytest.approx(1.0)

    def test_reversed(self):
        a = [1.0, 2.0, 3.0, 4.0]
        assert kendall_tau(a, a[::-1]) == pytest.approx(-1.0)

    def test_one_swap(self):
        # 5 concordant, 1 discordant of 6 pairs
        assert kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(2 / 3)

    def test_constant_vector_rejected(self):
        with pytest.raises(ValueError):
            kendall_tau([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_symmetric(self):
        a = [0.1, 0.7, -0.3, 0.2]
        b = [1.0, -2.0, 0.5, 0.0]
        assert kendall_tau(a, b) == pytest.approx(kendall_tau(b, a))

    def test_identical_rankings_exactly_one_any_length(self):
        # single-sqrt normalization keeps self-agreement exact for every n
        for n in range(2, 12):
            a = list(np.linspace(-1.0, 1.0, n))
            assert kendall_tau(a, a) == 1.0

    @settings(max_examples=40)
    @given(st.lists(st.integers(-5, 5), min_size=2, max_size=12), st.data())
    def test_matches_pair_counting_oracle(self, a, data):
        b = data.draw(st.lists(st.integers(-5, 5), min_size=len(a), max_size=len(a)))
        if all(v == a[0] for v in a) or all(v == b[0] for v in b):
            return
        assert kendall_tau(a, b) == pytest.approx(tau_b_oracle(a, b), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-5, 5), min_size=2, max_size=12), st.data())
    def test_matches_scipy_tau_b(self, a, data):
        from scipy import stats
        b = data.draw(st.lists(st.integers(-5, 5), min_size=len(a), max_size=len(a)))
        if all(v == a[0] for v in a) or all(v == b[0] for v in b):
            return
        assert kendall_tau(a, b) == pytest.approx(
            float(stats.kendalltau(a, b).statistic), abs=1e-12)

    @given(st.lists(st.integers(-100, 100), min_size=3, max_size=10, unique=True))
    def test_invariant_under_increasing_transform(self, a):
        b = list(reversed(a))
        transformed = [np.exp(0.01 * v) + 2 for v in a]
        assert kendall_tau(a, b) == pytest.approx(kendall_tau(transformed, b))


class TestR2:
    def test_identical(self):
        assert r2_score([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_mean_candidate_is_zero(self):
        ref = [1.0, 2.0, 3.0]
        assert r2_score(ref, [2.0, 2.0, 2.0]) == pytest.approx(0.0)

    def test_can_go_negative(self):
        assert r2_score([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-3.0)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            r2_score([2.0, 2.0], [1.0, 2.0])

    def test_deliberately_asymmetric(self):
        ref = [1.0, 2.0, 4.0]
        cand = [1.0, 2.0, 5.0]
        assert r2_score(ref, cand) != pytest.approx(r2_score(cand, ref))


class TestAdherence:
    def _fitted(self, game):
        m = game.n_players
        cset = materialize(plan_st_shap(m, 2**m - 2, seed=0))
        values = evaluate_batch(cset.masks, None, None, GameModel(game))
        e = fit(cset, values, game.value_of_mask(0), game.value_of_mask(2**m - 1))
        return cset, values, e

    def test_additive_game_fits_exactly(self):
        cset, values, e = self._fitted(SyntheticGame.additive([1.0, -2.0, 3.0]))
        assert adherence(cset, values, e, "regression") == pytest.approx(1.0, abs=1e-12)

    def test_classification_perfect_match(self):
        # coalition payoffs on both sides of 0.5, none on the boundary
        cset, values, e = self._fitted(SyntheticGame.additive([0.3, 0.45, 0.1]))
        assert adherence(cset, values, e, "classification") == 1.0

    def test_classification_half_split(self):
        masks = np.array([[1, 0], [0, 1]], bool)
        cset = WeightedCoalitionSet(masks, np.array([1.0, 1.0]))
        values = np.array([0.9, 0.1])  # one above, one below the boundary
        constant = Explanation(phi0=0.6, phis=(0.0, 0.0), support=(),
                               strategy="custom", budget=None, seed=None, fx=0.6)
        assert adherence(cset, values, constant, "classification") == 0.5

    def test_unknown_task_rejected(self):
        cset, values, e = self._fitted(SyntheticGame.additive([1.0, 1.0]))
        with pytest.raises(ValueError):
            adherence(cset, values, e, "ranking")

