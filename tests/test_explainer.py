import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableshap import (
    CallableModel,
    GameModel,
    SyntheticGame,
    exact_shap_game,
    explain,
    fit,
    sparsify,
)
from stableshap.coalitions import complete_layer_budgets
from stableshap.sampling import (
    KERNEL_SHAP,
    ST_SHAP,
    WeightedCoalitionSet,
    materialize,
    plan_st_shap,
)
from stableshap.value_function import evaluate_batch

from conftest import GLOVE_EXACT, kkt_constrained_wls, random_table_game


def _game_fit(game, budget, seed=0, strategy=ST_SHAP, k=None):
    model = GameModel(game)
    return explain(None, model, None, strategy, budget, seed, explanation_size=k)


def _full_set_and_values(game):
    m = game.n_players
    plan = plan_st_shap(m, 2**m - 2, seed=0)
    cset = materialize(plan)
    values = evaluate_batch(cset.masks, None, None, GameModel(game))
    return cset, values


class TestFit:
    def test_glove_full_budget_recovers_exact_values(self, glove_game):
        e = _game_fit(glove_game, budget=6)
        assert np.allclose(e.phis, GLOVE_EXACT, atol=1e-12)
        assert e.phi0 == 0.0 and e.fx == 1.0

    def test_additive_game_any_complete_budget(self):
        game = SyntheticGame.additive([1.0, 2.0, 3.0])
        for budget in (6,):  # M=3: the single complete budget is the full space
            e = _game_fit(game, budget)
            assert np.allclose(e.phis, [1.0, 2.0, 3.0], atol=1e-10)

    def test_constant_model_gives_zero_attributions(self):
        model = CallableModel(lambda rows: np.full(len(rows), 4.25), 4)
        x = np.zeros(4)
        bg = np.ones((3, 4))
        e = explain(x, model, bg, ST_SHAP, budget=14, seed=1)
        assert np.allclose(e.phis, 0.0, atol=1e-12)
        assert e.phi0 == pytest.approx(4.25)

    def test_local_accuracy_always(self, glove_game):
        for budget in range(2, 7):
            for strategy in (ST_SHAP, KERNEL_SHAP):
                e = _game_fit(glove_game, budget, seed=3, strategy=strategy)
                assert e.local_accuracy_gap() < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_matches_kkt_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 8))
        game = random_table_game(rng, m)
        budget = int(rng.integers(m + 1, 2**m - 2 + 1))
        plan = plan_st_shap(m, budget, seed=int(rng.integers(2**32)))
        cset = materialize(plan)
        values = evaluate_batch(cset.masks, None, None, GameModel(game))
        phi0 = game.value_of_mask(0)
        fx = game.value_of_mask(2**m - 1)
        e = fit(cset, values, phi0, fx)
        oracle = kkt_constrained_wls(cset.masks, cset.weights, values, phi0, fx)
        assert np.allclose(e.phis, oracle, atol=1e-7)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_full_enumeration_matches_exact_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 11))
        game = random_table_game(rng, m)
        e = _game_fit(game, budget=2**m - 2, seed=7)
        exact = exact_shap_game(game)
        assert np.allclose(e.phis, exact.phis, atol=1e-6)

    def test_dummy_feature_gets_zero_at_full_enumeration(self):
        rng = np.random.default_rng(5)
        base = random_table_game(rng, 3)
        # feature 3 never changes the payoff
        table = {}
        for mask in range(8):
            v = base.value_of_mask(mask)
            table[mask] = v
            table[mask | 0b1000] = v
        game = SyntheticGame.from_table(4, table)
        e = _game_fit(game, budget=14)
        assert abs(e.phis[3]) < 1e-9

    def test_weight_scale_invariance(self, glove_game):
        cset, values = _full_set_and_values(glove_game)
        scaled = WeightedCoalitionSet(cset.masks, cset.weights * 137.5)
        a = fit(cset, values, 0.0, 1.0)
        b = fit(scaled, values, 0.0, 1.0)
        assert np.allclose(a.phis, b.phis, atol=1e-10)

    def test_tiny_set_still_locally_accurate(self):
        # fewer coalitions than features: jitter path, constraint still exact
        game = SyntheticGame.additive([1.0, -2.0, 0.5, 4.0])
        e = _game_fit(game, budget=2, seed=11)
        assert e.local_accuracy_gap() < 1e-9

    def test_values_alignment_checked(self, glove_game):
        cset, values = _full_set_and_values(glove_game)
        with pytest.raises(ValueError):
            fit(cset, values[:-1], 0.0, 1.0)


class TestSparsify:
    def test_k_equals_m_identical_to_dense(self, glove_game):
        cset, values = _full_set_and_values(glove_game)
        dense = fit(cset, values, 0.0, 1.0)
        sparse = sparsify(dense, 3, cset, values)
        assert sparse.phis == dense.phis
        assert sparse.support == (0, 1, 2)

    def test_additive_top2(self):
        game = SyntheticGame.additive([1.0, 2.0, 3.0])
        cset, values = _full_set_and_values(game)
        dense = fit(cset, values, 0.0, 6.0)
        sparse = sparsify(dense, 2, cset, values)
        assert sparse.support == (1, 2)
        assert sparse.local_accuracy_gap() < 1e-9

    def test_magnitude_ranking(self):
        game = SyntheticGame.additive([5.0, -5.0, 0.1])
        cset, values = _full_set_and_values(game)
        dense = fit(cset, values, 0.0, 0.1)
        sparse = sparsify(dense, 2, cset, values)
        assert sparse.support == (0, 1)

    def test_tie_breaks_toward_lower_index(self):
        game = SyntheticGame.additive([1.0, -1.0, 1.0, -1.0])
        cset, values = _full_set_and_values(game)
        dense = fit(cset, values, 0.0, 0.0)
        sparse = sparsify(dense, 2, cset, values)
        assert sparse.support == (0, 1)

    def test_k_one(self):
        game = SyntheticGame.additive([1.0, 2.0, 3.0])
        cset, values = _full_set_and_values(game)
        dense = fit(cset, values, 0.0, 6.0)
        sparse = sparsify(dense, 1, cset, values)
        assert sparse.support == (2,)
        assert sparse.phis[2] == pytest.approx(6.0)
        assert sparse.phis[0] == sparse.phis[1] == 0.0

    def test_k_bounds(self, glove_game):
        cset, values = _full_set_and_values(glove_game)
        dense = fit(cset, values, 0.0, 1.0)
        for bad in (0, 4):
            with pytest.raises(ValueError):
                sparsify(dense, bad, cset, values)


class TestCompleteLayerClosedForm:
    @pytest.mark.parametrize("m", range(2, 13))
    def test_matches_kkt_oracle_at_every_complete_budget(self, m):
        rng = np.random.default_rng(1000 + m)
        game = random_table_game(rng, m, v_empty=float(rng.normal()))
        phi0, fx = game.value_of_mask(0), game.value_of_mask(2**m - 1)
        for _, budget in complete_layer_budgets(m):
            cset = materialize(plan_st_shap(m, budget, seed=int(rng.integers(2**32))))
            assert cset.complete
            values = evaluate_batch(cset.masks, None, None, GameModel(game))
            dense = fit(cset, values, phi0, fx)
            oracle = kkt_constrained_wls(cset.masks, cset.weights, values, phi0, fx)
            assert np.abs(dense.phi_array() - oracle).max() <= 1e-9
            for k in sorted({1, int(rng.integers(1, m + 1)), m}):
                sparse = sparsify(dense, k, cset, values)
                kept = list(sparse.support)
                oracle = kkt_constrained_wls(cset.masks[:, kept], cset.weights,
                                             values, phi0, fx)
                assert np.abs(sparse.phi_array()[kept] - oracle).max() <= 1e-9
                assert not np.delete(sparse.phi_array(), kept).any()

    @pytest.mark.parametrize("k", [None, 3])
    def test_complete_budget_solves_no_linear_system(self, monkeypatch, k):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.solve called on a complete-layer set")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        game = random_table_game(np.random.default_rng(21), 8)
        # kernel-shap samples nothing only at the full budget
        routes = [(ST_SHAP, b) for _, b in complete_layer_budgets(8)]
        for strategy, budget in routes + [(KERNEL_SHAP, 2**8 - 2)]:
            e = _game_fit(game, budget, seed=4, strategy=strategy, k=k)
            assert e.local_accuracy_gap() < 1e-9


class TestExplain:
    def test_complete_budget_bit_identical_across_seeds(self):
        rng = np.random.default_rng(12)
        game = random_table_game(rng, 8)
        runs = [_game_fit(game, budget=72, seed=s, k=3) for s in range(6)]
        first = runs[0]
        for other in runs[1:]:
            assert other.phis == first.phis
            assert other.support == first.support

    def test_provenance_recorded(self, glove_game):
        e = _game_fit(glove_game, budget=6, seed=123)
        assert e.strategy == ST_SHAP
        assert e.budget == 6
        assert e.seed == 123

    def test_additive_model_closed_form_with_background(self):
        rng = np.random.default_rng(13)
        m = 6
        w = rng.normal(size=m)
        model = CallableModel(lambda rows: rows @ w - 1.5, m)
        x = rng.normal(size=m)
        bg = rng.normal(size=(11, m))
        expected = w * (x - bg.mean(axis=0))
        for strategy in (ST_SHAP, KERNEL_SHAP):
            e = explain(x, model, bg, strategy, budget=2**m - 2, seed=2)
            assert np.allclose(e.phis, expected, atol=1e-8)

    def test_json_round_trip(self, glove_game):
        from stableshap.explainer import Explanation
        e = _game_fit(glove_game, budget=6, seed=9, k=2)
        back = Explanation.from_json_dict(e.to_json_dict())
        assert back == e
