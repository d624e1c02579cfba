import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableshap import (
    ST_SHAP,
    GameModel,
    SyntheticGame,
    exact_shap_game,
    explain,
    layer1_attribution,
)
from stableshap.coalitions import layer_size
from stableshap.sampling import materialize, plan_st_shap
from stableshap.value_function import evaluate_batch

from conftest import (
    GLOVE_EXACT,
    CountingGameModel,
    kkt_constrained_wls,
    layer1_oracle,
    layer1_parts,
    random_table_game,
)


def _layer1(game):
    return layer1_attribution(None, GameModel(game), None)


def _combine(g1, g2, a1, a2):
    m = g1.n_players
    table = {mask: a1 * g1.value_of_mask(mask) + a2 * g2.value_of_mask(mask)
             for mask in range(2**m)}
    return SyntheticGame.from_table(m, table)


def _duplicated_player_game(rng, m, j, k):
    """Players j and k act through one collapsed slot of a base game."""
    base = random_table_game(rng, m - 1)
    slots = [s for s in range(m) if s != k]
    slot_of = {p: slots.index(p) if p != k else slots.index(j) for p in range(m)}
    table = {}
    for mask in range(2**m):
        collapsed = 0
        for p in range(m):
            if mask >> p & 1:
                collapsed |= 1 << slot_of[p]
        table[mask] = base.value_of_mask(collapsed)
    return SyntheticGame.from_table(m, table)


class TestClosedForm:
    def test_additive(self):
        e = _layer1(SyntheticGame.additive([1.0, 2.0, 3.0]))
        assert np.allclose(e.phis, [1.0, 2.0, 3.0], atol=1e-12)

    def test_cardinality_symmetric_split(self):
        e = _layer1(SyntheticGame.cardinality(3, [0, 1, 4, 9]))
        assert np.allclose(e.phis, [3.0, 3.0, 3.0], atol=1e-12)

    def test_glove(self, glove_game):
        e = _layer1(glove_game)
        assert np.allclose(e.phis, GLOVE_EXACT, atol=1e-12)
        assert e.strategy == "layer1"
        assert e.phi0 == 0.0

    def test_intermediates_fields(self, glove_game):
        singles, drop_ones, tilde, delta = layer1_parts(glove_game)
        assert tuple(singles) == (0.0, 0.0, 0.0)
        assert tuple(drop_ones) == (0.0, 1.0, 1.0)
        assert delta == 1.0
        assert tuple(tilde) == (0.5, 0.0, 0.0)

    def test_m2_equals_two_player_shapley(self):
        game = SyntheticGame.from_table(2, {0: 0.0, 1: 1.0, 2: 2.0, 3: 4.0})
        e = _layer1(game)
        # two-player closed form: phi_0 = (v({0}) + v(N) - v({1})) / 2
        assert np.allclose(e.phis, [1.5, 2.5], atol=1e-12)
        assert np.allclose(exact_shap_game(game).phis, e.phis, atol=1e-12)


class TestAltForm:
    def test_glove(self, glove_game):
        assert layer1_oracle(glove_game)[0] == pytest.approx(2 / 3, abs=1e-12)

    def test_symmetric_game_gives_delta_over_m(self):
        oracle = layer1_oracle(SyntheticGame.cardinality(4, [0.0, 2.0, 3.0, 3.5, 10.0]))
        for j in range(4):
            assert oracle[j] == pytest.approx(10.0 / 4, abs=1e-12)

    def test_additive_gives_weights(self):
        weights = [0.5, -2.0, 3.25]
        oracle = layer1_oracle(SyntheticGame.additive(weights))
        for j, w in enumerate(weights):
            assert oracle[j] == pytest.approx(w, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_identity_with_primary_form(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 10))
        game = random_table_game(rng, m, v_empty=float(rng.normal()))
        e = _layer1(game)
        oracle = layer1_oracle(game)
        for j in range(m):
            assert abs(oracle[j] - e.phis[j]) < 1e-12


class TestAxioms:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_efficiency(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 11))
        game = random_table_game(rng, m, v_empty=float(rng.normal()))
        e = _layer1(game)
        delta = game.value_of_mask(2**m - 1) - game.value_of_mask(0)
        assert abs(sum(e.phis) - delta) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 9))
        g1 = random_table_game(rng, m)
        g2 = random_table_game(rng, m)
        a1, a2 = rng.uniform(-5, 5, size=2)
        combined = _layer1(_combine(g1, g2, a1, a2)).phi_array()
        separate = a1 * _layer1(g1).phi_array() + a2 * _layer1(g2).phi_array()
        assert np.allclose(combined, separate, atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_symmetry_for_duplicated_players(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 9))
        j, k = sorted(rng.choice(m, size=2, replace=False))
        game = _duplicated_player_game(rng, m, int(j), int(k))
        e = _layer1(game)
        assert abs(e.phis[j] - e.phis[k]) < 1e-12


class TestWlsEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_closed_form_equals_layer1_wls(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 11))
        game = random_table_game(rng, m, v_empty=float(rng.normal()))
        cset = materialize(plan_st_shap(m, layer_size(m, 1), seed=0))
        values = evaluate_batch(cset.masks, None, None, GameModel(game))
        wls = kkt_constrained_wls(cset.masks, cset.weights, values,
                                  game.value_of_mask(0), game.value_of_mask(2**m - 1))
        closed = _layer1(game)
        assert np.allclose(closed.phis, wls, atol=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 11), st.integers(0, 2**31 - 1), st.integers(0, 2**63 - 1))
    def test_bit_identical_to_st_shap_at_the_layer1_budget(self, m, game_seed, seed):
        rng = np.random.default_rng(game_seed)
        model = GameModel(random_table_game(rng, m, v_empty=float(rng.normal())))
        layer1 = layer1_attribution(None, model, None)
        st_shap = explain(None, model, None, ST_SHAP, layer_size(m, 1), seed)
        assert layer1.phis == st_shap.phis
        assert layer1.budget == st_shap.budget == layer_size(m, 1)


class TestEvaluationCount:
    @pytest.mark.parametrize("m", range(2, 11))
    def test_exact_call_count(self, m):
        rng = np.random.default_rng(m)
        model = CountingGameModel(random_table_game(rng, m))
        layer1_attribution(None, model, None)
        assert model.calls == (4 if m == 2 else 2 * m + 2)
