import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableshap import (
    CallableModel,
    ClassProbabilityModel,
    GameModel,
    GameTableError,
    KNNClassifierModel,
    RidgeRegressionModel,
    SyntheticGame,
)
from stableshap.coalitions import pack
from stableshap.games import bitstring_to_int, int_to_bitstring
from stableshap.value_function import evaluate_batch

from conftest import (
    NON_FINITE_GAME_SPECS,
    masked_mean_oracle,
    random_table_game,
    value_of_set,
)


class TestSyntheticGame:
    def test_additive_sum(self):
        g = SyntheticGame.additive([1.0, 2.0, 3.0])
        assert value_of_set(g, {1, 2}) == 5.0
        assert value_of_set(g, set()) == 0.0

    def test_cardinality_rule(self):
        g = SyntheticGame.cardinality(3, [0, 1, 4, 9])
        assert value_of_set(g, {0, 2}) == 4.0
        assert value_of_set(g, {0, 1, 2}) == 9.0

    def test_glove_table(self, glove_game):
        assert value_of_set(glove_game, {0, 1}) == 1.0
        assert value_of_set(glove_game, {1, 2}) == 0.0

    def test_table_requires_empty_coalition(self):
        with pytest.raises(GameTableError):
            SyntheticGame.from_table(2, {1: 1.0})

    @pytest.mark.parametrize("m,values,bad", [
        (2, {0: 0.0, 1: 1.0, 2: 2.0, -1: 3.0}, "[-1]"),
        (2, {0: 0.0, 1: 1.0, 2: 2.0, 7: 3.0}, "[7]"),
        (3, {0: 0.0, 9: 1.0}, "[9]"),
    ])
    def test_keys_that_are_no_mask_refused(self, m, values, bad):
        with pytest.raises(GameTableError, match=re.escape(f"table keys {bad} ")):
            SyntheticGame.from_table(m, values)

    @pytest.mark.parametrize("key", [1.5, 2.0, "3", None])
    def test_keys_that_are_no_integer_refused(self, key):
        values = {0: 0.0, 1: 1.0, key: 2.0, 3: 3.0}
        with pytest.raises(GameTableError, match=re.escape(f"table key {key!r} ")):
            SyntheticGame.from_table(2, values)

    @pytest.mark.parametrize("key, message", [
        (1.5, "table key 1.5 "), ("7", "table key '7' "), (None, "table key None "),
        (2**10, "table keys [1024] "), (-3, "table keys [-3] "),
        (2**70, f"table keys [{2**70}] "),
    ])
    def test_complete_table_keys_that_are_no_mask_refused(self, key, message):
        values = dict(enumerate(np.arange(2.0**10).tolist()))
        del values[5]
        values[key] = 5.0
        with pytest.raises(GameTableError, match=re.escape(message)):
            SyntheticGame.from_table(10, values)

    def test_complete_table_round_trips_through_json(self, tmp_path):
        m = 10
        rng = np.random.default_rng(4)
        order = rng.permutation(2**m).tolist()
        values = {mask: float(rng.normal()) for mask in order}
        game = SyntheticGame.from_table(m, values)
        assert game.to_json_dict()["values"] == {
            int_to_bitstring(mask, m): v for mask, v in values.items()}
        assert [game.value_of_mask(mask) for mask in order] == list(values.values())
        with pytest.raises(GameTableError, match=re.escape("mask 1024 is not a mask of 10 ")):
            game.value_of_mask(2**m)
        game.save(tmp_path / "game.json")
        loaded = SyntheticGame.load(tmp_path / "game.json")
        assert loaded.to_json_dict() == game.to_json_dict()
        masks = (np.arange(2**m)[:, None] >> np.arange(m)) & 1 == 1
        assert (loaded.coalition_values(masks).tolist()
                == [values[mask] for mask in range(2**m)])

    @pytest.mark.parametrize("key", ["1x", "1", "101"])
    def test_json_keys_must_be_bitstrings(self, key):
        spec = {"M": 2, "values": {"00": 0.0, "10": 1.0, key: 2.0}}
        with pytest.raises(GameTableError, match=re.escape(f"mask {key!r} ")):
            SyntheticGame.from_json_dict(spec)

    def test_missing_mask_errors(self):
        g = SyntheticGame.from_table(2, {0: 0.0, 3: 1.0})
        # mask int 1 = feature 0 present = bitstring "10"
        with pytest.raises(GameTableError, match="10 missing"):
            g.value_of_mask(1)

    def test_coalition_values_vectorized_matches_scalar(self, glove_game):
        masks = np.array([[(m >> i) & 1 for i in range(3)] for m in range(8)], bool)
        vec = glove_game.coalition_values(masks)
        scalar = [glove_game.value_of_mask(m) for m in range(8)]
        assert np.allclose(vec, scalar)

    def test_json_roundtrip(self, tmp_path, glove_game):
        for game in [
            glove_game,
            SyntheticGame.additive([0.5, -1.0, 2.0]),
            SyntheticGame.cardinality(4, [0, 1, 2, 3, 4]),
            random_table_game(np.random.default_rng(0), 3),
        ]:
            path = tmp_path / "game.json"
            game.save(path)
            loaded = SyntheticGame.load(path)
            masks = np.array(
                [[(m >> i) & 1 for i in range(game.n_players)]
                 for m in range(2**game.n_players)], bool)
            assert np.allclose(loaded.coalition_values(masks),
                               game.coalition_values(masks))

    def test_bitstring_convention(self):
        # character i of the string is feature i, so "100" is {0}
        assert bitstring_to_int("100") == 1
        assert bitstring_to_int("001") == 4
        assert int_to_bitstring(5, 3) == "101"

    def test_pack(self):
        masks = np.array([[1, 0, 1], [0, 0, 0], [1, 1, 1]], bool)
        assert pack(masks).tolist() == [5, 0, 7]

    def test_table_lookup_up_to_64_players(self):
        game = SyntheticGame.from_table(64, {0: 0.0, 2**64 - 1: 1.0, 2**63: 2.0})
        masks = np.zeros((3, 64), bool)
        masks[1] = True
        masks[2, 63] = True
        assert game.coalition_values(masks).tolist() == [0.0, 1.0, 2.0]
        with pytest.raises(GameTableError, match="at most 64 players"):
            SyntheticGame.from_table(65, {0: 0.0})

    @pytest.mark.parametrize("game", [
        SyntheticGame.from_table(3, dict(enumerate(np.arange(8.0).tolist()))),
        SyntheticGame.from_table(3, {0: 0.0, 7: 1.0}),
        SyntheticGame.additive([1.0, 2.0, 3.0]),
        SyntheticGame.cardinality(3, [0, 1, 4, 9]),
    ], ids=["complete-table", "incomplete-table", "additive", "cardinality"])
    @pytest.mark.parametrize("mask", [-1, 8])
    def test_value_of_mask_refuses_what_is_no_mask(self, game, mask):
        message = f"mask {mask} is not a mask of 3 players (0 to 7)"
        with pytest.raises(GameTableError, match=re.escape(message)):
            game.value_of_mask(mask)

    def test_cardinality_needs_two_players(self):
        with pytest.raises(ValueError, match="at least 2 players"):
            SyntheticGame.cardinality(1, [0, 1])

    @pytest.mark.parametrize("spec, message", [
        ({"M": 5, "rule": "additive", "weights": [1, 2, 3]},
         "field 'weights' has 3 entries, not the 5 that M=5 needs"),
        ({"M": 3, "rule": "cardinality", "by_size": [0, 1, 2]},
         "field 'by_size' has 3 entries, not the 4 that M=3 needs"),
        ({"M": 1, "rule": "cardinality", "by_size": [0, 1]},
         "field 'M' must be at least 2 players, got 1"),
        ({"M": 1, "rule": "additive", "weights": [1]},
         "field 'M' must be at least 2 players, got 1"),
        ({"M": 0, "values": {"": 0}}, "field 'M' must be at least 2 players, got 0"),
        ({"M": 2, "rule": "additive", "weights": [1, True]},
         "field 'weights' entry 1 is True, not a number"),
        ({"M": 2, "rule": "cardinality", "by_size": [0, 1, True]},
         "field 'by_size' entry 2 is True, not a number"),
        ({"M": 2, "rule": "additive", "weights": [1, [2]]},
         "field 'weights' entry 1 is [2], not a number"),
        ({"M": 2, "rule": "additive", "weights": "12"},
         "field 'weights' must be a JSON array, got '12'"),
        ({"M": 2, "rule": "sum", "weights": [1, 2]},
         "field 'rule' must be 'table', 'additive' or 'cardinality', got 'sum'"),
        ({"M": 65, "values": {"0" * 65: 0}}, "table games support at most 64 players"),
    ])
    def test_spec_that_is_no_game_names_the_field(self, spec, message):
        with pytest.raises(GameTableError, match=re.escape(message)):
            SyntheticGame.from_json_dict(spec)

    @pytest.mark.parametrize("content, message", NON_FINITE_GAME_SPECS)
    def test_number_no_float_carries_is_refused(self, content, message):
        with pytest.raises(GameTableError, match=re.escape(message)):
            SyntheticGame.from_json_dict(json.loads(content))

    @pytest.mark.parametrize("make", [
        lambda: SyntheticGame.from_table(2, {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}),
        lambda: SyntheticGame.from_table(2, {0: 0.0, 3: 1.0}),
        lambda: SyntheticGame.additive([1, 2]),
        lambda: SyntheticGame.cardinality(2, [0, 1, 2]),
    ], ids=["complete-table", "incomplete-table", "additive", "cardinality"])
    def test_games_compare_and_hash_by_identity(self, make):
        a, b = make(), make()
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2

    @pytest.mark.parametrize("m, n_keys", [(3, 5), (10, 600), (20, 30000), (64, 5000)])
    def test_incomplete_table_at_scale(self, m, n_keys):
        rng = np.random.default_rng(m)
        if m < 64:
            drawn = rng.choice(2**m, size=n_keys + 3, replace=False).astype(np.uint64)
        else:
            drawn = np.unique(rng.integers(0, 2**64, size=n_keys + 3, dtype=np.uint64))
        drawn = drawn[drawn != 0]
        keys = np.append(drawn[:n_keys - 1], np.uint64(0))
        absent = drawn[n_keys - 1:n_keys + 1]
        rng.shuffle(keys)
        values = {int(k): float(v) for k, v in zip(keys, rng.normal(size=len(keys)))}
        game = SyntheticGame.from_table(m, values)

        def unpack(ints):
            ints = np.asarray(ints, dtype=np.uint64)
            return (ints[:, None] >> np.arange(m, dtype=np.uint64)) & 1 == 1

        asked = rng.permutation(keys)
        looked_up = game.coalition_values(unpack(asked)).tolist()
        assert looked_up == [game.value_of_mask(int(k)) for k in asked]
        assert looked_up == [values[int(k)] for k in asked]
        batch = np.concatenate([asked[:3], absent[1:], asked[3:], absent[:1]])
        missing = int_to_bitstring(int(absent[1]), m)
        with pytest.raises(GameTableError, match=f"mask {missing} missing"):
            game.coalition_values(unpack(batch))
        with pytest.raises(GameTableError, match=f"mask {missing} missing"):
            game.value_of_mask(int(absent[1]))
        back = SyntheticGame.from_json_dict(game.to_json_dict())
        assert back.to_json_dict() == game.to_json_dict()
        assert back.keys.tolist() == game.keys.tolist() == sorted(values)
        assert back.payoffs.tolist() == game.payoffs.tolist()

    @pytest.mark.parametrize("m", [3, 10])
    def test_shuffled_complete_table_round_trips_through_json(self, m):
        rng = np.random.default_rng(m)
        values = {int(k): float(rng.normal()) for k in rng.permutation(2**m)}
        game = SyntheticGame.from_table(m, values)
        assert game.keys is None
        assert game.payoffs.tolist() == [values[k] for k in range(2**m)]
        back = SyntheticGame.from_json_dict(game.to_json_dict())
        assert back.keys is None
        assert back.payoffs.tolist() == game.payoffs.tolist()
        assert back.to_json_dict() == game.to_json_dict()


class TestBuiltinModels:
    def test_ridge_recovers_linear_data(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 4))
        w = np.array([1.0, -2.0, 0.5, 3.0])
        y = X @ w + 7.0
        model = RidgeRegressionModel.fit(X, y)
        assert np.allclose(model.coef, w, atol=1e-4)
        assert model.intercept == pytest.approx(7.0, abs=1e-4)
        assert np.allclose(model.predict(X), y, atol=1e-4)

    def test_ridge_deterministic(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        a = RidgeRegressionModel.fit(X, y)
        b = RidgeRegressionModel.fit(X, y)
        assert np.array_equal(a.predict(X), b.predict(X))

    def test_knn_vote_fractions(self):
        X = np.array([[0.0], [0.1], [0.2], [10.0], [10.1]])
        y = np.array([0, 0, 0, 1, 1])
        model = KNNClassifierModel(X, y, k=5)
        proba = model.predict_proba(np.array([[0.05]]))
        assert proba[0].tolist() == [0.6, 0.4]
        assert model.predicted_class([0.05]) == 0

    def test_knn_rejects_float_labels(self):
        with pytest.raises(ValueError):
            KNNClassifierModel(np.zeros((4, 2)), np.array([0.5, 1, 0, 1]), k=2)

    def test_class_probability_model(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        knn = KNNClassifierModel(X, y, k=2)
        p1 = ClassProbabilityModel(knn, 1)
        p0 = ClassProbabilityModel(knn, 0)
        rows = np.array([[0.2], [2.8]])
        assert np.allclose(p0.predict(rows) + p1.predict(rows), 1.0)
        with pytest.raises(ValueError):
            ClassProbabilityModel(knn, 5)

    def test_callable_model_length_guard(self):
        bad = CallableModel(lambda rows: rows[:1, 0], 2)
        with pytest.raises(Exception, match="outputs"):
            bad.predict(np.zeros((3, 2)))


class TestEvaluate:
    @pytest.fixture
    def setting(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=5)
        model = CallableModel(lambda rows: rows @ w + 0.25, 5)
        x = rng.normal(size=5)
        bg = rng.normal(size=(9, 5))
        return w, model, x, bg

    def test_grand_coalition_is_model_of_x(self, setting):
        w, model, x, bg = setting
        full = np.ones(5, bool)
        assert evaluate_batch([full], x, bg, model)[0] == pytest.approx(
            float(model.predict(x.reshape(1, -1))[0]), abs=1e-12)

    def test_empty_coalition_single_row_background(self, setting):
        w, model, x, bg = setting
        b = bg[:1]
        empty = np.zeros(5, bool)
        assert evaluate_batch([empty], x, b, model)[0] == pytest.approx(
            float(model.predict(b)[0]), abs=1e-12)

    def test_additive_closed_form(self, setting):
        w, model, x, bg = setting
        mask = np.array([1, 0, 1, 1, 0], bool)
        mean = bg.mean(axis=0)
        expected = (w[mask] @ x[mask]) + (w[~mask] @ mean[~mask]) + 0.25
        assert evaluate_batch([mask], x, bg, model)[0] == pytest.approx(expected, abs=1e-10)
        # and the brute-force averaging oracle agrees
        oracle = masked_mean_oracle(mask, x, bg,
                                    lambda z: model.predict(z.reshape(1, -1))[0])
        assert evaluate_batch([mask], x, bg, model)[0] == pytest.approx(oracle, abs=1e-10)

    def test_batch_equals_map_of_single(self, setting):
        w, model, x, bg = setting
        rng = np.random.default_rng(2)
        masks = rng.random((12, 5)) < 0.5
        batch = evaluate_batch(masks, x, bg, model)
        singles = [evaluate_batch([m], x, bg, model)[0] for m in masks]
        assert np.allclose(batch, singles, atol=1e-12)

    def test_empty_batch(self, setting):
        w, model, x, bg = setting
        assert evaluate_batch(np.zeros((0, 5), bool), x, bg, model).shape == (0,)

    def test_background_permutation_invariance(self, setting):
        w, model, x, bg = setting
        mask = np.array([0, 1, 1, 0, 1], bool)
        shuffled = bg[::-1].copy()
        assert evaluate_batch([mask], x, bg, model)[0] == pytest.approx(
            evaluate_batch([mask], x, shuffled, model)[0], abs=1e-12)

    def test_game_adapter_ignores_background(self, glove_game):
        model = GameModel(glove_game)
        mask = np.array([1, 1, 0], bool)
        assert evaluate_batch([mask], None, None, model)[0] == value_of_set(glove_game, {0, 1})

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_evaluate_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 7))
        b = int(rng.integers(1, 6))
        w = rng.normal(size=m)
        model = CallableModel(lambda rows: np.sin(rows @ w), m)
        x = rng.normal(size=m)
        bg = rng.normal(size=(b, m))
        mask = rng.random(m) < 0.5
        oracle = masked_mean_oracle(mask, x, bg,
                                    lambda z: model.predict(z.reshape(1, -1))[0])
        assert evaluate_batch([mask], x, bg, model)[0] == pytest.approx(oracle, abs=1e-10)
