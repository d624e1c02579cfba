import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableshap import (
    CallableModel,
    GameModel,
    RankDeficiencyError,
    SyntheticGame,
    exact_shap_game,
    explain,
)
from stableshap import explainer
from stableshap.coalitions import complete_layer_budgets, pack
from stableshap.explainer import (
    _PATTERN_ROWS,
    Explanation,
    _helmert_basis,
    fit,
    plan_for,
    sparsify,
)
from stableshap.sampling import (
    KERNEL_SHAP,
    ST_SHAP,
    WeightedCoalitionSet,
    materialize,
    plan_st_shap,
)
from stableshap.value_function import anchors, evaluate_batch

from conftest import (
    GLOVE_EXACT,
    design_rank_oracle,
    kkt_constrained_wls,
    qr_constrained_lstsq,
    random_table_game,
)


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

    def test_tiny_set_is_refused(self):
        # fewer coalitions than free coefficients: no attribution is determined
        game = SyntheticGame.additive([1.0, -2.0, 0.5, 4.0])
        with pytest.raises(RankDeficiencyError, match=r"determine 2 of 3 free "):
            _game_fit(game, budget=2, seed=11)

    def test_values_alignment_checked(self, glove_game):
        cset, values = _full_set_and_values(glove_game)
        with pytest.raises(ValueError):
            fit(cset, values[:-1], 0.0, 1.0)


def _sampled_set(strategy, m, budget, seed):
    cset = materialize(plan_for(strategy, m, budget, seed))
    return cset, np.random.default_rng(seed).normal(size=len(cset))


class TestRankDeficiency:
    # M=13 (12 free coefficients): 10 coalitions can never determine the fit;
    # 13 can, but these draws reach rank 10 (st-shap) or 7 (kernel-shap) and
    # leave features tied. Under the sum constraint a complement pair at one
    # weight observes a single direction, so kernel-shap's rank is at most
    # its number of draws. Its seed is the first from 0 whose draws meet the
    # condition
    SEED = {ST_SHAP: 3, KERNEL_SHAP: 0}
    SHORT_RANK = {ST_SHAP: 10, KERNEL_SHAP: 7}
    # 12 complement pairs can determine the fit, 10 cannot
    FULL_BUDGET = {ST_SHAP: 20, KERNEL_SHAP: 24}

    @pytest.mark.parametrize("strategy,rank", [(ST_SHAP, 7), (KERNEL_SHAP, 5)])
    def test_too_few_coalitions_raise_with_their_rank(self, strategy, rank):
        cset, values = _sampled_set(strategy, 13, 10, self.SEED[strategy])
        assert design_rank_oracle(cset.masks, cset.weights) == rank
        with pytest.raises(RankDeficiencyError) as info:
            fit(cset, values, 0.0, 1.0, strategy=strategy, budget=10)
        assert str(info.value) == (
            f"the coalitions determine {rank} of 12 free coefficients "
            f"(strategy={strategy} budget=10 n=10 M=13)")

    @pytest.mark.parametrize("strategy", [ST_SHAP, KERNEL_SHAP])
    def test_unobserved_directions_get_the_least_norm_fit(self, strategy):
        cset, values = _sampled_set(strategy, 13, 13, self.SEED[strategy])
        assert design_rank_oracle(cset.masks, cset.weights) == self.SHORT_RANK[strategy]
        e = fit(cset, values, 0.5, 1.0)
        assert e.local_accuracy_gap() < 1e-9
        oracle = kkt_constrained_wls(cset.masks, cset.weights, values, 0.5, 1.0)
        assert np.abs(e.phi_array() - oracle).max() <= 1e-9
        # features no coalition separates are treated alike
        groups = {}
        for i, column in enumerate(cset.masks.T):
            groups.setdefault(column.tobytes(), []).append(i)
        tied = [g for g in groups.values() if len(g) > 1]
        assert tied
        for g in tied:
            assert np.ptp(e.phi_array()[g]) <= 1e-12

    @pytest.mark.parametrize("strategy", [ST_SHAP, KERNEL_SHAP])
    def test_enough_coalitions_fit(self, strategy):
        cset, values = _sampled_set(strategy, 13, self.FULL_BUDGET[strategy], seed=3)
        assert cset.n_complete < len(cset)
        assert design_rank_oracle(cset.masks, cset.weights) == 12
        e = fit(cset, values, 0.5, 1.0)
        assert e.local_accuracy_gap() < 1e-9
        oracle = kkt_constrained_wls(cset.masks, cset.weights, values, 0.5, 1.0)
        assert np.abs(e.phi_array() - oracle).max() <= 1e-9

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 10), st.sampled_from([ST_SHAP, KERNEL_SHAP]),
           st.integers(0, 2**32 - 1), st.data())
    def test_refuses_exactly_the_sets_too_small_to_fit(self, m, strategy, seed, data):
        budget = data.draw(st.integers(2, min(4 * m, 2**m - 2)), label="budget")
        cset, values = _sampled_set(strategy, m, budget, seed)
        rank = design_rank_oracle(cset.masks, cset.weights)
        if len(cset) < m - 1:
            with pytest.raises(RankDeficiencyError, match=f"determine {rank} of {m - 1} "):
                fit(cset, values, 0.25, 1.0)
            return
        # full rank: the unique fit; short rank: the least-norm one
        e = fit(cset, values, 0.25, 1.0)
        assert e.local_accuracy_gap() < 1e-9
        oracle = kkt_constrained_wls(cset.masks, cset.weights, values, 0.25, 1.0)
        assert np.abs(e.phi_array() - oracle).max() <= 1e-8
        # k=1 keeps one coefficient, which the sum constraint fixes
        one = sparsify(e, 1, cset, values)
        assert one.local_accuracy_gap() < 1e-9 and len(one.support) == 1


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
            assert cset.n_complete == len(cset)
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
            raise AssertionError("linear algebra called on a complete-layer set")

        for name in ("solve", "eigh", "lstsq"):
            monkeypatch.setattr(np.linalg, name, refuse)
        game = random_table_game(np.random.default_rng(21), 8)
        # kernel-shap samples nothing only at the full budget
        routes = [(ST_SHAP, b) for _, b in complete_layer_budgets(8)]
        for strategy, budget in routes + [(KERNEL_SHAP, 2**8 - 2)]:
            e = _game_fit(game, budget, seed=4, strategy=strategy, k=k)
            assert e.local_accuracy_gap() < 1e-9


class TestSampledCorrection:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(3, 13), st.sampled_from([ST_SHAP, KERNEL_SHAP]),
           st.integers(0, 2**32 - 1), st.data())
    def test_fit_and_sparsify_match_the_kkt_oracle(self, m, strategy, seed, data):
        # a budget past some complete-layer boundary and short of the next:
        # st-shap then holds complete layers plus a tail in the next layer,
        # kernel-shap its complete layers plus a global sample
        bounds = [0] + [b for _, b in complete_layer_budgets(m)]
        i = data.draw(st.integers(0, len(bounds) - 2), label="boundary")
        budget = data.draw(st.integers(max(bounds[i] + 1, m - 1), bounds[i + 1] - 1),
                           label="budget")
        rng = np.random.default_rng(seed)
        game = random_table_game(rng, m, v_empty=float(rng.normal()))
        phi0, fx = game.value_of_mask(0), game.value_of_mask(2**m - 1)
        cset = materialize(plan_for(strategy, m, budget, seed))
        assert cset.n_complete < len(cset)
        values = evaluate_batch(cset.masks, None, None, GameModel(game))
        dense = fit(cset, values, phi0, fx)
        assert dense.local_accuracy_gap() < 1e-9
        oracle = kkt_constrained_wls(cset.masks, cset.weights, values, phi0, fx)
        assert np.abs(dense.phi_array() - oracle).max() <= 1e-8
        for k in sorted({1, data.draw(st.integers(1, m), label="k"), m}):
            sparse = sparsify(dense, k, cset, values)
            kept = list(sparse.support)
            assert sparse.local_accuracy_gap() < 1e-9
            oracle = kkt_constrained_wls(cset.masks[:, kept], cset.weights,
                                         values, phi0, fx)
            assert np.abs(sparse.phi_array()[kept] - oracle).max() <= 1e-8
            assert not np.delete(sparse.phi_array(), kept).any()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_sum_constraint_holds_for_weights_over_eight_decades(self, seed):
        # rows that hold every kept feature at a heavy weight dwarf the rows
        # that separate them; the correction must still stay off the ones
        # direction, or the attributions stop summing to fx - phi0
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 11))
        n = int(rng.integers(m - 1, min(4 * m, 2**m - 2) + 1))
        keys = rng.choice(np.arange(1, 2**m - 1), size=n, replace=False)
        masks = (keys[:, None] >> np.arange(m)) & 1 == 1
        cset = WeightedCoalitionSet(masks, 10.0 ** rng.uniform(-8, 0, size=n))
        values = rng.normal(size=n)
        dense = fit(cset, values, 0.3, 1.7)  # n >= M - 1 rows: never refused
        assert dense.local_accuracy_gap() < 1e-9
        for k in sorted({1, int(rng.integers(1, m + 1)), m}):
            assert sparsify(dense, k, cset, values).local_accuracy_gap() < 1e-9

    @pytest.mark.parametrize("seed, histograms",
                             [(seed, False) for seed in range(30)]
                             + [(seed, True) for seed in range(3)])
    def test_rows_holding_all_or_none_of_the_kept_features_move_nothing(self, seed, histograms):
        # such rows project to exactly zero, so even at weight 1e8 they must
        # leave a sparsified fit as it was, bit for bit, wherever they sit:
        # on the float product, and on the byte-pair histograms (at least
        # _PATTERN_ROWS sampled rows over more than 8 kept features)
        rng = np.random.default_rng(seed)
        if histograms:
            m, k = int(rng.integers(14, 17)), 10
            budget = int(rng.integers(12000, 15000))
        else:
            m, k = int(rng.integers(9, 14)), 4
            budget = int(rng.integers(3 * m, 500))
        table = rng.normal(size=2**m)
        cset = materialize(plan_for(KERNEL_SHAP, m, budget, seed))
        assert (len(cset) - cset.n_complete >= _PATTERN_ROWS) == histograms
        values = table[pack(cset.masks)]
        dense = fit(cset, values, table[0], table[-1])
        sparse = sparsify(dense, k, cset, values)
        kept = list(sparse.support)
        other = min(set(range(m)) - set(kept))
        extra = rng.random((int(rng.integers(1, 40)), m)) < 0.5
        extra[:, kept] = (rng.random(len(extra)) < 0.5)[:, None]
        flat = extra.all(axis=1) | ~extra.any(axis=1)
        extra[flat, other] = ~extra[flat, other]  # proper coalitions only
        at = np.sort(rng.integers(cset.n_complete, len(cset) + 1, size=len(extra)))
        grown = WeightedCoalitionSet(np.insert(cset.masks, at, extra, axis=0),
                                     np.insert(cset.weights, at, 1e8),
                                     cset.n_complete)
        grown_values = np.insert(values, at, rng.normal(size=len(extra)) * 1e3)
        assert sparsify(dense, k, grown, grown_values) == sparse


class TestHelmertBasis:
    @pytest.mark.parametrize("k", [2, 3, 9, 20])
    def test_orthonormal_sum_zero_cached_and_read_only(self, k):
        basis = _helmert_basis(k)
        assert basis.shape == (k, k - 1)
        assert np.allclose(basis.T @ basis, np.eye(k - 1), atol=1e-14)
        assert np.allclose(basis.sum(axis=0), 0.0, atol=1e-14)
        assert _helmert_basis(k) is basis
        with pytest.raises(ValueError):
            basis[0, 0] = 1.0


class TestFitAtScale:
    # st-shap at M=19, b=188366 is seven complete layers, fitted by the
    # closed form alone; every other case adds 11634 to 166674 sampled rows,
    # which the dense fit and sparsify(10) take as byte-pair histograms and
    # sparsify(4) as a float product
    @pytest.mark.parametrize("m, budget", [(19, 188366), (19, 200000), (20, 200000)])
    @pytest.mark.parametrize("strategy", [ST_SHAP, KERNEL_SHAP])
    def test_matches_qr_reference_in_any_mask_layout(self, m, budget, strategy):
        rng = np.random.default_rng(budget + m)
        table = rng.normal(size=2**m)
        phi0, fx = table[0], table[-1]
        cset = materialize(plan_for(strategy, m, budget, seed=7))
        values = table[pack(cset.masks)]
        f_ordered = WeightedCoalitionSet(np.asfortranarray(cset.masks), cset.weights,
                                         cset.n_complete)
        dense = fit(cset, values, phi0, fx)
        sparse = {k: sparsify(dense, k, cset, values) for k in (4, 10)}
        for e, kept in [(dense, list(range(m)))] + [(e, list(e.support))
                                                    for e in sparse.values()]:
            oracle = qr_constrained_lstsq(cset.masks[:, kept], cset.weights,
                                          values, phi0, fx)
            err = np.abs(e.phi_array()[kept] - oracle).max()
            assert err <= 1e-12 * np.abs(oracle).max()
        assert fit(f_ordered, values, phi0, fx) == dense
        for k, e in sparse.items():
            assert sparsify(dense, k, f_ordered, values) == e

    # past 64 features the keys are void: st-shap at M=66, b=9000 holds
    # layers 1-2 and 4578 draws from layer 3, kernel-shap 8868 sampled rows,
    # which the dense fit and sparsify(10) take as byte-pair histograms
    @pytest.mark.parametrize("m, budget", [(70, 500), (66, 9000)])
    @pytest.mark.parametrize("strategy", [ST_SHAP, KERNEL_SHAP])
    def test_matches_qr_reference_past_64_features(self, m, budget, strategy):
        rng = np.random.default_rng(m)
        cset = materialize(plan_for(strategy, m, budget, seed=1))
        values = cset.masks @ rng.normal(size=m) + 0.1 * rng.normal(size=len(cset))
        dense = fit(cset, values, 0.0, 2.0)
        for e in (dense, sparsify(dense, 10, cset, values)):
            kept = list(e.support)
            oracle = qr_constrained_lstsq(cset.masks[:, kept], cset.weights, values, 0.0, 2.0)
            assert np.abs(e.phi_array()[kept] - oracle).max() <= 1e-12 * np.abs(oracle).max()

    @pytest.mark.parametrize("pattern_rows", [1, 2**62])
    def test_both_gram_paths_agree(self, monkeypatch, pattern_rows):
        # the same sets, with more than 8 free features, through the
        # byte-pair histograms (pattern_rows=1) or the float product (2**62)
        cases = []
        for m, budget in ((13, 1000), (20, 3000), (16, 10000), (20, 43398)):
            for strategy in (ST_SHAP, KERNEL_SHAP):
                rng = np.random.default_rng(budget + m)
                table = rng.normal(size=2**m)
                cset = materialize(plan_for(strategy, m, budget, seed=3))
                if cset.n_complete == len(cset):
                    continue  # st-shap at M=20, b=43398: complete layers only
                values = table[pack(cset.masks)]
                dense = fit(cset, values, table[0], table[-1])
                cases.append((cset, values, table, dense,
                              {k: sparsify(dense, k, cset, values) for k in (4, 10)}))
        assert len(cases) == 7
        monkeypatch.setattr(explainer, "_PATTERN_ROWS", pattern_rows)
        for cset, values, table, dense, sparse in cases:
            pairs = [(dense, fit(cset, values, table[0], table[-1]))]
            pairs += [(e, sparsify(dense, k, cset, values)) for k, e in sparse.items()]
            for want, got in pairs:
                scale = np.abs(want.phi_array()).max()
                assert np.abs(got.phi_array() - want.phi_array()).max() <= 1e-12 * scale

    @staticmethod
    def _peak_bytes(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_fit_memory_stays_within_a_few_blocks(self):
        # 156602 sampled rows, 25 MB as floats: no rows are ever cast to
        # float, the complete ones are summed by byte histograms of their
        # keys and the sampled ones by byte-pair histograms. The bound is
        # three floats per row, 4.8 MB.
        m = 20
        cset = materialize(plan_for(KERNEL_SHAP, m, 200000, seed=7))
        values = np.random.default_rng(0).normal(size=len(cset))
        assert len(cset) - cset.n_complete > 2 * 65536
        assert self._peak_bytes(lambda: fit(cset, values, 0.0, 1.0)) < len(cset) * 3 * 8

    def test_small_sparse_fit_memory_does_not_grow_with_the_sampled_rows(self):
        # sparsify(4) multiplies its sampled rows in blocks of _PATTERN_ROWS:
        # kernel-shap at M=20 with 50000 and 200000 sampled rows peaks at
        # about 0.63 and 0.70 MB, where casting every row at once took 2.9
        # and 13.6 MB
        m, peaks = 20, []
        for budget, sampled in ((62390, 50000), (243398, 200000)):
            cset = materialize(plan_for(KERNEL_SHAP, m, budget, seed=7))
            assert len(cset) - cset.n_complete == sampled
            values = np.random.default_rng(budget).normal(size=len(cset))
            dense = fit(cset, values, 0.0, 1.0)
            peaks.append(self._peak_bytes(lambda: sparsify(dense, 4, cset, values)))
            e = sparsify(dense, 4, cset, values)
            kept = list(e.support)
            oracle = qr_constrained_lstsq(cset.masks[:, kept], cset.weights, values, 0.0, 1.0)
            assert np.abs(e.phi_array()[kept] - oracle).max() <= 1e-12 * np.abs(oracle).max()
        assert peaks[1] < 1.25 * peaks[0]

    def test_closed_form_memory_stays_below_three_floats_per_complete_row(self):
        # 120918 complete rows, 19 MB as M floats each: the closed form holds
        # the centred payoffs and one histogram's codes at a time
        m = 20
        cset = materialize(plan_for(ST_SHAP, m, 120918, seed=7))
        assert cset.n_complete == len(cset)
        values = np.random.default_rng(0).normal(size=len(cset))
        dense = fit(cset, values, 0.0, 1.0)
        bound = cset.n_complete * 3 * 8
        assert self._peak_bytes(lambda: fit(cset, values, 0.0, 1.0)) < bound
        assert self._peak_bytes(lambda: sparsify(dense, 10, cset, values)) < bound

    def test_closed_form_does_not_depend_on_the_complete_rows_order(self):
        # payoffs that grow with the coalition size, so every layer has its
        # own mean; shuffled rows split each layer into runs of one weight
        m = 8
        rng = np.random.default_rng(21)
        cset = materialize(plan_for(ST_SHAP, m, 184, seed=0))
        assert cset.n_complete == len(cset)
        values = 3.0 * cset.masks.sum(axis=1) ** 2 + rng.normal(size=len(cset))
        order = rng.permutation(len(cset))
        shuffled = WeightedCoalitionSet(cset.masks[order], cset.weights[order],
                                        cset.n_complete)
        want = fit(cset, values, 0.5, 190.0)
        got = fit(shuffled, values[order], 0.5, 190.0)
        assert np.allclose(got.phis, want.phis, rtol=0, atol=1e-12)
        assert np.allclose(sparsify(got, 3, shuffled, values[order]).phis,
                           sparsify(want, 3, cset, values).phis, rtol=0, atol=1e-12)

    def test_closed_form_keeps_full_precision_over_many_complete_rows(self):
        # seven complete layers, 188366 rows: every r_j sums about 10^5
        # weighted payoffs that share each layer's offset, which cancels only
        # in the differences p depends on
        m, budget = 19, 188366
        rng = np.random.default_rng(budget + m)
        table = rng.normal(size=2**m)
        phi0, fx = table[0], table[-1]
        cset = materialize(plan_for(ST_SHAP, m, budget, seed=7))
        assert cset.n_complete == len(cset)
        values = table[pack(cset.masks)]
        dense = fit(cset, values, phi0, fx)
        oracle = qr_constrained_lstsq(cset.masks, cset.weights, values, phi0, fx)
        assert np.abs(dense.phi_array() - oracle).max() <= 1e-13 * np.abs(oracle).max()


    def test_closed_form_sums_a_large_head_to_near_long_double_precision(self):
        # payoffs that saturate with the coalition size, 50 tanh(|S|/3), plus
        # N(0, 1) noise: seven complete layers whose offsets differ widely,
        # against the closed form computed in long double
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("long double is no wider than double here")
        m, budget = 19, 188366
        cset = materialize(plan_for(ST_SHAP, m, budget, seed=7))
        assert cset.n_complete == len(cset)
        values = (50 * np.tanh(cset.masks.sum(axis=1) / 3)
                  + np.random.default_rng(5).normal(size=len(cset)))
        phi0, fx = 0.0, 50 * np.tanh(m / 3)
        got = fit(cset, values, phi0, fx).phi_array()
        ld = np.longdouble
        w = cset.weights.astype(ld)
        payoffs = w * (values.astype(ld) - ld(phi0))
        r = np.array([payoffs[cset.masks[:, j]].sum() for j in range(m)])
        a = w[cset.masks[:, 0] & ~cset.masks[:, 1]].sum()
        want = r / a + (ld(fx) - ld(phi0) - (r / a).sum()) / m
        assert np.abs(got - want).max() <= 5e-14 * np.abs(want).max()


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
        e = _game_fit(glove_game, budget=6, seed=9, k=2)
        d = json.loads(json.dumps(e.to_json_dict()))
        back = Explanation(**d | {"phis": tuple(d["phis"]), "support": tuple(d["support"])})
        assert back == e

    @pytest.mark.parametrize("strategy, budget", [(ST_SHAP, 182), (ST_SHAP, 500),
                                                  (KERNEL_SHAP, 182), (KERNEL_SHAP, 1000),
                                                  (KERNEL_SHAP, 20)])
    def test_head_sums_computed_once_and_equal_to_separate_calls(self, monkeypatch,
                                                                 strategy, budget):
        # kernel-shap at b=20 samples everything: no head, still one call
        rng = np.random.default_rng(budget)
        game = random_table_game(rng, 13)
        calls = []
        head_sums = explainer._head_sums
        monkeypatch.setattr(explainer, "_head_sums",
                            lambda *args: calls.append(1) or head_sums(*args))
        e = _game_fit(game, budget, seed=3, strategy=strategy, k=4)
        assert len(calls) == 1
        monkeypatch.undo()
        model = GameModel(game)
        cset = materialize(plan_for(strategy, 13, budget, 3))
        values = evaluate_batch(cset.masks, None, None, model)
        phi0, fx = anchors(None, None, model)
        dense = fit(cset, values, phi0, fx, strategy=strategy, budget=budget, seed=3)
        assert sparsify(dense, 4, cset, values) == e

    def test_complete_row_sums_of_another_set_are_refused(self):
        # a head without complete rows, one with them, and one of 8 features
        game = random_table_game(np.random.default_rng(5), 13)
        model = GameModel(game)
        phi0, fx = anchors(None, None, model)
        sets = [materialize(plan_for(KERNEL_SHAP, 13, 20, 3)),
                materialize(plan_for(ST_SHAP, 13, 182, 3))]
        values = [evaluate_batch(c.masks, None, None, model) for c in sets]
        heads = [explainer._head_sums(c, v, phi0) for c, v in zip(sets, values)]
        heads.append((np.ones(8), 1.0))
        for i, j in [(0, 1), (1, 0), (0, 2), (1, 2)]:
            with pytest.raises(ValueError, match="another coalition set"):
                fit(sets[i], values[i], phi0, fx, _head=heads[j])
        dense = fit(sets[1], values[1], phi0, fx)
        with pytest.raises(ValueError, match="another coalition set"):
            sparsify(dense, 4, sets[1], values[1], _head=heads[0])
        assert sparsify(dense, 4, sets[1], values[1], _head=heads[1]) == \
            sparsify(dense, 4, sets[1], values[1])
