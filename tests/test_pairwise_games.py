"""Pairwise games: exact Shapley values at any M, and the fits that find them.

A game with interactions of order at most two has a closed-form Shapley value
(`conftest.PairwiseGame`), so these checks reach far past the exact oracle's
cap. Layer-1, every complete-layer budget, and any complement-closed set
whose pairs share one weight reproduce it, kernel-shap's paired draws among
them; the same sets without their complements, or a game with one
third-order term, do not.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stableshap import (
    KERNEL_SHAP,
    ST_SHAP,
    CallableModel,
    exact_shap,
    explain,
    layer1_attribution,
)
from stableshap.coalitions import complete_layer_budgets, kernel_weight, layer_masks, pack
from stableshap.explainer import explain_with_training_set, fit
from stableshap.sampling import WeightedCoalitionSet

from conftest import PairwiseGame, design_rank_oracle

# tolerance, as a share of max|phi|
EXACT = 1e-11
# complete budgets up to this many coalitions: layers 1-3 at M=64 and M=70
MAX_COMPLETE = 120_000


def _error(phis, game) -> float:
    want = game.shapley()
    return float(np.abs(np.asarray(phis) - want).max() / np.abs(want).max())


@pytest.mark.parametrize("m", [5, 13, 30, 64, 70])
class TestExactAtAnyM:
    def test_layer1(self, m):
        game = PairwiseGame.random(np.random.default_rng(m), m)
        assert _error(layer1_attribution(None, game, None).phis, game) <= EXACT

    def test_every_complete_budget(self, m):
        game = PairwiseGame.random(np.random.default_rng(100 + m), m)
        budgets = [b for _, b in complete_layer_budgets(m) if b <= MAX_COMPLETE]
        assert budgets
        for budget in budgets:
            e = explain(None, game, None, ST_SHAP, budget, seed=budget)
            assert _error(e.phis, game) <= EXACT, budget

    def test_layer1_through_a_row_model(self, m):
        # with x all ones and one zero background row, a substituted row is
        # its mask, so the row model's payoffs are the game's; past M=64 the
        # payoff memo keys masks as void bytes
        game = PairwiseGame.random(np.random.default_rng(200 + m), m)
        model = CallableModel(game.coalition_values, m)
        e = layer1_attribution(np.ones(m), model, np.zeros((1, m)))
        assert _error(e.phis, game) <= EXACT


def _pairs_outside_layer1(m: int) -> int:
    return (2**m - 2 - 2 * m) // 2


def _paired_set(rng, m: int, n_pairs: int, with_head: bool):
    """Layer 1 at its kernel weights (or nothing), then ``n_pairs`` distinct
    coalitions outside it, each followed by its complement at the same
    random weight. Returns (masks, weights, rows of layer 1, rows of the
    first of each pair)."""
    head = layer_masks(m, 1) if with_head else np.zeros((0, m), dtype=bool)
    head_weights = np.full(len(head), kernel_weight(m, 1))
    seen = set(pack(head).tolist())
    firsts = []
    while len(firsts) < n_pairs:
        mask = rng.random(m) < rng.uniform(0.2, 0.8)
        size = int(mask.sum())
        if not 2 <= size <= m - 2:
            continue
        key, partner = pack(mask[None])[0], pack(~mask[None])[0]
        if key in seen:
            continue
        seen.update((key, partner))
        firsts.append(mask)
    firsts = np.array(firsts)
    sampled = np.stack([firsts, ~firsts], axis=1).reshape(-1, m)
    masks = np.vstack([head, sampled])
    weights = np.concatenate([head_weights,
                              np.repeat(rng.uniform(0.1, 1.0, n_pairs), 2)])
    return masks, weights, len(head), len(head) + 2 * np.arange(n_pairs)


def _fit_error(game, masks, weights, n_complete) -> float:
    cset = WeightedCoalitionSet(masks, weights, n_complete=n_complete)
    values = game.coalition_values(masks)
    fx = game.coalition_values(np.ones((1, game.n_features), dtype=bool))[0]
    return _error(fit(cset, values, 0.0, fx).phis, game)


class TestComplementClosedSets:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(5, 12), st.integers(0, 2**32 - 1), st.booleans(), st.data())
    def test_pair_equal_weights_give_the_shapley_values(self, m, seed, with_head, data):
        n_pairs = data.draw(st.integers(1 if with_head else m // 2,
                                        min(3 * m, _pairs_outside_layer1(m))))
        rng = np.random.default_rng(seed)
        masks, weights, n_complete, _ = _paired_set(rng, m, n_pairs, with_head)
        # rank-deficient sets take the least-norm path, which is not exact
        assume(design_rank_oracle(masks, weights) == m - 1)
        game = PairwiseGame.random(rng, m)
        assert _fit_error(game, masks, weights, n_complete) <= EXACT

    @pytest.mark.parametrize("m", [5, 8, 12])
    @pytest.mark.parametrize("with_head", [True, False])
    def test_the_same_sets_unpaired_are_not(self, m, with_head):
        # the guard that keeps the property above from holding for any set
        for seed in range(5):
            rng = np.random.default_rng(seed)
            masks, weights, n_complete, firsts = _paired_set(
                rng, m, min(2 * m, _pairs_outside_layer1(m)), with_head)
            game = PairwiseGame.random(rng, m)
            keep = np.r_[np.arange(n_complete), firsts]
            assert design_rank_oracle(masks[keep], weights[keep]) == m - 1
            assert _fit_error(game, masks[keep], weights[keep], n_complete) > 0.1


class TestKernelShapPairs:
    # at an odd M every layer has an even size, so an even budget leaves an
    # even sampled remainder: every draw brings its complement, and the
    # sampled rows form pairs at one weight each
    @pytest.mark.parametrize("m,budgets", [(9, (60, 100, 200)),
                                           (11, (60, 200, 1000, 1500)),
                                           (13, (100, 200, 1000, 1500))])
    def test_exact_when_every_draw_came_in_pairs(self, m, budgets):
        game = PairwiseGame.random(np.random.default_rng(300 + m), m)
        for budget in budgets:
            for seed in range(3):
                e, cset, _ = explain_with_training_set(None, game, None, KERNEL_SHAP,
                                                       budget, seed)
                sampled = cset.masks[cset.n_complete:]
                assert len(sampled) > 0
                assert set(pack(sampled).tolist()) == set(pack(~sampled).tolist())
                assert design_rank_oracle(cset.masks, cset.weights) == m - 1
                assert _error(e.phis, game) <= EXACT, (budget, seed)

    @pytest.mark.parametrize("m,budget", [(9, 61), (11, 201), (13, 1001)])
    def test_not_exact_with_a_last_subset_alone(self, m, budget):
        # an odd budget ends the draws on a subset without its complement
        game = PairwiseGame.random(np.random.default_rng(300 + m), m)
        for seed in range(3):
            e = explain(None, game, None, KERNEL_SHAP, budget, seed)
            assert _error(e.phis, game) > 1e-6, seed


def test_one_third_order_term_breaks_layer1():
    # v + c z0 z1 z2 at M=10: layer-1 gives each of features 0-2 c/2 - c/(2M)
    # of the term where the Shapley value gives c/3, so it is 7c/60 off
    m, c = 10, 1.0
    game = PairwiseGame.random(np.random.default_rng(3), m)
    model = CallableModel(
        lambda rows: game.coalition_values(rows) + c * rows[:, :3].prod(axis=1), m)
    x, background = np.ones(m), np.zeros((1, m))
    want = exact_shap(x, model, background).phi_array()
    got = layer1_attribution(x, model, background).phi_array()
    assert np.allclose(want[3:], game.shapley()[3:], atol=1e-12)
    assert np.abs(got - want).max() == pytest.approx(7 * c / 60, abs=1e-12)
