import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableshap.coalitions import (
    complete_layer_budgets,
    kernel_weight,
    layer_size,
    layer_total_weight,
    n_layers,
)
from stableshap.sampling import (
    KERNEL_SHAP,
    ST_SHAP,
    WeightedCoalitionSet,
    materialize,
    plan_kernel_shap,
    plan_st_shap,
    validate_budget,
)


def _packed(masks):
    return [row.tobytes() for row in np.packbits(masks, axis=1)]


class TestPlanKernelShap:
    def test_m15_budget_1200_switches_after_layer_2(self):
        # enough budget remains for layer 3 (960 >= 910) but its weight share
        # does not justify it, so everything left goes to the random pool
        plan = plan_kernel_shap(15, 1200, seed=0)
        assert plan.complete_layers == (1, 2)
        assert plan.sampled_layers == (3, 4, 5, 6, 7)
        assert plan.n_sampled == 960

    def test_m15_budget_240_weight_rule_refuses_layer_2(self):
        # the leftover 210 covers layer 2 exactly, but layer 2's weight share
        # of the remaining pool (~0.26) makes its expected draws ~56 < 210,
        # so the generator goes random; only the st-shap variant is
        # deterministic at this budget
        plan = plan_kernel_shap(15, 240, seed=0)
        assert plan.complete_layers == (1,)
        assert plan.sampled_layers == (2, 3, 4, 5, 6, 7)
        assert plan.n_sampled == 210
        st_plan = plan_st_shap(15, 240, seed=0)
        assert st_plan.complete_layers == (1, 2)
        assert st_plan.n_sampled == 0

    def test_m4_full_budget_all_complete(self):
        plan = plan_kernel_shap(4, 14, seed=0)
        assert plan.complete_layers == (1, 2)
        assert plan.n_sampled == 0


class TestPlanStShap:
    def test_m15_budget_1200(self):
        plan = plan_st_shap(15, 1200, seed=0)
        assert plan.complete_layers == (1, 2, 3)
        assert plan.sampled_layers == (4,)
        assert plan.n_sampled == 50
        assert plan.layer_counts() == [30, 210, 910, 50, 0, 0, 0]

    def test_m13_budget_754(self):
        plan = plan_st_shap(13, 754, seed=0)
        assert plan.complete_layers == (1, 2, 3)
        assert plan.n_sampled == 0

    def test_m15_budget_30_layer1_only(self):
        plan = plan_st_shap(15, 30, seed=0)
        assert plan.complete_layers == (1,)
        assert plan.n_sampled == 0

    @given(st.integers(2, 14), st.data())
    def test_monotone_in_budget(self, m, data):
        top = 2**m - 2
        small = data.draw(st.integers(2, top))
        big = data.draw(st.integers(small, top))
        a = plan_st_shap(m, small, seed=0)
        b = plan_st_shap(m, big, seed=0)
        assert set(a.complete_layers) <= set(b.complete_layers)


class TestBudgetValidation:
    def test_bounds(self):
        with pytest.raises(ValueError, match=r"\[2, 14\]"):
            validate_budget(4, 15)
        with pytest.raises(ValueError):
            validate_budget(4, 1)
        validate_budget(4, 14)

    @given(st.integers(2, 12), st.data())
    def test_plans_sum_to_budget(self, m, data):
        budget = data.draw(st.integers(2, 2**m - 2))
        for plan in (plan_st_shap(m, budget, 0), plan_kernel_shap(m, budget, 0)):
            total = sum(layer_size(m, i) for i in plan.complete_layers)
            assert total + plan.n_sampled == budget

    @given(st.integers(2, 12), st.data())
    def test_strategies_agree_when_weight_rule_never_fires(self, m, data):
        budget = data.draw(st.integers(2, 2**m - 2))
        ks = plan_kernel_shap(m, budget, 0)
        st_plan = plan_st_shap(m, budget, 0)
        stopped_by_weight = False
        if len(ks.complete_layers) < n_layers(m):
            next_layer = len(ks.complete_layers) + 1
            stopped_by_weight = ks.n_sampled >= layer_size(m, next_layer)
        if not stopped_by_weight:
            assert ks.complete_layers == st_plan.complete_layers
            assert ks.n_sampled == st_plan.n_sampled


class TestMaterialize:
    def test_complete_layers_carry_exact_kernel_weights(self):
        plan = plan_st_shap(6, 42, seed=1)  # layers 1 and 2 complete
        cset = materialize(plan)
        cset.validate()
        sizes = cset.masks.sum(axis=1)
        for layer in (1, 2):
            in_layer = (sizes == layer) | (sizes == 6 - layer)
            expected = kernel_weight(6, layer)
            assert np.all(cset.weights[in_layer] == expected)

    @pytest.mark.parametrize("m", [2, 5, 8])
    def test_complete_exactly_when_nothing_sampled(self, m):
        for budget in range(2, 2**m - 1):
            for plan in (plan_st_shap(m, budget, 3), plan_kernel_shap(m, budget, 3)):
                cset = materialize(plan)
                assert cset.complete == (plan.n_sampled == 0)
                cset.validate()

    def test_validate_checks_a_complete_claim(self):
        cset = materialize(plan_st_shap(6, 42, seed=1))
        assert cset.complete
        missing = WeightedCoalitionSet(cset.masks[1:], cset.weights[1:], complete=True)
        with pytest.raises(ValueError, match="missing"):
            missing.validate()
        weights = cset.weights.copy()
        weights[0] *= 2.0
        uneven = WeightedCoalitionSet(cset.masks, weights, complete=True)
        with pytest.raises(ValueError, match="unequally"):
            uneven.validate()
        sampled = materialize(plan_st_shap(6, 50, seed=1))
        assert not sampled.complete
        with pytest.raises(ValueError, match="missing"):
            WeightedCoalitionSet(sampled.masks, sampled.weights, complete=True).validate()

    def test_st_shap_seed_changes_only_sampled_tail(self):
        a = materialize(plan_st_shap(15, 1200, seed=1))
        b = materialize(plan_st_shap(15, 1200, seed=2))
        assert np.array_equal(a.masks[:1150], b.masks[:1150])
        assert np.array_equal(a.weights, b.weights)
        assert not np.array_equal(a.masks[1150:], b.masks[1150:])
        # the tails are different draws from the same layer
        assert set(a.masks[1150:].sum(axis=1)) <= {4, 11}
        assert set(b.masks[1150:].sum(axis=1)) <= {4, 11}

    def test_st_shap_weight_total_preserves_layer_weight(self):
        plan = plan_st_shap(15, 1200, seed=3)
        cset = materialize(plan)
        expected = sum(layer_total_weight(15, i) for i in (1, 2, 3))
        expected += layer_total_weight(15, 4)
        assert cset.weights.sum() == pytest.approx(expected, rel=1e-12)

    def test_st_shap_bit_deterministic_at_complete_budgets(self):
        for _, budget in complete_layer_budgets(13)[:3]:
            sets = [materialize(plan_st_shap(13, budget, seed=s)) for s in range(5)]
            first = sets[0]
            for other in sets[1:]:
                assert np.array_equal(first.masks, other.masks)
                assert np.array_equal(first.weights, other.weights)

    def test_same_seed_reproduces_exactly(self):
        for strategy, planner in ((ST_SHAP, plan_st_shap),
                                  (KERNEL_SHAP, plan_kernel_shap)):
            a = materialize(planner(12, 500, seed=9))
            b = materialize(planner(12, 500, seed=9))
            assert np.array_equal(a.masks, b.masks)
            assert np.array_equal(a.weights, b.weights)

    def test_kernel_shap_random_pool_weight_total(self):
        plan = plan_kernel_shap(15, 1200, seed=5)
        cset = materialize(plan)
        cset.validate()
        assert len(cset) == 1200
        pool_weight = sum(layer_total_weight(15, i) for i in (3, 4, 5, 6, 7))
        fixed_weight = sum(layer_total_weight(15, i) for i in (1, 2))
        assert cset.weights.sum() == pytest.approx(fixed_weight + pool_weight,
                                                   rel=1e-12)
        # the random block stays inside the non-complete layers
        tail_sizes = cset.masks[240:].sum(axis=1)
        assert set(tail_sizes) <= set(range(3, 13))

    def test_kernel_shap_duplicates_merged(self):
        # tiny space forces collisions: budget close to the full population
        plan = plan_kernel_shap(4, 13, seed=8)
        cset = materialize(plan)
        cset.validate()  # raises on duplicates
        assert len(cset) == 13

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 12), st.data())
    def test_materialized_sets_are_proper_and_dedup(self, m, data):
        budget = data.draw(st.integers(2, 2**m - 2))
        seed = data.draw(st.integers(0, 2**32 - 1))
        for planner in (plan_st_shap, plan_kernel_shap):
            cset = materialize(planner(m, budget, seed))
            cset.validate()
            sizes = cset.masks.sum(axis=1)
            assert np.all(sizes > 0) and np.all(sizes < m)
            if planner is plan_st_shap:
                assert len(cset) == budget

    def test_complete_enumeration_order_matches_layers(self):
        plan = plan_st_shap(6, 62, seed=0)  # everything complete
        cset = materialize(plan)
        from stableshap.coalitions import layer_masks
        expected = np.vstack([layer_masks(6, i) for i in (1, 2, 3)])
        assert np.array_equal(cset.masks, expected)


class TestHugeLayerSampling:
    # populations too large to enumerate exercise the unranking and
    # rejection fallbacks of the within-layer sampler

    def _draws(self, m, layer, n, seed=4):
        from stableshap.sampling import _layer_sample_masks
        rng = np.random.Generator(np.random.Philox(seed))
        return _layer_sample_masks(rng, m, layer, n)

    def test_unranked_path(self):
        m, layer, n = 45, 5, 40  # 2*C(45,5) ~ 2.4M members, over the enum limit
        masks = self._draws(m, layer, n)
        assert masks.shape == (n, m)
        assert set(masks.sum(axis=1)) <= {layer, m - layer}
        assert len({row.tobytes() for row in np.packbits(masks, axis=1)}) == n

    def test_unranked_path_deterministic(self):
        a = self._draws(45, 5, 25, seed=7)
        b = self._draws(45, 5, 25, seed=7)
        assert np.array_equal(a, b)
        c = self._draws(45, 5, 25, seed=8)
        assert not np.array_equal(a, c)

    def test_rejection_path_beyond_int64(self):
        m, layer, n = 80, 20, 15  # 2*C(80,20) overflows the position sampler
        masks = self._draws(m, layer, n)
        assert masks.shape == (n, m)
        assert set(masks.sum(axis=1)) <= {layer, m - layer}
        assert len({row.tobytes() for row in np.packbits(masks, axis=1)}) == n
