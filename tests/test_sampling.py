import tracemalloc
from itertools import product
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stableshap import GameModel, SyntheticGame, explain
from stableshap.coalitions import (
    complete_layer_budgets,
    kernel_weight,
    layer_size,
    layer_total_weight,
    n_layers,
    pack,
    unpack,
)
from stableshap.explainer import fit, sparsify
from stableshap.games import RULE_ADDITIVE
from stableshap.sampling import (
    _ENUM_LIMIT,
    BYTE_CAP,
    COALITION_FEATURE_BYTES,
    KERNEL_SHAP,
    ST_SHAP,
    WeightedCoalitionSet,
    _global_sample,
    _random_subsets,
    materialize,
    plan_kernel_shap,
    plan_st_shap,
    validate_budget,
)

from conftest import (
    check_coalition_set,
    global_sample_reference,
    layer_member_oracle,
    pack_reference,
)


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _drawn_subsets(masks, mult):
    """Sizes and multiplicities of the masks kernel-shap's sampler drew, not
    the complements that came with them: the sides of at most M/2 features."""
    sizes = masks.sum(axis=1)
    drawn = 2 * sizes <= masks.shape[1]
    return sizes[drawn], mult[drawn]


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

    @pytest.mark.parametrize("m", range(2, 11))
    def test_fills_layers_in_order_while_they_fit(self, m):
        # the reference: whole layers while the budget covers them, then the
        # leftover inside the next layer
        for budget in range(2, 2**m - 1):
            complete, left = [], budget
            for i in range(1, m // 2 + 1):
                if left < layer_size(m, i):
                    break
                complete.append(i)
                left -= layer_size(m, i)
            plan = plan_st_shap(m, budget, seed=0)
            assert plan.complete_layers == tuple(complete)
            assert plan.sampled_layers == ((len(complete) + 1,) if left else ())
            assert plan.n_sampled == left

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

    @pytest.mark.parametrize("strategy", [ST_SHAP, KERNEL_SHAP])
    def test_a_budget_past_the_byte_cap_is_refused_before_any_allocation(self, strategy):
        """M=40, b=10^10 is in range, and its plans sample 2.9e9 (st-shap)
        and 9.25e9 (kernel-shap) coalitions, terabytes: `explain` refuses it
        while under 1 MiB."""
        game = GameModel(SyntheticGame(40, RULE_ADDITIVE, weights=np.ones(40)))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^budget 10000000000 for M=40: .* "
                               r"estimated 8e\+12 bytes, over the cap of 1073741824 bytes"):
                explain(None, game, None, strategy, 10**10, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_the_byte_cap_is_13_times_the_largest_workload_budget(self):
        """game-m20's 200000 at M=20 is an estimated 80 MB, 1/13 of the cap,
        which no budget reaches below M=22; at M=40 it lets through 1.34e6."""
        assert 200000 * 20 * COALITION_FEATURE_BYTES * 13 <= BYTE_CAP
        validate_budget(21, 2**21 - 2)
        with pytest.raises(ValueError, match="over the cap"):
            validate_budget(22, 2**22 - 2)
        largest = BYTE_CAP // (40 * COALITION_FEATURE_BYTES)
        validate_budget(40, largest)
        with pytest.raises(ValueError, match="over the cap"):
            validate_budget(40, largest + 1)

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
        check_coalition_set(cset)
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
                assert cset.n_complete == sum(layer_size(m, i) for i in plan.complete_layers)
                assert (cset.n_complete == len(cset)) == (plan.n_sampled == 0)
                check_coalition_set(cset)

    def test_validate_checks_a_complete_claim(self):
        cset = materialize(plan_st_shap(6, 42, seed=1))
        assert cset.n_complete == len(cset)
        missing = WeightedCoalitionSet(cset.masks[1:], cset.weights[1:], n_complete=41)
        with pytest.raises(ValueError, match="missing"):
            check_coalition_set(missing)
        weights = cset.weights.copy()
        weights[0] *= 2.0
        uneven = WeightedCoalitionSet(cset.masks, weights, n_complete=42)
        with pytest.raises(ValueError, match="unequally"):
            check_coalition_set(uneven)
        sampled = materialize(plan_st_shap(6, 50, seed=1))
        assert sampled.n_complete == 42
        with pytest.raises(ValueError, match="missing"):
            check_coalition_set(
                WeightedCoalitionSet(sampled.masks, sampled.weights, n_complete=50))
        with pytest.raises(ValueError, match="n_complete"):
            WeightedCoalitionSet(sampled.masks, sampled.weights, n_complete=51)

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
        check_coalition_set(cset)
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
        check_coalition_set(cset)  # raises on duplicates
        assert len(cset) == 13

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 12), st.data())
    def test_materialized_sets_are_proper_and_dedup(self, m, data):
        budget = data.draw(st.integers(2, 2**m - 2))
        seed = data.draw(st.integers(0, 2**32 - 1))
        for planner in (plan_st_shap, plan_kernel_shap):
            cset = materialize(planner(m, budget, seed))
            check_coalition_set(cset)
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


class TestKeys:
    """Every set carries each mask's pack() key, however it was made."""

    # (M, budget): complete and ragged budgets for both strategies; at M=65,
    # b=91700 st-shap samples layer 4, whose 1.35M masks are over the
    # enumeration limit and unranked; kernel-shap keys M > 64 as void
    CASES = [(2, 2), (13, 26), (13, 182), (13, 50), (13, 1000), (20, 420), (20, 3000),
             (20, 43398), (65, 130), (65, 500), (65, 91700), (100, 200), (100, 500)]

    @pytest.mark.parametrize("m, budget", CASES)
    @pytest.mark.parametrize("planner", [plan_st_shap, plan_kernel_shap])
    def test_materialized_keys_are_the_masks_keys(self, m, budget, planner):
        plan = planner(m, budget, seed=5)
        cset = materialize(plan)
        want = pack_reference(cset.masks)
        assert cset.keys.dtype == want.dtype and cset.keys.tobytes() == want.tobytes()
        if (m, budget) == (65, 91700) and planner is plan_st_shap:
            assert plan.n_sampled and layer_size(m, plan.sampled_layers[0]) > _ENUM_LIMIT

    @pytest.mark.parametrize("m, budget", [(13, 500), (20, 3000), (16, 10000),
                                           (19, 188366), (20, 200000), (65, 500),
                                           (100, 500)])
    @pytest.mark.parametrize("strategy", [ST_SHAP, KERNEL_SHAP])
    def test_a_set_made_from_masks_alone_fits_bit_for_bit(self, m, budget, strategy):
        planner = plan_st_shap if strategy == ST_SHAP else plan_kernel_shap
        cset = materialize(planner(m, budget, seed=2))
        bare = WeightedCoalitionSet(cset.masks, cset.weights, cset.n_complete)
        assert bare.keys.tobytes() == cset.keys.tobytes()
        values = np.random.default_rng(budget).normal(size=len(cset))
        dense = fit(cset, values, 0.1, 2.3)
        assert fit(bare, values, 0.1, 2.3) == dense
        for k in (4, 10):
            assert sparsify(dense, k, bare, values) == sparsify(dense, k, cset, values)

    def test_misaligned_keys_are_refused(self):
        cset = materialize(plan_st_shap(13, 200, seed=1))
        wide = materialize(plan_kernel_shap(65, 200, seed=1))
        for masks, keys in [(cset.masks, cset.keys[1:]),
                            (cset.masks, np.concatenate([cset.keys, cset.keys[:1]])),
                            (cset.masks, cset.keys[:, None]),
                            (cset.masks, cset.keys.astype(np.int64)),
                            (cset.masks, cset.keys.astype("<u4")),
                            (wide.masks, wide.keys.view("<u8")[::2])]:
            with pytest.raises(ValueError, match="keys must align"):
                WeightedCoalitionSet(masks, np.ones(len(masks)), 0, keys)


class TestHugeLayerSampling:
    # populations too large to enumerate are drawn by position and unranked;
    # every layer st-shap can sample in fits the int64 position sampler

    def _draws(self, m, layer, n, seed=4):
        from stableshap.sampling import _layer_sample_masks
        rng = np.random.Generator(np.random.Philox(seed))
        masks, _ = _layer_sample_masks(rng, m, layer, n)
        return masks

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

    def test_unranked_draws_match_scalar_oracle(self):
        m, layer, n = 45, 5, 30
        positions = np.sort(_rng(4).choice(layer_size(m, layer), size=n, replace=False))
        expected = np.array([layer_member_oracle(m, layer, int(p)) for p in positions])
        assert np.array_equal(self._draws(m, layer, n, seed=4), expected)

    @pytest.mark.parametrize("m,layer,n", [(13, 3, 100), (20, 7, 5000), (24, 5, 40)])
    def test_enum_limit_only_decides_caching(self, m, layer, n, monkeypatch):
        import stableshap.sampling as sampling
        cached = self._draws(m, layer, n)
        monkeypatch.setattr(sampling, "_ENUM_LIMIT", 0)  # unrank every draw
        assert np.array_equal(self._draws(m, layer, n), cached)

    def test_unranked_path_near_int64(self):
        m, layer, n = 80, 20, 15  # 2*C(80,20) ~ 7.07e18 is still below 2^63
        masks = self._draws(m, layer, n)
        assert masks.shape == (n, m)
        assert set(masks.sum(axis=1)) <= {layer, m - layer}
        assert len({row.tobytes() for row in np.packbits(masks, axis=1)}) == n


class TestKernelShapSampler:
    """The vectorized random phase against the per-draw reference loop."""

    def _both(self, plan):
        args = (plan.n_features, plan.sampled_layers, plan.n_sampled)
        return (_global_sample(_rng(plan.seed), *args),
                global_sample_reference(_rng(plan.seed), *args))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 80), st.integers(0, 2**32 - 1), st.data())
    def test_matches_reference_loop(self, m, seed, data):
        plan = plan_kernel_shap(m, data.draw(st.integers(2, min(2**m - 2, 3000))), seed)
        assume(plan.n_sampled > 0)
        (masks, _, mult), (ref_masks, ref_mult) = self._both(plan)
        assert np.array_equal(masks, ref_masks)
        assert np.array_equal(mult, ref_mult)
        assert mult.dtype == ref_mult.dtype == np.float64

    # M=10, b=1000 draws 230 of layer 5's 252 masks with many repeats, so a
    # multiplicity counted past the cut shows there
    @pytest.mark.parametrize("m,budget", [(20, 43398), (20, 120918), (20, 200000),
                                          (10, 1000)])
    def test_matches_reference_loop_pinned(self, m, budget):
        plan = plan_kernel_shap(m, budget, 0)
        assert plan.n_sampled > 0
        (masks, _, mult), (ref_masks, ref_mult) = self._both(plan)
        assert np.array_equal(masks, ref_masks)
        assert np.array_equal(mult, ref_mult)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_every_subset_equally_often_over_all_draws(self, m):
        # Feeding every tuple of the integer draws the sampler asks for, each
        # s-subset must come out equally often: M! / C(M, s) times when each
        # feature j draws below M - j
        class Feed:
            def __init__(self, table):
                self.table, self.highs = table, []

            def integers(self, low, high, size, dtype):
                assert low == 0
                self.highs.append(high)
                return self.table[len(self.highs) - 1][:size].astype(dtype)

        probe = Feed(np.zeros((m, 1), dtype=int))
        _random_subsets(probe, m, np.ones(1, dtype=int))
        tuples = np.array(list(product(*(range(h) for h in probe.highs)))).T
        for s in range(m + 1):
            feed = Feed(tuples)
            masks = _random_subsets(feed, m, np.full(tuples.shape[1], s))
            assert feed.highs == probe.highs
            assert np.all(masks.sum(axis=1) == s)
            _, counts = np.unique(pack(masks), return_counts=True)
            assert len(counts) == comb(m, s)
            assert np.all(counts == factorial(m) // comb(m, s))

    @pytest.mark.parametrize("m", [6, 7, 9])
    def test_subset_frequencies_pass_chi_square(self, m):
        from scipy import stats
        for s in range(1, m):
            n = 40 * comb(m, s)
            masks = _random_subsets(_rng(100 + 10 * m + s), m, np.full(n, s))
            assert np.all(masks.sum(axis=1) == s)
            _, counts = np.unique(pack(masks), return_counts=True)
            assert len(counts) == comb(m, s)
            assert stats.chisquare(counts).pvalue > 1e-3

    def test_counted_sizes_pass_chi_square(self):
        # By Wald's identity the draws counted before the stop hold each
        # subset size in proportion to its layer's one-side weight, repeats
        # included, whatever the stopping rule; a draw is counted once, by
        # its subset
        from scipy import stats
        m, layers = 12, (2, 3, 4, 5, 6)
        p = np.array([comb(m, i) * kernel_weight(m, i) for i in layers])
        p /= p.sum()
        observed = np.zeros(len(layers))
        for seed in range(5):
            masks, _, mult = _global_sample(_rng(seed), m, layers, 2000)
            observed += np.bincount(*_drawn_subsets(masks, mult), minlength=m)[2:7]
        assert stats.chisquare(observed, observed.sum() * p).pvalue > 1e-3

    # layers 2 and up, about two thirds of their masks per run
    @pytest.mark.parametrize("m,n_distinct", [(7, 80), (8, 150)])
    def test_pair_frequencies_pass_chi_square(self, m, n_distinct):
        # each pair (or middle-layer mask) is drawn in proportion to the
        # kernel weight of its subset, summed over 200 stopped runs
        from scipy import stats
        layers = tuple(range(2, m // 2 + 1))
        observed = {}
        for seed in range(200):
            masks, _, mult = _global_sample(_rng(seed), m, layers, n_distinct)
            drawn = masks.sum(axis=1) <= m // 2
            for key, count in zip(pack(masks[drawn]).tolist(), mult[drawn]):
                observed[key] = observed.get(key, 0.0) + count
        keys = np.array(sorted(observed), dtype="<u8")
        sizes = unpack(keys, m).sum(axis=1)
        assert len(keys) == sum(comb(m, i) for i in layers)
        expected = np.array([kernel_weight(m, int(s)) for s in sizes])
        counts = np.array([observed[k] for k in keys.tolist()])
        assert stats.chisquare(counts, counts.sum() * expected / expected.sum()).pvalue > 1e-3

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 80), st.integers(0, 2**32 - 1), st.data())
    def test_masks_come_in_complement_pairs(self, m, seed, data):
        # each drawn subset is followed by its complement at the same
        # multiplicity, except in the middle layer of an even M and for a
        # last subset whose complement the budget had no room for
        plan = plan_kernel_shap(m, data.draw(st.integers(2, min(2**m - 2, 3000))), seed)
        assume(plan.n_sampled > 0)
        masks, _, mult = _global_sample(_rng(seed), m, plan.sampled_layers, plan.n_sampled)
        assert len(masks) == plan.n_sampled
        assert len(set(pack(masks).tolist())) == len(masks)
        sizes = masks.sum(axis=1)
        row, lone = 0, []
        while row < len(masks):
            if 2 * sizes[row] == m:
                row += 1
                continue
            assert 2 * sizes[row] < m  # the smaller side is drawn, and comes first
            if row + 1 < len(masks) and np.array_equal(masks[row + 1], ~masks[row]):
                assert mult[row] == mult[row + 1]
                row += 2
            else:
                lone.append(row)
                row += 1
        assert lone in ([], [len(masks) - 1])
        if lone:
            assert mult[-1] == 1  # it came with the draw that stopped the sampler

    @staticmethod
    def _made_and_counted(m, budget, seed):
        """Draws the sampler made (the sizes of its ``random`` calls) and the
        draws it counted (the multiplicities of the drawn subsets)."""
        class RecordingRng:
            def __init__(self):
                self.rng, self.made = _rng(seed), 0

            def random(self, size):
                self.made += size
                return self.rng.random(size)

            def integers(self, *args, **kwargs):
                return self.rng.integers(*args, **kwargs)

        plan = plan_kernel_shap(m, budget, seed)
        rng = RecordingRng()
        masks, _, mult = _global_sample(rng, m, plan.sampled_layers, plan.n_sampled)
        return rng.made, _drawn_subsets(masks, mult)[1].sum()

    @pytest.mark.parametrize("budget", [43398, 120918, 200000])
    def test_draws_made_track_draws_counted(self, budget):
        # sized from the expected repeat rate, one batch holds the masks with
        # a margin of 1% and 64 draws
        for seed in range(20):
            made, counted = self._made_and_counted(20, budget, seed)
            assert made <= 1.02 * counted + 64, (seed, made, counted)

    # Near saturation the draws counted spread widely (615 +- 44 at M=10,
    # b=1000), so the first batch sometimes falls short and half the draws
    # so far follow; the median keeps the 64-draw allowance of the margin
    @pytest.mark.parametrize("m,budget", [(10, 1000), (17, 131000)])
    def test_follow_up_batches_stay_bounded(self, m, budget):
        made, counted = np.array([self._made_and_counted(m, budget, seed)
                                  for seed in range(20)]).T
        assert np.median(made - 1.05 * counted) <= 64
        assert np.max(made / counted) <= 1.6

    @pytest.mark.parametrize("m", [57, 60, 100])
    def test_samples_beyond_56_features(self, m):
        # C(M, s) * s * (M - s) outgrows int64 here; M=100 keys masks as void
        plan = plan_kernel_shap(m, 500, seed=2)
        assert plan.n_sampled > 0
        cset = materialize(plan)
        check_coalition_set(cset)
        assert len(cset) == 500
        total = sum(layer_total_weight(m, i) for i in range(1, n_layers(m) + 1))
        assert cset.weights.sum() == pytest.approx(total, rel=1e-12)
