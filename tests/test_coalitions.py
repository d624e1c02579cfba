import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stableshap.coalitions import (
    colex_unrank,
    complete_layer_budgets,
    kernel_weight,
    layer_masks,
    layer_member,
    layer_size,
    n_layers,
)

m_and_layer = st.integers(2, 12).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(1, m // 2))
)


class TestLayerSize:
    def test_m15_layer3(self):
        assert layer_size(15, 3) == 910

    def test_m15_layer7(self):
        assert layer_size(15, 7) == 12870

    def test_m4_layer2_halves_coincide(self):
        # oracle: enumerate all 4-bit masks with two bits set
        masks = [c for c in itertools.product([0, 1], repeat=4) if sum(c) == 2]
        assert layer_size(4, 2) == len(masks) == 6

    def test_invalid_layer_rejected(self):
        with pytest.raises(ValueError):
            layer_size(4, 3)
        with pytest.raises(ValueError):
            layer_size(4, 0)

    def test_m1_rejected(self):
        with pytest.raises(ValueError):
            layer_size(1, 1)
        with pytest.raises(ValueError):
            n_layers(1)

    @given(m_and_layer)
    def test_matches_enumeration_oracle(self, ml):
        m, i = ml
        expected = sum(
            1 for c in itertools.product([0, 1], repeat=m) if sum(c) in {i, m - i}
        )
        assert layer_size(m, i) == expected


def _bitstrings(masks) -> list[str]:
    return ["".join("1" if b else "0" for b in row) for row in masks]


class TestEnumerateLayer:
    def test_m4_layer1_exact_order(self):
        got = _bitstrings(layer_masks(4, 1))
        assert got == ["1000", "0111", "0100", "1011", "0010", "1101", "0001", "1110"]

    def test_m4_layer2_each_mask_once(self):
        got = layer_masks(4, 2)
        assert len(got) == 6
        assert all(row.sum() == 2 for row in got)
        assert len(set(_bitstrings(got))) == 6

    def test_m2_layer1(self):
        assert set(_bitstrings(layer_masks(2, 1))) == {"10", "01"}

    @given(m_and_layer)
    def test_complete_no_duplicates(self, ml):
        m, i = ml
        masks = layer_masks(m, i)
        assert len(masks) == layer_size(m, i)
        assert len(set(_bitstrings(masks))) == len(masks)
        assert all(row.sum() in {i, m - i} for row in masks)

    @given(m_and_layer)
    def test_order_stable_across_calls(self, ml):
        m, i = ml
        first = layer_masks(m, i).copy()
        layer_masks.cache_clear()
        assert np.array_equal(layer_masks(m, i), first)

    @given(m_and_layer)
    def test_layer_member_matches_enumeration(self, ml):
        m, i = ml
        masks = layer_masks(m, i)
        for pos in range(layer_size(m, i)):
            assert np.array_equal(layer_member(m, i, pos), masks[pos])

    def test_colex_unrank_roundtrip(self):
        for m, k in [(6, 2), (7, 3), (5, 1)]:
            ordered = sorted(itertools.combinations(range(m), k), key=lambda t: t[::-1])
            for rank, expected in enumerate(ordered):
                assert colex_unrank(rank, k) == expected


class TestKernelWeight:
    def test_m4_values(self):
        # direct evaluation: (M-1) / (C(M,s) s (M-s))
        assert kernel_weight(4, 1) == pytest.approx(0.25)
        assert kernel_weight(4, 2) == pytest.approx(0.125)

    def test_infinite_endpoints(self):
        for s in (0, 4):
            with pytest.raises(ValueError):
                kernel_weight(4, s)

    def test_infinite_marker_is_not_float_inf(self):
        # the endpoints raise instead of returning inf, so no infinite weight
        # can leak into a regression weight vector
        for m in (2, 5):
            for s in (0, m):
                with pytest.raises(ValueError, match="proper coalition size"):
                    kernel_weight(m, s)

    @given(st.integers(2, 20))
    def test_symmetry(self, m):
        for s in range(1, m):
            assert kernel_weight(m, s) == pytest.approx(kernel_weight(m, m - s))

    @given(st.integers(4, 20))
    def test_strictly_decreasing_toward_middle(self, m):
        values = [kernel_weight(m, s) for s in range(1, m // 2 + 1)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestCompleteLayerBudgets:
    def test_m13(self):
        assert complete_layer_budgets(13)[:3] == [(1, 26), (2, 182), (3, 754)]

    def test_m15(self):
        assert complete_layer_budgets(15)[:4] == [
            (1, 30), (2, 240), (3, 1150), (4, 3880),
        ]

    def test_m2(self):
        assert complete_layer_budgets(2) == [(1, 2)]

    @given(st.integers(2, 16))
    def test_last_budget_covers_all_proper_coalitions(self, m):
        assert complete_layer_budgets(m)[-1][1] == 2**m - 2
