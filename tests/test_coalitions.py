import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableshap.coalitions import (
    _STREAM_ROWS,
    complement_keys,
    complete_layer_budgets,
    kernel_weight,
    key_bytes,
    layer_keys,
    layer_masks,
    layer_members,
    layer_size,
    n_layers,
    pack,
    unpack,
)

from conftest import (
    colex_layer_oracle,
    colex_unrank_oracle,
    layer_member_oracle,
    pack_reference,
)

m_and_layer = st.integers(2, 12).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(1, m // 2))
)


def _layouts(masks):
    """The same masks C-ordered, F-ordered, as every other row of a taller
    matrix, and as nonzero bytes, which pack casts to bool."""
    tall = np.zeros((2 * len(masks), masks.shape[1]), dtype=bool)
    tall[::2] = masks
    return {"C": np.ascontiguousarray(masks), "F": np.asfortranarray(masks),
            "strided": tall[::2], "uint8": masks.astype(np.uint8) * 3}


# row counts on both sides of pack's switch to its stream path; the last is
# no whole number of the stream's phase periods (1, 2, 4 or 8 rows)
_SWITCH_ROWS = (_STREAM_ROWS - 1, _STREAM_ROWS + 5)


class TestPack:
    @pytest.mark.parametrize("layout", ["C", "F", "strided", "uint8"])
    @pytest.mark.parametrize("m", [2, 7, 8, 9, 13, 16, 20, 57, 58, 63, 64, 65, 128, 130])
    def test_keys_match_python_int_reference(self, m, layout):
        rng = np.random.default_rng(m)
        width = -(-m // 64) * 8
        for n in (0, 1, 5, 1000, *_SWITCH_ROWS):
            # dense, sparse, empty and full rows
            masks = rng.random((n, m)) < rng.choice([0.0, 0.1, 0.5, 1.0], size=(n, 1))
            keys = pack(_layouts(masks)[layout])
            assert keys.shape == (n,) and keys.dtype.itemsize == width
            assert keys.dtype == (np.dtype("<u8") if m <= 64 else np.dtype((np.void, width)))
            for row, key in zip(masks, keys):
                expected = sum(1 << i for i in range(m) if row[i])
                if m <= 64:
                    assert int(key) == expected
                else:
                    assert key.tobytes() == expected.to_bytes(width, "little")

    @pytest.mark.parametrize("layout", ["C", "F", "strided", "uint8"])
    @pytest.mark.parametrize("m", range(2, 67))
    def test_matches_64_column_reference(self, m, layout):
        # every key width, 1 to 8 bytes and then 16, and both of pack's paths
        # up to the stream's widest row of 57 features: masks are padded only
        # to the narrowest width or not at all, and the keys must not show it
        rng = np.random.default_rng(1000 + m)
        for n in (0, 1, 97, *_SWITCH_ROWS):
            masks = rng.random((n, m)) < rng.choice([0.0, 0.1, 0.5, 1.0], size=(n, 1))
            keys, want = pack(_layouts(masks)[layout]), pack_reference(masks)
            assert keys.shape == (n,) and keys.dtype == want.dtype
            assert keys.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [2, 8, 9, 20, 64, 65, 130])
    def test_key_bytes_are_the_byte_codes_of_each_eight_features(self, m):
        rng = np.random.default_rng(m)
        masks = rng.random((50, m)) < 0.5
        codes = key_bytes(pack(masks))
        assert codes.dtype == np.uint8 and codes.shape == (50, -(-m // 64) * 8)
        for g in range(codes.shape[1]):
            want = [sum(1 << j for j in range(8) if 8 * g + j < m and row[8 * g + j])
                    for row in masks]
            assert codes[:, g].tolist() == want

    @pytest.mark.parametrize("m", [2, 13, 64, 65, 130])
    def test_complement_keys_are_the_complements_keys(self, m):
        rng = np.random.default_rng(m)
        masks = rng.random((40, m)) < 0.5
        where = rng.random(40) < 0.5
        keys = pack(masks)
        complement_keys(keys, where, m)
        want = pack_reference(np.where(where[:, None], ~masks, masks))
        assert keys.dtype == want.dtype and keys.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [1, 2, 7, 8, 9, 20, 63, 64])
    def test_unpack_inverts_pack(self, m):
        rng = np.random.default_rng(m)
        masks = rng.random((300, m)) < rng.choice([0.0, 0.1, 0.5, 1.0], size=(300, 1))
        got = unpack(pack(masks), m)
        assert got.dtype == bool and np.array_equal(got, masks)
        for key, mask in zip(range(300), unpack(np.arange(300), m)):
            assert mask.tolist() == [bool(key >> i & 1) for i in range(m)]


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

    @pytest.mark.parametrize("m, i", [(2, 1), (9, 4), (13, 3), (20, 5), (65, 2)])
    def test_layer_keys_are_the_cached_keys_of_layer_masks(self, m, i):
        keys = layer_keys(m, i)
        want = pack_reference(layer_masks(m, i))
        assert keys.dtype == want.dtype and keys.tobytes() == want.tobytes()
        assert layer_keys(m, i) is keys
        with pytest.raises(ValueError):
            keys[0] = keys[1]

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
            assert np.array_equal(layer_members(m, i, [pos]), masks[pos:pos + 1])
        shuffled = np.random.default_rng(m * 31 + i).permutation(len(masks))
        assert np.array_equal(layer_members(m, i, shuffled), masks[shuffled])

    def test_colex_unrank_roundtrip(self):
        for m, k in [(6, 2), (7, 3), (5, 1), (6, 3)]:
            ordered = sorted(itertools.combinations(range(m), k), key=lambda t: t[::-1])
            step = 1 if 2 * k == m else 2  # complements sit at the odd positions
            got = layer_members(m, k, step * np.arange(len(ordered)))
            for rank, expected in enumerate(ordered):
                assert colex_unrank_oracle(rank, k) == expected
                assert tuple(np.flatnonzero(got[rank])) == expected
            if step == 2:
                assert np.array_equal(layer_members(m, k, 2 * np.arange(len(ordered)) + 1),
                                      ~got)

    def test_every_layer_up_to_m16_matches_enumeration(self):
        for m in range(2, 17):
            for i in range(1, m // 2 + 1):
                assert np.array_equal(layer_masks(m, i), colex_layer_oracle(m, i)), (m, i)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 90), st.data())
    def test_layer_members_match_scalar_unrank(self, m, data):
        # layers whose positions fit int64, the range the sampler draws from
        i = data.draw(st.sampled_from(
            [i for i in range(1, m // 2 + 1) if layer_size(m, i) < 2**63]))
        positions = data.draw(st.lists(st.integers(0, layer_size(m, i) - 1),
                                       min_size=1, max_size=12))
        got = layer_members(m, i, positions)
        assert got.shape == (len(positions), m)
        for row, pos in zip(got, positions):
            assert np.array_equal(row, layer_member_oracle(m, i, pos))

    def test_positions_outside_the_layer_rejected(self):
        for bad in ([-1], [0, 8], [9]):
            with pytest.raises(ValueError, match="positions outside 0..7"):
                layer_members(4, 1, bad)

    def test_binomial_table_past_int64_raises(self):
        # C(99, 50) > 2^63: the table refuses instead of wrapping
        with pytest.raises(OverflowError):
            layer_members(100, 50, [0])


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
