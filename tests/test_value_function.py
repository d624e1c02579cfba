"""The per-adapter payoff memo and the finiteness check in evaluate_batch."""

import gc
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from stableshap import (
    KERNEL_SHAP,
    ST_SHAP,
    CallableModel,
    GameModel,
    NonFinitePayoffError,
    RidgeRegressionModel,
    exact_shap,
    explain,
    layer1_attribution,
)
from stableshap import value_function
from stableshap.coalitions import pack
from stableshap.value_function import all_payoffs, anchors, evaluate_batch

from conftest import CountingGameModel, masked_mean_oracle, random_table_game


def _column_sum(rows, weights):
    """``rows @ weights`` summed over columns in a fixed order, so that a row's
    value depends on that row alone, whatever the batch it arrives in: a BLAS
    product rounds the last rows of a call differently."""
    z = np.zeros(rows.shape[:-1])
    for j, w in enumerate(weights):
        z += rows[..., j] * w
    return z


class CountingRowModel:
    """Row model that counts the rows it is asked to predict."""

    def __init__(self, weights, bias=0.0):
        self.weights = np.asarray(weights, dtype=float)
        self.bias = bias
        self.n_features = len(self.weights)
        self.rows = 0

    def predict(self, rows):
        rows = np.asarray(rows, dtype=float)
        self.rows += len(rows)
        return np.tanh(_column_sum(rows, self.weights)) + self.bias


class CountingRidge(RidgeRegressionModel):
    rows = 0

    def predict(self, rows):
        self.rows += len(rows)
        return super().predict(rows)


def _setup(m=6, n_bg=5, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=m), rng.normal(size=(n_bg, m)), rng.normal(size=m)


def _masks(m, n, seed=1):
    return np.random.default_rng(seed).random((n, m)) < 0.5


class TestMemo:
    def test_repeated_explain_sends_no_rows(self):
        x, bg, w = _setup()
        model = CountingRowModel(w)
        first = explain(x, model, bg, KERNEL_SHAP, 40, seed=3, explanation_size=3)
        rows_first = model.rows
        again = explain(x, model, bg, KERNEL_SHAP, 40, seed=3, explanation_size=3)
        assert rows_first > 0
        assert model.rows == rows_first
        assert again == first

    def test_memoized_results_bit_identical_to_a_fresh_adapter(self):
        x, bg, w = _setup(m=7)
        warm = CountingRowModel(w)
        for budget in (14, 60, 126):
            explain(x, warm, bg, ST_SHAP, budget, seed=budget)
        for strategy in (ST_SHAP, KERNEL_SHAP):
            for budget in (20, 70):
                memo = explain(x, warm, bg, strategy, budget, seed=11)
                fresh = explain(x, CountingRowModel(w), bg, strategy, budget, seed=11)
                assert memo == fresh

    def test_duplicate_masks_in_one_request_evaluated_once(self):
        x, bg, w = _setup()
        model = CountingRowModel(w)
        masks = _masks(6, 10)
        values = evaluate_batch(np.vstack([masks, masks[::-1]]), x, bg, model)
        n_distinct = len({m.tobytes() for m in masks})
        assert model.rows == n_distinct * len(bg)
        assert np.array_equal(values[:10], values[10:][::-1])

    def test_new_instance_is_recomputed(self):
        x, bg, w = _setup()
        model = CountingRowModel(w)
        masks = _masks(6, 12)
        evaluate_batch(masks, x, bg, model)
        before = model.rows
        x2 = x + 1.0
        got = evaluate_batch(masks, x2, bg, model)
        assert model.rows - before == len(np.unique(masks, axis=0)) * len(bg)
        assert np.array_equal(got, evaluate_batch(masks, x2, bg, CountingRowModel(w)))
        for mask, v in zip(masks, got):
            assert v == pytest.approx(masked_mean_oracle(mask, x2, bg, model.predict))

    def test_new_background_is_recomputed(self):
        x, bg, w = _setup()
        model = CountingRowModel(w)
        masks = _masks(6, 12)
        evaluate_batch(masks, x, bg, model)
        before = model.rows
        bg2 = bg.copy()
        bg2[0, 0] += 0.5  # same shape, one value differs
        got = evaluate_batch(masks, x, bg2, model)
        assert model.rows - before == len(np.unique(masks, axis=0)) * len(bg2)
        assert np.array_equal(got, evaluate_batch(masks, x, bg2, CountingRowModel(w)))

    def test_new_adapter_is_recomputed(self):
        x, bg, w = _setup()
        masks = _masks(6, 12)
        evaluate_batch(masks, x, bg, CountingRowModel(w))
        other = CountingRowModel(w, bias=1.0)  # same weights, different function
        got = evaluate_batch(masks, x, bg, other)
        assert other.rows > 0
        for mask, v in zip(masks, got):
            assert v == pytest.approx(masked_mean_oracle(mask, x, bg, other.predict))

    def test_keys_cover_more_than_64_features(self):
        m = 70
        x, bg, w = _setup(m=m, n_bg=3)
        model = CountingRowModel(w)
        masks = _masks(m, 30)
        first = evaluate_batch(masks, x, bg, model)
        rows = model.rows
        # masks differing only in feature 69 must not share a payoff
        flipped = masks.copy()
        flipped[:, m - 1] ^= True
        evaluate_batch(flipped, x, bg, model)
        assert model.rows == rows + len(masks) * len(bg)
        again = evaluate_batch(masks[::-1], x, bg, model)
        assert model.rows == rows + len(masks) * len(bg)
        assert np.array_equal(again, first[::-1])

    def test_memo_is_freed_with_its_adapter(self):
        # at M=16 the memo is 2^16 payoffs and marks, 9 B each; all of it
        # goes when the adapter is collected
        m = 16
        x, bg, w = _setup(m=m, n_bg=2, seed=47)
        masks = _masks(m, 50, seed=48)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model = CountingRowModel(w)
            evaluate_batch(masks, x, bg, model)
            held = tracemalloc.get_traced_memory()[0] - before
            alive = weakref.ref(model)
            del model
            gc.collect()
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert alive() is None
        assert held >= 9 << m and left < 4096

    def test_adapters_that_compare_equal_keep_their_own_memos(self):
        class Equal(CountingRowModel):
            def __eq__(self, other):
                return isinstance(other, Equal)

            __hash__ = object.__hash__

        x, bg, w = _setup()
        masks = _masks(6, 12)
        first, second = Equal(w), Equal(w)
        assert first == second
        want = evaluate_batch(masks, x, bg, first)
        got = evaluate_batch(masks, x, bg, second)
        assert second.rows == first.rows > 0
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_adapter_without_weak_references_is_evaluated_every_time(self):
        class Slotted:
            __slots__ = ("n_features", "rows")

            def __init__(self):
                self.n_features = 16
                self.rows = 0

            def predict(self, rows):
                self.rows += len(rows)
                return rows.sum(axis=1)

        x, bg, _ = _setup(m=16)
        model = Slotted()
        masks = _masks(16, 5)
        # a memo would keep 2^16 payoffs and marks, 9 B each
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            a = evaluate_batch(masks, x, bg, model)
            kept = tracemalloc.get_traced_memory()[0] - before - a.nbytes
        finally:
            tracemalloc.stop()
        assert kept < 4096
        b = evaluate_batch(masks, x, bg, model)
        assert model.rows == 2 * len(masks) * len(bg)
        assert np.array_equal(a, b)
        # within a request each distinct coalition is sent once; nothing is kept
        rows = model.rows
        c = evaluate_batch(np.vstack([masks, masks[::-1], masks[:2]]), x, bg, model)
        assert model.rows == rows + len(np.unique(masks, axis=0)) * len(bg)
        assert np.array_equal(c, np.concatenate([a, a[::-1], a[:2]]))

    def test_threads_sharing_an_adapter_get_their_own_instance_payoffs(self):
        rng = np.random.default_rng(5)
        m = 8
        w = rng.normal(size=m)
        bg = rng.normal(size=(4, m))
        xs = rng.normal(size=(4, m))
        masks = [_masks(m, 40, seed=s) for s in range(6)]
        shared = CountingRowModel(w)
        jobs = [(i % len(xs), j) for i in range(24) for j in range(len(masks))]

        def one(job):
            i, j = job
            return evaluate_batch(masks[j], xs[i], bg, shared)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-merge as often as possible
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(one, jobs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for (i, j), values in zip(jobs, got):
            assert np.array_equal(values, evaluate_batch(masks[j], xs[i], bg,
                                                         CountingRowModel(w)))

    def test_threads_sharing_an_adapter_and_an_instance_get_its_payoffs(self):
        # the table is written in place while other threads gather from it
        m = 10
        x, bg, w = _setup(m=m, n_bg=3, seed=48)
        masks = [_masks(m, 200, seed=s) for s in range(8)]
        shared = CountingRowModel(w)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda j: evaluate_batch(masks[j % 8], x, bg, shared),
                                    range(48), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for j, values in enumerate(got):
            want = evaluate_batch(masks[j % 8], x, bg, CountingRowModel(w))
            assert np.array_equal(values.view(np.uint64), want.view(np.uint64))

    def test_ridge_routes_after_exact_send_no_rows(self):
        rng = np.random.default_rng(2)
        m = 8
        X = rng.normal(size=(60, m))
        model = CountingRidge.fit(X[:40], X[:40] @ rng.normal(size=m))
        x, bg = X[50], X[40:50]
        exact = exact_shap(x, model, bg)
        assert model.rows == 2**m * len(bg)
        for strategy in (ST_SHAP, KERNEL_SHAP):
            for budget in (16, 100, 2**m - 2):
                e = explain(x, model, bg, strategy, budget, seed=budget)
                assert e.phis == pytest.approx(exact.phis)
        layer1_attribution(x, model, bg)
        assert model.rows == 2**m * len(bg)

    def test_cold_oracle_table_serves_later_requests_bit_for_bit(self):
        rng = np.random.default_rng(6)
        m = 10
        X = rng.normal(size=(40, m))
        model = CountingRidge.fit(X[:30], X[:30] @ rng.normal(size=m))
        x, bg = X[35], X[30:35]
        table = all_payoffs(x, bg, model)
        rows = model.rows
        assert rows == 2**m * len(bg)
        # the walked table is the memo's: it serves every mask bit for bit
        got = evaluate_batch(_consecutive(0, 2**m, m)[::-1], x, bg, model)
        assert np.array_equal(got.view(np.uint64), table[::-1].view(np.uint64))
        assert model.rows == rows
        masks = _masks(m, 300, seed=7)
        got = evaluate_batch(masks, x, bg, model)
        assert np.array_equal(got.view(np.uint64), table[pack(masks)].view(np.uint64))
        for strategy in (ST_SHAP, KERNEL_SHAP):
            explain(x, model, bg, strategy, 500, seed=1)
        assert model.rows == rows

    def test_memo_filled_by_requests_serves_exactly_what_it_holds(self):
        x, bg, w = _setup()
        model = RecordingModel(w, x, bg)
        masks = _consecutive(0, 64, 6)
        first = evaluate_batch(masks[::2], x, bg, model)
        assert np.array_equal(_sent(model), np.arange(0, 64, 2))
        model.returned.clear()
        evaluate_batch(masks, x, bg, model)
        assert np.array_equal(_sent(model), np.arange(1, 64, 2))
        model.returned.clear()
        again = evaluate_batch(masks[::-1], x, bg, model)
        assert model.returned == []
        assert np.array_equal(again[::-1][::2].view(np.uint64), first.view(np.uint64))

    def test_memo_at_the_cap_stays_within_nine_bytes_a_mask(self):
        # at M = CAP a repeated request sends no rows, and the memo keeps the
        # 2^M payoffs and marks (9 MiB) plus under 4 KiB of instance key and
        # object headers
        m = value_function.CAP
        x, bg, w = _setup(m=m, n_bg=2, seed=44)
        masks = _masks(m, 3000, seed=45)
        model = CountingRowModel(w)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            evaluate_batch(masks, x, bg, model)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < (9 << m) + 4096
        rows = model.rows
        assert rows == len(np.unique(masks, axis=0)) * len(bg)
        got = evaluate_batch(masks[::-1], x, bg, model)
        assert model.rows == rows
        want = evaluate_batch(masks[::-1], x, bg, CountingRowModel(w))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_anchors_read_from_the_table_once_held(self):
        x, bg, w = _setup(m=7, n_bg=3, seed=46)
        model = CallLoggingRidge(w, 0.25)
        evaluate_batch(_consecutive(1, 21, 7), x, bg, model)  # neither anchor
        model.calls.clear()
        first = anchors(x, bg, model)
        assert model.calls == [2 * len(bg)]  # one request of both anchors
        assert anchors(x, bg, model) == first and model.calls == [2 * len(bg)]
        assert first == anchors(x, bg, CallLoggingRidge(w, 0.25))

    def test_game_adapters_bypass_the_memo(self):
        game = random_table_game(np.random.default_rng(4), 5)
        model = CountingGameModel(game)
        explain(None, model, None, ST_SHAP, 20, seed=0)
        once = model.calls
        explain(None, model, None, ST_SHAP, 20, seed=0)
        assert model.calls == 2 * once


class TestNonFinitePayoffs:
    def test_nan_model_raises_naming_the_coalition(self):
        x, bg, w = _setup(m=5)

        class NanWhenFeature2Present(CountingRowModel):
            def predict(self, rows):
                out = super().predict(rows)
                return np.where(rows[:, 2] == x[2], np.nan, out)

        with pytest.raises(NonFinitePayoffError) as info:
            explain(x, NanWhenFeature2Present(w), bg, ST_SHAP, 10, seed=0)
        coalition = info.value.coalition
        assert len(coalition) == 5 and coalition[2] == "1"
        assert coalition in str(info.value)

    def test_infinite_background_row_raises(self):
        x, bg, w = _setup(m=4)
        bg[1, 3] = np.inf
        model = CountingRowModel(w)
        model.predict = lambda rows: np.asarray(rows, dtype=float).sum(axis=1)
        with pytest.raises(NonFinitePayoffError):
            explain(x, model, bg, ST_SHAP, 8, seed=0)

    def test_non_finite_game_payoff_raises(self):
        game = random_table_game(np.random.default_rng(1), 3)
        table = {mask: game.value_of_mask(mask) for mask in range(8)}
        table[0b011] = float("inf")
        model = GameModel(type(game).from_table(3, table))
        with pytest.raises(NonFinitePayoffError, match="110"):
            evaluate_batch(np.array([[1, 0, 0], [1, 1, 0]], dtype=bool), None, None, model)

    def test_non_finite_payoffs_are_never_memoized(self):
        x, bg, w = _setup(m=5)

        class Toggle(CountingRowModel):
            broken = True

            def predict(self, rows):
                out = super().predict(rows)
                return out * np.nan if self.broken else out

        model = Toggle(w)
        masks = _masks(5, 6)
        with pytest.raises(NonFinitePayoffError):
            evaluate_batch(masks, x, bg, model)
        model.broken = False
        got = evaluate_batch(masks, x, bg, model)
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, evaluate_batch(masks, x, bg, CountingRowModel(w)))

    def test_nan_in_the_first_block_named_after_every_block_ran(self, monkeypatch):
        # 256 consecutive masks in 32 blocks of 8; NaN at masks 3 and 200
        model, masks = self._nan_at(monkeypatch, {3, 200})
        with pytest.raises(NonFinitePayoffError) as info:
            evaluate_batch(masks, model.x, model.bg, model)
        assert info.value.coalition == _bitstring(3, 8)
        assert model.calls == 32  # checked once, after the last block

    def test_nan_in_the_last_of_several_blocks(self, monkeypatch):
        model, masks = self._nan_at(monkeypatch, {250})
        with pytest.raises(NonFinitePayoffError) as info:
            evaluate_batch(masks, model.x, model.bg, model)
        assert info.value.coalition == _bitstring(250, 8)
        assert model.calls == 32

    def test_nan_named_in_request_order(self, monkeypatch):
        model, masks = self._nan_at(monkeypatch, {3, 200})
        with pytest.raises(NonFinitePayoffError) as info:
            evaluate_batch(masks[::-1], model.x, model.bg, model)
        assert info.value.coalition == _bitstring(200, 8)

    def _nan_at(self, monkeypatch, bad):
        monkeypatch.setattr(value_function, "ROW_BUDGET", 64)
        x, bg, w = _setup(m=8, n_bg=5, seed=12)
        return NanAtMasks(w, x, bg, bad), _consecutive(0, 256, 8)


def _bitstring(key, m):
    return "".join(str(key >> i & 1) for i in range(m))


def _consecutive(start, stop, m):
    return (np.arange(start, stop)[:, None] >> np.arange(m) & 1).astype(bool)


class NanAtMasks(CountingRowModel):
    """Row model whose payoff is NaN for the given mask integers; the instance
    and background share no value, so a row tells its mask."""

    def __init__(self, weights, x, bg, bad):
        super().__init__(weights)
        self.x, self.bg, self.bad = x, bg, sorted(bad)
        self.calls = 0

    def predict(self, rows):
        self.calls += 1
        keys = (rows == self.x).astype(np.int64) @ (1 << np.arange(len(self.x)))
        return np.where(np.isin(keys, self.bad), np.nan, super().predict(rows))


def _decode(rows, x, bg):
    """Each slot's mask, read off its rows: feature j is held where every
    row of the slot carries the instance's value, bit for bit. The tests'
    instances differ from every background column in some row."""
    slots = rows.view(np.uint64).reshape(-1, len(bg), len(x))
    return (slots == x.view(np.uint64)).all(axis=1)


class BlockCheckingModel:
    """Row model that reads each block's masks off its rows and checks the
    rows, bit for bit, against a fresh ``substitute`` of those masks. A
    mask's prediction is its position in ``expected``, so each payoff shows
    which rows it was computed from."""

    def __init__(self, expected, x, bg, fresh):
        self.x, self.bg, self.fresh = x, bg, fresh
        self.n_features = expected.shape[1]
        self.position = {mask.tobytes(): i for i, mask in enumerate(expected)}
        self.seen = []
        self.writeable = []
        self.column_major = []

    def predict(self, rows):
        masks = _decode(rows, self.x, self.bg)
        want = self.fresh(masks, self.x, self.bg)
        assert np.array_equal(rows.view(np.uint64), want.view(np.uint64)), len(self.seen)
        self.writeable.append(rows.flags.writeable)
        self.column_major.append(rows.flags.f_contiguous)
        positions = [self.position[mask.tobytes()] for mask in masks]
        self.seen += positions
        return np.repeat(np.array(positions, dtype=float), len(self.bg))


def _block_masks(budget, n_bg):
    n = 8
    while 2 * n * n_bg <= budget:
        n *= 2
    return n


class CallLoggingRidge(RidgeRegressionModel):
    """Ridge adapter that records the rows of every predict call."""

    def __init__(self, coef, intercept):
        super().__init__(coef, intercept)
        self.calls = []

    def predict(self, rows):
        self.calls.append(len(rows))
        return super().predict(rows)


class TestRowBudget:
    def _pair(self, monkeypatch, run, budget):
        monkeypatch.setattr(value_function, "ROW_BUDGET", budget)
        rng = np.random.default_rng(9)
        model = CallLoggingRidge(rng.normal(size=16), 0.3)
        return run(model), model.calls

    @pytest.mark.parametrize("n_bg", [1, 7, 100])
    def test_calls_stay_within_the_budget_and_payoffs_do_not_move(self, monkeypatch,
                                                                     n_bg):
        m = 16
        x, bg, _ = _setup(m=m, n_bg=n_bg, seed=4)
        masks = _masks(m, 700, seed=5)
        n_distinct = len(np.unique(masks, axis=0))

        def run(model):
            return evaluate_batch(masks, x, bg, model)

        got, calls = self._pair(monkeypatch, run, 64)
        want, whole = self._pair(monkeypatch, run, 1 << 40)
        assert whole == [n_distinct * n_bg]
        assert max(calls) <= max(64, 8 * n_bg)
        assert sum(calls) == n_distinct * n_bg
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_bg", [7, 10])
    def test_ridge_payoffs_equal_at_every_row_budget(self, monkeypatch, n_bg):
        # 1003 distinct masks: at every budget the request ends in a partial
        # block, whose rows, like those of the single call, are no multiple of 8
        m = 16
        x, bg, _ = _setup(m=m, n_bg=n_bg, seed=40 + n_bg)
        masks = _consecutive(0, 2**m, m)[np.random.default_rng(n_bg).permutation(2**m)[:1003]]

        def run(model):
            return evaluate_batch(masks, x, bg, model)

        got = {}
        for budget in (64, 1 << 10, 1 << 13, 1 << 40):
            got[budget], calls = self._pair(monkeypatch, run, budget)
            assert sum(calls) == 1003 * n_bg and calls[-1] % 8 != 0
        for budget in (64, 1 << 10, 1 << 13):
            assert np.array_equal(got[budget].view(np.uint64), got[1 << 40].view(np.uint64))

    def test_every_block_is_a_read_only_column_major_view(self, monkeypatch):
        # 700 masks in blocks of 8: 87 whole blocks, then one of 4 masks
        monkeypatch.setattr(value_function, "ROW_BUDGET", 64)
        x, bg, w = _setup(m=10, n_bg=7, seed=41)
        seen = []

        def record(rows):
            seen.append((len(rows), rows.flags.f_contiguous, rows.flags.writeable))
            return rows @ w

        evaluate_batch(_consecutive(0, 700, 10), x, bg, CallableModel(record, 10))
        assert seen == [(56, True, False)] * 87 + [(28, True, False)]

    @pytest.mark.parametrize("strategy", [ST_SHAP, KERNEL_SHAP])
    def test_explanations_bit_identical_across_row_budgets(self, monkeypatch, strategy):
        x, bg, _ = _setup(m=16, n_bg=7, seed=6)

        def run(model):
            return [explain(x, model, bg, strategy, budget, seed=2, explanation_size=4)
                    for budget in (200, 1000, 3000)]

        got, calls = self._pair(monkeypatch, run, 64)
        want, _ = self._pair(monkeypatch, run, 1 << 40)
        assert max(calls) <= 64
        assert got == want

    def test_exact_values_equal_at_the_default_budget_and_in_one_call(self, monkeypatch):
        # 2^16 masks x 5 background rows: 48 calls at the default budget, one
        # without a bound
        x, bg, _ = _setup(m=16, n_bg=5, seed=10)

        def run(model):
            return exact_shap(x, model, bg)

        default = value_function.ROW_BUDGET
        got, calls = self._pair(monkeypatch, run, default)
        want, whole = self._pair(monkeypatch, run, 1 << 40)
        assert max(calls) <= default < max(whole)
        assert sum(calls) == sum(whole) == 5 << 16
        assert np.array_equal(got.phi_array(), want.phi_array()) and got == want

    def test_one_block_of_rows_alive_at_a_time(self, monkeypatch):
        # 640 masks x 64 background rows in blocks of 4096 rows (256 KB each);
        # building a block while the last one is still held takes two of them
        monkeypatch.setattr(value_function, "ROW_BUDGET", 1 << 12)
        x, bg, w = _setup(m=8, n_bg=64, seed=7)
        masks = _masks(8, 640, seed=8)
        model = RidgeRegressionModel(w, 0.0)
        block_bytes = (1 << 12) * 8 * 8
        tracemalloc.start()
        try:
            value_function._row_payoffs(masks, x, bg, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block_bytes < peak < 2 * block_bytes

    def _fills(self, monkeypatch, budget):
        """Sets the row budget and counts fresh fills; returns the list that
        counts them and the unpatched ``substitute``."""
        monkeypatch.setattr(value_function, "ROW_BUDGET", budget)
        fresh = value_function.substitute
        fills = []
        monkeypatch.setattr(value_function, "substitute",
                            lambda *args, **kw: fills.append(1) or fresh(*args, **kw))
        return fills, fresh

    def _run(self, monkeypatch, budget, requests, expected, x, bg):
        """Evaluates the requests on one adapter; returns the fresh fills."""
        fills, fresh = self._fills(monkeypatch, budget)
        model = BlockCheckingModel(expected, x, bg, fresh)
        for masks in requests:
            got = evaluate_batch(masks, x, bg, model)
            assert np.array_equal(got, [model.position[mask.tobytes()] for mask in masks])
        assert sorted(model.seen) == list(range(len(expected)))
        assert not any(model.writeable) and all(model.column_major)
        return len(fills)

    def _oracle(self, monkeypatch, budget, x, bg):
        """A cold exact oracle on a checking adapter whose payoff of a mask is
        its mask integer; returns the adapter and the fresh fills."""
        m = len(x)
        fills, fresh = self._fills(monkeypatch, budget)
        model = BlockCheckingModel(_consecutive(0, 2**m, m), x, bg, fresh)
        exact_shap(x, model, bg)
        assert sorted(model.seen) == list(range(2**m))
        assert not any(model.writeable) and all(model.column_major)
        # the whole table is the memo: read back without a model call
        seen = len(model.seen)
        got = evaluate_batch(_consecutive(0, 2**m, m), x, bg, model)
        assert np.array_equal(got, np.arange(2**m)) and len(model.seen) == seen
        return model, len(fills)

    @pytest.mark.parametrize("budget", [1 << 10, 1 << 13])
    @pytest.mark.parametrize("m, n_bg", [(m, n_bg) for n_bg, top in
                                         ((1, 16), (7, 16), (100, 14), (1100, 12))
                                         for m in range(2, top + 1)])
    def test_cold_oracle_blocks_equal_fresh_substitute(self, monkeypatch, m, n_bg, budget):
        x, bg, _ = _setup(m=m, n_bg=n_bg, seed=m * n_bg)
        _, fills = self._oracle(monkeypatch, budget, x, bg)
        assert fills == 1

    def test_signed_zeros_and_nan_payloads_walked_bit_for_bit(self, monkeypatch):
        # blocks of 8 masks, visited in Gray-code order 0-7, 8-15, 24-31,
        # 16-23: features 3, 4 and 3 again flip, to the instance's values and
        # back to the background's
        payload = np.array([0x7FF8_0000_0000_0ABC, 0xFFF0_0000_0000_0001],
                           dtype=np.uint64).view(float)  # a quiet and a signalling NaN
        x = np.array([-0.0, payload[0], 1.5, payload[0], -0.0])
        bg = np.array([[0.0, -0.0, payload[1], payload[1], -0.0],
                       [payload[0], 3.0, -0.0, -0.0, payload[1]]])
        model, fills = self._oracle(monkeypatch, 16, x, bg)
        assert fills == 1 and len(model.writeable) == 4

    @pytest.mark.parametrize("n_bg", [1, 7, 100, 1100])
    def test_requests_fill_every_block_fresh(self, monkeypatch, n_bg):
        # consecutive masks, a third of them requested first: each request's
        # blocks of 8 (or 128 at one background row) are all filled fresh
        x, bg, _ = _setup(m=12, n_bg=n_bg, seed=32)
        masks = _consecutive(0, 2**12, 12)
        warm = np.random.default_rng(33).random(len(masks)) < 1 / 3
        expected = np.vstack([masks[warm], masks[~warm]])
        fills = self._run(monkeypatch, 1 << 10, [masks[warm], masks], expected, x, bg)
        step = _block_masks(1 << 10, n_bg)
        assert fills == -(-warm.sum() // step) + -(-(~warm).sum() // step)

    def test_void_keys_fill_every_block_fresh(self, monkeypatch):
        # 70 features: keys wider than 64 bits; 100 masks in blocks of 16
        x, bg, _ = _setup(m=70, n_bg=3, seed=35)
        masks = _consecutive(0, 100, 70)
        fills = self._run(monkeypatch, 64, [masks], masks, x, bg)
        assert fills == 7

    def test_consecutive_oracle_blocks_differ_in_one_column(self):
        # 2^16 masks x 100 background rows: blocks of 64 masks; every block
        # but the first is one column away from the block visited before it
        x, bg, w = _setup(m=16, n_bg=100, seed=38)
        changed = []

        class ColumnCounting(RidgeRegressionModel):
            held = None

            def predict(self, rows):
                bits = rows.view(np.uint64)
                if self.held is not None:
                    changed.append(int((bits != self.held).any(axis=0).sum()))
                self.held = bits.copy()
                return super().predict(rows)

        exact_shap(x, ColumnCounting(w, 0.0), bg)
        assert _block_masks(value_function.ROW_BUDGET, 100) == 64
        assert changed == [1] * (2**16 // 64 - 1)

    def test_oracle_after_explain_sends_only_the_missing_coalitions(self):
        m = 12
        x, bg, w = _setup(m=m, n_bg=7, seed=39)
        model = RecordingModel(w, x, bg)
        explain(x, model, bg, ST_SHAP, 700, seed=4)
        warm = _sent(model).tolist()
        assert 0 < len(set(warm)) == len(warm) < 2**m
        model.returned.clear()
        got = exact_shap(x, model, bg)
        assert sorted(_sent(model).tolist()) == sorted(set(range(2**m)) - set(warm))
        model.returned.clear()
        assert exact_shap(x, model, bg) == got and model.returned == []
        assert got == exact_shap(x, RecordingModel(w, x, bg), bg)

    def test_cold_oracle_names_a_nan_in_mask_integer_order(self, monkeypatch):
        # blocks of 8 masks: block 3 (masks 24-31) is visited before block 2
        # (16-23), so the NaN at 30 is met before the one at 17
        monkeypatch.setattr(value_function, "ROW_BUDGET", 64)
        x, bg, w = _setup(m=8, n_bg=5, seed=12)
        model = NanAtMasks(w, x, bg, {17, 30})
        with pytest.raises(NonFinitePayoffError) as info:
            exact_shap(x, model, bg)
        assert info.value.coalition == _bitstring(17, 8)
        assert model.calls == 32  # checked once, after the last block
        # nothing kept: the next call walks every block again
        with pytest.raises(NonFinitePayoffError):
            exact_shap(x, model, bg)
        assert model.calls == 64

    def test_a_model_writing_to_its_rows_raises_at_the_first_block(self, monkeypatch):
        monkeypatch.setattr(value_function, "ROW_BUDGET", 64)
        x, bg, w = _setup(m=8, n_bg=5, seed=36)
        calls = []

        def scribble(rows):
            calls.append(len(rows))
            rows[:, 0] = 0.0
            return rows @ w

        masks = _consecutive(0, 256, 8)
        with pytest.raises(ValueError, match="read-only"):
            evaluate_batch(masks, x, bg, CallableModel(scribble, 8))
        assert calls == [40]


def _where_reference(masks, x, background):
    n, m = masks.shape
    rows = np.where(masks[:, None, :], x[None, None, :], background[None, :, :])
    return rows.reshape(n * len(background), m)


class TestSubstitute:
    @pytest.mark.parametrize("m, n_bg, n_masks", [(1, 1, 2), (1, 4, 2), (5, 1, 9),
                                                  (6, 3, 40), (16, 7, 200)])
    def test_bitwise_equal_to_the_broadcast_select(self, m, n_bg, n_masks):
        x, bg, _ = _setup(m=m, n_bg=n_bg, seed=m + n_bg)
        masks = _masks(m, n_masks, seed=n_masks)
        masks[0], masks[-1] = False, True
        got = value_function.substitute(masks, x, bg)
        want = _where_reference(masks, x, bg)
        assert got.flags.f_contiguous and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_signed_zeros_and_nan_payloads_copied_bit_for_bit(self):
        m = 4
        payload = np.array([0x7FF8_0000_0000_0ABC, 0xFFF0_0000_0000_0001],
                           dtype=np.uint64).view(float)  # a quiet and a signalling NaN
        x = np.array([-0.0, payload[0], 1.5, 0.0])
        bg = np.array([[0.0, -0.0, payload[1], -2.0],
                       [payload[0], 3.0, -0.0, payload[1]]])
        masks = np.array([[False] * m, [True] * m, [True, False, True, False],
                          [False, True, False, True]])
        got = value_function.substitute(masks, x, bg)
        want = _where_reference(masks, x, bg)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("layout", ["column-strided", "fortran"])
    def test_mask_layout_does_not_matter(self, layout):
        x, bg, _ = _setup(m=9, n_bg=6, seed=21)
        wide = _masks(18, 50, seed=22)
        masks = wide[:, ::2] if layout == "column-strided" else np.asfortranarray(wide[:, :9])
        assert not masks.flags.c_contiguous
        got = value_function.substitute(masks, x, bg)
        want = _where_reference(masks, x, bg)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("held", [False, True])
    def test_block_of_masks_holding_no_or_every_feature(self, held):
        x, bg, _ = _setup(m=7, n_bg=5, seed=23)
        masks = np.full((24, 7), held)
        got = value_function.substitute(masks, x, bg)
        want = _where_reference(masks, x, bg)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(got, np.tile(x, (24 * 5, 1)) if held else np.tile(bg, (24, 1)))

    def test_instance_given_as_a_list(self):
        x, bg, _ = _setup(m=5, n_bg=4, seed=24)
        masks = _masks(5, 30, seed=25)
        got = value_function.substitute(masks, x.tolist(), bg)
        want = _where_reference(masks, x, bg)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _sent(model):
    """Packed keys of the masks a RecordingModel was sent, in the order sent."""
    return pack(np.vstack([seen for seen, _ in model.returned]))


class RecordingModel:
    """Row model that keeps every block's masks, read off its rows, and the
    prediction vector it returns, with payoffs spread over many magnitudes
    so the rounding of a mean shows. A row's prediction does not depend on
    the batch it arrives in."""

    def __init__(self, weights, x, bg):
        self.weights = np.asarray(weights, dtype=float)
        self.n_features = len(self.weights)
        self.x, self.bg = x, bg
        self.returned = []

    def predict(self, rows):
        preds = np.exp(3.0 * np.sin(_column_sum(rows, self.weights))) / 7.0
        self.returned.append((_decode(rows, self.x, self.bg), preds))
        return preds


@pytest.mark.parametrize("n_bg", [1, 7, 100, 1000])
def test_block_payoffs_are_the_mean_of_their_predictions(n_bg):
    x, bg, w = _setup(m=10, n_bg=n_bg, seed=n_bg)
    # 300 distinct masks in random order, so a mask names its position
    masks = _consecutive(0, 2**10, 10)[np.random.default_rng(n_bg + 1).permutation(2**10)[:300]]
    model = RecordingModel(w, x, bg)
    got = value_function._row_payoffs(masks, x, bg, model)
    position = {mask.tobytes(): i for i, mask in enumerate(masks)}
    want = np.full(len(masks), np.nan)
    for seen, preds in model.returned:
        want[[position[mask.tobytes()] for mask in seen]] = preds.reshape(-1, n_bg).mean(axis=1)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestAllPayoffs:
    def test_cold_row_adapter_walks_every_mask_once(self):
        m = 7
        x, bg, w = _setup(m=m, n_bg=3, seed=40)
        model = CountingRowModel(w)
        table = all_payoffs(x, bg, model)
        assert model.rows == 2**m * len(bg)
        want = evaluate_batch(_consecutive(0, 2**m, m), x, bg, CountingRowModel(w))
        assert np.array_equal(table.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(all_payoffs(x, bg, model), table)
        assert model.rows == 2**m * len(bg)

    def test_warm_memo_sends_only_the_missing_coalitions(self):
        m = 9
        x, bg, w = _setup(m=m, n_bg=4, seed=41)
        model = RecordingModel(w, x, bg)
        warm = _masks(m, 150, seed=42)
        evaluate_batch(warm, x, bg, model)
        model.returned.clear()
        table = all_payoffs(x, bg, model)
        assert sorted(_sent(model).tolist()) == sorted(set(range(2**m)) - set(pack(warm).tolist()))
        assert np.array_equal(table, all_payoffs(x, bg, RecordingModel(w, x, bg)))

    def test_game_is_asked_for_each_mask_once(self):
        game = random_table_game(np.random.default_rng(43), 7)
        model = CountingGameModel(game)
        table = all_payoffs(None, None, model)
        assert model.calls == 2**7
        assert table.tolist() == [game.value_of_mask(i) for i in range(2**7)]


class TestRefusals:
    def test_background_of_the_wrong_width(self):
        with pytest.raises(ValueError, match="background rows must match"):
            value_function.substitute(_masks(3, 4), np.zeros(3), np.zeros((2, 4)))

    def test_model_returning_the_wrong_number_of_outputs(self):
        class OneOutput:
            n_features = 3

            def predict(self, rows):
                return rows[:1, 0]

        x, bg, _ = _setup(m=3, n_bg=4)
        model = OneOutput()
        with pytest.raises(ValueError, match="model returned 1 outputs for 8 rows"):
            evaluate_batch(_consecutive(1, 3, 3), x, bg, model)

    @pytest.mark.parametrize("no_x", [True, False])
    def test_row_model_without_an_instance_or_background(self, no_x):
        x, bg, w = _setup(m=3)
        args = (None, bg) if no_x else (x, None)
        with pytest.raises(ValueError, match="row models need an instance and a background"):
            evaluate_batch(_masks(3, 4), *args, CountingRowModel(w))

    def test_zero_row_background(self):
        x, _, w = _setup(m=3)
        with pytest.raises(ValueError, match="background set needs at least one row"):
            evaluate_batch(_masks(3, 4), x, np.empty((0, 3)), CountingRowModel(w))

    @pytest.mark.parametrize("shape", [(4, 2), (4,), (2, 4, 3)])
    def test_masks_of_the_wrong_shape(self, shape):
        x, bg, w = _setup(m=3)
        with pytest.raises(ValueError, match=r"expected masks of shape \(n, 3\), got"):
            evaluate_batch(np.ones(shape, dtype=bool), x, bg, CountingRowModel(w))

