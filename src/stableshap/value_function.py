"""Coalition payoffs for black-box models.

The payoff of a coalition is the model's expected output when present
features keep the explained instance's values and absent features are
replaced by background-data values, averaged over the background rows.
Direct game adapters skip the substitution entirely.

Row-model payoffs are memoized per adapter object: each adapter keeps the
payoffs of its most recent (instance, background) pair, so a coalition that
explain, the first-layer attribution or the exact oracle asks for again is
answered without a model call. Adapters are deterministic (see
:mod:`stableshap.models`), so a memoized payoff is the payoff the model would
return. The memo is dropped with its adapter and never holds more than one
instance's distinct coalitions (at most 2^M).

The coalitions the memo lacks reach the model in blocks of whole masks, at
most ``ROW_BUDGET`` substituted rows per ``predict`` call (8 masks at the
least), so the rows of one call stay bounded whatever the budget and the
background size. The bound is small enough that a block (1 MiB at 16
features) stays in cache between ``substitute`` writing it and ``predict``
reading it back. A block starts as copies of the background, and one
indexed write then puts the instance's values into every (mask, feature)
pair that the masks hold. The payoffs are bit-identical to those of one
single call.
"""

from __future__ import annotations

import weakref
from functools import partial

import numpy as np

from .coalitions import pack
from .errors import NonFinitePayoffError

# id(adapter) -> (weak reference to the adapter, memo state); an entry goes
# when its adapter is collected. The state (instance key, sorted packed masks,
# payoffs) is immutable and replaced in one assignment, so threads sharing an
# adapter never read a half-merged memo or another instance's payoffs.
_MEMOS: dict[int, tuple] = {}

# substituted rows per model call; bounds the (rows, M) float matrix that
# substitute builds, whatever the budget and the background size, and keeps
# it in cache until predict has read it
ROW_BUDGET = 1 << 13


def substitute(masks: np.ndarray, x: np.ndarray, background: np.ndarray) -> np.ndarray:
    """Masked input rows: (n_masks * B, M), background varying fastest."""
    x = np.asarray(x, dtype=float).reshape(-1)
    background = np.asarray(background, dtype=float)
    if background.ndim != 2 or background.shape[1] != len(x):
        raise ValueError("background rows must match the instance's feature count")
    masks = np.asarray(masks, dtype=bool)
    n, m = masks.shape
    b = background.shape[0]
    # copies of the background, then one indexed write of the instance's
    # values into every (mask, feature) pair held: values are only selected,
    # never computed
    rows = np.empty((n, b, m))
    rows[...] = background
    held, feature = np.nonzero(masks)
    rows[held, :, feature] = x[feature, None]
    return rows.reshape(n * b, m)


def _checked(masks: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
    bad = ~np.isfinite(payoffs)
    if bad.any():
        i = int(np.argmax(bad))
        coalition = "".join("1" if present else "0" for present in masks[i])
        raise NonFinitePayoffError(coalition, float(payoffs[i]))
    return payoffs


def _row_payoffs(masks, x, background, model) -> np.ndarray:
    """Payoffs of whole masks, in blocks of at most ROW_BUDGET substituted rows
    per model call (at least 8 masks). A block holds a multiple of 8 masks,
    so every block starts at a row that is a multiple of 8: BLAS then groups
    the rows as it would in one call, and the payoffs do not depend on the
    block size."""
    n_background = background.shape[0]
    step = max(8, ROW_BUDGET // n_background // 8 * 8)
    out = np.empty(len(masks))
    for start in range(0, len(masks), step):
        block = masks[start:start + step]
        rows = substitute(block, x, background)
        preds = np.asarray(model.predict(rows), dtype=float).reshape(-1)
        if len(preds) != len(rows):
            raise ValueError(f"model returned {len(preds)} outputs for {len(rows)} rows")
        # the reduction and division ndarray.mean runs, without its wrapper
        out[start:start + len(block)] = _checked(
            block, np.add.reduce(preds.reshape(len(block), n_background), axis=1)
            / n_background)
        # released before the next block is built: one block alive at a time
        del rows, preds
    return out


def _forget(model_id: int, ref: weakref.ref) -> None:
    if _MEMOS.get(model_id, (None,))[0] is ref:
        _MEMOS.pop(model_id, None)


def _memoized_payoffs(masks, x, background, model) -> np.ndarray:
    """Row payoffs; only coalitions the adapter's memo lacks reach the model."""
    entry = _MEMOS.get(id(model))
    if entry is None or entry[0]() is not model:
        try:
            entry = (weakref.ref(model, partial(_forget, id(model))), None)
        except TypeError:  # no weak references: evaluated without a memo
            return _row_payoffs(masks, x, background, model)
    ref, state = entry
    instance = (x.tobytes(), background.shape, background.tobytes())
    packed = pack(masks)
    if state is None or state[0] != instance:
        state = (instance, packed[:0], np.empty(0))
    _, keys, payoffs = state

    out = np.empty(len(masks))
    hit = np.zeros(len(masks), dtype=bool)
    if len(keys):
        pos = np.searchsorted(keys, packed)
        hit = keys[np.minimum(pos, len(keys) - 1)] == packed
        out[hit] = payoffs[pos[hit]]
    if hit.all():
        return out

    miss = np.flatnonzero(~hit)
    new_keys, first, inverse = np.unique(packed[miss], return_index=True,
                                         return_inverse=True)
    # the model sees the missing coalitions once each, in request order
    order = np.argsort(first)
    new_payoffs = np.empty(len(new_keys))
    new_payoffs[order] = _row_payoffs(masks[miss[first[order]]], x, background, model)
    out[miss] = new_payoffs[inverse.reshape(-1)]
    at = np.searchsorted(keys, new_keys)
    _MEMOS[id(model)] = (ref, (instance, np.insert(keys, at, new_keys),
                               np.insert(payoffs, at, new_payoffs)))
    return out


def evaluate_batch(coalitions, x, background, model) -> np.ndarray:
    """Coalition payoffs, elementwise; one model batch for the coalitions the
    adapter's memo does not hold yet.

    Raises NonFinitePayoffError, naming the first such coalition, when a
    payoff is NaN or infinite.
    """
    masks = np.asarray(coalitions, dtype=bool)
    if masks.ndim != 2 or masks.shape[1] != model.n_features:
        raise ValueError(f"expected masks of shape (n, {model.n_features}), "
                         f"got {masks.shape}")
    if masks.shape[0] == 0:
        return np.empty(0)
    if hasattr(model, "coalition_values"):
        # a game's lookup is already O(1) per mask; no memo
        return _checked(masks, np.asarray(model.coalition_values(masks), dtype=float))
    if x is None or background is None:
        raise ValueError("row models need an instance and a background set")
    x = np.asarray(x, dtype=float).reshape(-1)
    background = np.asarray(background, dtype=float)
    if background.shape[0] < 1:
        raise ValueError("background set needs at least one row")
    return _memoized_payoffs(masks, x, background, model)


def anchors(x, background, model) -> tuple[float, float]:
    """(payoff of the empty coalition, payoff of the grand coalition).

    The first anchors the surrogate intercept, the second is the prediction
    the attributions must add up to.
    """
    masks = np.zeros((2, model.n_features), dtype=bool)
    masks[1, :] = True
    empty_v, full_v = evaluate_batch(masks, x, background, model)
    return float(empty_v), float(full_v)
