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
"""

from __future__ import annotations

import weakref
from functools import partial

import numpy as np

from .errors import NonFinitePayoffError

# id(adapter) -> (weak reference to the adapter, memo state); an entry goes
# when its adapter is collected. The state (instance key, sorted packed masks,
# payoffs) is immutable and replaced in one assignment, so threads sharing an
# adapter never read a half-merged memo or another instance's payoffs.
_MEMOS: dict[int, tuple] = {}


def as_mask_matrix(coalitions, n_features: int | None = None) -> np.ndarray:
    """Normalize an array-like of masks into a bool matrix (n, M)."""
    if isinstance(coalitions, np.ndarray):
        masks = coalitions.astype(bool, copy=False)
        if masks.ndim == 1:
            masks = masks.reshape(1, -1)
    else:
        items = list(coalitions)
        masks = np.asarray(items, dtype=bool)
        if masks.ndim == 1:
            masks = masks.reshape(1, -1) if len(items) else masks.reshape(0, 0)
    if n_features is not None and masks.size and masks.shape[1] != n_features:
        raise ValueError(f"masks have {masks.shape[1]} features, expected {n_features}")
    return masks


def substitute(masks: np.ndarray, x: np.ndarray, background: np.ndarray) -> np.ndarray:
    """Masked input rows: (n_masks * B, M), background varying fastest."""
    x = np.asarray(x, dtype=float).reshape(-1)
    background = np.asarray(background, dtype=float)
    if background.ndim != 2 or background.shape[1] != len(x):
        raise ValueError("background rows must match the instance's feature count")
    n, m = masks.shape
    b = background.shape[0]
    rows = np.where(masks[:, None, :], x[None, None, :], background[None, :, :])
    return rows.reshape(n * b, m)


def _checked(masks: np.ndarray, payoffs: np.ndarray) -> np.ndarray:
    bad = ~np.isfinite(payoffs)
    if bad.any():
        i = int(np.argmax(bad))
        coalition = "".join("1" if present else "0" for present in masks[i])
        raise NonFinitePayoffError(coalition, float(payoffs[i]))
    return payoffs


def _row_payoffs(masks, x, background, model) -> np.ndarray:
    rows = substitute(masks, x, background)
    preds = np.asarray(model.predict(rows), dtype=float).reshape(-1)
    if len(preds) != len(rows):
        raise ValueError(f"model returned {len(preds)} outputs for {len(rows)} rows")
    return _checked(masks, preds.reshape(masks.shape[0], background.shape[0]).mean(axis=1))


def _pack(masks: np.ndarray) -> np.ndarray:
    """One sortable key per mask, for any M: bit i of the packed bytes is feature i."""
    packed = np.packbits(masks, axis=1, bitorder="little")
    width = -(-packed.shape[1] // 8) * 8
    packed = np.pad(packed, ((0, 0), (0, width - packed.shape[1])))
    if width == 8:
        return packed.view("<u8").reshape(-1)
    return packed.view(np.dtype((np.void, width))).reshape(-1)


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
    packed = _pack(masks)
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
    masks = as_mask_matrix(coalitions, getattr(model, "n_features", None))
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


def anchors(x, background, model, n_features: int | None = None) -> tuple[float, float]:
    """(payoff of the empty coalition, payoff of the grand coalition).

    The first anchors the surrogate intercept, the second is the prediction
    the attributions must add up to.
    """
    m = n_features if n_features is not None else model.n_features
    masks = np.zeros((2, m), dtype=bool)
    masks[1, :] = True
    empty_v, full_v = evaluate_batch(masks, x, background, model)
    return float(empty_v), float(full_v)
