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
features) stays in cache between being written and ``predict`` reading it
back. One block buffer serves a whole request, and its whole blocks are
visited in reflected Gray-code order of their index, any short last block
last. A block whose packed keys each differ from those of the block visited
before it in the same features, and take the same values there, is
rewritten in place, one column per flipped feature; this is how the exact
oracle's consecutive masks go, one column a block. Any other block is
filled fresh by :func:`substitute`. ``predict`` gets the buffer as
a read-only view, valid until it returns. The payoffs are bit-identical to
those of one single call.
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


def substitute(masks: np.ndarray, x: np.ndarray, background: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Masked input rows: (n_masks * B, M), background varying fastest.

    Written into ``out``, a C-contiguous (n_masks, B, M) float buffer, when
    one is given; the rows returned are then a view of it.
    """
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
    rows = np.empty((n, b, m)) if out is None else out
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


def _visit_order(n: int, step: int) -> np.ndarray:
    """Positions of n masks in the order their blocks of ``step`` are
    visited: the whole blocks in reflected Gray-code order of their index,
    so that consecutive blocks of consecutive masks differ in one bit, then
    a short last block."""
    n_full = n // step
    if n_full < 2:
        return np.arange(n)
    gray = np.arange(1 << (n_full - 1).bit_length())
    gray ^= gray >> 1
    starts = gray[gray < n_full] * step
    return np.append((starts[:, None] + np.arange(step)).reshape(-1),
                     np.arange(n_full * step, n))


def _flips(keys: np.ndarray, step: int) -> list:
    """Per block of ``step`` keys, keys in visiting order, the bits each of
    its slots flips against the same slot one block back, or None where the
    block is filled fresh:
    the first block, a block whose slots flip different bits or take
    different values on them, and every block of void keys (over 64
    features)."""
    n_blocks = -(-len(keys) // step)
    if keys.dtype.kind != "u" or n_blocks < 2:
        return [None] * n_blocks
    d = keys[step:] ^ keys[:-step]  # each slot against the same slot one block back
    starts = np.arange(0, len(d), step)
    flips = d[starts]
    same = d == np.repeat(flips, step)[:len(d)]
    # the values the flipped bits take, written over d: at most two arrays
    # the size of keys are alive at once, which keeps peak memory down
    to = np.bitwise_and(keys[step:], np.repeat(flips, step)[:len(d)], out=d)
    same &= to == np.repeat(to[starts], step)[:len(d)]
    in_place = np.logical_and.reduceat(same, starts).tolist()
    return [None] + [f if ok else None for f, ok in zip(flips.tolist(), in_place)]


def _row_payoffs(masks, keys, x, background, model) -> np.ndarray:
    """Payoffs of whole masks (``keys`` their packed keys), in blocks of the
    largest power of two of masks whose rows fit ROW_BUDGET, at least 8,
    visited in the order of :func:`_visit_order`. A block holds a multiple
    of 8 masks, so every block starts at a row that is a multiple of 8: BLAS
    then groups the rows as it would in one call, and the payoffs depend on
    neither the block size nor the order of the blocks."""
    n_background = background.shape[0]
    step = 1 << max(3, (ROW_BUDGET // n_background).bit_length() - 1)
    buf = np.empty((min(step, len(masks)), n_background, len(x)))
    out = np.empty(len(masks))
    order = _visit_order(len(masks), step)
    keys = keys[order]
    for start, flipped in zip(range(0, len(masks), step), _flips(keys, step)):
        n = min(step, len(masks) - start)
        at = order[start:start + n]
        if flipped is None:
            substitute(masks[at], x, background, out=buf[:n])
        else:
            to = int(keys[start])
            while flipped:  # one column write per feature the block flips
                bit = flipped & -flipped
                j = bit.bit_length() - 1
                buf[:n, :, j] = x[j] if to & bit else background[:, j]
                flipped ^= bit
        rows = buf[:n].reshape(n * n_background, -1)
        rows.flags.writeable = False
        preds = np.asarray(model.predict(rows), dtype=float).reshape(-1)
        if len(preds) != len(rows):
            raise ValueError(f"model returned {len(preds)} outputs for {len(rows)} rows")
        # the reduction and division ndarray.mean runs, without its wrapper
        out[at] = np.add.reduce(preds.reshape(n, n_background), axis=1) / n_background
    return _checked(masks, out)


def _forget(model_id: int, ref: weakref.ref) -> None:
    if _MEMOS.get(model_id, (None,))[0] is ref:
        _MEMOS.pop(model_id, None)


def _memoized_payoffs(masks, x, background, model) -> np.ndarray:
    """Row payoffs; only coalitions the adapter's memo lacks reach the model."""
    packed = pack(masks)
    entry = _MEMOS.get(id(model))
    if entry is None or entry[0]() is not model:
        try:
            entry = (weakref.ref(model, partial(_forget, id(model))), None)
        except TypeError:  # no weak references: evaluated without a memo
            return _row_payoffs(masks, packed, x, background, model)
    ref, state = entry
    instance = (x.tobytes(), background.shape, background.tobytes())
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
    # the model sees the missing coalitions once each, cut into blocks in
    # request order
    order = np.argsort(first)
    new_payoffs = np.empty(len(new_keys))
    new_payoffs[order] = _row_payoffs(masks[miss[first[order]]], new_keys[order], x,
                                      background, model)
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
