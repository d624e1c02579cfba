"""Coalition payoffs for black-box models.

The payoff of a coalition is the model's expected output when present
features keep the explained instance's values and absent features are
replaced by background-data values, averaged over the background rows.
Direct game adapters skip the substitution entirely.

Row-model payoffs are memoized per adapter object: each adapter keeps the
payoffs of its most recent (instance, background) pair, so a coalition that
explain, the first-layer attribution or the exact oracle asks for again is
answered without a model call. Adapters are deterministic (see
:mod:`stableshap.models`), so a memoized payoff is the payoff the model
returned for the request that first held the coalition. :func:`_memo` alone
reads the memo and :func:`_keep` alone writes it, each entry replacing the
last in one assignment; an adapter's first entry gets a finalizer that drops
the memo with the adapter. An adapter without weak references keeps no
memo: each request sends its distinct coalitions once, and the next request
sends them again. Up to ``CAP`` features an entry is one table per instance:
2^M payoffs indexed by :func:`~.coalitions.pack`'s key, as a complete table
game is, and 2^M one-byte marks of the payoffs known, so at most 2^M x 9 B
(9 MiB at the cap). Both arrays are allocated untouched (``np.empty``, and
``np.zeros``, whose large blocks the OS zeroes page by page when first
touched), so a request touches only the pages of its own coalitions. A
request is one gather of marks, then of payoffs; the payoffs it lacks are
written in place, payoffs first and their marks after, each in one numpy
call. So a thread sharing the adapter that reads a mark set reads the
payoff written before it; one that reads a mark unset computes the payoff
itself, and two threads that write one coalition write the payoff of one
request each. Another instance gets a new table, and a request keeps writing
to the table of its own instance, so no thread writes another instance's
payoffs. Above ``CAP`` features, where no table fits, an entry is the
sorted keys of the coalitions held and their payoffs.

The coalitions the memo lacks reach the model in blocks of whole masks, at
most ``ROW_BUDGET`` substituted rows per ``predict`` call (8 masks at the
least), so a call's rows stay bounded whatever the budget and background
size, and a block (1 MiB at 16 features) stays in cache between being
written and read. Rows are column-major: :func:`substitute` fills a
C-contiguous (M, masks, B) buffer, one plane per feature, and ``predict``
gets its rows as a read-only, column-major view of it, valid until it
returns. Each block of a request is filled fresh, into a prefix of one
buffer; :func:`all_payoffs` walks its own blocks when the memo holds none of
the instance. Either way each payoff is computed at most once per adapter
and instance.

A request's payoffs are bit-identical to those of one single ``predict``
call of the request, whatever its blocks. A BLAS-backed adapter's products
round the last rows of a call (n mod 4 of them) differently, so its payoff
of one coalition may differ in the last bits between two routes, a warm
memo's request and the cold walk.
"""

from __future__ import annotations

import weakref

import numpy as np

from .coalitions import pack, unpack
from .errors import NonFinitePayoffError

# most features whose payoffs fit one table: the memo's of an instance and
# the exact oracle's (exact.CAP)
CAP = 20

# id(adapter) -> (instance key, *arrays); read by _memo, written by _keep
_MEMOS: dict[int, tuple] = {}

# substituted rows per model call: bounds the rows a block holds, whatever the
# budget and the background size, and keeps them in cache until predict reads them
ROW_BUDGET = 1 << 13

_EVAL_CHUNK = 8192  # masks per evaluate_batch call of a table not walked


def substitute(masks: np.ndarray, x: np.ndarray, background: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Masked input rows: (n_masks * B, M), background varying fastest.

    The rows are a column-major view of a C-contiguous (M, n_masks, B) float
    buffer, ``out`` when one is given: feature j's column is plane j, each
    mask's B values of it one contiguous run.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    background = np.asarray(background, dtype=float)
    if background.ndim != 2 or background.shape[1] != len(x):
        raise ValueError("background rows must match the instance's feature count")
    masks = np.asarray(masks, dtype=bool)
    n, m = masks.shape
    b = background.shape[0]
    # each plane a copy of its background column, then one indexed write of
    # the instance's value into the run of every (feature, mask) pair held,
    # feature by feature: values are only selected, never computed
    planes = np.empty((m, n, b)) if out is None else out
    planes[...] = background.T[:, None, :]
    held = np.flatnonzero(masks.T)  # feature * n + mask
    planes.reshape(m * n, b)[held] = x[held // n, None]
    return planes.reshape(m, n * b).T


def _checked(payoffs: np.ndarray, mask_of) -> np.ndarray:
    bad = ~np.isfinite(payoffs)
    if bad.any():
        i = int(np.argmax(bad))
        coalition = "".join("1" if present else "0" for present in mask_of(i))
        raise NonFinitePayoffError(coalition, float(payoffs[i]))
    return payoffs


def _block_masks(n_background: int) -> int:
    """Masks per block: the largest power of two whose rows fit ROW_BUDGET, at
    least 8. Every block starts at a multiple of 8 rows, so BLAS groups a
    request's rows as one call of it does: its payoffs depend on neither the
    block size nor the block order."""
    return 1 << max(3, (ROW_BUDGET // n_background).bit_length() - 1)


def _block_payoffs(rows: np.ndarray, n_background: int, model) -> np.ndarray:
    """Mean prediction per mask of a block of substituted rows, read-only to predict."""
    rows.flags.writeable = False
    preds = np.asarray(model.predict(rows), dtype=float).reshape(-1)
    if len(preds) != len(rows):
        raise ValueError(f"model returned {len(preds)} outputs for {len(rows)} rows")
    # the reduction and division ndarray.mean runs, without its wrapper
    return np.add.reduce(preds.reshape(-1, n_background), axis=1) / n_background


def _row_payoffs(masks, x, background, model) -> np.ndarray:
    """Payoffs of whole masks, each block filled fresh into a prefix of one buffer."""
    b, m = background.shape
    step = _block_masks(b)
    buf = np.empty(min(step, len(masks)) * b * m)
    out = np.empty(len(masks))
    for start in range(0, len(masks), step):
        n = min(step, len(masks) - start)
        rows = substitute(masks[start:start + n], x, background,
                          out=buf[:m * n * b].reshape(m, n, b))
        out[start:start + n] = _block_payoffs(rows, b, model)
    return _checked(out, masks.__getitem__)


def _instance(x, background) -> tuple:
    return x.tobytes(), background.shape, background.tobytes()


def _memo(model, x, background):
    """The arrays the adapter's memo holds of the instance, or None."""
    entry = _MEMOS.get(id(model), (None,))
    return entry[1:] if entry[0] == _instance(x, background) else None


def _keep(model, x, background, *arrays) -> None:
    """Makes the arrays the adapter's memo of the instance, in one assignment;
    its first entry gets the finalizer that drops it with the adapter."""
    if id(model) not in _MEMOS:  # two threads may both add one: both run at its death
        weakref.finalize(model, _MEMOS.pop, id(model), None)
    _MEMOS[id(model)] = (_instance(x, background), *arrays)


def _memoized_payoffs(masks, x, background, model) -> np.ndarray:
    """Row payoffs; only distinct coalitions the adapter's memo lacks reach the model."""
    held = _memo(model, x, background)
    packed = pack(masks)
    m = masks.shape[1]
    hit = np.zeros(len(masks), dtype=bool)
    out = np.empty(len(masks))
    if held is not None and m <= CAP:
        payoffs, known = held
        # marks read before payoffs, which are written before marks
        hit = known[packed]
        out = payoffs[packed]
    elif held is not None:
        keys, payoffs = held
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
    new_payoffs[order] = _row_payoffs(np.take(masks, miss[first[order]], axis=0),
                                      x, background, model)
    out[miss] = new_payoffs[inverse.reshape(-1)]
    if held is None and not type(model).__weakrefoffset__:
        return out  # no weak references: nothing is kept
    if m > CAP:
        keys, payoffs = held or (packed[:0], np.empty(0))
        at = np.searchsorted(keys, new_keys)
        _keep(model, x, background, np.insert(keys, at, new_keys),
              np.insert(payoffs, at, new_payoffs))
        return out
    if held is None:
        held = np.empty(1 << m), np.zeros(1 << m, dtype=bool)
        _keep(model, x, background, *held)
    payoffs, known = held
    payoffs[new_keys] = new_payoffs
    known[new_keys] = True
    return out


def _row_inputs(x, background):
    if x is None or background is None:
        raise ValueError("row models need an instance and a background set")
    x = np.asarray(x, dtype=float).reshape(-1)
    background = np.asarray(background, dtype=float)
    if background.shape[0] < 1:
        raise ValueError("background set needs at least one row")
    return x, background


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
        return _checked(np.asarray(model.coalition_values(masks), dtype=float),
                        masks.__getitem__)
    x, background = _row_inputs(x, background)
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


def all_payoffs(x, background, model) -> np.ndarray:
    """Payoffs of all 2^M coalitions by mask integer (bit i = feature i), M
    the adapter's ``n_features``.

    A row adapter whose memo holds none of the instance walks the blocks of
    consecutive masks in reflected Gray-code order of their index:
    :func:`substitute` fills the first, and each next one is one feature's
    plane away, a contiguous write. The first non-finite payoff by mask
    integer raises; else, up to ``CAP`` features, the table becomes the
    memo's, every payoff marked known. A game or a warm memo is asked
    through :func:`evaluate_batch` in chunks of masks.
    """
    m = model.n_features
    total = 1 << m
    game = hasattr(model, "coalition_values")
    if not game:
        x, background = _row_inputs(x, background)
    if game or _memo(model, x, background) is not None:
        out = np.empty(total)
        for start in range(0, total, _EVAL_CHUNK):
            masks = unpack(np.arange(start, min(start + _EVAL_CHUNK, total)), m)
            out[start:start + len(masks)] = evaluate_batch(masks, x, background, model)
        return out
    b = background.shape[0]
    step = min(_block_masks(b), total)
    buf = np.empty((m, step, b))
    rows = substitute(unpack(np.arange(step), m), x, background, out=buf)
    out = np.empty(total)
    start = 0  # the first mask of the block, whose index is the i-th Gray code
    for i in range(total // step):
        if i:
            flip = (i & -i) * step  # the Gray bit, above the block's low bits
            start ^= flip
            j = flip.bit_length() - 1
            buf[j] = x[j] if start & flip else background[:, j]
        out[start:start + step] = _block_payoffs(rows, b, model)
    _checked(out, lambda i: unpack(i, m)[0])
    if m <= CAP and type(model).__weakrefoffset__:  # it takes weak references
        _keep(model, x, background, out, np.ones(total, dtype=bool))
    return out
