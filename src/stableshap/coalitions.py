"""Coalition masks, the layer taxonomy, and coalition weights.

A coalition over M features is a binary mask: entry i is True when feature i
keeps the explained instance's value and False when it is marginalized away.
Layer i groups the coalitions with exactly i features present or i features
absent; every coalition in a layer shares one weight, and the weight shrinks
as i moves toward M/2.

All functions here are pure and deterministic. A layer's order is pinned,
so that repeated runs are bit-identical, and :func:`layer_members` is its one
definition: the present-feature index sets of size i in colexicographic order,
each set immediately followed by its complement (the middle layer of an even M
has no complements). :func:`layer_masks` is that order over a whole layer,
and the st-shap sampler unranks positions of layers too large to enumerate.

:func:`pack` is the one key a mask is looked up, counted or deduplicated by:
bit i of the key is feature i. Its bytes are little-endian, so byte g of a
key holds features 8g to 8g + 7, feature 8g + j at bit j; :func:`key_bytes`
reads them as a (n, bytes) ``uint8`` view, and bytes past feature M - 1 are
zero. The sampler, the payoff memo, game-table lookups and the surrogate
fit, which sums its complete rows by byte histograms of the keys, all use
it; :func:`unpack` turns integer keys back into masks, and
:func:`complement_keys` turns keys into their complements'. :func:`layer_keys`
caches the keys of :func:`layer_masks`, so the complete layers of a
coalition set are packed once per process.

:func:`pack` has two paths that give the same keys. A large request packs
the whole mask matrix as one bit stream and reads each row's key out of it
at its bit offset; a small one, or one whose rows do not fit the stream's
8-byte reads, pads each row to its key's width first. Its docstring has the
measured switch between them.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, gcd

import numpy as np


def _check_m(n_features: int) -> None:
    if n_features < 2:
        raise ValueError(f"need at least 2 features, got M={n_features}")


def key_dtype(n_features: int) -> np.dtype:
    """The dtype of :func:`pack`'s keys: ``<u8`` up to 64 features, else
    fixed-width void of whole 8-byte words."""
    if n_features > 64:
        return np.dtype((np.void, -(-n_features // 64) * 8))
    return np.dtype("<u8")


# by M up to 64: the narrowest little-endian unsigned integer, of 1, 2, 4 or
# 8 bytes, that holds M bits
_NARROW_DTYPES = tuple(np.dtype(f"<u{1 << max(0, (m - 1).bit_length() - 3)}")
                       for m in range(65))


# the stream path's smallest request, in rows, and its widest row, in
# features: see pack
_STREAM_ROWS = 6000
_STREAM_FEATURES = 57


def pack(masks: np.ndarray) -> np.ndarray:
    """One sortable key per mask, for any M: bit i of the packed bytes is feature i.

    Up to 64 features the keys are ``<u8`` integers; wider masks get
    fixed-width void keys. Masks of another dtype are cast to bool first.

    The padded path zero-pads each row to the narrowest of 1, 2, 4 or 8
    bytes that holds it (whole 8-byte words past 64 features), packs the
    flattened matrix with one ``packbits`` and widens narrow keys to
    ``<u8``. Where M fills its key's width (8, 16, 32 or a multiple of 64)
    there is nothing to pad: the matrix is packed as it is, and this is the
    only path.

    Otherwise the copy into the padded matrix is most of the call (a few ns
    per row), and requests of at least ``_STREAM_ROWS`` rows over at most
    ``_STREAM_FEATURES`` features take the stream path instead: one
    ``packbits`` of the row-major bits, then row r's key is the M bits at bit
    offset M r. Rows repeat their byte alignment every P = 8 / gcd(M, 8)
    rows, so each of the P phases is one strided, unaligned 8-byte read and
    a shift, and one mask clears the next rows' bits. The key and its shift
    of at most 7 bits fit those 8 bytes up to M = 57.

    The P phases cost a fixed 5-25 us, more as P grows, so small requests
    stay on the padded path. Paired against it in process CPU time on one
    core of an x86-64 host (NumPy 2.4), the stream path breaks even at
    about 1500 rows where P = 2 (M=20) and about 5000 where P = 8 (M=13,
    the dearest phase count); at 6000 rows it takes 0.80-0.92x at M = 3,
    13, 15, 23 and 57. Above the switch it takes 0.82x at M=13 and 8000
    rows and 0.27-0.38x at M=20 and 43398 to 200000 rows.
    """
    masks = np.asarray(masks, dtype=bool)
    n, m = masks.shape
    packed = _NARROW_DTYPES[m] if m <= 64 else key_dtype(m)
    if m == 8 * packed.itemsize:
        bits = masks
    elif n >= _STREAM_ROWS and m <= _STREAM_FEATURES:
        return _pack_stream(masks)
    else:
        bits = np.zeros((n, 8 * packed.itemsize), dtype=bool)
        bits[:, :m] = masks
    keys = np.packbits(bits, axis=None, bitorder="little").view(packed)
    return keys.astype("<u8", copy=False) if m <= 64 else keys


def _pack_stream(masks: np.ndarray) -> np.ndarray:
    """:func:`pack`'s keys read out of one bit stream; M at most 57."""
    n, m = masks.shape
    period = 8 // gcd(m, 8)
    stream = np.packbits(masks, axis=None, bitorder="little")
    # 8 zero bytes past the end, so that the last rows' reads stay inside;
    # the fresh stream has no other reference
    stream.resize(stream.size + 8, refcheck=False)
    keys = np.empty(n, dtype="<u8")
    for phase in range(period):
        start = m * phase
        words = np.ndarray((len(range(phase, n, period)),), dtype="<u8", buffer=stream,
                           offset=start // 8, strides=(m * period // 8,))
        np.right_shift(words, start % 8, out=keys[phase::period])
    keys &= np.uint64((1 << m) - 1)
    return keys


def key_bytes(keys: np.ndarray) -> np.ndarray:
    """The bytes of :func:`pack`'s keys as a (n, bytes) ``uint8`` view: byte
    g holds features 8g to 8g + 7, feature 8g + j at bit j, so column g is
    each mask's byte code over those features."""
    keys = np.ascontiguousarray(keys)
    return keys.view(np.uint8).reshape(len(keys), keys.dtype.itemsize)


@lru_cache(maxsize=64)
def _grand_key_words(n_features: int) -> np.ndarray:
    """The grand coalition's key as ``<u8`` words, read-only."""
    words = pack(np.ones((1, n_features), dtype=bool)).view("<u8")
    words.setflags(write=False)
    return words


def complement_keys(keys: np.ndarray, where: np.ndarray, n_features: int) -> None:
    """Turn the keys at the True entries of `where` into the keys of their
    masks' complements, in place: each 8-byte word of a key XORed with the
    grand coalition's. `keys` must be contiguous."""
    words = keys.view("<u8").reshape(len(keys), -1)
    words ^= _grand_key_words(n_features) * where[:, None]


def unpack(keys, n_features: int) -> np.ndarray:
    """Masks of integer keys, the inverse of :func:`pack` up to 64 features."""
    keys = np.asarray(keys, dtype="<u8").reshape(-1)
    # bit i of key n is bit i of its little-endian bytes
    return np.unpackbits(keys.view(np.uint8).reshape(-1, 8), axis=1, count=n_features,
                         bitorder="little").view(bool)


def n_layers(n_features: int) -> int:
    """Number of layers for M features: floor(M/2)."""
    _check_m(n_features)
    return n_features // 2


def _check_layer(n_features: int, layer: int) -> None:
    _check_m(n_features)
    if not 1 <= layer <= n_features // 2:
        raise ValueError(
            f"layer {layer} invalid for M={n_features}; valid range is 1..{n_features // 2}"
        )


def layer_size(n_features: int, layer: int) -> int:
    """Number of coalitions in a layer.

    2*C(M,i) in general; the two halves coincide when M is even and i = M/2,
    leaving C(M,i).
    """
    _check_layer(n_features, layer)
    c = comb(n_features, layer)
    return c if 2 * layer == n_features else 2 * c


def kernel_weight(n_features: int, size: int) -> float:
    """Weight of a proper coalition with `size` features present.

    (M-1) / (C(M,s) * s * (M-s)). The empty and grand coalitions have
    infinite weight (they are handled as constraints, not regression rows),
    so sizes 0 and M raise ValueError.
    """
    _check_m(n_features)
    if not 0 < size < n_features:
        raise ValueError(
            f"coalition size {size} is not a proper coalition size for M={n_features}"
        )
    return (n_features - 1) / (comb(n_features, size) * size * (n_features - size))


def layer_total_weight(n_features: int, layer: int) -> float:
    """Sum of coalition weights over one full layer."""
    return layer_size(n_features, layer) * kernel_weight(n_features, layer)


def complete_layer_budgets(n_features: int) -> list[tuple[int, int]]:
    """Cumulative layer sizes: the budgets at which sampling is fully deterministic."""
    _check_m(n_features)
    out = []
    total = 0
    for i in range(1, n_features // 2 + 1):
        total += layer_size(n_features, i)
        out.append((i, total))
    return out


def layer_members(n_features: int, layer: int, positions) -> np.ndarray:
    """The masks at `positions` of a layer's canonical order: a boolean mask
    matrix of shape (len(positions), M). Defines that order.

    Outside the middle layer, position p holds the colex-rank p // 2 subset of
    `layer` present features, complemented when p is odd. The subset is read
    off the combinatorial number system, one ``searchsorted`` per element.
    """
    size = layer_size(n_features, layer)
    ranks = np.asarray(positions, dtype=np.int64)
    if len(ranks) and not 0 <= int(ranks.min()) <= int(ranks.max()) < size:
        raise ValueError(f"positions outside 0..{size - 1} for this layer")
    flip = np.zeros_like(ranks)
    if 2 * layer != n_features:
        ranks, flip = np.divmod(ranks, 2)
    # C(c, j) for c < M; from Python ints, so an entry past int64 raises
    binom = np.array([[comb(c, j) for c in range(n_features)]
                      for j in range(layer + 1)], dtype=np.int64)
    masks = np.zeros((len(ranks), n_features), dtype=bool)
    rows = np.arange(len(ranks))
    for j in range(layer, 0, -1):
        # the j-th smallest present feature: the largest c with C(c, j) <= rank
        c = np.searchsorted(binom[j], ranks, side="right") - 1
        masks[rows, c] = True
        ranks = ranks - binom[j, c]
    masks ^= (flip == 1)[:, None]
    return masks


@lru_cache(maxsize=64)
def layer_masks(n_features: int, layer: int) -> np.ndarray:
    """Every coalition of a layer exactly once, in the canonical order of
    :func:`layer_members`.

    Cached and marked read-only; callers must copy before mutating.
    """
    masks = layer_members(n_features, layer, np.arange(layer_size(n_features, layer)))
    masks.setflags(write=False)
    return masks


@lru_cache(maxsize=64)
def layer_keys(n_features: int, layer: int) -> np.ndarray:
    """The :func:`pack` keys of :func:`layer_masks`, in the same order.

    Cached and marked read-only; callers must copy before mutating.
    """
    keys = pack(layer_masks(n_features, layer))
    keys.setflags(write=False)
    return keys
