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
bit i of the key is feature i. The sampler, the payoff memo, set validation
and game-table lookups all use it; :func:`unpack` turns integer keys back
into masks.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np


def _check_m(n_features: int) -> None:
    if n_features < 2:
        raise ValueError(f"need at least 2 features, got M={n_features}")


def pack(masks: np.ndarray) -> np.ndarray:
    """One sortable key per mask, for any M: bit i of the packed bytes is feature i.

    Up to 64 features the keys are ``<u8`` integers; wider masks get
    fixed-width void keys. Each row is zero-padded to the key's whole bytes,
    so one ``packbits`` over the flattened matrix packs every row at once
    (per-row packing is several times slower).
    """
    n, m = masks.shape
    width = -(-m // 64) * 8
    bits = np.zeros((n, width * 8), dtype=bool)
    bits[:, :m] = masks
    packed = np.packbits(bits.reshape(-1), bitorder="little").reshape(n, width)
    if width == 8:
        return packed.view("<u8").reshape(-1)
    return packed.view(np.dtype((np.void, width))).reshape(-1)


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
