"""Coalition masks, the layer taxonomy, and coalition weights.

A coalition over M features is a binary mask: entry i is True when feature i
keeps the explained instance's value and False when it is marginalized away.
Layer i groups the coalitions with exactly i features present or i features
absent; every coalition in a layer shares one weight, and the weight shrinks
as i moves toward M/2.

All functions here are pure and deterministic; enumeration order is pinned
(colexicographic over the present-feature index sets, each set immediately
followed by its complement) so that repeated runs are bit-identical.

:func:`pack` is the one key a mask is looked up, counted or deduplicated by:
bit i of the key is feature i. The sampler, the payoff memo, set validation
and game-table lookups all use it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np


def _check_m(n_features: int) -> None:
    if n_features < 2:
        raise ValueError(f"need at least 2 features, got M={n_features}")


def pack(masks: np.ndarray) -> np.ndarray:
    """One sortable key per mask, for any M: bit i of the packed bytes is feature i.

    Up to 64 features the keys are ``<u8`` integers; wider masks get
    fixed-width void keys.
    """
    packed = np.packbits(masks, axis=1, bitorder="little")
    width = -(-packed.shape[1] // 8) * 8
    packed = np.pad(packed, ((0, 0), (0, width - packed.shape[1])))
    if width == 8:
        return packed.view("<u8").reshape(-1)
    return packed.view(np.dtype((np.void, width))).reshape(-1)


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


def _colex_combinations(n_features: int, k: int) -> list[tuple[int, ...]]:
    # colexicographic: ordered by largest element, then recursively
    return sorted(combinations(range(n_features), k), key=lambda t: t[::-1])


@lru_cache(maxsize=64)
def layer_masks(n_features: int, layer: int) -> np.ndarray:
    """Every coalition of a layer exactly once, in the pinned canonical order:
    a boolean mask matrix of shape (layer_size, M).

    Cached and marked read-only; callers must copy before mutating.
    """
    _check_layer(n_features, layer)
    sets = _colex_combinations(n_features, layer)
    base = np.zeros((len(sets), n_features), dtype=bool)
    rows = np.arange(len(sets))[:, None]
    base[rows, np.array(sets)] = True
    if 2 * layer == n_features:
        masks = base
    else:
        # interleave each size-i mask with its complement
        masks = np.empty((2 * len(sets), n_features), dtype=bool)
        masks[0::2] = base
        masks[1::2] = ~base
    masks.setflags(write=False)
    return masks


def colex_unrank(rank: int, k: int) -> tuple[int, ...]:
    """The rank-th k-subset in colexicographic order (combinatorial number system)."""
    if k < 1 or rank < 0:
        raise ValueError("need k >= 1 and rank >= 0")
    out = []
    r = rank
    for j in range(k, 0, -1):
        c = j - 1
        while comb(c + 1, j) <= r:
            c += 1
        r -= comb(c, j)
        out.append(c)
    return tuple(reversed(out))


def layer_member(n_features: int, layer: int, position: int) -> np.ndarray:
    """The mask at `position` in a layer's canonical order, without enumerating it.

    Lets samplers draw from layers far too large to materialize.
    """
    size = layer_size(n_features, layer)
    if not 0 <= position < size:
        raise ValueError(f"position {position} out of range for layer of size {size}")
    if 2 * layer == n_features:
        rank, complemented = position, False
    else:
        rank, complemented = divmod(position, 2)
        complemented = bool(complemented)
    mask = np.zeros(n_features, dtype=bool)
    mask[list(colex_unrank(rank, layer))] = True
    return ~mask if complemented else mask
