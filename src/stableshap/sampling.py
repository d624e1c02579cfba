"""Coalition-set generation for the surrogate regression.

Two strategies share the same layer-filling skeleton but differ in when they
stop enumerating and where the leftover randomness lives:

* ``kernel-shap``: a layer is filled only while its share of the remaining
  coalition weight would cover it anyway; after the first refusal, the whole
  leftover budget is drawn (with replacement, weight-proportionally) from all
  non-complete layers, duplicates merged by multiplicity. As in shap's
  ``KernelExplainer``, the draws come in complement pairs: a subset of a
  layer's smaller size, then its complement at the same multiplicity. The
  draws come in batches sized from the expected repeat rate, and each drawn
  subset is built by integer selection sampling, with no sort.
* ``st-shap``: layers are filled in order while the budget lasts; the first
  layer that does not fit absorbs the leftover as a uniform
  without-replacement draw, and deeper layers get nothing. Budgets that land
  exactly on layer boundaries are fully deterministic.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import ceil, comb, exp, expm1, log1p

import numpy as np

from .coalitions import (
    _check_m,
    complement_keys,
    complete_layer_budgets,
    kernel_weight,
    key_dtype,
    layer_keys,
    layer_masks,
    layer_members,
    layer_size,
    layer_total_weight,
    n_layers,
    pack,
)

KERNEL_SHAP = "kernel-shap"
ST_SHAP = "st-shap"

# layers up to this size are enumerated once and cached, and draws index the
# cache; draws from larger layers are unranked. Both give the same masks.
_ENUM_LIMIT = 1 << 20
# matches the reference tolerance for "the expected draws cover this layer"
_FILL_SLACK = 1e-8
# Newton steps at most when sizing kernel-shap's first batch of draws
_NEWTON_STEPS = 50
# An explanation's memory per coalition and feature, an estimate: the most
# its tracemalloc peak reached, over both strategies with explanation size 4,
# was 17.1 B (st-shap, M=100, b=50000, additive game; 12.1 B at M=20,
# b=200000, where a table game takes 3.0-4.6 B), rounded up.
COALITION_FEATURE_BYTES = 20
# the most a budget's coalitions may take at that estimate; game-m20's largest
# budget, 200000 at M=20, takes 80 MB, 1/13 of it
BYTE_CAP = 1 << 30


def validate_budget(n_features: int, budget: int) -> None:
    """Refuse a budget outside [2, 2^M - 2], or one whose coalitions would
    take more than BYTE_CAP, before anything is allocated."""
    _check_m(n_features)
    top = 2**n_features - 2
    if not 2 <= budget <= top:
        raise ValueError(
            f"budget {budget} outside the valid range [2, {top}] for M={n_features}"
        )
    estimate = budget * n_features * COALITION_FEATURE_BYTES
    if estimate > BYTE_CAP:
        raise ValueError(
            f"budget {budget} for M={n_features}: its coalitions would take an "
            f"estimated {estimate:.3g} bytes, over the cap of {BYTE_CAP} bytes "
            f"({BYTE_CAP / 2**30:g} GiB)"
        )


@dataclass(frozen=True)
class SamplingPlan:
    """Per-layer allocation decided before any coalition is materialized."""

    strategy: str
    n_features: int
    budget: int
    seed: int
    complete_layers: tuple[int, ...]
    sampled_layers: tuple[int, ...]  # st-shap: at most one; kernel-shap: a suffix
    n_sampled: int

    def __post_init__(self):
        sizes = sum(layer_size(self.n_features, i) for i in self.complete_layers)
        if sizes + self.n_sampled != self.budget:
            raise ValueError("plan does not add up to the budget")
        if self.strategy == ST_SHAP and len(self.sampled_layers) > 1:
            raise ValueError("st-shap samples within at most one layer")

    def layer_counts(self) -> list[int]:
        """Materialized coalitions per layer. Kernel-shap's random remainder
        spans several layers and is not attributed to any single one here;
        read it from ``n_sampled`` and ``sampled_layers`` instead."""
        counts = [0] * n_layers(self.n_features)
        for i in self.complete_layers:
            counts[i - 1] = layer_size(self.n_features, i)
        if self.n_sampled and self.strategy == ST_SHAP:
            counts[self.sampled_layers[0] - 1] = self.n_sampled
        return counts

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "M": self.n_features,
            "budget": self.budget,
            "seed": self.seed,
            "complete_layers": list(self.complete_layers),
            "sampled_layers": list(self.sampled_layers),
            "n_sampled": self.n_sampled,
        }


@dataclass(frozen=True)
class WeightedCoalitionSet:
    """Distinct proper coalitions plus their regression weights.

    The first ``n_complete`` rows are a union of complete layers: every mask
    of each size present, at one weight per size. The surrogate fit has a
    closed form on them (see :mod:`stableshap.explainer`).

    ``keys`` holds each mask's :func:`~stableshap.coalitions.pack` key, which
    the fit reads its byte codes from. :func:`materialize` hands them over
    from the sampler and the layer cache; a set made from masks alone packs
    them here. Keys that do not match the masks in number or dtype are
    refused; their values are trusted to equal ``pack(masks)``.
    """

    masks: np.ndarray  # (n, M) bool
    weights: np.ndarray  # (n,) positive finite
    n_complete: int = 0
    keys: np.ndarray | None = None  # (n,) pack(masks)

    def __post_init__(self):
        if self.masks.ndim != 2 or len(self.weights) != len(self.masks):
            raise ValueError("masks and weights must align")
        if not 0 <= self.n_complete <= len(self.masks):
            raise ValueError("n_complete outside the set's rows")
        if self.keys is None:
            object.__setattr__(self, "keys", pack(self.masks))
        elif (self.keys.shape != (len(self.masks),)
              or self.keys.dtype != key_dtype(self.masks.shape[1])):
            raise ValueError("keys must align with the masks: one pack() key per row")

    def __len__(self) -> int:
        return len(self.masks)

    @property
    def n_features(self) -> int:
        return self.masks.shape[1]


def plan_st_shap(n_features: int, budget: int, seed: int) -> SamplingPlan:
    """The complete layers are those whose :func:`complete_layer_budgets`
    bound the budget reaches; the leftover is sampled inside the next layer."""
    validate_budget(n_features, budget)
    bounds = [total for _, total in complete_layer_budgets(n_features)]
    n_complete = bisect_right(bounds, budget)
    leftover = budget - (bounds[n_complete - 1] if n_complete else 0)
    return SamplingPlan(ST_SHAP, n_features, budget, seed,
                        tuple(range(1, n_complete + 1)),
                        (n_complete + 1,) if leftover else (), leftover)


def plan_kernel_shap(n_features: int, budget: int, seed: int) -> SamplingPlan:
    """Fill a layer only while both budget and weight share justify it."""
    validate_budget(n_features, budget)
    total = n_layers(n_features)
    layer_weights = [layer_total_weight(n_features, i) for i in range(1, total + 1)]
    remaining = budget
    remaining_weight = sum(layer_weights)
    complete = []
    sampled: tuple[int, ...] = ()
    for i in range(1, total + 1):
        size = layer_size(n_features, i)
        share = layer_weights[i - 1] / remaining_weight
        if remaining >= size and share * remaining / size >= 1.0 - _FILL_SLACK:
            complete.append(i)
            remaining -= size
            remaining_weight -= layer_weights[i - 1]
        else:
            if remaining > 0:
                sampled = tuple(range(i, total + 1))
            break
        if remaining == 0:
            break
    return SamplingPlan(KERNEL_SHAP, n_features, budget, seed,
                        tuple(complete), sampled, remaining)


def _layer_sample_masks(rng, n_features: int, layer: int,
                        n: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform without-replacement draw of n coalitions from one layer, in the
    layer's canonical order: their masks and their keys.

    One ``rng.choice`` picks the positions. A layer of at most ``_ENUM_LIMIT``
    masks is indexed through the cached :func:`layer_masks` and
    :func:`layer_keys`; a larger one has only the drawn positions unranked by
    :func:`layer_members`, and packed.

    st-shap samples a layer only after materializing every layer before it.
    For any layer of over 2^63 coalitions those masks take over 10^19 bytes,
    so the population always fits ``rng.choice``'s int64 range.
    """
    population = layer_size(n_features, layer)
    positions = np.sort(rng.choice(population, size=n, replace=False))
    if population <= _ENUM_LIMIT:
        return (np.take(layer_masks(n_features, layer), positions, axis=0),
                layer_keys(n_features, layer)[positions])
    masks = layer_members(n_features, layer, positions)
    return masks, pack(masks)


def _random_subsets(rng, n_features: int, sizes: np.ndarray) -> np.ndarray:
    """A uniform subset of each requested size, by selection sampling (Knuth,
    TAOCP vol. 2, 3.4.2, Algorithm S).

    Features are visited in order; feature j joins a row when a uniform
    integer below M - j falls under the number the row still needs, which
    happens with probability exactly need / (M - j). Each call draws one
    bounded integer per row for one feature, so the columns are built whole
    and transposed once at the end.
    """
    dtype = np.min_scalar_type(n_features)
    need = np.asarray(sizes).astype(dtype)
    columns = np.empty((n_features, len(need)), dtype=bool)
    for j in range(n_features):
        np.less(rng.integers(0, n_features - j, size=len(need), dtype=dtype), need,
                out=columns[j])
        need -= columns[j]
    return np.ascontiguousarray(columns.T)


def _draws_for(n_distinct: int, sizes: list[int], probs: list[float],
               n_features: int) -> int:
    """Draws to make so that ``n_distinct`` distinct masks are expected, plus
    a margin of 1% and 64.

    A draw of size s picks one of the C(M, s) subsets of that size, with
    chance q_s = p_s / C(M, s) each, and brings c_s masks: the subset and,
    unless 2s = M, its complement. After n draws the expected number of
    distinct masks is E[D(n)] = sum_s c_s C(M, s) (1 - (1 - q_s)^n). E[D] is
    increasing and concave with E[D(n)] <= 2n, so Newton's method started at
    n = n_distinct / 2 climbs to the root without overshooting it. A few
    steps suffice away from saturation; the step cap only bounds the cost
    near it, where the caller's follow-up batches make up any shortfall.
    """
    terms = []
    for s, p in zip(sizes, probs):
        count = comb(n_features, s)
        brings = 1 if 2 * s == n_features else 2
        terms.append((float(brings * count), log1p(-p / count)))
    n = n_distinct / 2
    for _ in range(_NEWTON_STEPS):
        short, slope = float(n_distinct), 0.0
        for count, log_miss in terms:
            short += count * expm1(n * log_miss)
            slope -= count * log_miss * exp(n * log_miss)
        step = short / slope
        n += step
        if step < 1.0:
            break
    return ceil(1.01 * n) + 64


def _global_sample(rng, n_features: int, layers: tuple[int, ...],
                   n_distinct: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel SHAP's random phase over the union of non-complete layers, in
    complement pairs as shap's ``KernelExplainer`` draws them.

    Each draw picks a layer i with probability proportional to one side's
    weight, C(M, i) times the kernel weight of size i, then a uniform subset
    of i features. Outside the middle layer of an even M the subset's
    complement comes with it at no further random cost, so every mask keeps
    an expected multiplicity proportional to its kernel weight. Draws go on,
    with replacement, until the set holds ``n_distinct`` distinct masks; a
    repeat raises the multiplicity of its subset and its complement alike,
    and the draw that brings the last mask needed may leave its complement
    out. Returns the distinct masks, each subset followed by its complement,
    in first-draw order, their keys and their multiplicities.

    The draws come in batches. The first is sized from the expected repeat
    rate (:func:`_draws_for`), so it usually holds all the masks needed; a
    batch that falls short is followed by half as many draws again as were
    made so far, which keeps the passes over every key logarithmic in
    number. Draws after the one that brings the last needed mask are made
    but not counted, so the law of the counted draws is that of drawing one
    at a time until ``n_distinct`` masks are seen. A layer is picked by
    comparing one ``rng.random`` per draw against the cumulative weights,
    as ``rng.choice`` does, without its ``searchsorted``.

    The drawn subset identifies its pair, so each pass finds the distinct
    draws (:func:`~stableshap.coalitions.pack`) on the subsets alone, with
    one unstable ``argsort``: a key's first draw is the least draw index
    among its equal keys (``np.minimum.reduceat``), and a running count of
    the key changes numbers each draw's subset. These are the arrays
    ``np.unique(keys, return_index=True, return_inverse=True)`` returns,
    without its stable sort. A complement's key is made from its subset's
    (:func:`~stableshap.coalitions.complement_keys`).
    """
    sizes = sorted(layers)
    # Python ints: C(M, s) * s * (M - s) outgrows int64 from M = 57
    probs = np.array([comb(n_features, i) * kernel_weight(n_features, i) for i in sizes])
    probs /= probs.sum()
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]

    # a middle-layer draw brings one mask, any other draw two
    brings = np.array([1 if 2 * i == n_features else 2 for i in sizes])
    batch = _draws_for(n_distinct, sizes, probs.tolist(), n_features)
    sizes = np.array(sizes, dtype=np.min_scalar_type(n_features))
    subset_blocks, layer_blocks, key_blocks = [], [], []
    while True:
        u = rng.random(batch)
        picked = np.zeros(batch, dtype=np.min_scalar_type(len(sizes)))
        for edge in cdf[:-1]:
            picked += u >= edge
        layer_blocks.append(picked)
        subset_blocks.append(_random_subsets(rng, n_features, sizes[picked]))
        key_blocks.append(pack(subset_blocks[-1]))
        keys = np.concatenate(key_blocks)
        order = np.argsort(keys)
        ordered = keys[order]
        # `!=`, not np.not_equal: the ufunc has no loop for void keys (M > 64)
        new = np.empty(len(keys), dtype=bool)
        new[0] = True
        new[1:] = ordered[1:] != ordered[:-1]
        first = np.minimum.reduceat(order, np.flatnonzero(new))
        drawn_layers = np.concatenate(layer_blocks)
        if brings[drawn_layers[first]].sum() >= n_distinct:
            break
        batch = len(keys) // 2
    # each draw's distinct subset, numbered in key order
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    # the draws that first brought each subset, in draw order, up to the one
    # that brings the n_distinct-th mask; the draws stop there, and only
    # those count
    rows = np.sort(first)
    per_row = brings[drawn_layers[rows]]
    brought = np.cumsum(per_row)
    last = int(np.searchsorted(brought, n_distinct))
    rows, per_row, brought = rows[:last + 1], per_row[:last + 1], brought[:last + 1]
    if brought[-1] > n_distinct:
        per_row[-1] = 1  # the last mask needed is the subset alone
        brought[-1] = n_distinct
    counts = np.bincount(inverse[:rows[-1] + 1], minlength=len(first))
    # every kept subset once, twice when its complement follows it; the
    # second copy is flipped into the complement
    take = np.repeat(rows, per_row)
    flip = np.zeros(len(take), dtype=bool)
    flip[brought - 1] = per_row == 2
    subsets = subset_blocks[0] if len(subset_blocks) == 1 else np.concatenate(subset_blocks)
    masks = np.take(subsets, take, axis=0)
    masks ^= flip[:, None]
    keys = keys[take]
    complement_keys(keys, flip, n_features)
    return masks, keys, counts[inverse[take]].astype(float)


def materialize(plan: SamplingPlan) -> WeightedCoalitionSet:
    """Turn a plan into concrete coalitions and regression weights.

    Complete layers carry each coalition at its own weight. A sampled st-shap
    layer spreads the full layer weight over its draws; kernel-shap's merged
    random draws are weighted by multiplicity and rescaled so the group keeps
    the total weight of every non-complete layer. The complete layers come
    first, and ``n_complete`` counts their rows. Deterministic given the
    plan's seed.
    """
    m = plan.n_features
    mask_blocks, key_blocks, weight_blocks = [], [], []
    for i in plan.complete_layers:
        mask_blocks.append(layer_masks(m, i))
        key_blocks.append(layer_keys(m, i))
        weight_blocks.append(
            np.full(layer_size(m, i), kernel_weight(m, i))
        )
    if plan.n_sampled:
        # counter-based generator, one per materialization
        rng = np.random.Generator(np.random.Philox(plan.seed))
        if plan.strategy == ST_SHAP:
            (layer,) = plan.sampled_layers
            assert plan.n_sampled < layer_size(m, layer)
            masks, keys = _layer_sample_masks(rng, m, layer, plan.n_sampled)
            per_draw = layer_total_weight(m, layer) / plan.n_sampled
            weight_blocks.append(np.full(plan.n_sampled, per_draw))
        else:
            masks, keys, multiplicities = _global_sample(
                rng, m, plan.sampled_layers, plan.n_sampled
            )
            pool_weight = sum(layer_total_weight(m, i) for i in plan.sampled_layers)
            weight_blocks.append(multiplicities * (pool_weight / multiplicities.sum()))
        mask_blocks.append(masks)
        key_blocks.append(keys)
    if not mask_blocks:
        raise ValueError("plan materialized nothing")
    return WeightedCoalitionSet(
        np.vstack(mask_blocks), np.concatenate(weight_blocks),
        n_complete=plan.budget - plan.n_sampled, keys=np.concatenate(key_blocks),
    )
