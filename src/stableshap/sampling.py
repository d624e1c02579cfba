"""Coalition-set generation for the surrogate regression.

Two strategies share the same layer-filling skeleton but differ in when they
stop enumerating and where the leftover randomness lives:

* ``kernel-shap``: a layer is filled only while its share of the remaining
  coalition weight would cover it anyway; after the first refusal, the whole
  leftover budget is drawn (with replacement, weight-proportionally) from all
  non-complete layers, duplicates merged by multiplicity.
* ``st-shap``: layers are filled in order while the budget lasts; the first
  layer that does not fit absorbs the leftover as a uniform
  without-replacement draw, and deeper layers get nothing. Budgets that land
  exactly on layer boundaries are fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .coalitions import (
    kernel_weight,
    layer_masks,
    layer_member,
    layer_size,
    layer_total_weight,
    n_layers,
)

KERNEL_SHAP = "kernel-shap"
ST_SHAP = "st-shap"

# layers small enough to index by enumeration; larger ones are unranked lazily
_ENUM_LIMIT = 1 << 20
# matches the reference tolerance for "the expected draws cover this layer"
_FILL_SLACK = 1e-8


def validate_budget(n_features: int, budget: int) -> None:
    if n_features < 2:
        raise ValueError(f"need at least 2 features, got M={n_features}")
    top = 2**n_features - 2
    if not 2 <= budget <= top:
        raise ValueError(
            f"budget {budget} outside the valid range [2, {top}] for M={n_features}"
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

    ``complete`` marks a union of complete layers: every mask of each size
    present, at one weight per size. The surrogate fit then has a closed
    form (see :mod:`stableshap.explainer`).
    """

    masks: np.ndarray  # (n, M) bool
    weights: np.ndarray  # (n,) positive finite
    complete: bool = False

    def __post_init__(self):
        if self.masks.ndim != 2 or len(self.weights) != len(self.masks):
            raise ValueError("masks and weights must align")

    def __len__(self) -> int:
        return len(self.masks)

    @property
    def n_features(self) -> int:
        return self.masks.shape[1]

    def validate(self) -> None:
        """Check set invariants; test hook, not a hot-path guard."""
        if not np.all(np.isfinite(self.weights)) or np.any(self.weights <= 0):
            raise ValueError("regression weights must be positive and finite")
        sizes = self.masks.sum(axis=1)
        if np.any(sizes == 0) or np.any(sizes == self.n_features):
            raise ValueError("empty or grand coalition leaked into the set")
        seen = {row.tobytes() for row in np.packbits(self.masks, axis=1)}
        if len(seen) != len(self.masks):
            raise ValueError("duplicate coalitions in the set")
        if self.complete:
            for size in np.unique(sizes):
                if np.count_nonzero(sizes == size) != comb(self.n_features, int(size)):
                    raise ValueError(f"size-{size} coalitions missing from a complete set")
                if len(np.unique(self.weights[sizes == size])) != 1:
                    raise ValueError(f"size-{size} coalitions weighted unequally "
                                     "in a complete set")


def plan_st_shap(n_features: int, budget: int, seed: int) -> SamplingPlan:
    """Fill layers in order while they fit; leftover sampled inside one layer."""
    validate_budget(n_features, budget)
    remaining = budget
    complete = []
    sampled: tuple[int, ...] = ()
    for i in range(1, n_layers(n_features) + 1):
        size = layer_size(n_features, i)
        if remaining >= size:
            complete.append(i)
            remaining -= size
        else:
            if remaining > 0:
                sampled = (i,)
            break
        if remaining == 0:
            break
    return SamplingPlan(ST_SHAP, n_features, budget, seed,
                        tuple(complete), sampled, remaining)


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


def _rng_for(plan: SamplingPlan) -> np.random.Generator:
    # counter-based generator, one per materialization
    return np.random.Generator(np.random.Philox(plan.seed))


def _layer_sample_masks(rng, n_features: int, layer: int, n: int) -> np.ndarray:
    """Uniform without-replacement draw of n coalitions from one layer."""
    population = layer_size(n_features, layer)
    if population <= 2**62:
        positions = np.sort(rng.choice(population, size=n, replace=False))
        if population <= _ENUM_LIMIT:
            return layer_masks(n_features, layer)[positions]
        return np.array(
            [layer_member(n_features, layer, int(p)) for p in positions], dtype=bool
        )
    # astronomically large layer: collisions are vanishingly rare, reject them
    seen = set()
    rows = []
    while len(rows) < n:
        if 2 * layer == n_features:
            size = layer
        else:
            size = layer if rng.integers(0, 2) == 0 else n_features - layer
        mask = np.zeros(n_features, dtype=bool)
        mask[rng.choice(n_features, size=size, replace=False)] = True
        key = mask.tobytes()
        if key not in seen:
            seen.add(key)
            rows.append(mask)
    return np.array(rows, dtype=bool)


def _random_subsets(rng, n_features: int, sizes: np.ndarray) -> np.ndarray:
    # uniform subset of each requested size: the s smallest of M iid uniforms
    noise = rng.random((len(sizes), n_features))
    rank = noise.argsort(axis=1).argsort(axis=1)
    return rank < sizes[:, None]


def _global_sample(rng, n_features: int, layers: tuple[int, ...],
                   n_distinct: int) -> tuple[np.ndarray, np.ndarray]:
    """Kernel SHAP's random phase over the union of non-complete layers.

    Single coalitions are drawn with replacement, proportionally to their
    weight, until the set holds ``n_distinct`` distinct masks; repeats raise
    a mask's multiplicity instead of occupying budget. Returns the distinct
    masks in first-appearance order plus their multiplicities.
    """
    sizes = []
    for i in layers:
        sizes.append(i)
        if 2 * i != n_features:
            sizes.append(n_features - i)
    sizes = np.array(sorted(sizes))
    probs = np.array(
        [comb(n_features, s) * kernel_weight(n_features, s) for s in sizes]
    )
    probs /= probs.sum()

    order: list[bytes] = []  # distinct keys, first-appearance order
    counts: dict[bytes, int] = {}
    first_rows: dict[bytes, np.ndarray] = {}
    while len(order) < n_distinct:
        batch = max(2 * (n_distinct - len(order)), 64)
        drawn_sizes = rng.choice(sizes, size=batch, p=probs)
        masks = _random_subsets(rng, n_features, drawn_sizes)
        for row in masks:
            key = row.tobytes()
            if key in counts:
                counts[key] += 1
            else:
                counts[key] = 1
                order.append(key)
                first_rows[key] = row
            if len(order) == n_distinct:
                break
    out_masks = np.array([first_rows[k] for k in order], dtype=bool)
    multiplicities = np.array([counts[k] for k in order], dtype=float)
    return out_masks, multiplicities


def materialize(plan: SamplingPlan) -> WeightedCoalitionSet:
    """Turn a plan into concrete coalitions and regression weights.

    Complete layers carry each coalition at its own weight. A sampled st-shap
    layer spreads the full layer weight over its draws; kernel-shap's merged
    random draws are weighted by multiplicity and rescaled so the group keeps
    the total weight of every non-complete layer. A plan that samples nothing
    gives a set marked ``complete``. Deterministic given the plan's seed.
    """
    m = plan.n_features
    mask_blocks = []
    weight_blocks = []
    for i in plan.complete_layers:
        mask_blocks.append(layer_masks(m, i))
        weight_blocks.append(
            np.full(layer_size(m, i), kernel_weight(m, i))
        )
    if plan.n_sampled:
        rng = _rng_for(plan)
        if plan.strategy == ST_SHAP:
            (layer,) = plan.sampled_layers
            assert plan.n_sampled < layer_size(m, layer)
            masks = _layer_sample_masks(rng, m, layer, plan.n_sampled)
            per_draw = layer_total_weight(m, layer) / plan.n_sampled
            mask_blocks.append(masks)
            weight_blocks.append(np.full(plan.n_sampled, per_draw))
        else:
            masks, multiplicities = _global_sample(
                rng, m, plan.sampled_layers, plan.n_sampled
            )
            pool_weight = sum(layer_total_weight(m, i) for i in plan.sampled_layers)
            mask_blocks.append(masks)
            weight_blocks.append(multiplicities * (pool_weight / multiplicities.sum()))
    if not mask_blocks:
        raise ValueError("plan materialized nothing")
    return WeightedCoalitionSet(
        np.vstack(mask_blocks), np.concatenate(weight_blocks),
        complete=plan.n_sampled == 0,
    )
