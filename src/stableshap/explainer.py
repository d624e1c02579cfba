"""Surrogate fitting: attribution scores from a weighted coalition set.

The surrogate is linear in the coalition mask with a pinned intercept (the
empty-coalition payoff) and a hard sum constraint (attributions plus intercept
must reproduce the prediction on the explained instance).

On a union of complete layers (every st-shap or kernel-shap set whose plan
sampled nothing) the weighted Gram matrix is exactly ``aI + b11^T``: every
feature is present in the same total weight, and so is every pair. The
constrained fit then has the closed form

    phi = r/a + (delta - sum(r/a)) / k

over the k free features, with r = sum_S w_S (v_S - phi0) z_S, delta = f(x) -
phi0, and a the weight of the coalitions holding feature 0 but not feature 1
(Lundberg & Lee 2017 derive the weights). No Gram matrix is built and no
linear system is solved. The first-layer attribution is this form on layer 1.

Any other set eliminates the highest-indexed free coefficient, which turns the
problem into an unconstrained weighted regression solved by normal equations.
Its Gram matrix is checked for rank: a set with fewer coalitions than free
coefficients raises RankDeficiencyError, and a larger rank-deficient set gets
the least-norm fit, so features that no coalition separates are treated alike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import RankDeficiencyError
from .sampling import (
    KERNEL_SHAP,
    ST_SHAP,
    SamplingPlan,
    WeightedCoalitionSet,
    materialize,
    plan_kernel_shap,
    plan_st_shap,
)
from .value_function import anchors, evaluate_batch

LAYER1 = "layer1"


@dataclass(frozen=True)
class Explanation:
    """Intercept plus per-feature attribution scores, with provenance."""

    phi0: float
    phis: tuple[float, ...]
    support: tuple[int, ...]
    strategy: str
    budget: int | None
    seed: int | None
    fx: float

    @property
    def n_features(self) -> int:
        return len(self.phis)

    def phi_array(self) -> np.ndarray:
        return np.array(self.phis)

    def local_accuracy_gap(self) -> float:
        return abs(self.phi0 + sum(self.phis) - self.fx)

    def to_json_dict(self) -> dict:
        return {
            "phi0": self.phi0,
            "phis": list(self.phis),
            "support": list(self.support),
            "strategy": self.strategy,
            "budget": self.budget,
            "seed": self.seed,
            "fx": self.fx,
        }


def _constrained_fit(coalition_set: WeightedCoalitionSet, values: np.ndarray,
                     phi0: float, fx: float, free: np.ndarray,
                     context: str) -> np.ndarray:
    """Weighted fit with coefficients outside `free` pinned to zero and the
    free ones constrained to sum to fx - phi0. `free` is sorted ascending;
    outside the closed form its last entry is the eliminated coefficient."""
    masks, weights = coalition_set.masks, coalition_set.weights
    phis = np.zeros(masks.shape[1])
    delta = fx - phi0
    if coalition_set.complete:
        r = (weights * (values - phi0)) @ masks[:, free]
        a = weights[masks[:, 0] & ~masks[:, 1]].sum()
        phis[free] = r / a + (delta - (r / a).sum()) / len(free)
        return phis
    if len(free) == 1:
        phis[free] = delta
        return phis
    z = masks[:, free].astype(float)
    X = z[:, :-1] - z[:, -1:]
    wx = weights[:, None] * X
    gram = X.T @ wx
    rank = np.linalg.matrix_rank(gram, hermitian=True)
    if rank == len(gram):
        sol = np.linalg.solve(gram, wx.T @ (values - phi0 - z[:, -1] * delta))
        phis[free[:-1]] = sol
        phis[free[-1]] = delta - sol.sum()
        return phis
    if len(z) < len(gram):
        raise RankDeficiencyError(
            f"the coalitions determine {rank} of {len(gram)} free coefficients ({context})")
    # the draws left a direction unobserved: phi = delta/k + u with u orthogonal
    # to 1, so the least-norm u on the centred design gives the least-norm phi
    sw = np.sqrt(weights)
    u = np.linalg.lstsq(sw[:, None] * (z - z.mean(axis=1, keepdims=True)),
                        sw * (values - phi0 - z.mean(axis=1) * delta), rcond=None)[0]
    phis[free] = delta / len(free) + u
    return phis


def fit(coalition_set: WeightedCoalitionSet, values, phi0: float, fx: float,
        *, strategy: str = "custom", budget: int | None = None,
        seed: int | None = None) -> Explanation:
    """Dense constrained fit over every feature."""
    values = np.asarray(values, dtype=float)
    if len(values) != len(coalition_set):
        raise ValueError("values must align with the coalition set")
    m = coalition_set.n_features
    context = f"strategy={strategy} budget={budget} n={len(coalition_set)} M={m}"
    phis = _constrained_fit(coalition_set, values, phi0, fx, np.arange(m), context)
    support = tuple(int(i) for i in np.flatnonzero(phis))
    return Explanation(float(phi0), tuple(float(v) for v in phis), support,
                       strategy, budget, seed, float(fx))


def sparsify(explanation: Explanation, k: int,
             coalition_set: WeightedCoalitionSet, values) -> Explanation:
    """Keep the k largest-magnitude features and re-fit with the rest pinned
    to zero. Magnitude ties break toward the lower feature index."""
    m = explanation.n_features
    if not 1 <= k <= m:
        raise ValueError(f"explanation size {k} outside 1..{m}")
    values = np.asarray(values, dtype=float)
    magnitudes = np.abs(explanation.phi_array())
    ranked = np.lexsort((np.arange(m), -magnitudes))
    selected = np.sort(ranked[:k])
    context = (f"sparsify k={k} strategy={explanation.strategy} "
               f"budget={explanation.budget} n={len(coalition_set)} M={m}")
    phis = _constrained_fit(coalition_set, values, explanation.phi0, explanation.fx,
                            selected, context)
    return replace(
        explanation,
        phis=tuple(float(v) for v in phis),
        support=tuple(int(i) for i in selected),
    )


def plan_for(strategy: str, n_features: int, budget: int, seed: int) -> SamplingPlan:
    if strategy == ST_SHAP:
        return plan_st_shap(n_features, budget, seed)
    if strategy == KERNEL_SHAP:
        return plan_kernel_shap(n_features, budget, seed)
    raise ValueError(f"unknown sampling strategy: {strategy!r}")


def explain_with_training_set(x, model, background, strategy: str, budget: int,
                              seed: int, explanation_size: int | None = None):
    """The one pipeline behind `explain`, the first-layer attribution and the
    adherence metric: plan, materialize, evaluate, fit, optionally sparsify.
    Returns (explanation, coalition set, payoffs)."""
    plan = plan_for(strategy, model.n_features, budget, seed)
    coalition_set = materialize(plan)
    values = evaluate_batch(coalition_set.masks, x, background, model)
    phi0, fx = anchors(x, background, model)
    explanation = fit(coalition_set, values, phi0, fx,
                      strategy=strategy, budget=budget, seed=seed)
    if explanation_size is not None:
        explanation = sparsify(explanation, explanation_size, coalition_set, values)
    return explanation, coalition_set, values


def explain(x, model, background, strategy: str, budget: int, seed: int,
            explanation_size: int | None = None) -> Explanation:
    """Full pipeline: plan, materialize, evaluate, fit, optionally sparsify."""
    return explain_with_training_set(x, model, background, strategy, budget, seed,
                                     explanation_size)[0]
