"""Attribution from first-layer coalitions only.

Layer 1 holds the coalitions where a single feature is present or a single
feature is absent. It is complete, so the surrogate fit on it has the closed
form of :mod:`stableshap.explainer`, which on layer 1 reads

    phi_j = tilde_j + (delta - sum_i tilde_i) / M

with tilde_i = (f({i}) - f(empty) + f(full) - f(full minus {i})) / 2 and
delta = f(full) - f(empty). That is 2M + 2 payoff evaluations instead of the
exponential sweep the exact values need (4 at M = 2, where the
single-present and single-absent coalitions coincide).
"""

from __future__ import annotations

from dataclasses import replace

from .coalitions import layer_size
from .explainer import LAYER1, Explanation, explain_with_training_set
from .sampling import ST_SHAP


def layer1_attribution(x, model, background) -> Explanation:
    """First-layer attribution scores for one instance: the st-shap pipeline
    at the layer-1 budget, which samples nothing and so uses no seed."""
    explanation = explain_with_training_set(x, model, background, ST_SHAP,
                                            layer_size(model.n_features, 1), seed=0)[0]
    return replace(explanation, strategy=LAYER1, seed=None)
