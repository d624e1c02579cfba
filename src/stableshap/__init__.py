"""Stable Shapley-value attributions.

Coalition sampling in two flavours (the classic weight-guided generator and
the layer-saturating stable variant), a constrained weighted least-squares
surrogate with a closed form on complete layers (the first-layer attribution
among them), an exact brute-force oracle, and the stability/fidelity metrics
to benchmark them.
"""

from .coalitions import (
    complete_layer_budgets,
    kernel_weight,
    layer_size,
    n_layers,
)
from .errors import (
    ConfigError,
    GameTableError,
    ModelBridgeError,
    NonFinitePayoffError,
    OracleCapError,
    RankDeficiencyError,
    StableShapError,
)
from .exact import ExactValues, exact_shap, exact_shap_game, exact_shap_permutation
from .explainer import LAYER1, Explanation, explain, fit, sparsify
from .games import SyntheticGame
from .layer1 import layer1_attribution
from .metrics import adherence, jaccard_n, kendall_tau, r2_score
from .models import (
    CallableModel,
    ClassProbabilityModel,
    ExternalProcessModel,
    GameModel,
    KNNClassifierModel,
    RidgeRegressionModel,
)
from .sampling import (
    KERNEL_SHAP,
    ST_SHAP,
    SamplingPlan,
    WeightedCoalitionSet,
    materialize,
    plan_kernel_shap,
    plan_st_shap,
)
from .value_function import evaluate_batch

__version__ = "0.1.0"

__all__ = [
    "CallableModel",
    "ClassProbabilityModel",
    "ConfigError",
    "ExactValues",
    "Explanation",
    "ExternalProcessModel",
    "GameModel",
    "GameTableError",
    "KERNEL_SHAP",
    "KNNClassifierModel",
    "LAYER1",
    "ModelBridgeError",
    "NonFinitePayoffError",
    "OracleCapError",
    "RankDeficiencyError",
    "RidgeRegressionModel",
    "ST_SHAP",
    "SamplingPlan",
    "StableShapError",
    "SyntheticGame",
    "WeightedCoalitionSet",
    "adherence",
    "complete_layer_budgets",
    "evaluate_batch",
    "exact_shap",
    "exact_shap_game",
    "exact_shap_permutation",
    "explain",
    "fit",
    "jaccard_n",
    "kendall_tau",
    "kernel_weight",
    "layer1_attribution",
    "layer_size",
    "materialize",
    "n_layers",
    "plan_kernel_shap",
    "plan_st_shap",
    "r2_score",
    "sparsify",
]
