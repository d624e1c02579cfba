"""Stable Shapley-value attributions.

Coalition sampling in two flavours (the classic weight-guided generator and
the layer-saturating stable variant), a constrained weighted least-squares
surrogate with a closed form on complete layers (the first-layer attribution
among them), an exact brute-force oracle, and the stability/fidelity metrics
to benchmark them.

The top level holds what a caller of the library needs. The building blocks
(plans, coalition sets, the fit, payoff evaluation, layer arithmetic) stay
importable from their modules: :mod:`stableshap.sampling`,
:mod:`stableshap.explainer`, :mod:`stableshap.value_function`,
:mod:`stableshap.coalitions`, :mod:`stableshap.metrics`.
"""

from .coalitions import complete_layer_budgets
from .errors import (
    ConfigError,
    GameTableError,
    ModelBridgeError,
    NonFinitePayoffError,
    OracleCapError,
    RankDeficiencyError,
    StableShapError,
)
from .exact import exact_shap, exact_shap_game
from .explainer import explain
from .games import SyntheticGame
from .layer1 import layer1_attribution
from .metrics import jaccard_n, kendall_tau
from .models import (
    CallableModel,
    ClassProbabilityModel,
    ExternalProcessModel,
    GameModel,
    KNNClassifierModel,
    RidgeRegressionModel,
)
from .sampling import KERNEL_SHAP, ST_SHAP

__version__ = "0.1.0"

__all__ = [
    "CallableModel",
    "ClassProbabilityModel",
    "ConfigError",
    "ExternalProcessModel",
    "GameModel",
    "GameTableError",
    "KERNEL_SHAP",
    "KNNClassifierModel",
    "ModelBridgeError",
    "NonFinitePayoffError",
    "OracleCapError",
    "RankDeficiencyError",
    "RidgeRegressionModel",
    "ST_SHAP",
    "StableShapError",
    "SyntheticGame",
    "complete_layer_budgets",
    "exact_shap",
    "exact_shap_game",
    "explain",
    "jaccard_n",
    "kendall_tau",
    "layer1_attribution",
]
