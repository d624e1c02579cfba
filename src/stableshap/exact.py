"""Ground-truth attribution values by exhaustive enumeration.

The subset-sum form over all 2^M coalitions, whose payoffs come from
:func:`stableshap.value_function.all_payoffs`. The test suite checks it against
an independent permutation form that averages marginal contributions over
all M! player orderings.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import OracleCapError
from .games import SyntheticGame
from .models import GameModel
# CAP: most features enumerated. At M=20 one instance peaks under tracemalloc
# at 18.57 MiB for ridge with one background row and 17.57 MiB for a table game
from .value_function import CAP, all_payoffs


@dataclass(frozen=True)
class ExactValues:
    """Exhaustively computed attribution values."""

    phis: tuple[float, ...]
    phi0: float
    eval_count: int

    def phi_array(self) -> np.ndarray:
        return np.array(self.phis)


def _subset_weights(n_features: int) -> np.ndarray:
    # (s-1)! (M-s)! / M! = 1 / (M C(M-1, s-1)): one correctly rounded int division
    weights = np.empty(n_features + 1)
    weights[0] = 0.0  # unused: a coalition containing i has size >= 1
    for s in range(1, n_features + 1):
        weights[s] = 1 / (n_features * comb(n_features - 1, s - 1))
    return weights


def _phis_from_values(values: np.ndarray, n_features: int) -> np.ndarray:
    # popcount of every mask integer, one byte each: the masks with bit i
    # set are those without it, shifted up by 2^i, with one more feature
    sizes = np.zeros(1, dtype=np.uint8)
    for _ in range(n_features):
        sizes = np.concatenate((sizes, sizes + 1))
    weights = _subset_weights(n_features)
    phis = np.empty(n_features)
    for i in range(n_features):
        # axes (higher bits, bit i, lower bits): [:, 1] holds the coalitions
        # with i and [:, 0] the same ones without it, both in mask order
        v = values.reshape(-1, 2, 1 << i)
        deltas = (v[:, 1] - v[:, 0]).reshape(-1)
        # numpy's pairwise sum, not a BLAS dot: the same bits on every kernel
        deltas *= weights[sizes.reshape(-1, 2, 1 << i)[:, 1].reshape(-1)]
        phis[i] = float(np.add.reduce(deltas))
    return phis


def exact_shap(x, model, background) -> ExactValues:
    """Exact attribution values by the subset-sum formula over all coalitions."""
    m = model.n_features
    if m > CAP:
        raise OracleCapError(m, CAP)
    values = all_payoffs(x, background, model)
    phis = _phis_from_values(values, m)
    return ExactValues(tuple(float(v) for v in phis), float(values[0]), 2**m)


def exact_shap_game(game: SyntheticGame) -> ExactValues:
    """Exact values of a synthetic game; no instance or background involved."""
    return exact_shap(None, GameModel(game), None)

