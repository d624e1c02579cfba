"""Stability, adherence, and agreement metrics."""

from __future__ import annotations

import numpy as np

from .errors import UndefinedMetricError
from .explainer import Explanation
from .sampling import WeightedCoalitionSet

REGRESSION = "regression"
CLASSIFICATION = "classification"

# decision boundary for class-probability outputs
_CLASS_THRESHOLD = 0.5


def jaccard_n(sets) -> float:
    """n-way intersection over n-way union of feature-index sets."""
    sets = [frozenset(s) for s in sets]
    if len(sets) < 2:
        raise ValueError("need at least 2 sets")
    if any(not s for s in sets):
        raise ValueError("sets must be non-empty")
    union = frozenset.union(*sets)
    intersection = frozenset.intersection(*sets)
    return len(intersection) / len(union)


def kendall_tau(a, b, *, names: tuple[str, str] = ("a", "b")) -> float:
    """Tie-corrected (tau-b) rank correlation between two score vectors.

    Pair-counting form: ties on either side drop out of the numerator and
    shrink the corresponding normalizer. Identical rankings give exactly 1.0.
    Undefined when ``a`` or ``b`` is constant; the error names the first
    that is by its entry in ``names``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 2:
        raise ValueError("need two equal-length vectors of length >= 2")
    for name, v in zip(names, (a, b)):
        if np.all(v == v[0]):
            raise UndefinedMetricError(f"rank correlation undefined: {name} is constant")
    iu = np.triu_indices(len(a), k=1)
    sign_a = np.sign(a[:, None] - a[None, :])[iu]
    sign_b = np.sign(b[:, None] - b[None, :])[iu]
    numerator = float((sign_a * sign_b).sum())
    n_pairs = len(sign_a)
    ties_a = int((sign_a == 0).sum())
    ties_b = int((sign_b == 0).sum())
    return float(numerator / np.sqrt(float(n_pairs - ties_a) * float(n_pairs - ties_b)))


def r2_score(reference, candidate) -> float:
    """Share of the reference's variance matched by the candidate.

    1 means exact agreement, 0 the naive constant predictor, negative worse
    than that. Not symmetric: the reference fixes the variance normalizer.
    """
    reference = np.asarray(reference, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    if reference.shape != candidate.shape or reference.ndim != 1 or len(reference) < 2:
        raise ValueError("need two equal-length vectors of length >= 2")
    ss_tot = float(((reference - reference.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise UndefinedMetricError("r2 undefined: the reference has zero variance")
    ss_res = float(((reference - candidate) ** 2).sum())
    return 1.0 - ss_res / ss_tot


def adherence(coalition_set: WeightedCoalitionSet, values,
              explanation: Explanation, task: str) -> float:
    """Fidelity of the surrogate to the black box over its training coalitions.

    Regression compares by r2; classification by the fraction of coalitions
    where both outputs land on the same side of the 0.5 probability boundary.
    """
    values = np.asarray(values, dtype=float)
    if len(values) != len(coalition_set):
        raise ValueError("values must align with the coalition set")
    g = explanation.phi0 + coalition_set.masks.astype(float) @ explanation.phi_array()
    if task == REGRESSION:
        return r2_score(values, g)
    if task == CLASSIFICATION:
        return float(((g >= _CLASS_THRESHOLD) == (values >= _CLASS_THRESHOLD)).mean())
    raise ValueError(f"unknown task: {task!r}")
