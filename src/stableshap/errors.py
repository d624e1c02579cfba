"""Exception hierarchy shared across the toolkit."""


class StableShapError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(StableShapError):
    """Invalid run configuration, dataset, or argument combination."""


class ModelBridgeError(StableShapError):
    """The external model process failed or produced malformed output."""

    def __init__(self, message: str, batch_index: int | None = None):
        if batch_index is not None:
            message = f"batch {batch_index}: {message}"
        super().__init__(message)
        self.batch_index = batch_index


class OracleCapError(StableShapError):
    """Exact enumeration refused because the feature count exceeds the cap."""

    def __init__(self, n_features: int, cap: int):
        super().__init__(
            f"exact computation over {n_features} features needs "
            f"{2**n_features} coalition evaluations; the cap is {cap} features"
        )
        self.n_features = n_features
        self.cap = cap


class RankDeficiencyError(StableShapError):
    """A sampled coalition set has too few coalitions to determine its fit."""


class UndefinedMetricError(StableShapError, ValueError):
    """A metric is undefined for its scores, as a constant vector's rank correlation is."""


class GameTableError(StableShapError):
    """A table key is no mask or a table lacks a coalition, a mask lies outside
    the game's players, or a game's JSON form misses or misstates a field
    (a non-finite or out-of-range number included)."""


class NonFinitePayoffError(StableShapError):
    """A coalition payoff came out NaN or infinite, so no attribution is meaningful."""

    def __init__(self, coalition: str, payoff: float):
        super().__init__(
            f"coalition {coalition} (character i = feature i) has payoff {payoff!r}; "
            "the model or the background data produced a non-finite value"
        )
        self.coalition = coalition
        self.payoff = payoff
