"""Model adapters: the scalar-valued black boxes the explainers interrogate.

Every adapter exposes ``n_features`` and a deterministic, order-preserving
``predict(rows) -> values``. Classifiers are reduced to a scalar by explaining
the probability of one designated class. :class:`GameModel` is the odd one
out: it evaluates coalitions directly (see ``coalition_values``) and has no
row predictor at all.

Adapter contract: for as long as an adapter object lives, its predictions
must be a pure function of the rows, independent of the batch they arrive in.
Coalition payoffs are memoized per adapter object (see
:mod:`stableshap.value_function`): the memo holds the payoffs of the most
recent (instance, background) pair, at most 2^M of them, and is dropped with
the adapter. A model that is re-fit or otherwise changed therefore needs a new
adapter object.
"""

from __future__ import annotations

import shlex
import subprocess
import threading

import numpy as np

from .errors import ModelBridgeError, StableShapError
from .games import SyntheticGame

_PREDICT_CHUNK = 1024  # bounds the (chunk, n_train, M) distance broadcast


def _as_matrix(rows, n_features: int) -> np.ndarray:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    if rows.ndim != 2 or rows.shape[1] != n_features:
        raise ValueError(f"expected rows of shape (n, {n_features}), got {rows.shape}")
    return rows


class RidgeRegressionModel:
    """Linear regressor fit by ridge-regularized normal equations."""

    def __init__(self, coef: np.ndarray, intercept: float):
        self.coef = np.asarray(coef, dtype=float)
        self.intercept = float(intercept)
        self.n_features = len(self.coef)

    @classmethod
    def fit(cls, X, y, ridge: float = 1e-6) -> "RidgeRegressionModel":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        n, m = X.shape
        aug = np.column_stack([X, np.ones(n)])
        gram = aug.T @ aug
        penalty = np.full(m + 1, ridge)
        penalty[-1] = 0.0  # intercept unpenalized
        gram[np.diag_indices_from(gram)] += penalty
        beta = np.linalg.solve(gram, aug.T @ y)
        return cls(beta[:-1], beta[-1])

    def predict(self, rows) -> np.ndarray:
        rows = _as_matrix(rows, self.n_features)
        return rows @ self.coef + self.intercept


class KNNClassifierModel:
    """k-nearest-neighbor classifier; probabilities are vote fractions.

    Distance ties are broken by training-row order (stable sort), which keeps
    predictions deterministic.
    """

    def __init__(self, X, y, k: int = 5):
        self.X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if not np.issubdtype(y.dtype, np.integer):
            raise ValueError("k-NN targets must be integer class labels")
        self.y = y
        self.classes = np.unique(y)
        if k < 1 or k > len(self.X):
            raise ValueError(f"k={k} invalid for {len(self.X)} training rows")
        self.k = k
        self.n_features = self.X.shape[1]
        self._class_pos = {int(c): i for i, c in enumerate(self.classes)}

    def predict_proba(self, rows) -> np.ndarray:
        rows = _as_matrix(rows, self.n_features)
        out = np.empty((len(rows), len(self.classes)))
        for start in range(0, len(rows), _PREDICT_CHUNK):
            block = rows[start:start + _PREDICT_CHUNK]
            d2 = ((block[:, None, :] - self.X[None, :, :]) ** 2).sum(axis=2)
            nearest = np.argsort(d2, axis=1, kind="stable")[:, :self.k]
            votes = self.y[nearest]
            for ci, c in enumerate(self.classes):
                out[start:start + len(block), ci] = (votes == c).mean(axis=1)
        return out

    def predicted_class(self, row) -> int:
        proba = self.predict_proba(np.asarray(row, dtype=float).reshape(1, -1))[0]
        return int(self.classes[int(np.argmax(proba))])


class ClassProbabilityModel:
    """Scalar view of a classifier: probability of one designated class."""

    def __init__(self, base: KNNClassifierModel, explained_class: int):
        if int(explained_class) not in base._class_pos:
            raise ValueError(f"class {explained_class} unknown to the model")
        self.base = base
        self.explained_class = int(explained_class)
        self.n_features = base.n_features
        self._pos = base._class_pos[self.explained_class]

    def predict(self, rows) -> np.ndarray:
        return self.base.predict_proba(rows)[:, self._pos]


class CallableModel:
    """Adapter around a plain ``f(rows) -> values`` function."""

    def __init__(self, fn, n_features: int):
        self.fn = fn
        self.n_features = n_features

    def predict(self, rows) -> np.ndarray:
        rows = _as_matrix(rows, self.n_features)
        out = np.asarray(self.fn(rows), dtype=float).reshape(-1)
        if len(out) != len(rows):
            raise StableShapError(
                f"model returned {len(out)} outputs for {len(rows)} rows"
            )
        return out


class GameModel:
    """Direct synthetic-game adapter: coalitions are payoffs, not masked rows."""

    def __init__(self, game: SyntheticGame):
        self.game = game
        self.n_features = game.n_players

    def coalition_values(self, masks: np.ndarray) -> np.ndarray:
        return np.asarray(self.game.coalition_values(masks), dtype=float)

    def predict(self, rows):
        raise StableShapError(
            "a direct game adapter evaluates coalitions, not feature rows"
        )


class ExternalProcessModel:
    """Bridge to a user-supplied prediction process.

    Each batch is written as CSV rows (one instance per line, full-precision
    decimals) followed by a blank line; the child must answer with exactly one
    decimal per input line. Access is serialized: one in-flight batch per
    process.
    """

    def __init__(self, command, n_features: int):
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        self.n_features = n_features
        self._proc: subprocess.Popen | None = None
        self._lock = threading.Lock()
        self._batch_index = 0

    def _ensure_started(self):
        if self._proc is None or self._proc.poll() is not None:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )

    def predict(self, rows) -> np.ndarray:
        rows = _as_matrix(rows, self.n_features)
        with self._lock:
            batch = self._batch_index
            self._batch_index += 1
            self._ensure_started()
            proc = self._proc
            try:
                payload = "".join(
                    ",".join(repr(float(v)) for v in row) + "\n" for row in rows
                )
                proc.stdin.write(payload + "\n")
                proc.stdin.flush()
            except (BrokenPipeError, OSError) as exc:
                raise ModelBridgeError(
                    f"model process died while receiving input: {exc}", batch
                ) from exc
            out = np.empty(len(rows))
            for i in range(len(rows)):
                line = proc.stdout.readline()
                if line == "":
                    code = proc.poll()
                    raise ModelBridgeError(
                        f"model process closed its output after {i} of {len(rows)} "
                        f"predictions (exit code {code})",
                        batch,
                    )
                try:
                    out[i] = float(line.strip())
                except ValueError:
                    raise ModelBridgeError(
                        f"malformed prediction line {i}: {line.strip()!r}", batch
                    ) from None
            return out

    def close(self):
        if self._proc is not None and self._proc.poll() is None:
            self._proc.stdin.close()
            self._proc.wait(timeout=10)
        self._proc = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
