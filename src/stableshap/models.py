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

:class:`KNNClassifierModel` finds neighbours from fast matrix-product
distances and rechecks rows near a distance tie with the exact formula, so its
probabilities are bit-identical to an exact-distance, stable-sort k-NN.
"""

from __future__ import annotations

import shlex
import subprocess
import threading

import numpy as np

from .errors import ModelBridgeError, StableShapError
from .games import SyntheticGame

# Rows per k-NN block: bounds the (chunk, n_train) distance matrix, and the
# (unsure rows, n_train, M) broadcast of the exact recheck within a block.
_PREDICT_CHUNK = 1024


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


def _stable_nearest(rows: np.ndarray, X: np.ndarray, k: int) -> np.ndarray:
    """Each row's k nearest training rows by the exact squared distance
    ``((row - t) ** 2).sum()``; ties go to the lower training row."""
    d2 = ((rows[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


class KNNClassifierModel:
    """k-nearest-neighbor classifier; probabilities are vote fractions.

    The neighbours of a row are the k training rows with the smallest exact
    squared distance ``((row - t) ** 2).sum()``, distance ties broken by
    training-row order (stable sort), which keeps predictions deterministic.

    For speed, distances are first computed as ``|row|^2 - 2 row.t + |t|^2``,
    one matrix product per block of rows, and the k nearest are taken with a
    partition. The vote fractions depend only on the set of the k nearest, not
    on their order. Rows whose k-th and (k+1)-th fast distances are too close
    for that rounding to separate are rechecked with the exact distance and the
    stable sort, so the probabilities are bit-identical to the exact formula's.
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
        self._sq_norms = np.einsum("ij,ij->i", self.X, self.X)
        self._max_sq_norm = self._sq_norms.max()
        # How far a fast distance F may be from the exact one D, for a row r
        # with M features; u is the unit roundoff, gamma_n = nu / (1 - nu).
        # A sum or dot product of n terms, in any order (BLAS included), is
        # within gamma_n of the sum of the terms' magnitudes, and each further
        # rounding adds one to n (Higham, Accuracy and Stability of Numerical
        # Algorithms, ch. 3). Let S = |r|^2 + |t|^2; then |r - t|^2 <= 2S and
        # sum_m |r_m t_m| <= S/2.
        # - D = sum_m (r_m - t_m)^2: M nonnegative terms, each with three
        #   rounding factors before the sum (the difference enters squared),
        #   so D is within gamma_{M+2} |r - t|^2 <= 2 gamma_{M+2} S of the
        #   true distance.
        # - F = (|r|^2 - 2 r.t) + |t|^2: the two norms and the dot product are
        #   within gamma_M |r|^2, gamma_M |t|^2 and 2 gamma_M S/2 of theirs
        #   (doubling is exact), and the two final roundings, of values below
        #   2(1 + gamma_M)(1 + u) S, add at most 4u(1 + u)(1 + gamma_M) S
        #   <= gamma_{M+5} S: F is within 3 gamma_{M+5} S.
        # - An underflowing product also errs by up to eta/2, eta the
        #   subnormal spacing; counting the doubled dot product twice, the two
        #   formulas hold 5M products, under 3M eta in all.
        # So |F - D| <= E0 = 5 gamma_{M+5} (|r|^2 + max_t |t|^2) + 3M eta, and
        # the code uses E = 2 E0: the factor 2 is a safety margin that also
        # covers the rounding of E itself and the computed norms in place of
        # the true ones. If the fast gap between the k-th and (k+1)-th nearest
        # exceeds 2E, every fast member's D <= F_k + E < F_{k+1} - E <= every
        # non-member's D: the exact k nearest are the same set, with no tie
        # across the boundary for the stable sort to break.
        m, u = self.n_features, np.finfo(float).eps / 2
        self._err_scale = 2 * 5 * (m + 5) * u / (1 - (m + 5) * u)
        self._err_floor = 2 * 3 * m * np.finfo(float).smallest_subnormal

    def predict_proba(self, rows) -> np.ndarray:
        rows = _as_matrix(rows, self.n_features)
        k = self.k
        if k == len(self.X):  # every row votes with all training labels
            return np.tile([(self.y == c).mean() for c in self.classes], (len(rows), 1))
        out = np.empty((len(rows), len(self.classes)))
        for start in range(0, len(rows), _PREDICT_CHUNK):
            block = rows[start:start + _PREDICT_CHUNK]
            row_sq = np.einsum("ij,ij->i", block, block)
            d2 = block @ self.X.T
            d2 *= -2.0
            d2 += row_sq[:, None]
            d2 += self._sq_norms
            part = np.argpartition(d2, (k - 1, k), axis=1)
            kth, next_ = np.take_along_axis(d2, part[:, k - 1:k + 1], axis=1).T
            err = self._err_scale * (row_sq + self._max_sq_norm) + self._err_floor
            unsure = ~(next_ - kth > 2 * err)  # NaN and inf distances are unsure too
            nearest = part[:, :k]
            if unsure.any():
                nearest[unsure] = _stable_nearest(block[unsure], self.X, k)
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


# seconds a closed bridge waits for its child to exit on end of input
CLOSE_TIMEOUT_S = 10.0


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
        if self._proc is not None and self._proc.poll() is not None:
            self.close()  # release the dead child's pipes before replacing it
        if self._proc is None:
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
        """Close both pipes, whether or not the child is still running, and
        wait for it to exit. A child still running CLOSE_TIMEOUT_S seconds
        after its input closed is killed and reaped."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass  # unflushed input for a child that has exited; the pipe is closed
        finally:
            proc.stdout.close()
        try:
            proc.wait(timeout=CLOSE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
