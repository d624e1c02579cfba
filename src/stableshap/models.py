"""Model adapters: the scalar-valued black boxes the explainers interrogate.

Every adapter exposes ``n_features`` and a deterministic, order-preserving
``predict(rows) -> values``. Classifiers are reduced to a scalar by explaining
the probability of one designated class. :class:`GameModel` is the odd one
out: it evaluates coalitions directly (see ``coalition_values``) and has no
row predictor at all.

Adapter contract: for as long as an adapter object lives, its predictions
must be a pure function of the rows it is given, because coalition payoffs
are memoized per adapter object (the memo, its size and what threads sharing
an adapter see are described in :mod:`stableshap.value_function`). A model
that is re-fit or otherwise changed therefore needs a new adapter object.
``predict`` must not write to its ``rows`` or keep them after it returns:
the rows are a read-only, column-major view of a buffer that the next block
of coalitions overwrites. A row's prediction may depend on its batch in the
last bits, as a BLAS product's does; the same module says how far payoffs
then differ between routes.

:class:`KNNClassifierModel` finds neighbours from fast matrix-product
distances and rechecks rows near a distance tie with the exact formula, so its
probabilities are bit-identical to an exact-distance, stable-sort k-NN.
"""

from __future__ import annotations

import os
import selectors
import shlex
import subprocess
import threading
import time

import numpy as np

from .errors import ModelBridgeError, StableShapError
from .games import SyntheticGame

# Rows per k-NN block: bounds the (chunk, n_train) distance matrix, and the
# (unsure rows, n_train, M) broadcast of the exact recheck within a block.
_PREDICT_CHUNK = 1024

# diagonal penalty of RidgeRegressionModel.fit; the intercept goes unpenalized
RIDGE_PENALTY = 1e-6


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
    def fit(cls, X, y) -> "RidgeRegressionModel":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        n, m = X.shape
        aug = np.column_stack([X, np.ones(n)])
        gram = aug.T @ aug
        penalty = np.full(m + 1, RIDGE_PENALTY)
        penalty[-1] = 0.0
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
    one matrix product per block of rows. One row-wise sort gives each row's
    k-th and (k+1)-th smallest fast distance, and the k nearest are the
    training rows at or below the k-th: the vote fractions depend only on that
    set, not on its order, and are counted with one product of the 0/1 vote
    mask against the one-hot labels.
    Rows whose k-th and (k+1)-th fast distances are too close for that rounding
    to separate are rechecked with the exact distance and the stable sort, so
    the probabilities are bit-identical to the exact formula's.
    """

    def __init__(self, X, y, k: int = 5):
        self.X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if self.X.ndim != 2:
            raise ValueError(f"k-NN training features must be 2-D, got shape {self.X.shape}")
        if y.ndim != 1 or len(y) != len(self.X):
            raise ValueError(f"k-NN needs one label per training row: labels of shape "
                             f"{y.shape} for features of shape {self.X.shape}")
        if not np.issubdtype(y.dtype, np.integer):
            raise ValueError("k-NN targets must be integer class labels")
        bad = np.argwhere(~np.isfinite(self.X))
        if len(bad):
            i, j = bad[0]
            raise ValueError(f"k-NN training features must be finite: row {i}, "
                             f"column {j} is {self.X[i, j]}")
        self.y = y
        self.classes = np.unique(y)
        self._onehot = (y[:, None] == self.classes).astype(float)
        if k < 1 or k > len(self.X):
            raise ValueError(f"k={k} invalid for {len(self.X)} training rows")
        self.k = k
        self.n_features = self.X.shape[1]
        self._class_pos = {int(c): i for i, c in enumerate(self.classes)}
        self._neg2_xt = -2.0 * self.X.T  # scaling by -2 is exact
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
        #   (the dot product is taken with -2 t, and doubling is exact), and
        #   the two final roundings, of values below 2(1 + gamma_M)(1 + u) S,
        #   add at most 4u(1 + u)(1 + gamma_M) S <= gamma_{M+5} S: F is
        #   within 3 gamma_{M+5} S.
        # - An underflowing product also errs by up to eta/2, eta the
        #   subnormal spacing; counting the products with -2 t twice, the two
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
            return np.tile(self._onehot.mean(axis=0), (len(rows), 1))
        out = np.empty((len(rows), len(self.classes)))
        for start in range(0, len(rows), _PREDICT_CHUNK):
            block = rows[start:start + _PREDICT_CHUNK]
            row_sq = np.einsum("ij,ij->i", block, block)
            d2 = block @ self._neg2_xt
            d2 += row_sq[:, None]
            d2 += self._sq_norms
            ordered = np.sort(d2, axis=1)  # NaN sorts last
            kth, next_ = ordered[:, k - 1].copy(), ordered[:, k]
            err = self._err_scale * (row_sq + self._max_sq_norm) + self._err_floor
            unsure = ~(next_ - kth > 2 * err)  # NaN and inf distances are unsure too
            # on a sure row next_ > kth, so exactly the k nearest are <= kth;
            # the 0/1 vote mask goes into the sort's buffer
            near = np.less_equal(d2, kth[:, None], out=ordered, casting="unsafe")
            if unsure.any():
                redo = np.flatnonzero(unsure)
                near[redo] = 0.0
                near[redo[:, None], _stable_nearest(block[redo], self.X, k)] = 1.0
            out[start:start + len(block)] = (near @ self._onehot) / k
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
# seconds one batch may take, from its first input byte to its last
# prediction; a child that misses it is killed
READ_TIMEOUT_S = 300.0


class ExternalProcessModel:
    """Bridge to a user-supplied prediction process.

    Each batch is written as CSV rows (one instance per line, full-precision
    decimals) followed by a blank line; the child must answer with exactly one
    decimal per input line; output past a batch's last answer fails the batch,
    or the next batch when it comes after the batch has returned, and kills
    the child. Access is serialized: one in-flight batch per
    process. A child that has not answered a batch within READ_TIMEOUT_S
    seconds is killed, and the batch fails with ModelBridgeError.
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
                self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE
            )
            os.set_blocking(self._proc.stdin.fileno(), False)

    def predict(self, rows) -> np.ndarray:
        rows = _as_matrix(rows, self.n_features)
        payload = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
        with self._lock:
            batch = self._batch_index
            self._batch_index += 1
            self._ensure_started()
            proc = self._proc
            out = np.empty(len(rows))
            got = 0
            for line in self._exchange(proc, (payload + "\n").encode(), len(rows), batch):
                text = line.decode(errors="replace").strip()
                try:
                    out[got] = float(text)
                except ValueError:
                    raise ModelBridgeError(
                        f"malformed prediction line {got}: {text!r}", batch
                    ) from None
                got += 1
            if got < len(rows):
                raise ModelBridgeError(
                    f"model process closed its output after {got} of {len(rows)} "
                    f"predictions (exit code {proc.poll()})",
                    batch,
                )
            return out

    def _exchange(self, proc, payload: bytes, n: int, batch: int):
        """Write a batch's whole input and yield the child's next n output
        lines as they arrive, or every line up to the end of its output when
        that comes first (the last one may lack its newline).

        One loop serves both raw pipes, so a child that answers while its
        input is still arriving cannot fill its output pipe and stall both
        sides. A child that has not answered within READ_TIMEOUT_S is killed
        and reaped, and so is one whose output is already waiting before the
        batch is written: output that comes later than that, while the next
        batch is in flight, is still read as that batch's answers.
        """
        in_fd, out_fd = proc.stdin.fileno(), proc.stdout.fileno()
        todo = memoryview(payload)
        buf, got = b"", 0
        deadline = time.monotonic() + READ_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(out_fd, selectors.EVENT_READ)
            # output waiting before this batch is written came late from the
            # batch before; this batch would read it as its answers
            late = os.read(out_fd, 1 << 16) if selector.select(0) else b""
            if late:
                proc.kill()
                self.close()
                raise ModelBridgeError(
                    f"model process wrote past its last batch's answers: {late[:40]!r}",
                    batch)
            selector.register(in_fd, selectors.EVENT_WRITE)
            while True:
                if got < n:
                    *lines, buf = buf.split(b"\n", n - got)
                    yield from lines
                    got += len(lines)
                if got == n and not todo:
                    if buf:  # a later batch would read these as its answers
                        proc.kill()
                        self.close()
                        raise ModelBridgeError(
                            f"model process wrote past its {n} answer lines: {buf[:40]!r}",
                            batch)
                    return
                left = deadline - time.monotonic()
                ready = selector.select(left) if left > 0 else []
                if not ready:
                    proc.kill()
                    self.close()
                    raise ModelBridgeError(
                        f"model process answered {got} of {n} predictions within "
                        f"{READ_TIMEOUT_S} s and was killed",
                        batch,
                    )
                for key, _ in ready:
                    if key.fd == out_fd:
                        chunk = os.read(out_fd, 1 << 16)
                        if not chunk:  # the child closed its output
                            if buf and got < n:
                                yield buf
                            return
                        buf += chunk
                        continue
                    try:
                        todo = todo[os.write(in_fd, todo[:1 << 16]):]
                    except BlockingIOError:
                        continue
                    except OSError as exc:
                        raise ModelBridgeError(
                            f"model process died while receiving input: {exc}", batch
                        ) from exc
                    if not todo:
                        selector.unregister(in_fd)

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
