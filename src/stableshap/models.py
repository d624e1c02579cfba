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
distances, in float32 where a probe of its training rows shows that this
decides most rows. A row whose k-th and (k+1)-th nearest are too close for
that pass's error bound goes on to a float64 pass, and one too close for
that to the exact formula, so its probabilities are bit-identical to an
exact-distance, stable-sort k-NN.
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
# Training rows, at most, that decide at construction whether a k-NN model
# starts with the float32 pass
_PROBE_ROWS = 256

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


class _DistancePass:
    """The k-NN distance pass at one precision (float32 or float64); see
    :class:`KNNClassifierModel` for the pass and its error bound."""

    def __init__(self, mean: np.ndarray, centred: np.ndarray, dtype):
        self.mean, self.dtype = mean, dtype
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            b = centred.astype(dtype)
            q = np.einsum("ij,ij->i", b, b)
            self.folded = np.vstack([-2 * b.T, q])  # scaling by -2 is exact
        self.max_q = q.max()
        m, info = centred.shape[1], np.finfo(dtype)
        u = info.eps / 2
        self.err_scale = dtype(2 * 7 * (m + 6) * u / (1 - (m + 6) * u))
        self.err_floor = dtype(2 * 4 * m * info.smallest_subnormal)

    def distances(self, rows: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
        """(g, err): g[i, j] is row i's fast distance to training row j less a
        shift shared by all of row i's, and err[i] bounds their error."""
        a = np.empty((len(rows), len(self.folded)), self.dtype)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            np.subtract(rows, self.mean, out=a[:, :-1], casting="same_kind")
            a[:, -1] = 1.0
            row_sq = np.einsum("ij,ij->i", a[:, :-1], a[:, :-1])
            return (np.matmul(a, self.folded, out=out),
                    self.err_scale * (row_sq + self.max_q) + self.err_floor)

    def near(self, rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(0/1 mask of each row's k nearest, in this pass's dtype; the rows
        this pass cannot decide, whose mask rows are meaningless)."""
        # the distances and their sorted copy share one allocation: two
        # block-sized buffers freed together can pass glibc's trim threshold
        # and go back to the system, and the next block then pays page faults
        # worth about half a sort
        g, ordered = np.empty((2, len(rows), self.folded.shape[1]), self.dtype)
        g, err = self.distances(rows, out=g)
        ordered[...] = g
        ordered.sort(axis=1)  # -inf sorts first, +inf and NaN last
        kth, next_ = ordered[:, k - 1].copy(), ordered[:, k]
        with np.errstate(over="ignore", invalid="ignore"):
            unsure = ~((next_ - kth > 2 * err) & np.isfinite(ordered[:, 0])
                       & np.isfinite(ordered[:, -1]))
        # on a sure row next_ > kth, so exactly the k nearest are <= kth; the
        # 0/1 mask goes into the sort's buffer
        return np.less_equal(g, kth[:, None], out=ordered, casting="unsafe"), unsure


class KNNClassifierModel:
    """k-nearest-neighbor classifier; probabilities are vote fractions.

    The neighbours of a row are the k training rows with the smallest exact
    squared distance ``((row - t) ** 2).sum()``, distance ties broken by
    training-row order (stable sort), which keeps predictions deterministic.

    For speed, a block of rows first goes through a fast pass. Rows and
    training rows are centred on the training mean, which changes no
    distance, and one matrix product per block gives each row's distances
    less a shift that all of them share, ``|t|^2 - 2 row.t``. One row-wise
    sort gives each row's k-th and (k+1)-th smallest, and the k nearest are
    the training rows at or below the k-th: the vote fractions depend only on
    that set, not on its order, and are counted with one product of the 0/1
    vote mask against the one-hot labels.
    The pass runs in float32 first where, on a probe of training rows at
    construction, it decides at least half of them (with each row's own
    zero distance left out of its k nearest); otherwise in float64 only. A pass cannot decide a row whose k-th and (k+1)-th fast distances
    are too close for its rounding to separate, or that has a non-finite
    one: after the float32 pass such a row goes on to the float64 pass, and
    after that it is rechecked with the exact distance and the stable sort.
    So the probabilities are bit-identical to the exact formula's.

    A query row holding NaN or +-inf has no nearest training rows: its
    probabilities are NaN, at every k, so payoffs built from it fail as
    non-finite instead of taking the votes of the first k training rows. Its
    distances are non-finite, so, when k is below the number of training
    rows, it always reaches the recheck, which marks it; finite rows take
    the same passes as before.
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
        # How far a pass's fast distance may be from the exact one D, for a
        # row r with M features. The pass works at a precision of unit
        # roundoff u and subnormal spacing eta; each rounding, in float64 or
        # in the pass's own precision, is counted at u, float64's being no
        # larger. gamma_n = nu / (1 - nu). A sum or dot product of n terms, in
        # any order (BLAS included), is within gamma_n of the sum of the
        # terms' magnitudes, and each further rounding adds one to n (Higham,
        # Accuracy and Stability of Numerical Algorithms, ch. 3).
        # The pass centres on the training mean c: r becomes a, the
        # difference r - c rounded in float64 and then to the pass's
        # precision, and a training row t becomes b likewise; q is |b|^2 at
        # that precision. One product of [a, 1] with [-2 b; q] gives
        # G = q - 2 a.b, which is |a - b|^2 less the shift |a|^2 shared by
        # all of the row's distances, so the k nearest and their gap are G's.
        # Let S = |r - c|^2 + |t - c|^2; then |r - t|^2 <= 2S.
        # - Centring: each centred value is within theta = (1 + u)^2 - 1 of
        #   its own magnitude, so a - b is within theta (|r - c| + |t - c|)
        #   of r - t and |a - b|^2 within 2 theta (2 + theta) S <= 2 gamma_4 S
        #   of |r - t|^2.
        # - G: the dot product of M + 1 terms is within
        #   gamma_{M+1} (|a|^2 + |b|^2 + q) of q - 2 a.b (sum_m |a_m b_m| <=
        #   (|a|^2 + |b|^2)/2, doubling is exact), and q is within
        #   gamma_M |b|^2 of |b|^2; as (M + 1)^2 u < 1, G + |a|^2 is within
        #   3 gamma_{M+2} (|a|^2 + |b|^2) <= 3 gamma_{M+6} S of |a - b|^2.
        # - D = sum_m (r_m - t_m)^2, computed in float64 from the uncentred
        #   values: M nonnegative terms, each with three rounding factors
        #   before the sum (the difference enters squared), so D is within
        #   gamma_{M+2} |r - t|^2 <= 2 gamma_{M+2} S of the true distance.
        #   That error is relative to the true distance, which the centring
        #   does not change.
        # - Underflow: a product or a cast to the pass's precision that
        #   underflows errs by up to eta/2 instead. The 2M centred values
        #   move |a - b|^2 by at most eta (M + 2S)(1 + theta) + M eta^2,
        #   under 2M eta beyond the centring term once its 2 gamma_4 S becomes
        #   2 gamma_5 S; G, q and D hold M products each, under 3M eta/2.
        # So |G + |a|^2 - D| <= E0 = 7 gamma_{M+6} (|a|^2 + max_t q) + 4M eta,
        # and each pass uses E = 2 E0: the factor 2 is a safety margin that
        # also covers the rounding of E itself and the computed |a|^2 and q
        # in place of the true S. If the fast gap between the k-th and
        # (k+1)-th nearest exceeds 2E, every fast member's D <= G_k + |a|^2
        # + E < G_{k+1} + |a|^2 - E <= every non-member's D: the exact k
        # nearest are the same set, with no tie across the boundary for the
        # stable sort to break. The bound assumes no overflow: a row with a
        # non-finite fast distance is not decided by its pass. In float32
        # that happens with finite bounds, as when |t|^2 overflows for a
        # training row at 1e20.
        mean = self.X.mean(axis=0)
        centred = self.X - mean
        self._passes = (_DistancePass(mean, centred, np.float64),)
        if k < len(self.X) and k <= 2**24:  # float32 counts k votes exactly
            fast = _DistancePass(mean, centred, np.float32)
            probe = self.X[::-(-len(self.X) // _PROBE_ROWS)]
            # a training row is its own nearest, at distance 0, which a query
            # is not: the probe asks for one more, so that it measures the gap
            # after the k-th other row
            probe_k = min(k + 1, len(self.X) - 1)
            if 2 * np.count_nonzero(fast.near(probe, probe_k)[1]) <= len(probe):
                self._passes = (fast, *self._passes)
        self._votes = self._onehot.astype(self._passes[0].dtype)

    def predict_proba(self, rows) -> np.ndarray:
        rows = _as_matrix(rows, self.n_features)
        k = self.k
        if k == len(self.X):  # every finite row votes with all training labels
            out = np.tile(self._onehot.mean(axis=0), (len(rows), 1))
            out[~np.isfinite(rows).all(axis=1)] = np.nan
            return out
        out = np.empty((len(rows), len(self.classes)))
        for start in range(0, len(rows), _PREDICT_CHUNK):
            block = rows[start:start + _PREDICT_CHUNK]
            near, unsure = self._passes[0].near(block, k)
            for later in self._passes[1:]:
                if unsure.any():
                    redo = np.flatnonzero(unsure)
                    near[redo], unsure[redo] = later.near(block[redo], k)
            if unsure.any():
                redo = np.flatnonzero(unsure)
                near[redo] = 0.0
                near[redo[:, None], _stable_nearest(block[redo], self.X, k)] = 1.0
                # a row holding NaN or +-inf has no nearest rows: NaN votes
                near[redo[~np.isfinite(block[redo]).all(axis=1)]] = np.nan
            # the counts are exact integers in either dtype; divide in float64
            np.divide(near @ self._votes, k, out=out[start:start + len(block)], dtype=float)
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
