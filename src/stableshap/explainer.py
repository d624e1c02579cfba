"""Surrogate fitting: attribution scores from a weighted coalition set.

The surrogate is linear in the coalition mask with a pinned intercept (the
empty-coalition payoff) and a hard sum constraint (attributions plus intercept
must reproduce the prediction on the explained instance).

A coalition set holds complete layers first, then any sampled rows. On the
complete rows the weighted Gram matrix is exactly ``aI + b11^T`` (every
feature, and every pair, is present in the same total weight), so their
constrained fit has the closed form

    p = r/a + (delta - sum(r/a)) / k

over the k free features, with r = sum_S w_S (v_S - phi0) z_S, delta = f(x) -
phi0, and a the weight of the coalitions holding feature 0 but not feature 1
(Lundberg & Lee 2017 derive the weights); without complete rows p = delta/k.
Each complete layer's mean of v_S - phi0 is subtracted before the sum: that
moves every r_j by the same amount, which p cancels exactly, and keeps the
sum from losing digits to the offset the layer's payoffs share. The rows are
never cast to float: r is summed per byte of the set's keys (their layout is
:mod:`stableshap.coalitions`'), one weighted ``bincount`` of the centred
payoffs per byte, whose bins T^T h sums into the byte's features (T the
table of a byte code's bits); each bin sums a few hundred rows, which loses
fewer digits than one running sum over all of them. r is computed over all M
features and sliced to the free ones, so every kept subset reads the dense
fit's r_j bit for bit, and a comes from byte 0's weight histogram: an
explanation computes r and a once, for its dense fit and its sparse re-fit.
A set that sampled nothing, such as the first layer, is fitted by p alone.

Sampled rows correct p on an orthonormal basis of the sum-zero subspace,
where the complete rows add just ``aI`` to the Gram matrix and nothing to the
right-hand side. The sampled rows' raw k x k Gram matrix sum w z z^T and
right-hand side sum w (v - phi0 - p.z) z are projected onto the basis once.
Fewer than 8192 sampled rows, or k <= 8, are cast in blocks of 8192 rows to
C-ordered (k, rows) float matrices scaled by sqrt(w), whose products sum to
both. From
8192 rows over more than 8 free features, the sums come from histograms of
the rows' byte codes: the dense fit reads them from the set's keys, and
``sparsify`` packs its free columns with :func:`~stableshap.coalitions.pack`.
Each pair of bytes adds one weighted joint ``bincount`` of at most 2^16
bins, whose off-diagonal Gram block is T_g^T H T_h and whose margins give
the diagonal blocks; diagonal blocks read off a single byte's 256 bins would
lose digits against the float product. The right-hand side sums each row's
residual per byte, p.z read from per-byte lookup tables. When k < M, rows
holding all or none of the free features are dropped first (on the
histograms, they weigh zero): they project to exactly zero, and at a heavy
weight they would drown the directions that separate features in the raw
Gram matrix. One ``eigh`` gives the least-norm correction. Its rank falls
short of k - 1 only without complete rows: a set with fewer coalitions than
free coefficients raises RankDeficiencyError, and a larger one keeps p along
the directions no coalition observes, so features that no coalition
separates are treated alike.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import lru_cache

import numpy as np

from .coalitions import key_bytes, pack, unpack
from .errors import RankDeficiencyError
from .sampling import (
    KERNEL_SHAP,
    ST_SHAP,
    SamplingPlan,
    WeightedCoalitionSet,
    materialize,
    plan_kernel_shap,
    plan_st_shap,
)
from .value_function import anchors, evaluate_batch

LAYER1 = "layer1"


@dataclass(frozen=True)
class Explanation:
    """Intercept plus per-feature attribution scores, with provenance."""

    phi0: float
    phis: tuple[float, ...]
    support: tuple[int, ...]
    strategy: str
    budget: int | None
    seed: int | None
    fx: float

    @property
    def n_features(self) -> int:
        return len(self.phis)

    def phi_array(self) -> np.ndarray:
        return np.array(self.phis)

    def local_accuracy_gap(self) -> float:
        return abs(self.phi0 + sum(self.phis) - self.fx)

    def to_json_dict(self) -> dict:
        return asdict(self)


# sampled rows from which a set over more than one byte of free features
# enters the fit as byte-pair histograms; fewer rows, or k <= 8, are cast to
# float and multiplied in blocks of as many rows (at k = 13 the two are level
# near 3000 rows, at k = 16 and 20 the histograms win below 8192)
_PATTERN_ROWS = 1 << 13


@lru_cache(maxsize=64)
def _helmert_basis(k: int) -> np.ndarray:
    """Helmert basis of the sum-zero subspace of R^k, (k, k - 1), read-only.
    The sampled rows' Gram matrix and right-hand side are projected on it, so
    their correction never moves the sum of the attributions."""
    basis = np.triu(np.ones((k, k - 1)))
    basis[np.arange(1, k), np.arange(k - 1)] = -np.arange(1, k)
    basis /= np.sqrt(np.arange(1, k) * np.arange(2, k + 1))
    basis.flags.writeable = False
    return basis


@lru_cache(maxsize=8)
def _bit_table(width: int) -> np.ndarray:
    """(2^width, width) float table of bits, read-only: row c holds the bits
    of c, lowest first, so T.T @ h sums a histogram h over the codes that
    hold each bit."""
    table = unpack(np.arange(1 << width), width).astype(float)
    table.flags.writeable = False
    return table


def _byte_widths(k: int) -> list[int]:
    """Columns held by each byte code of k columns: 8 each, the rest last."""
    return [min(8, k - 8 * g) for g in range(-(-k // 8))]


def _byte_sums(codes: np.ndarray, k: int, values: np.ndarray) -> np.ndarray:
    """sum over rows of values * z for the k columns whose byte codes are
    `codes`, (n, >= ceil(k/8)): one weighted ``bincount`` per byte, summed
    over the codes that hold each bit."""
    return np.concatenate([
        _bit_table(b).T @ np.bincount(codes[:, g], weights=values, minlength=1 << b)
        for g, b in enumerate(_byte_widths(k))])


def _histogram_moments(codes: np.ndarray, k: int, weights: np.ndarray, v: np.ndarray,
                       p: np.ndarray, drop_flat: bool) -> tuple[np.ndarray, np.ndarray]:
    """Raw Gram matrix sum w z z^T and right-hand side sum w (v - p.z) z of
    the rows z over k columns, from weighted histograms of their byte codes
    `codes`, (n, >= ceil(k/8)); `v` is overwritten. With `drop_flat`, rows
    holding all or none of the k columns weigh zero."""
    widths = _byte_widths(k)
    n_bytes = len(widths)
    spans = [slice(8 * g, 8 * g + b) for g, b in enumerate(widths)]
    tables = [_bit_table(b) for b in widths]
    if drop_flat:
        # byte by byte: numpy reduces along a short axis far more slowly
        every, none = np.ones(len(v), dtype=bool), np.ones(len(v), dtype=bool)
        for g, b in enumerate(widths):
            every &= codes[:, g] == (1 << b) - 1
            none &= codes[:, g] == 0
        weights = np.where(every | none, 0.0, weights)
    # one joint histogram per pair of bytes g < h, at most 2^16 bins; the
    # diagonal blocks come from margins of the pairs with byte 0
    gram, margins = np.empty((k, k)), [None] * n_bytes
    for g in range(n_bytes):
        for h in range(g + 1, n_bytes):
            joint = codes[:, g].astype(np.uint16)
            joint <<= widths[h]
            joint |= codes[:, h]
            hist = np.bincount(joint, weights=weights, minlength=1 << (widths[g] + widths[h]))
            hist = hist.reshape(1 << widths[g], 1 << widths[h])
            del joint
            block = tables[g].T @ hist @ tables[h]
            gram[spans[g], spans[h]], gram[spans[h], spans[g]] = block, block.T
            if g == 0:
                margins[h] = hist.sum(axis=0)
                if h == 1:
                    margins[0] = hist.sum(axis=1)
    for g, margin in enumerate(margins):
        gram[spans[g], spans[g]] = tables[g].T @ (margin[:, None] * tables[g])
    # each row's residual first, p.z from per-byte lookup tables, then one
    # sum per byte: b - G p would lose digits where p already fits the rows
    for g in range(n_bytes):
        v -= (tables[g] @ p[spans[g]]).take(codes[:, g])
    v *= weights
    return gram, _byte_sums(codes, k, v)


def _head_sums(coalition_set: WeightedCoalitionSet, values: np.ndarray,
               phi0: float) -> tuple[np.ndarray, float]:
    """(r over every column, a) of the set's complete rows, zero without any:
    what every constrained fit of the set, its payoffs and phi0 shares."""
    n0, weights = coalition_set.n_complete, coalition_set.weights
    if not n0:
        return np.zeros(coalition_set.n_features), 0.0
    codes = key_bytes(coalition_set.keys[:n0])
    # every free feature sits in the same number of a complete layer's
    # sets: subtracting a layer's mean payoff moves every r_j alike and
    # leaves p unchanged, but keeps r from summing ~10^5 copies of an
    # offset that cancels only in p. A layer is a run of rows at one
    # weight; when runs repeat a weight, a layer's rows are not
    # contiguous and the whole head is centred as one.
    w0 = weights[:n0]
    starts = [0] + (np.flatnonzero(w0[1:] != w0[:-1]) + 1).tolist()
    if len(set(w0[starts].tolist())) < len(starts):
        starts = [0]
    counts = np.subtract(starts[1:] + [n0], starts)
    centred = values[:n0] - phi0
    centred -= np.repeat(np.add.reduceat(centred, starts) / counts, counts)
    centred *= w0
    # r over every column, so any kept subset reads the dense fit's r_j bit
    # for bit; byte codes 1 mod 4 hold feature 0 but not feature 1
    return (_byte_sums(codes, coalition_set.n_features, centred),
            np.bincount(codes[:, 0], weights=w0)[1::4].sum())


def _constrained_fit(coalition_set: WeightedCoalitionSet, values: np.ndarray,
                     phi0: float, fx: float, free: np.ndarray,
                     context: str, head) -> np.ndarray:
    """Weighted fit with coefficients outside `free` pinned to zero and the
    free ones constrained to sum to fx - phi0: the closed form over the
    complete rows, from their sums `head` (:func:`_head_sums`, computed here
    when None), corrected by the sampled rows."""
    masks, weights = coalition_set.masks, coalition_set.weights
    n0, m, k, delta = coalition_set.n_complete, masks.shape[1], len(free), fx - phi0
    if head is None:
        head = _head_sums(coalition_set, values, phi0)
    elif len(head[0]) != m or (head[1] > 0) != bool(n0):
        raise ValueError(f"complete-row sums of another coalition set ({context})")
    a, p = 0.0, np.full(k, delta / k)
    if n0:
        r, a = head
        r = r[free]
        p = r / a + (delta - (r / a).sum()) / k
    phis = np.zeros(m)
    phis[free] = p
    if n0 == len(masks):
        return phis
    # the raw Gram matrix and right-hand side of the sampled rows, projected
    # onto the basis once
    if len(masks) - n0 >= _PATTERN_ROWS and k > 8:
        keys = coalition_set.keys[n0:] if k == m else pack(masks[n0:, free])
        gram, rhs = _histogram_moments(key_bytes(keys), k, weights[n0:],
                                       values[n0:] - phi0, p, k < m)
    else:  # in blocks of rows, so the float copies stay bounded
        for start in range(n0, len(masks), _PATTERN_ROWS):
            rows = slice(start, start + _PATTERN_ROWS)
            zt, root_w = masks[rows].T[free], np.sqrt(weights[rows])
            v = values[rows] - phi0
            if k < m:
                # rows holding all or none of the free features project to
                # exactly zero, so dropping them is exact (see the module docstring)
                proper = np.flatnonzero(zt.any(axis=0) != zt.all(axis=0))
                zt, root_w, v = zt.take(proper, axis=1), root_w[proper], v[proper]
            # a C-ordered (k, rows) float copy scaled by sqrt(w): st @ st.T runs
            # as one syrk, summed in the same order whatever the masks' layout
            # (cast, then scaled in place: bool times float takes a slower path)
            st = zt.astype(float)
            st *= root_w
            block = st @ st.T, st @ (root_w * v - p @ st)
            gram, rhs = block if start == n0 else (gram + block[0], rhs + block[1])
    basis = _helmert_basis(k)
    gram = a * np.eye(k - 1) + basis.T @ gram @ basis
    rhs = basis.T @ rhs
    eigvals, eigvecs = np.linalg.eigh(gram)
    kept = eigvals > eigvals.max(initial=0.0) * k * np.finfo(float).eps
    if kept.sum() < k - 1 and len(masks) < k - 1:
        raise RankDeficiencyError(
            f"the coalitions determine {kept.sum()} of {k - 1} free coefficients ({context})")
    # least norm: directions that no sampled row observes stay at p
    vecs = eigvecs[:, kept]
    phis[free] += basis @ (vecs @ ((vecs.T @ rhs) / eigvals[kept]))
    return phis


def fit(coalition_set: WeightedCoalitionSet, values, phi0: float, fx: float,
        *, strategy: str = "custom", budget: int | None = None,
        seed: int | None = None, _head=None) -> Explanation:
    """Dense constrained fit over every feature. `_head` is internal: the
    complete rows' sums of the same set, payoffs and phi0 (see
    :func:`explain_with_training_set`), computed when None."""
    values = np.asarray(values, dtype=float)
    if len(values) != len(coalition_set):
        raise ValueError("values must align with the coalition set")
    m = coalition_set.n_features
    context = f"strategy={strategy} budget={budget} n={len(coalition_set)} M={m}"
    phis = _constrained_fit(coalition_set, values, phi0, fx, np.arange(m), context, _head)
    support = tuple(int(i) for i in np.flatnonzero(phis))
    return Explanation(float(phi0), tuple(float(v) for v in phis), support,
                       strategy, budget, seed, float(fx))


def sparsify(explanation: Explanation, k: int,
             coalition_set: WeightedCoalitionSet, values, *, _head=None) -> Explanation:
    """Keep the k largest-magnitude features and re-fit with the rest pinned
    to zero. Magnitude ties break toward the lower feature index. `_head` is
    internal, as in :func:`fit`, for the explanation's phi0."""
    m = explanation.n_features
    if not 1 <= k <= m:
        raise ValueError(f"explanation size {k} outside 1..{m}")
    values = np.asarray(values, dtype=float)
    magnitudes = np.abs(explanation.phi_array())
    ranked = np.lexsort((np.arange(m), -magnitudes))
    selected = np.sort(ranked[:k])
    context = (f"sparsify k={k} strategy={explanation.strategy} "
               f"budget={explanation.budget} n={len(coalition_set)} M={m}")
    phis = _constrained_fit(coalition_set, values, explanation.phi0, explanation.fx,
                            selected, context, _head)
    return replace(
        explanation,
        phis=tuple(float(v) for v in phis),
        support=tuple(int(i) for i in selected),
    )


def plan_for(strategy: str, n_features: int, budget: int, seed: int) -> SamplingPlan:
    if strategy == ST_SHAP:
        return plan_st_shap(n_features, budget, seed)
    if strategy == KERNEL_SHAP:
        return plan_kernel_shap(n_features, budget, seed)
    raise ValueError(f"unknown sampling strategy: {strategy!r}")


def explain_with_training_set(x, model, background, strategy: str, budget: int,
                              seed: int, explanation_size: int | None = None):
    """The one pipeline behind `explain`, the first-layer attribution and the
    adherence metric: plan, materialize, evaluate, fit, optionally sparsify.
    Returns (explanation, coalition set, payoffs)."""
    plan = plan_for(strategy, model.n_features, budget, seed)
    coalition_set = materialize(plan)
    values = evaluate_batch(coalition_set.masks, x, background, model)
    phi0, fx = anchors(x, background, model)
    # a sparse re-fit reuses the dense fit's complete-row sums; a dense fit
    # alone computes them inside fit
    head = None if explanation_size is None else _head_sums(coalition_set, values, phi0)
    explanation = fit(coalition_set, values, phi0, fx,
                      strategy=strategy, budget=budget, seed=seed, _head=head)
    if explanation_size is not None:
        explanation = sparsify(explanation, explanation_size, coalition_set, values,
                               _head=head)
    return explanation, coalition_set, values


def explain(x, model, background, strategy: str, budget: int, seed: int,
            explanation_size: int | None = None) -> Explanation:
    """Full pipeline: plan, materialize, evaluate, fit, optionally sparsify."""
    return explain_with_training_set(x, model, background, strategy, budget, seed,
                                     explanation_size)[0]
