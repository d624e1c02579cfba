"""Shared fixtures and independent test oracles.

The oracles here deliberately use different algebra than the library paths
they check: payoff averaging by explicit Python loops, Shapley values as
marginal contributions averaged over every player ordering, a
Lagrange-multiplier KKT solve for the constrained regression and a QR
least-squares solve of it on an orthonormal sum-zero basis, an SVD of its
weighted design over that basis for its rank, the paper's first-layer
formula from table lookups, a mask's key packed per row into whole 64-bit
words, pair counting for rank correlation, kernel
SHAP's paired random phase as a per-draw loop over dicts with a scalar
selection sampler (Knuth's Algorithm S) per row, a layer's canonical order
both as sorted combinations and as a scalar unrank, and pairwise games,
whose Shapley values have a closed form at any M.
"""

from bisect import bisect_right
from itertools import combinations, permutations
from math import comb, factorial

import numpy as np
import pytest

from stableshap import GameModel, SyntheticGame
from stableshap.coalitions import kernel_weight, pack
from stableshap.exact import ExactValues
from stableshap.sampling import _draws_for
from stableshap.value_function import all_payoffs


@pytest.fixture
def glove_game() -> SyntheticGame:
    # M=3: worth 1 iff player 0 plays together with player 1 or 2
    values = {m: (1.0 if (m & 0b001) and (m & 0b110) else 0.0) for m in range(8)}
    return SyntheticGame.from_table(3, values)


GLOVE_EXACT = (2 / 3, 1 / 6, 1 / 6)  # frozen: 6-ordering enumeration by hand


def random_table_game(rng: np.random.Generator, m: int,
                      v_empty: float | None = None) -> SyntheticGame:
    """Dense random game: every proper value N(0, 1), v(empty) = v_empty or 0."""
    values = rng.normal(0.0, 1.0, size=2**m)
    values[0] = 0.0 if v_empty is None else v_empty
    return SyntheticGame.from_table(m, dict(enumerate(values)))


# JSON game specs holding a number no float can carry, as (id, file content,
# the refusal's words): each bad number in each of the three number fields
_BAD_NUMBERS = {"huge": ("9" * 401, "an integer too large for a float"),
                "nan": ("NaN", "nan, not a finite number"),
                "inf": ("Infinity", "inf, not a finite number"),
                "minus-inf": ("-Infinity", "-inf, not a finite number")}
_NUMBER_FIELDS = {
    "weights": ('{"M": 2, "rule": "additive", "weights": [1, %s]}',
                "field 'weights' entry 1 is "),
    "by_size": ('{"M": 2, "rule": "cardinality", "by_size": [0, %s, 2]}',
                "field 'by_size' entry 1 is "),
    "values": ('{"M": 2, "values": {"00": 0, "10": %s, "01": 1, "11": 2}}',
               "field 'values' maps mask '10' to "),
}
NON_FINITE_GAME_SPECS = [
    pytest.param(spec % literal, entry + words, id=f"{field}-{name}")
    for field, (spec, entry) in _NUMBER_FIELDS.items()
    for name, (literal, words) in _BAD_NUMBERS.items()
]


class PairwiseGame:
    """A game adapter with interactions of order at most two,
    v(S) = sum_j a_j z_j + sum_{j<k} b_jk z_j z_k, for any number of players.

    Its Shapley values are phi_j = a_j + (1/2) sum_{k != j} b_jk: each
    pair's surplus is split evenly between its two players."""

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.triu(np.asarray(b, dtype=float), 1)
        self.n_features = len(self.a)

    @classmethod
    def random(cls, rng: np.random.Generator, m: int) -> "PairwiseGame":
        return cls(rng.normal(size=m), rng.normal(size=(m, m)))

    def coalition_values(self, masks) -> np.ndarray:
        z = np.asarray(masks, dtype=float)
        return z @ self.a + ((z @ self.b) * z).sum(axis=1)

    def shapley(self) -> np.ndarray:
        return self.a + 0.5 * (self.b.sum(axis=0) + self.b.sum(axis=1))


def value_of_set(game: SyntheticGame, players) -> float:
    """A game's payoff for a set of player indices."""
    return game.value_of_mask(sum(1 << i for i in set(players)))


# players above which the permutation oracle refuses: M! orderings
PERMUTATION_CAP = 8


def exact_shap_permutation(game: SyntheticGame,
                           cap: int = PERMUTATION_CAP) -> ExactValues:
    """Shapley values as the average marginal contribution over all player
    orderings, independent of the library's subset-sum formula."""
    m = game.n_players
    if m > cap:
        raise ValueError(f"{m} players need {factorial(m)} player orderings; "
                         f"the cap is {cap} players")
    values = all_payoffs(None, None, GameModel(game))
    acc = [0.0] * m
    for order in permutations(range(m)):
        mask = 0
        prev = values[0]
        for player in order:
            mask |= 1 << player
            cur = values[mask]
            acc[player] += cur - prev
            prev = cur
    scale = factorial(m)
    return ExactValues(tuple(float(a / scale) for a in acc), float(values[0]), 2**m)


def pack_reference(masks: np.ndarray) -> np.ndarray:
    """The keys ``coalitions.pack`` gives: each row zero-padded to whole
    64-bit words and packed on its own, little-endian; ``<u8`` up to 64
    features, fixed-width void beyond."""
    n, m = masks.shape
    width = -(-m // 64) * 8
    bits = np.zeros((n, 8 * width), dtype=bool)
    bits[:, :m] = masks
    packed = np.packbits(bits, axis=1, bitorder="little")
    dtype = np.dtype("<u8") if width == 8 else np.dtype((np.void, width))
    return packed.view(dtype).reshape(n)


def check_coalition_set(cset) -> None:
    """Raise ValueError unless a WeightedCoalitionSet holds distinct proper
    coalitions at positive finite weights, its keys are its masks'
    :func:`pack_reference` keys, and its first n_complete rows hold every
    coalition of each size among them at one weight per size."""
    if not np.all(np.isfinite(cset.weights)) or np.any(cset.weights <= 0):
        raise ValueError("regression weights must be positive and finite")
    want = pack_reference(cset.masks)
    if cset.keys.dtype != want.dtype or cset.keys.tobytes() != want.tobytes():
        raise ValueError("keys do not match the masks")
    sizes = cset.masks.sum(axis=1)
    if np.any(sizes == 0) or np.any(sizes == cset.n_features):
        raise ValueError("empty or grand coalition leaked into the set")
    if len(np.unique(pack(cset.masks))) != len(cset.masks):
        raise ValueError("duplicate coalitions in the set")
    head, head_weights = sizes[:cset.n_complete], cset.weights[:cset.n_complete]
    for size in np.unique(head):
        if np.count_nonzero(head == size) != comb(cset.n_features, int(size)):
            raise ValueError(f"size-{size} coalitions missing from the complete rows")
        if len(np.unique(head_weights[head == size])) != 1:
            raise ValueError(f"size-{size} coalitions weighted unequally "
                             "in the complete rows")


class CountingGameModel(GameModel):
    """Instrumented adapter: counts coalition evaluations."""

    def __init__(self, game: SyntheticGame):
        super().__init__(game)
        self.calls = 0

    def coalition_values(self, masks):
        self.calls += len(np.atleast_2d(masks))
        return super().coalition_values(masks)


def masked_mean_oracle(mask, x, background, predict) -> float:
    """Brute-force payoff: loop over background rows, average predictions."""
    total = 0.0
    for row in background:
        z = [x[i] if mask[i] else row[i] for i in range(len(x))]
        total += float(predict(np.array(z)))
    return total / len(background)


def kkt_constrained_wls(masks, weights, values, phi0, fx) -> np.ndarray:
    """Constrained weighted least squares via the KKT system.

    Minimize sum_n w_n (phi0 + z_n . phi - v_n)^2 subject to sum(phi) = fx - phi0,
    solved with an explicit Lagrange multiplier; independent of the library's
    closed form and its correction on a sum-zero basis.
    """
    z = np.asarray(masks, dtype=float)
    w = np.asarray(weights, dtype=float)
    v = np.asarray(values, dtype=float)
    m = z.shape[1]
    gram = z.T @ (w[:, None] * z)
    rhs = z.T @ (w * (v - phi0))
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = 2.0 * gram
    kkt[:m, m] = 1.0
    kkt[m, :m] = 1.0
    target = np.zeros(m + 1)
    target[:m] = 2.0 * rhs
    target[m] = fx - phi0
    sol = np.linalg.lstsq(kkt, target, rcond=None)[0]
    return sol[:m]


def qr_constrained_lstsq(masks, weights, values, phi0, fx) -> np.ndarray:
    """The constrained weighted least squares of `kkt_constrained_wls`, by QR.

    The sum constraint is met by phi = (fx - phi0)/m + N c, with N an SVD
    basis of the sum-zero subspace; c is the least-squares solution of the
    weighted design sqrt(w)·z N from a QR factorization, never forming
    normal equations, so the reference keeps full double accuracy on
    ill-conditioned designs. Requires the design to have full rank.
    """
    z = np.asarray(masks, dtype=float)
    w = np.sqrt(np.asarray(weights, dtype=float))
    m = z.shape[1]
    basis = np.linalg.svd(np.ones((1, m)))[2][1:].T  # (m, m-1), orthogonal to ones
    base = np.full(m, (fx - phi0) / m)
    q, r = np.linalg.qr(w[:, None] * (z @ basis))
    c = np.linalg.solve(r, q.T @ (w * (np.asarray(values, dtype=float) - phi0 - z @ base)))
    return base + basis @ c


def design_rank_oracle(masks, weights) -> int:
    """Rank of the constrained fit's weighted design, by SVD.

    The sum constraint leaves the attributions free on the sum-zero subspace.
    The design is sqrt(w)·z on an SVD basis of that subspace, and its rank is
    read from singular values (the library takes eigenvalues of the Gram
    matrix on a Helmert basis; both bases span the same space). The fit is determined exactly when the rank is M - 1.
    Tolerance: numpy's default, largest singular value × size × eps.
    """
    z = np.asarray(masks, dtype=float)
    m = z.shape[1]
    basis = np.linalg.svd(np.ones((1, m)))[2][1:].T  # (m, m-1), orthogonal to ones
    design = np.sqrt(np.asarray(weights, dtype=float))[:, None] * (z @ basis)
    sv = np.linalg.svd(design, compute_uv=False)
    return int((sv > sv.max(initial=0.0) * max(design.shape) * np.finfo(float).eps).sum())


def layer1_parts(game: SyntheticGame):
    """First-layer payoffs by table lookup: (singles, drop_ones, tilde, delta),
    with singles_i = v({i}), drop_ones_i = v(N minus {i}),
    tilde_i = (v({i}) - v(empty) + v(N) - v(N minus {i})) / 2 and
    delta = v(N) - v(empty)."""
    m = game.n_players
    full = 2**m - 1
    v_empty, v_full = game.value_of_mask(0), game.value_of_mask(full)
    singles = np.array([game.value_of_mask(1 << i) for i in range(m)])
    drop_ones = np.array([game.value_of_mask(full ^ (1 << i)) for i in range(m)])
    tilde = (singles - v_empty + v_full - drop_ones) / 2.0
    return singles, drop_ones, tilde, v_full - v_empty


def layer1_oracle(game: SyntheticGame) -> np.ndarray:
    """The paper's first-layer closed form, tilde + (delta - sum(tilde)) / M."""
    _, _, tilde, delta = layer1_parts(game)
    return tilde + (delta - tilde.sum()) / game.n_players


def tau_b_oracle(a, b) -> float:
    """Tie-corrected rank correlation by explicit pair counting."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = len(a)
    concordant = discordant = ties_a = ties_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            da, db = a[i] - a[j], b[i] - b[j]
            if da == 0 and db == 0:
                ties_a += 1
                ties_b += 1
            elif da == 0:
                ties_a += 1
            elif db == 0:
                ties_b += 1
            elif da * db > 0:
                concordant += 1
            else:
                discordant += 1
    n_pairs = n * (n - 1) // 2
    denom = np.sqrt((n_pairs - ties_a) * (n_pairs - ties_b))
    return (concordant - discordant) / denom


def selection_sample_reference(draws, size: int) -> list[bool]:
    """One row of Algorithm S, one feature at a time: feature j is taken when
    its draw, uniform below M - j, is under the number still needed."""
    row, need = [], size
    for draw in draws:
        take = draw < need
        row.append(take)
        need -= take
    return row


def global_sample_reference(rng, n_features: int, layers, n_distinct: int):
    """Kernel SHAP's random phase in complement pairs, one draw at a time:
    the same RNG calls and batch sizes as the library, a layer found by
    bisecting the cumulative weights, a scalar Algorithm S per row, and
    per-draw bookkeeping in dicts. Returns the distinct masks in first-draw
    order, each subset followed by its complement (none in the middle layer
    of an even M, or when only the subset is still needed), and their
    multiplicities."""
    sizes = sorted(layers)
    probs = np.array([comb(n_features, i) * kernel_weight(n_features, i) for i in sizes])
    probs /= probs.sum()
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    dtype = np.min_scalar_type(n_features)
    order, counts, seen = [], {}, 0
    batch, drawn = _draws_for(n_distinct, sizes, probs.tolist(), n_features), 0
    while seen < n_distinct:
        uniforms = rng.random(batch).tolist()
        columns = [rng.integers(0, n_features - j, size=batch, dtype=dtype).tolist()
                   for j in range(n_features)]
        for u, draws in zip(uniforms, zip(*columns)):
            size = sizes[bisect_right(cdf.tolist(), u)]
            key = tuple(selection_sample_reference(draws, size))
            if key in counts:
                counts[key] += 1
            else:
                counts[key] = 1
                paired = 2 * size != n_features and seen + 2 <= n_distinct
                order.append((key, paired))
                seen += 1 + paired
            if seen == n_distinct:
                break
        drawn += batch
        batch = drawn // 2  # a batch that fell short is followed by half the draws so far
    masks, mult = [], []
    for key, paired in order:
        masks.append(key)
        mult.append(counts[key])
        if paired:
            masks.append(tuple(not b for b in key))
            mult.append(counts[key])
    return np.array(masks, dtype=bool), np.array(mult, dtype=float)


def colex_layer_oracle(n_features: int, layer: int) -> np.ndarray:
    """A layer's canonical order by enumeration: the size-`layer` index sets
    sorted colexicographically (by their reversed tuples), each immediately
    followed by its complement unless the layer is the middle one of an even M."""
    sets = sorted(combinations(range(n_features), layer), key=lambda t: t[::-1])
    base = np.zeros((len(sets), n_features), dtype=bool)
    base[np.arange(len(sets))[:, None], np.array(sets)] = True
    if 2 * layer == n_features:
        return base
    return np.stack([base, ~base], axis=1).reshape(-1, n_features)


def colex_unrank_oracle(rank: int, k: int) -> tuple[int, ...]:
    """The rank-th k-subset in colexicographic order, one element at a time by
    a linear search of the combinatorial number system."""
    out = []
    for j in range(k, 0, -1):
        c = j - 1
        while comb(c + 1, j) <= rank:
            c += 1
        rank -= comb(c, j)
        out.append(c)
    return tuple(reversed(out))


def layer_member_oracle(n_features: int, layer: int, position: int) -> np.ndarray:
    """The mask at one position of a layer's canonical order, by scalar unrank."""
    rank, complemented = ((position, 0) if 2 * layer == n_features
                          else divmod(position, 2))
    mask = np.zeros(n_features, dtype=bool)
    mask[list(colex_unrank_oracle(rank, layer))] = True
    return ~mask if complemented else mask
