"""Shared fixtures and independent test oracles.

The oracles here deliberately use different algebra than the library paths
they check: payoff averaging by explicit Python loops, a Lagrange-multiplier
KKT solve for the constrained regression, the paper's first-layer formula
from table lookups, and pair counting for rank correlation.
"""

import numpy as np
import pytest

from stableshap import GameModel, SyntheticGame


@pytest.fixture
def glove_game() -> SyntheticGame:
    # M=3: worth 1 iff player 0 plays together with player 1 or 2
    values = {m: (1.0 if (m & 0b001) and (m & 0b110) else 0.0) for m in range(8)}
    return SyntheticGame.from_table(3, values)


GLOVE_EXACT = (2 / 3, 1 / 6, 1 / 6)  # frozen: 6-ordering enumeration by hand


def random_table_game(rng: np.random.Generator, m: int,
                      v_empty: float | None = None) -> SyntheticGame:
    game = SyntheticGame.random_table(m, rng)
    if v_empty is not None:
        table = dict(game.table)
        table[0] = v_empty
        game = SyntheticGame.from_table(m, table)
    return game


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
    variable-elimination route.
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
