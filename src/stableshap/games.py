"""Synthetic cooperative games: coalition -> payoff, with JSON round-tripping.

Three flavours: an explicit table over bitmasks, an additive rule
v(S) = sum of per-player weights, and a cardinality rule v(S) = h(|S|).
Games plug into the explainers through :class:`stableshap.models.GameModel`,
which evaluates coalitions directly with no background data.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coalitions import pack
from .errors import GameTableError

RULE_TABLE = "table"
RULE_ADDITIVE = "additive"
RULE_CARDINALITY = "cardinality"


def bitstring_to_int(s: str) -> int:
    # character i of the string is feature i
    return sum(1 << i for i, c in enumerate(s) if c == "1")


def int_to_bitstring(mask: int, n_features: int) -> str:
    return "".join("1" if mask >> i & 1 else "0" for i in range(n_features))


_JSON_TYPES = {int: "integer", list: "array", dict: "object"}


def _field(spec: dict, name: str, kind: type):
    """A game spec's field, refused when it is missing or of another JSON type."""
    if name not in spec:
        raise GameTableError(f"game has no field {name!r}")
    value = spec[name]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise GameTableError(f"field {name!r} must be a JSON {_JSON_TYPES[kind]}, "
                             f"got {value!r}")
    return value


class _DenseTable(Mapping):
    """Read-only mask -> payoff view of a complete table's payoff array, so a
    complete game keeps no per-mask dict."""

    def __init__(self, payoffs: np.ndarray):
        self.payoffs = payoffs

    def __getitem__(self, mask: int) -> float:
        if not 0 <= mask < len(self.payoffs):
            raise KeyError(mask)
        return float(self.payoffs[mask])

    def __iter__(self):
        return iter(range(len(self.payoffs)))

    def __len__(self) -> int:
        return len(self.payoffs)


@dataclass(frozen=True)
class SyntheticGame:
    """A characteristic function over subsets of M players."""

    n_players: int
    rule: str
    table: Mapping[int, float] | None = None
    weights: np.ndarray | None = None
    by_size: np.ndarray | None = None

    @classmethod
    def from_table(cls, n_players: int, values: dict[int, float]) -> "SyntheticGame":
        if n_players < 2:
            raise ValueError("games need at least 2 players")
        n = len(values)
        if n == 2**n_players and n_players <= 24:
            # a complete table becomes one payoff array, built by vectorized
            # passes; a key that is no mask falls through to the checks below
            try:
                keys = np.fromiter(map(operator.index, values), np.int64, n)
            except (TypeError, OverflowError):
                keys = None
            if keys is not None and keys.min() >= 0 and keys.max() < n:
                dense = np.empty(n)
                dense[keys] = np.fromiter(values.values(), float, n)
                return cls(n_players, RULE_TABLE, table=_DenseTable(dense))
        table = {}
        for mask, v in values.items():
            try:
                key = operator.index(mask)
            except TypeError:
                raise GameTableError(f"table key {mask!r} is not an integer mask") from None
            table[key] = float(v)
        bad = sorted(mask for mask in table if not 0 <= mask < 2**n_players)
        if bad:
            raise GameTableError(f"table keys {bad} are not masks of {n_players} players "
                                 f"(0 to {2**n_players - 1})")
        if 0 not in table:
            raise GameTableError("table must define the empty coalition (mask 0)")
        return cls(n_players, RULE_TABLE, table=table)

    @classmethod
    def additive(cls, player_weights) -> "SyntheticGame":
        w = np.asarray(player_weights, dtype=float)
        if w.ndim != 1 or len(w) < 2:
            raise ValueError("additive game needs a weight per player, at least 2")
        return cls(len(w), RULE_ADDITIVE, weights=w)

    @classmethod
    def cardinality(cls, n_players: int, values_by_size) -> "SyntheticGame":
        h = np.asarray(values_by_size, dtype=float)
        if len(h) != n_players + 1:
            raise ValueError(
                f"cardinality game over {n_players} players needs {n_players + 1} "
                f"values (sizes 0..{n_players}), got {len(h)}"
            )
        return cls(n_players, RULE_CARDINALITY, by_size=h)

    def value_of_mask(self, mask: int) -> float:
        if self.rule == RULE_ADDITIVE:
            return float(sum(self.weights[i] for i in range(self.n_players) if mask >> i & 1))
        if self.rule == RULE_CARDINALITY:
            return float(self.by_size[bin(mask).count("1")])
        try:
            return self.table[mask]
        except KeyError:
            raise GameTableError(
                f"mask {int_to_bitstring(mask, self.n_players)} missing from game table"
            ) from None

    def coalition_values(self, masks: np.ndarray) -> np.ndarray:
        """Vectorized payoff lookup for a boolean mask matrix (n, M)."""
        masks = np.asarray(masks, dtype=bool)
        if masks.ndim != 2 or masks.shape[1] != self.n_players:
            raise ValueError(f"expected masks of shape (n, {self.n_players})")
        if self.rule == RULE_ADDITIVE:
            return masks @ self.weights
        if self.rule == RULE_CARDINALITY:
            return self.by_size[masks.sum(axis=1)]
        if self.n_players > 64:
            raise ValueError("table games support at most 64 players")
        ints = pack(masks)
        if isinstance(self.table, _DenseTable):
            return self.table.payoffs[ints]
        return np.array([self.value_of_mask(int(v)) for v in ints])

    def to_json_dict(self) -> dict:
        if self.rule == RULE_ADDITIVE:
            return {"M": self.n_players, "rule": RULE_ADDITIVE,
                    "weights": self.weights.tolist()}
        if self.rule == RULE_CARDINALITY:
            return {"M": self.n_players, "rule": RULE_CARDINALITY,
                    "by_size": self.by_size.tolist()}
        return {"M": self.n_players,
                "values": {int_to_bitstring(mask, self.n_players): v
                           for mask, v in sorted(self.table.items())}}

    @classmethod
    def from_json_dict(cls, spec: dict) -> "SyntheticGame":
        """A game from its JSON form; a spec that is no game raises
        :class:`GameTableError` naming the field at fault."""
        if not isinstance(spec, dict):
            raise GameTableError(f"a game is a JSON object, not a {type(spec).__name__}")
        n_players = _field(spec, "M", int)
        rule = spec.get("rule")
        if rule == RULE_ADDITIVE:
            return cls.additive(_field(spec, "weights", list))
        if rule == RULE_CARDINALITY:
            return cls.cardinality(n_players, _field(spec, "by_size", list))
        if rule not in (None, RULE_TABLE):
            raise ValueError(f"unknown game rule: {rule!r}")
        values = {}
        for key, v in _field(spec, "values", dict).items():
            if len(key) != n_players or set(key) - {"0", "1"}:
                raise GameTableError(f"mask {key!r} is not a string of M={n_players} "
                                     "characters 0 or 1")
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise GameTableError(f"field 'values' maps mask {key!r} to {v!r}, "
                                     "not a number")
            values[bitstring_to_int(key)] = float(v)
        return cls.from_table(n_players, values)

    @classmethod
    def load(cls, path) -> "SyntheticGame":
        with open(Path(path)) as fh:
            return cls.from_json_dict(json.load(fh))

    def save(self, path) -> None:
        with open(Path(path), "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
