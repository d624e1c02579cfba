"""Synthetic cooperative games: coalition -> payoff, with JSON round-tripping.

Three flavours: an explicit table over bitmasks, an additive rule
v(S) = sum of per-player weights, and a cardinality rule v(S) = h(|S|).
Games plug into the explainers through :class:`stableshap.models.GameModel`,
which evaluates coalitions directly with no background data.

A table game of at most 64 players is two arrays: ``payoffs`` in key order
and ``keys``, the sorted ``uint64`` masks (:func:`stableshap.coalitions.pack`'s
key). ``keys`` is None when all 2^M masks are present: mask i's payoff is then
``payoffs[i]``.
"""

from __future__ import annotations

import json
import math
import operator
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


def _finite(v, entry: str) -> float:
    """A spec's number as a finite float; ``entry`` words the refusal of
    anything else (JSON NaN, Infinity and integers past a float's range too)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise GameTableError(f"{entry} {v!r}, not a number")
    try:
        f = float(v)
    except OverflowError:
        raise GameTableError(f"{entry} an integer too large for a float") from None
    if not math.isfinite(f):
        raise GameTableError(f"{entry} {v!r}, not a finite number")
    return f


def _numbers(spec: dict, name: str, count: int) -> list:
    """A game spec's array field, refused unless it holds ``count`` finite numbers."""
    values = _field(spec, name, list)
    if len(values) != count:
        raise GameTableError(f"field {name!r} has {len(values)} entries, not the "
                             f"{count} that M={spec['M']} needs")
    for i, v in enumerate(values):
        _finite(v, f"field {name!r} entry {i} is")
    return values


def _mask_keys(n_players: int, values: dict) -> np.ndarray:
    """A table's keys as ``uint64`` masks in dict order; a key that is no mask is named."""
    try:
        keys = np.fromiter(map(operator.index, values), np.uint64, len(values))
        if not len(keys) or keys.max() < 2**n_players:
            return keys
    except (TypeError, OverflowError):
        pass
    # some key is no mask: the per-key checks word the error
    for key in values:
        try:
            operator.index(key)
        except TypeError:
            raise GameTableError(f"table key {key!r} is not an integer mask") from None
    bad = sorted(k for k in map(operator.index, values) if not 0 <= k < 2**n_players)
    raise GameTableError(f"table keys {bad} are not masks of {n_players} players "
                         f"(0 to {2**n_players - 1})")


@dataclass(frozen=True, eq=False)
class SyntheticGame:
    """A characteristic function over subsets of M players, compared by identity."""

    n_players: int
    rule: str
    payoffs: np.ndarray | None = None
    keys: np.ndarray | None = None
    weights: np.ndarray | None = None
    by_size: np.ndarray | None = None

    @classmethod
    def from_table(cls, n_players: int, values: dict[int, float]) -> "SyntheticGame":
        if n_players < 2:
            raise ValueError("games need at least 2 players")
        if n_players > 64:
            raise GameTableError("table games support at most 64 players")
        keys = _mask_keys(n_players, values)
        payoffs = np.fromiter(values.values(), float, len(keys))
        if np.any(keys[1:] < keys[:-1]):
            order = np.argsort(keys)
            keys, payoffs = keys[order], payoffs[order]
        if not len(keys) or keys[0] != 0:
            raise GameTableError("table must define the empty coalition (mask 0)")
        return cls(n_players, RULE_TABLE, payoffs=payoffs,
                   keys=None if len(keys) == 2**n_players else keys)

    @classmethod
    def additive(cls, player_weights) -> "SyntheticGame":
        w = np.asarray(player_weights, dtype=float)
        if w.ndim != 1 or len(w) < 2:
            raise ValueError("additive game needs a weight per player, at least 2")
        return cls(len(w), RULE_ADDITIVE, weights=w)

    @classmethod
    def cardinality(cls, n_players: int, values_by_size) -> "SyntheticGame":
        if n_players < 2:
            raise ValueError("games need at least 2 players")
        h = np.asarray(values_by_size, dtype=float)
        if len(h) != n_players + 1:
            raise ValueError(
                f"cardinality game over {n_players} players needs {n_players + 1} "
                f"values (sizes 0..{n_players}), got {len(h)}"
            )
        return cls(n_players, RULE_CARDINALITY, by_size=h)

    def value_of_mask(self, mask: int) -> float:
        if not 0 <= mask < 2**self.n_players:
            raise GameTableError(f"mask {mask} is not a mask of {self.n_players} players "
                                 f"(0 to {2**self.n_players - 1})")
        row = [mask >> i & 1 for i in range(self.n_players)]
        return float(self.coalition_values(np.array([row], dtype=bool))[0])

    def coalition_values(self, masks: np.ndarray) -> np.ndarray:
        """Vectorized payoff lookup for a boolean mask matrix (n, M)."""
        masks = np.asarray(masks, dtype=bool)
        if masks.ndim != 2 or masks.shape[1] != self.n_players:
            raise ValueError(f"expected masks of shape (n, {self.n_players})")
        if self.rule == RULE_ADDITIVE:
            return masks @ self.weights
        if self.rule == RULE_CARDINALITY:
            return self.by_size[masks.sum(axis=1)]
        ints = pack(masks)
        if self.keys is None:
            # the gather indexing makes, with less overhead; a key past the
            # table raises IndexError
            return np.take(self.payoffs, ints)
        # a mask above every key lands past the end: clip it onto the last key
        at = np.minimum(np.searchsorted(self.keys, ints), len(self.keys) - 1)
        found = self.keys[at] == ints
        if not found.all():
            missing = int(ints[np.argmin(found)])
            raise GameTableError(
                f"mask {int_to_bitstring(missing, self.n_players)} missing from game table")
        return self.payoffs[at]

    def to_json_dict(self) -> dict:
        if self.rule == RULE_ADDITIVE:
            return {"M": self.n_players, "rule": RULE_ADDITIVE,
                    "weights": self.weights.tolist()}
        if self.rule == RULE_CARDINALITY:
            return {"M": self.n_players, "rule": RULE_CARDINALITY,
                    "by_size": self.by_size.tolist()}
        masks = range(len(self.payoffs)) if self.keys is None else self.keys.tolist()
        return {"M": self.n_players,
                "values": {int_to_bitstring(mask, self.n_players): v
                           for mask, v in zip(masks, self.payoffs.tolist())}}

    @classmethod
    def from_json_dict(cls, spec: dict) -> "SyntheticGame":
        """A game from its JSON form; a spec that is no game raises
        :class:`GameTableError` naming the field at fault."""
        if not isinstance(spec, dict):
            raise GameTableError(f"a game is a JSON object, not a {type(spec).__name__}")
        n_players = _field(spec, "M", int)
        if n_players < 2:
            raise GameTableError(f"field 'M' must be at least 2 players, got {n_players}")
        rule = spec.get("rule")
        if rule == RULE_ADDITIVE:
            return cls.additive(_numbers(spec, "weights", n_players))
        if rule == RULE_CARDINALITY:
            return cls.cardinality(n_players, _numbers(spec, "by_size", n_players + 1))
        if rule not in (None, RULE_TABLE):
            raise GameTableError(f"field 'rule' must be {RULE_TABLE!r}, {RULE_ADDITIVE!r} "
                                 f"or {RULE_CARDINALITY!r}, got {rule!r}")
        values = {}
        for key, v in _field(spec, "values", dict).items():
            if len(key) != n_players or set(key) - {"0", "1"}:
                raise GameTableError(f"mask {key!r} is not a string of M={n_players} "
                                     "characters 0 or 1")
            values[bitstring_to_int(key)] = _finite(
                v, f"field 'values' maps mask {key!r} to")
        return cls.from_table(n_players, values)

    @classmethod
    def load(cls, path) -> "SyntheticGame":
        with open(Path(path)) as fh:
            return cls.from_json_dict(json.load(fh))

    def save(self, path) -> None:
        with open(Path(path), "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
