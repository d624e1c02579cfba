"""Span tracing installed from outside the library.

`install` wraps each public stableshap function listed in FUNCTIONS at every
binding it has in a loaded ``stableshap.*`` module (``materialize`` is bound
in both ``sampling`` and ``explainer``, for example), and the methods in
METHODS on their class. A wrapper records a span into a `Tracer` when one is
given, and calls the workload's observer for that span name when there is one;
targets with neither stay unwrapped. Targets that a later version of the
library no longer has are skipped and listed by `install`.

Spans stay in memory as tuples and are written out by `Tracer.write`.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, defining module, attribute)
FUNCTIONS = (
    ("cli.main", "stableshap.cli", "main"),
    ("cli.wire", "stableshap.cli", "wire"),
    ("data.load_csv", "stableshap.data", "load_csv"),
    ("explainer.explain", "stableshap.explainer", "explain"),
    ("explainer.fit", "stableshap.explainer", "fit"),
    ("explainer.sparsify", "stableshap.explainer", "sparsify"),
    ("sampling.plan_for", "stableshap.explainer", "plan_for"),
    ("sampling.materialize", "stableshap.sampling", "materialize"),
    ("coalitions.layer_masks", "stableshap.coalitions", "layer_masks"),
    ("value_function.evaluate_batch", "stableshap.value_function", "evaluate_batch"),
    ("value_function.anchors", "stableshap.value_function", "anchors"),
    ("value_function.substitute", "stableshap.value_function", "substitute"),
    ("exact.exact_shap", "stableshap.exact", "exact_shap"),
    ("exact.exact_shap_game", "stableshap.exact", "exact_shap_game"),
    ("layer1.layer1_attribution", "stableshap.layer1", "layer1_attribution"),
    ("metrics.jaccard_n", "stableshap.metrics", "jaccard_n"),
    ("metrics.kendall_tau", "stableshap.metrics", "kendall_tau"),
    ("metrics.r2_score", "stableshap.metrics", "r2_score"),
)

# (span name, module, class, method)
METHODS = (
    ("models.predict", "stableshap.models", "RidgeRegressionModel", "predict"),
    ("models.predict", "stableshap.models", "ClassProbabilityModel", "predict"),
    ("models.predict", "stableshap.models", "CallableModel", "predict"),
    ("models.coalition_values", "stableshap.models", "GameModel", "coalition_values"),
    ("cli.write", "stableshap.cli", "RunWriter", "write_csv"),
    ("cli.write", "stableshap.cli", "RunWriter", "write_explanation"),
)

# spans that each produce one attribution vector; outside another one they
# open a new explanation id, and every span inside them shares it
VECTOR_SPANS = frozenset(
    {"explainer.explain", "layer1.layer1_attribution", "exact.exact_shap"}
)


def _len(args, result):
    return {"n": len(result)}


def _materialized(args, result):
    plan = args[0]
    return {"n": len(result), "sampled": getattr(plan, "n_sampled", 0),
            "budget": getattr(plan, "budget", 0)}


def _written(args, result):
    return {"n": os.path.getsize(result)}


# work counted at a span boundary, from the call's arguments and result
COUNTERS = {
    "models.predict": _len,
    "models.coalition_values": _len,
    "value_function.evaluate_batch": _len,
    "value_function.substitute": lambda args, result: {"n": result.nbytes},
    "sampling.materialize": _materialized,
    "explainer.fit": lambda args, result: {"n": len(args[0])},
    "exact.exact_shap": lambda args, result: {"n": result.eval_count},
    "cli.write": _written,
}


class Tracer:
    """Nested spans of one single-threaded process.

    A span is (id, name, start, end, parent id, explanation id, self seconds,
    phase, counts); self seconds are the duration minus the child spans'.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.phase = "setup"
        self._stack: list[list] = []  # [span id, explanation id, child seconds]
        self._next_id = 0
        self._next_eid = 0
        # packed masks seen per (model, instance), for the distinct-mask ratio
        self.masks_seen: dict[tuple, set] = defaultdict(set)

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        eid = parent[1] if parent else None
        if eid is None and name in VECTOR_SPANS:
            eid = self._next_eid
            self._next_eid += 1
        entry = [self._next_id, eid, 0.0]
        self._next_id += 1
        self._stack.append(entry)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(entry, parent, name, start, {"error": 1})
            raise
        counts = COUNTERS[name](args, result) if name in COUNTERS else None
        if name == "value_function.evaluate_batch" and self.phase == "timed":
            self._note_masks(args)
        self._close(entry, parent, name, start, counts)
        return result

    def _close(self, entry, parent, name, start, counts):
        end = time.perf_counter()
        self._stack.pop()
        if parent is not None:
            parent[2] += end - start
        self.spans.append((entry[0], name, start, end,
                           parent[0] if parent else None, entry[1],
                           end - start - entry[2], self.phase, counts))

    def _note_masks(self, args):
        masks = np.asarray(args[0], dtype=bool)
        if masks.ndim != 2 or masks.shape[1] > 62:
            return
        x = args[1]
        key = (id(args[3]), b"" if x is None else np.asarray(x, dtype=float).tobytes())
        packed = masks.astype(np.int64) @ (np.int64(1) << np.arange(masks.shape[1]))
        self.masks_seen[key].update(packed.tolist())

    def write(self, path):
        fields = ("id", "name", "start", "end", "parent", "eid", "self_s", "phase", "counts")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")

    def summary(self, phase: str) -> dict:
        """Per span name: calls, self seconds, inclusive seconds, summed counts.

        Inclusive time skips a span directly nested in one of the same name,
        so it is never counted twice.
        """
        names = {span[0]: span[1] for span in self.spans}
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0,
                                   "counts": defaultdict(float)})
        for sid, name, start, end, parent, _eid, self_s, span_phase, counts in self.spans:
            if span_phase != phase:
                continue
            row = out[name]
            row["calls"] += 1
            row["self_s"] += self_s
            if names.get(parent) != name:
                row["incl_s"] += end - start
            for key, value in (counts or {}).items():
                row["counts"][key] += value
        return out


def _stableshap_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "stableshap" or name.startswith("stableshap."))]


def _wrapper(name, fn, tracer, observer):
    def wrapped(*args, **kwargs):
        start = time.perf_counter()
        if tracer is None:
            result = fn(*args, **kwargs)
        else:
            result = tracer.call(name, fn, args, kwargs)
        if observer is not None:
            observer(args, result, time.perf_counter() - start)
        return result

    return wrapped


def install(tracer: Tracer | None, observers: dict):
    """Wrap the targets that the tracer or an observer needs.

    Returns (undo, missing): `undo()` restores every original binding, and
    `missing` names the targets this version of the library lacks.
    """
    restore = []
    missing = []
    modules = _stableshap_modules()
    for name, module_name, attr in FUNCTIONS:
        observer = observers.get(name)
        if tracer is None and observer is None:
            continue
        original = getattr(importlib.import_module(module_name), attr, None)
        if original is None:
            missing.append(name)
            continue
        wrapped = _wrapper(name, original, tracer, observer)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    restore.append((module, key, original))
                    setattr(module, key, wrapped)
    for name, module_name, class_name, attr in METHODS:
        observer = observers.get(name)
        if tracer is None and observer is None:
            continue
        cls = getattr(importlib.import_module(module_name), class_name, None)
        original = vars(cls).get(attr) if cls is not None else None
        if original is None:
            missing.append(f"{name} ({class_name}.{attr})")
            continue
        restore.append((cls, attr, original))
        setattr(cls, attr, _wrapper(name, original, tracer, observer))

    def undo():
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)

    return undo, missing
