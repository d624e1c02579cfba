#!/usr/bin/env python3
"""Median CPU time of the pipeline's stages, cell by cell, appended to
BENCH_<grid>.json.

The file name picks the grid:

* fit: the sampler and the surrogate fit. M in {8, 13, 16, 20}, both
  strategies, and for each M a few budgets that end on a complete-layer
  boundary and a few that do not; M=13 b=4000 and M=16 b=10000 sit on either
  side of the fit's switch to byte-pair histograms at 8192 sampled rows, and
  M=13 b=4000 and b=8000, and M=20 b=3000 and b=43398, on either side of
  `pack`'s switch to its stream path at 6000 rows. Each
  cell times `sampling.materialize` of the seed-0 plan, takes the payoffs of
  the set it made from a random N(0, 1) table over all 2^M masks, and times
  `coalitions.pack` of its masks (the lookup a table game and the payoff memo
  make for each explanation), `explainer.fit` and
  `explainer.sparsify(..., 4)`.
* knn: k-NN `predict_proba`. n_train in {40, 120, 1000} training rows, M in
  {8, 13, 20} features and k in {1, 5}. Each cell fits a
  `KNNClassifierModel` to N(0, 1) training rows with three labels, all drawn
  from a seed of the cell's own, and times `predict_proba` on KNN_ROWS N(0, 1)
  query rows; it reports ms per 1000 rows.
* walk: the substitute -> predict layer. A ridge and a k-NN adapter, M in
  {8, 13, 16} features and B in {1, 7, 100} background rows. Each cell draws
  N(0, 1) training rows, an instance and a background from a seed of its
  own, and times two cold calls on a fresh adapter each time, so no payoff
  memo is warm: `all_payoffs`, the exact oracle's table, which on a fresh
  adapter is the Gray-code walk over all 2^M masks (2^M * B model rows), and
  `evaluate_batch` of one request of WALK_REQUEST random masks (at M=8 fewer
  are distinct; the cell reports how many). The ridge model is fit to a
  random linear target; the k-NN adapter is the probability of class 0 of a
  `KNNClassifierModel` with k=5 on WALK_N_TRAIN rows of three labels.
* explain: whole explanations, as the headline sweep makes them. A ridge, a
  k-NN and a table-game model at M in {8, 13, 20}; for each M the first two
  complete-layer budgets and two ragged ones; both strategies, with no
  explanation size and with 4. The k-NN model, its background of
  EXPLAIN_BACKGROUND rows and the instance are
  `stability_sweep.knn_recipe`'s at seed M; the ridge model is fit to a
  random linear target on the same rows, and the game is a table of N(0, 1)
  payoffs over all 2^M masks. A timed call makes one fresh adapter and
  explains the instance EXPLAIN_RUNS times on it, with the seeds
  `derive_seed(0, 0, budget, run)`, so the payoff memo fills as it does for
  one instance of the sweep. A cell reports explanations per CPU-second and,
  from one more call on a counting adapter, model rows (a game: coalitions)
  per explanation.

Each call is timed alone in process CPU time, after one untimed call, at
least MIN_REPS times and then until CELL_S of CPU time or MAX_REPS calls;
a cell reports the median in ms with its sample count. CPU time still moves
with the host from one run to the next, so compare two checkouts by running
them one after the other, alternately, several times into one file. Run with
BLAS single-threaded, as the benchmark runs; the thread settings go into the
entry's provenance.

Each run appends one entry (the `git describe` of the checkout whose
`stableshap` it imported, provenance, the cells) to the file:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/grid.py BENCH_fit.json
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

import stableshap
from stability_sweep import knn_recipe
from stableshap import (
    ClassProbabilityModel,
    GameModel,
    KNNClassifierModel,
    RidgeRegressionModel,
    SyntheticGame,
    explain,
)
from stableshap.cli import derive_seed
from stableshap.coalitions import complete_layer_budgets, pack
from stableshap.explainer import fit, plan_for, sparsify
from stableshap.games import RULE_TABLE
from stableshap.sampling import KERNEL_SHAP, ST_SHAP, materialize
from stableshap.value_function import all_payoffs, evaluate_batch

CELL_S, MIN_REPS, MAX_REPS = 0.3, 5, 400
# budgets per M: complete-layer boundaries and ragged budgets between them
FIT_BUDGETS = {8: (16, 40, 100, 184),
               13: (26, 50, 182, 200, 500, 754, 1000, 4000, 8000),
               16: (10000,), 20: (420, 3000, 43398, 120918, 200000)}
KNN_N_TRAIN, KNN_FEATURES, KNN_KS = (40, 120, 1000), (8, 13, 20), (1, 5)
# rows per call: one whole 1024-row block and a part of a second
KNN_ROWS = 1270
WALK_FEATURES, WALK_BACKGROUNDS = (8, 13, 16), (1, 7, 100)
WALK_REQUEST, WALK_N_TRAIN = 1000, 40
# ragged budgets per M; the complete ones are the first two layer boundaries
EXPLAIN_RAGGED = {8: (40, 100), 13: (100, 500), 20: (200, 3000)}
EXPLAIN_RUNS, EXPLAIN_BACKGROUND, EXPLAIN_SIZES = 20, 10, (None, 4)


def median_ms(call) -> tuple[float, int]:
    """(median ms of ``call`` in process CPU time, its timed calls)."""
    call()
    times = []
    while len(times) < MIN_REPS or (sum(times) < CELL_S and len(times) < MAX_REPS):
        start = time.process_time()
        call()
        times.append(time.process_time() - start)
    return round(1e3 * statistics.median(times), 4), len(times)


def fit_cells():
    for m, budgets in FIT_BUDGETS.items():
        table = np.random.default_rng(m).normal(size=2**m)
        complete = {b for _, b in complete_layer_budgets(m)}
        for budget in budgets:
            for strategy in (ST_SHAP, KERNEL_SHAP):
                plan = plan_for(strategy, m, budget, seed=0)
                materialize_ms, materialize_reps = median_ms(lambda: materialize(plan))
                cset = materialize(plan)
                pack_ms, pack_reps = median_ms(lambda: pack(cset.masks))
                values = table[pack(cset.masks)]
                dense = fit(cset, values, table[0], table[-1])
                fit_ms, fit_reps = median_ms(lambda: fit(cset, values, table[0], table[-1]))
                sparse_ms, sparse_reps = median_ms(lambda: sparsify(dense, 4, cset, values))
                yield {"m": m, "strategy": strategy, "budget": budget,
                       "complete_budget": budget in complete,
                       "sampled_rows": len(cset) - cset.n_complete,
                       "materialize_ms": materialize_ms,
                       "materialize_reps": materialize_reps,
                       "pack_ms": pack_ms, "pack_reps": pack_reps,
                       "fit_ms": fit_ms, "fit_reps": fit_reps,
                       "sparsify4_ms": sparse_ms, "sparsify4_reps": sparse_reps}


def knn_cells():
    for n_train in KNN_N_TRAIN:
        for m in KNN_FEATURES:
            for k in KNN_KS:
                rng = np.random.default_rng([n_train, m, k])
                model = KNNClassifierModel(rng.normal(size=(n_train, m)),
                                           rng.integers(0, 3, size=n_train), k=k)
                rows = rng.normal(size=(KNN_ROWS, m))
                ms, reps = median_ms(lambda: model.predict_proba(rows))
                yield {"n_train": n_train, "m": m, "k": k, "rows_per_call": KNN_ROWS,
                       "ms_per_1000_rows": round(ms * 1000 / KNN_ROWS, 4), "reps": reps}


def walk_adapters(rng, m):
    """(name, a function making a fresh adapter) for each model of the grid."""
    X = rng.normal(size=(WALK_N_TRAIN, m))
    ridge = RidgeRegressionModel.fit(X, X @ rng.normal(size=m))
    knn = KNNClassifierModel(X, rng.integers(0, 3, size=WALK_N_TRAIN), k=5)
    yield "ridge", lambda: RidgeRegressionModel(ridge.coef, ridge.intercept)
    yield "knn", lambda: ClassProbabilityModel(knn, int(knn.classes[0]))


def walk_cells():
    for m in WALK_FEATURES:
        for n_background in WALK_BACKGROUNDS:
            rng = np.random.default_rng([m, n_background])
            x = rng.normal(size=m)
            background = rng.normal(size=(n_background, m))
            masks = rng.random((WALK_REQUEST, m)) < 0.5
            for name, fresh in walk_adapters(rng, m):
                walk_ms, walk_reps = median_ms(lambda: all_payoffs(x, background, fresh()))
                request_ms, request_reps = median_ms(
                    lambda: evaluate_batch(masks, x, background, fresh()))
                yield {"model": name, "m": m, "n_background": n_background,
                       "walk_rows": n_background << m,
                       "request_masks": WALK_REQUEST,
                       "distinct_masks": len(np.unique(masks, axis=0)),
                       "walk_ms": walk_ms, "walk_reps": walk_reps,
                       "request_ms": request_ms, "request_reps": request_reps}


class Counting:
    """Adapter wrapper counting the rows its model predicts or, for a game,
    the coalitions it looks up."""

    def __init__(self, inner):
        self.n_features, self.rows = inner.n_features, 0
        name = "coalition_values" if hasattr(inner, "coalition_values") else "predict"
        call = getattr(inner, name)

        def counted(arg):
            out = call(arg)
            self.rows += len(out)
            return out

        setattr(self, name, counted)


def explain_models(m):
    """(name, instance, background, a function making a fresh adapter) per model."""
    knn, background, (x,) = knn_recipe(m, 1, EXPLAIN_BACKGROUND, seed=m)
    rng = np.random.default_rng([m, 1])
    ridge = RidgeRegressionModel.fit(knn.X, knn.X @ rng.normal(size=m))
    game = SyntheticGame(m, RULE_TABLE, payoffs=rng.normal(size=1 << m))
    explained = knn.predicted_class(x)
    yield "ridge", x, background, lambda: RidgeRegressionModel(ridge.coef, ridge.intercept)
    yield "knn", x, background, lambda: ClassProbabilityModel(knn, explained)
    yield "game", None, None, lambda: GameModel(game)


def explain_cells():
    for m, ragged in EXPLAIN_RAGGED.items():
        complete = [b for _, b in complete_layer_budgets(m)[:2]]
        for name, x, background, fresh in explain_models(m):
            for budget in (*complete, *ragged):
                for strategy in (ST_SHAP, KERNEL_SHAP):
                    for size in EXPLAIN_SIZES:
                        def runs(model):
                            for run in range(EXPLAIN_RUNS):
                                explain(x, model, background, strategy, budget,
                                        derive_seed(0, 0, budget, run), size)

                        ms, reps = median_ms(lambda: runs(fresh()))
                        counted = Counting(fresh())
                        runs(counted)
                        yield {"model": name, "m": m, "strategy": strategy,
                               "budget": budget, "complete_budget": budget in complete,
                               "explanation_size": size, "runs": EXPLAIN_RUNS,
                               "explain_per_cpu_s": round(EXPLAIN_RUNS * 1e3 / ms, 2),
                               "explain_reps": reps,
                               "model_rows_per_explanation": counted.rows / EXPLAIN_RUNS}


GRIDS = {"fit": fit_cells, "knn": knn_cells, "walk": walk_cells, "explain": explain_cells}


def git_describe() -> str:
    where = Path(stableshap.__file__).resolve().parent
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"], cwd=where,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("out", type=Path,
                   help=f"BENCH_<grid>.json, grid one of {', '.join(GRIDS)}; "
                        "this run's entry is appended to it")
    args = p.parse_args(argv)
    match = re.fullmatch(r"BENCH_(\w+)\.json", args.out.name)
    if match is None or match[1] not in GRIDS:
        p.error(f"{args.out.name} names no grid: use BENCH_<grid>.json "
                f"with grid one of {', '.join(GRIDS)}")
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    entry = {
        "commit": git_describe(),
        "provenance": {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "numpy": np.__version__, "cell_s": CELL_S,
                       "threads": {k: os.environ.get(k) for k in
                                   ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
                       "clock": "process CPU time"},
        "cells": list(GRIDS[match[1]]()),
    }
    doc["runs"].append(entry)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for cell in entry["cells"]:
        print("  ".join(f"{key}={value}" for key, value in cell.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
