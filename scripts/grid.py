#!/usr/bin/env python3
"""CPU time of the pipeline's stages, cell by cell, paired call by call
between a git revision and the working tree, appended to BENCH_<grid>.json.

    PYTHONPATH=src python scripts/grid.py REV BENCH_<grid>.json [--cells N]

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

REV's `src/` is extracted with `git archive` into a temporary directory (a
local operation: no network, nothing installed), so the script needs a git
checkout. Two long-lived worker processes, A importing REV's stableshap and
B the working tree's, run this file's cells in lockstep, with one BLAS
thread and the OpenBLAS kernel type CORETYPE each: outputs and speed differ
between kernel types. Wherever a cell times a call (`median_ms`), both
workers make one untimed call, and then the timed calls alternate strictly
A B A B ..., so no timed call follows its own worker's previous call. Each
worker times its own call in process CPU time, at least MIN_REPS pairs and
then until the two sides together have 2 * CELL_S of CPU time or MAX_REPS
pairs.

A cell keeps the grid's fields with B's figures (`fit_ms`, `fit_reps`,
`ms_per_1000_rows`, ...) and adds, for each timed stage, REV's median in ms
per call (`<stage>_rev_ms`), the ratio of B's median over REV's
(`<stage>_ratio`: below 1 the working tree is faster) and the pairs in which
B was faster (`<stage>_faster`); the knn grid's one stage adds `rev_ms`,
`ratio` and `faster`. The script prints the cells and appends one entry (the
working tree's `git describe`, REV's sha, provenance, the cells) to the
file. With REV = HEAD on a clean tree both sides are the same code, and the
ratios show how far the pairing itself can be trusted.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from itertools import islice
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
# OpenBLAS kernel type of both workers
CORETYPE = "Haswell"
SCRIPTS = Path(__file__).resolve().parent
ROOT = SCRIPTS.parent
# a worker's channel to the parent, opened by `serve`
CHANNEL = None
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


def send(message: dict) -> None:
    """Worker: one message to the parent, on the channel `serve` opened."""
    CHANNEL.write(json.dumps(message) + "\n")


def median_ms(call) -> tuple[float, int]:
    """Worker: (median ms of ``call`` in process CPU time, its timed calls),
    after one untimed call, timing one call each time the parent says so."""
    call()
    send({"site": True})
    times = []
    while sys.stdin.readline().strip() == "time":
        start = time.process_time()
        call()
        times.append(time.process_time() - start)
        send({"s": times[-1]})
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


def serve(src: str, grid_name: str, cells: int) -> int:
    """Worker: run the grid's cells, handing each timed call to the parent."""
    global CHANNEL
    if not Path(stableshap.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"grid: worker imported {stableshap.__file__}, not {src}")
    CHANNEL = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)  # anything else printed goes to stderr
    for cell in islice(GRIDS[grid_name](), cells or None):
        send({"cell": cell})
    send({"end": True})
    return 0


def worker_command(src: Path, grid_name: str, cells: int) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--worker", str(src),
            grid_name, str(cells)]


class Worker:
    def __init__(self, name: str, src: Path, grid_name: str, cells: int, env: dict):
        self.name = name
        env = {**env, "PYTHONPATH": os.pathsep.join([str(src), str(SCRIPTS)])}
        self.proc = subprocess.Popen(worker_command(src, grid_name, cells), env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"grid: worker {self.name} exited {self.proc.wait()}")
        return json.loads(line)

    def tell(self, command: str):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def time_one(self) -> float:
        self.tell("time")
        return self.receive()["s"]

    def close(self):  # a worker that has sent its end is only exiting
        self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def pairs(a: Worker, b: Worker):
    """(A's, B's) CPU seconds of one timed call, pair by pair, A B A B ..."""
    times_a, times_b = [], []
    while len(times_a) < MIN_REPS or (sum(times_a) + sum(times_b) < 2 * CELL_S
                                      and len(times_a) < MAX_REPS):
        times_a.append(a.time_one())
        times_b.append(b.time_one())
    a.tell("done")
    b.tell("done")
    return times_a, times_b


def paired_fields(stage: str, times_a, times_b) -> dict:
    """A timed stage's REV median, ratio of medians B/A and B's faster pairs."""
    rev_s = statistics.median(times_a)
    prefix = f"{stage}_" if stage else ""
    return {f"{prefix}rev_ms": round(1e3 * rev_s, 4),
            f"{prefix}ratio": round(statistics.median(times_b) / rev_s, 4),
            f"{prefix}faster": sum(tb < ta for ta, tb in zip(times_a, times_b))}


def paired_cells(a: Worker, b: Worker):
    """B's cells, each with the paired fields of its timed stages."""
    sites = []
    while True:
        got_a, got_b = a.receive(), b.receive()
        if got_a.keys() != got_b.keys():
            raise SystemExit(f"grid: the workers left lockstep: {got_a} vs {got_b}")
        if "end" in got_a:
            return
        if "site" in got_a:
            sites.append(pairs(a, b))
            continue
        cell = got_b["cell"]
        stages = [key[:-len("reps")].rstrip("_") for key in cell if key.endswith("reps")]
        assert len(stages) == len(sites), (stages, len(sites))
        for stage, (times_a, times_b) in zip(stages, sites):
            cell.update(paired_fields(stage, times_a, times_b))
        sites = []
        yield cell


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--worker"]:
        return serve(argv[1], argv[2], int(argv[3]))
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("rev", help="git revision to pair the working tree against")
    p.add_argument("out", type=Path,
                   help=f"BENCH_<grid>.json, grid one of {', '.join(GRIDS)}; "
                        "this run's entry is appended to it")
    p.add_argument("--cells", type=int, default=0,
                   help="run only the grid's first CELLS cells (default: all)")
    args = p.parse_args(argv)
    match = re.fullmatch(r"BENCH_(\w+)\.json", args.out.name)
    if match is None or match[1] not in GRIDS:
        p.error(f"{args.out.name} names no grid: use BENCH_<grid>.json "
                f"with grid one of {', '.join(GRIDS)}")
    try:
        sha = git("rev-parse", "--short", "--verify", f"{args.rev}^{{commit}}")
    except subprocess.CalledProcessError:
        p.error(f"{args.rev!r} names no commit of this repository")
    threads = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    env = dict(os.environ, **threads, OPENBLAS_CORETYPE=CORETYPE)
    with tempfile.TemporaryDirectory(prefix="grid-") as tmp:
        archive = subprocess.run(["git", "archive", "--format=tar", sha, "src"],
                                 cwd=ROOT, capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        a = Worker("A", Path(tmp) / "src", match[1], args.cells, env)
        b = Worker("B", ROOT / "src", match[1], args.cells, env)
        try:
            cells = []
            for cell in paired_cells(a, b):
                print("  ".join(f"{key}={value}" for key, value in cell.items()), flush=True)
                cells.append(cell)
        finally:
            a.close()
            b.close()
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    doc["runs"].append({
        "commit": git("describe", "--always", "--dirty"),
        "rev": sha,
        "provenance": {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "numpy": np.__version__, "cell_s": CELL_S, "threads": threads,
                       "coretype": CORETYPE, "clock": "process CPU time, paired A B A B"},
        "cells": cells,
    })
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
