#!/usr/bin/env python3
"""Median CPU time of the substitute -> predict layer, cell by cell,
appended to OUT.json.

The grid is a ridge and a k-NN adapter, M in {8, 13, 16} features and B in
{1, 7, 100} background rows. Each cell draws N(0, 1) training rows, an
instance and a background from a seed of its own, and times two cold calls
on a fresh adapter each time, so no payoff memo is warm:

* `all_payoffs`, the exact oracle's table, which on a fresh adapter is the
  Gray-code walk over all 2^M masks (2^M * B model rows);
* `evaluate_batch` of one request of REQUEST random masks (at M=8 fewer are
  distinct; the cell reports how many).

The ridge model is fit to a random linear target; the k-NN adapter is the
probability of class 0 of a `KNNClassifierModel` with k=5 on N_TRAIN rows of
three labels. Each call is timed in process CPU time with `median_ms` of
`scripts/fit_grid.py` (one untimed call, at least 5 calls, then until 0.3 s
of CPU time or 400 calls), each timed call right after a timed call of
fit_grid's `reference`, and every median is also reported in units of its
own references' median (`*_in_ref`), which cancels the host's drift from
one run and one cell to the next. Run it with BLAS single-threaded, as the
benchmark runs; the thread settings go into the entry's provenance.

Each run appends one entry (provenance, the `git describe` of the checkout
whose `stableshap` it imported, the cells) to OUT.json, so runs in two
checkouts that share one OUT.json sit side by side:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/walk_grid.py BENCH_walk.json
"""

import numpy as np

from fit_grid import median_ms, run_grid
from stableshap import ClassProbabilityModel, KNNClassifierModel, RidgeRegressionModel
from stableshap.value_function import all_payoffs, evaluate_batch

FEATURES, BACKGROUNDS = (8, 13, 16), (1, 7, 100)
REQUEST = 1000
N_TRAIN = 40


def adapters(rng, m):
    """(name, a function making a fresh adapter) for each model of the grid."""
    X = rng.normal(size=(N_TRAIN, m))
    ridge = RidgeRegressionModel.fit(X, X @ rng.normal(size=m))
    knn = KNNClassifierModel(X, rng.integers(0, 3, size=N_TRAIN), k=5)
    yield "ridge", lambda: RidgeRegressionModel(ridge.coef, ridge.intercept)
    yield "knn", lambda: ClassProbabilityModel(knn, int(knn.classes[0]))


def cells():
    for m in FEATURES:
        for n_background in BACKGROUNDS:
            rng = np.random.default_rng([m, n_background])
            x = rng.normal(size=m)
            background = rng.normal(size=(n_background, m))
            masks = rng.random((REQUEST, m)) < 0.5
            for name, fresh in adapters(rng, m):
                walk_ms, walk_reps, walk_in_ref = median_ms(
                    lambda: all_payoffs(x, background, fresh()))
                request_ms, request_reps, request_in_ref = median_ms(
                    lambda: evaluate_batch(masks, x, background, fresh()))
                yield {"model": name, "m": m, "n_background": n_background,
                       "walk_rows": n_background << m,
                       "request_masks": REQUEST,
                       "distinct_masks": len(np.unique(masks, axis=0)),
                       "walk_ms": walk_ms, "walk_reps": walk_reps,
                       "request_ms": request_ms, "request_reps": request_reps,
                       "walk_in_ref": walk_in_ref, "request_in_ref": request_in_ref}

def main(argv=None) -> int:
    return run_grid(__doc__, cells, lambda c: (
        f"{c['model']:5s} M={c['m']:2d} B={c['n_background']:3d} "
        f"in ref: walk {c['walk_in_ref']:9.3f}  "
        f"request of {c['request_masks']} {c['request_in_ref']:8.3f}"), argv)


if __name__ == "__main__":
    raise SystemExit(main())
