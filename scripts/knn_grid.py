#!/usr/bin/env python3
"""Median CPU time of k-NN `predict_proba`, cell by cell, appended to OUT.json.

The grid is n_train in {40, 120, 1000} training rows, M in {8, 13, 20}
features and k in {1, 5}. Each cell fits a `KNNClassifierModel` to N(0, 1)
training rows with three labels, all drawn from a seed of the cell's own,
and times `predict_proba` on ROWS N(0, 1) query rows one call at a time in
process CPU time, after one untimed call, with `median_ms` of
`scripts/fit_grid.py` (at least 5 calls, then until 0.3 s of CPU time or 400
calls, each right after a timed call of fit_grid's `reference`). It reports
the median as ms per 1000 rows, with its sample count, and the call's median
in units of its references' median (`call_in_ref`).
Run it with BLAS single-threaded, as the benchmark runs; the thread settings
go into the entry's provenance.

Each run appends one entry (provenance, the `git describe` of the checkout
whose `stableshap` it imported, the cells) to OUT.json, so runs in two
checkouts that share one OUT.json sit side by side:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/knn_grid.py BENCH_knn.json
"""

import numpy as np

from fit_grid import median_ms, run_grid
from stableshap import KNNClassifierModel

N_TRAIN, FEATURES, KS = (40, 120, 1000), (8, 13, 20), (1, 5)
# rows per call: one whole 1024-row block and a part of a second
ROWS = 1270


def cells():
    for n_train in N_TRAIN:
        for m in FEATURES:
            for k in KS:
                rng = np.random.default_rng([n_train, m, k])
                model = KNNClassifierModel(rng.normal(size=(n_train, m)),
                                           rng.integers(0, 3, size=n_train), k=k)
                rows = rng.normal(size=(ROWS, m))
                ms, reps, in_ref = median_ms(lambda: model.predict_proba(rows))
                yield {"n_train": n_train, "m": m, "k": k, "rows_per_call": ROWS,
                       "ms_per_1000_rows": round(ms * 1000 / ROWS, 4), "reps": reps,
                       "call_in_ref": in_ref}


def main(argv=None) -> int:
    return run_grid(__doc__, cells, lambda c: (
        f"n_train={c['n_train']:5d} M={c['m']:2d} k={c['k']} "
        f"{c['ms_per_1000_rows']:8.3f} ms per 1000 rows ({c['reps']} calls)"), argv)


if __name__ == "__main__":
    raise SystemExit(main())
