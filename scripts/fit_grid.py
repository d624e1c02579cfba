#!/usr/bin/env python3
"""Median CPU time of the sampler and the surrogate fit, cell by cell,
appended to OUT.json.

The grid is M in {8, 13, 16, 20}, both strategies, and for each M a few
budgets that end on a complete-layer boundary and a few that do not; M=13
b=4000 and M=16 b=10000 sit on either side of the fit's switch to byte-pair
histograms at 8192 sampled rows. Each cell times `sampling.materialize` of
the seed-0 plan, takes the payoffs of the set it made from a random N(0, 1)
table over all 2^M masks, and times `coalitions.pack` of its masks (the
lookup a table game and the payoff memo make for each explanation),
`explainer.fit` and `explainer.sparsify(..., 4)`, one call at a time in
process CPU time, after
one untimed call of each. A cell repeats until it has spent CELL_S of CPU
time or made MAX_REPS calls (at least MIN_REPS), and reports the median in
ms with its sample count.

Each timed call comes right after a timed call of `reference`, a fixed
computation of the script's own that never calls stableshap, and each
median above is also reported divided by the median of its own references
(`*_in_ref`), which cancels the host's drift from one run to the next and
from one cell to the next. It does not cancel a cell's own spread: two runs
of the same code on a 2-CPU box moved single cells by up to 2x, two-thirds
of them by under 10%. Run it with BLAS single-threaded, as the benchmark
runs; the thread settings go into the entry's provenance.

Each run appends one entry (provenance, the `git describe` of the checkout
whose `stableshap` it imported, the cells) to OUT.json, so runs in two
checkouts that share one OUT.json sit side by side:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/fit_grid.py BENCH_fit.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

import stableshap
from stableshap.coalitions import complete_layer_budgets, pack
from stableshap.explainer import fit, plan_for, sparsify
from stableshap.sampling import KERNEL_SHAP, ST_SHAP, materialize

# budgets per M: complete-layer boundaries and ragged budgets between them
BUDGETS = {8: (16, 40, 100, 184), 13: (26, 50, 182, 200, 500, 754, 1000, 4000),
           16: (10000,), 20: (420, 3000, 43398, 120918, 200000)}
CELL_S, MIN_REPS, MAX_REPS = 0.3, 5, 400

_REF = np.random.default_rng(0)
REF_FLOATS = _REF.normal(size=(20, 4096))
REF_CODES = _REF.integers(0, 1 << 16, size=1 << 15).astype(np.uint16)
REF_WEIGHTS = _REF.random(1 << 15)


def reference():
    """The kinds of work a fit does, on fixed inputs: a float product, a
    weighted bincount, a sort and an interpreter loop."""
    REF_FLOATS @ REF_FLOATS.T
    np.bincount(REF_CODES, weights=REF_WEIGHTS)
    np.sort(REF_FLOATS, axis=1)
    sum(i * i % 7 for i in range(2000))


def median_ms(call) -> tuple[float, int, float]:
    """(median ms of ``call``, its timed calls, that median in units of the
    median of the `reference` calls timed one before each of them)."""
    call()
    times, refs, spent = [], [], 0.0
    while len(times) < MIN_REPS or (spent < CELL_S and len(times) < MAX_REPS):
        for work, record in ((reference, refs), (call, times)):
            start = time.process_time()
            work()
            record.append(time.process_time() - start)
        spent += times[-1]
    ms = statistics.median(times)
    return round(1e3 * ms, 4), len(times), round(ms / statistics.median(refs), 4)


def cells():
    for m, budgets in BUDGETS.items():
        table = np.random.default_rng(m).normal(size=2**m)
        complete = {b for _, b in complete_layer_budgets(m)}
        for budget in budgets:
            for strategy in (ST_SHAP, KERNEL_SHAP):
                plan = plan_for(strategy, m, budget, seed=0)
                materialize_ms, materialize_reps, materialize_in_ref = median_ms(
                    lambda: materialize(plan))
                cset = materialize(plan)
                pack_ms, pack_reps, pack_in_ref = median_ms(lambda: pack(cset.masks))
                values = table[pack(cset.masks)]
                dense = fit(cset, values, table[0], table[-1])
                fit_ms, fit_reps, fit_in_ref = median_ms(
                    lambda: fit(cset, values, table[0], table[-1]))
                sparse_ms, sparse_reps, sparse_in_ref = median_ms(
                    lambda: sparsify(dense, 4, cset, values))
                yield {"m": m, "strategy": strategy, "budget": budget,
                       "complete_budget": budget in complete,
                       "sampled_rows": len(cset) - cset.n_complete,
                       "materialize_ms": materialize_ms,
                       "materialize_reps": materialize_reps,
                       "pack_ms": pack_ms, "pack_reps": pack_reps,
                       "fit_ms": fit_ms, "fit_reps": fit_reps,
                       "sparsify4_ms": sparse_ms, "sparsify4_reps": sparse_reps,
                       "materialize_in_ref": materialize_in_ref,
                       "pack_in_ref": pack_in_ref,
                       "fit_in_ref": fit_in_ref,
                       "sparsify4_in_ref": sparse_in_ref}


def git_describe() -> str:
    where = Path(stableshap.__file__).resolve().parent
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"], cwd=where,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_grid(description: str, cells, line, argv=None) -> int:
    """The body of a grid script's main: reads OUT from ``argv``, appends one
    entry (commit, provenance, the cells ``cells()`` yields) to it, and
    prints ``line(cell)`` for each cell."""
    p = argparse.ArgumentParser(description=description,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("out", type=Path, help="JSON file to append this run's entry to")
    args = p.parse_args(argv)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    entry = {
        "commit": git_describe(),
        "provenance": {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "numpy": np.__version__, "cell_s": CELL_S,
                       "threads": {k: os.environ.get(k) for k in
                                   ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
                       "clock": "process CPU time"},
        "cells": list(cells()),
    }
    doc["runs"].append(entry)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for c in entry["cells"]:
        print(line(c))
    return 0


def main(argv=None) -> int:
    return run_grid(__doc__, cells, lambda c: (
        f"M={c['m']:2d} {c['strategy']:11s} b={c['budget']:6d} "
        f"sampled={c['sampled_rows']:6d} in ref: "
        f"materialize {c['materialize_in_ref']:8.3f}  pack {c['pack_in_ref']:8.3f}  "
        f"fit {c['fit_in_ref']:8.3f}  "
        f"sparsify(4) {c['sparsify4_in_ref']:8.3f}"), argv)


if __name__ == "__main__":
    raise SystemExit(main())
