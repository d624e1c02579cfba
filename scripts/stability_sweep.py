#!/usr/bin/env python3
"""Budget sweep of the two sampling strategies against the exact values.

Uses the nonlinear built-in k-NN classifier, where surrogate coefficients
genuinely depend on which coalitions get sampled. Each instance runs as in
the CLI: a new adapter, its exact values, then its routes through `cli.runs`
(run r seeded by derive_seed(seed, i, budget, r)), each run giving one
full-length fit phi and its top-k re-fit. Per (budget, strategy) and metric,
`cli.metric_rows` writes one row per instance, then a `mean` row: `jaccard`
of the runs' top-k supports, and the runs' mean `rel_err_exact`
(||phi - exact|| / ||exact||), `kendall_tau_exact` (tau(exact, phi)) and
`adherence` (the top-k surrogate's, classification, on its own coalitions).
Layer-1 is st-shap at b = 2M, bit for bit. README quotes the defaults' CSVs
at seeds 0 and 1. A toolkit error, such as a budget too small to fit, ends
the sweep with exit code 1 and no CSV, as it ends `stableshap stability`.
"""

import argparse
import csv
import sys
from functools import partial

import numpy as np

import stableshap as ss
# cli's names are read at call time: grid.py imports knn_recipe from here
# under an older revision's src/, which may not have them
from stableshap import cli
from stableshap.coalitions import complete_layer_budgets
from stableshap.errors import StableShapError
from stableshap.exact import CAP
from stableshap.metrics import CLASSIFICATION, adherence
from stableshap.sampling import validate_budget

METRICS = ("jaccard", "rel_err_exact", "kendall_tau_exact", "adherence")
TAU = partial(ss.kendall_tau, names=("the exact attribution", "the full-length fit"))


def knn_recipe(features, instances, background_size, seed):
    """The sweep's k-NN model, background rows and explained instances.

    120 training rows, then the background, then the instances, all drawn
    N(0, 1) from ``seed``; the label is the sign of a nonlinear score.
    """
    m = features
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(120 + background_size + instances, m))
    score = (np.sin(X[:, 0]) + X[:, 1] * X[:, 2 % m]
             + 0.5 * X[:, 3 % m] - 0.3 * X[:, 4 % m] ** 2)
    knn = ss.KNNClassifierModel(X[:120], (score[:120] > 0).astype(int), k=5)
    return knn, X[120:120 + background_size], X[120 + background_size:]


def default_budgets(m):
    """The first three complete-layer budgets and the ragged ones that fit."""
    complete = [b for _, b in complete_layer_budgets(m)[:3]]
    # nothing near 10: at M = 13 such budgets leave the fit underdetermined
    ragged = [50, 100, 200, 500, 1000]
    return sorted(set(complete + [b for b in ragged if b <= 2**m - 2]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output", help="CSV path to write")
    parser.add_argument("--features", type=int, default=13)
    parser.add_argument("--budgets", type=lambda s: [int(v) for v in s.split(",")],
                        help="comma list; default mixes complete and ragged budgets")
    parser.add_argument("--instances", type=int, default=10)
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--background-size", type=int, default=10)
    parser.add_argument("--explanation-size", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    m = args.features
    # arguments that leave a metric meaningless stop here, with exit code 2
    if not 2 <= m <= CAP:
        parser.error(f"--features {m} outside 2..{CAP}: exact values enumerate 2^M coalitions")
    for flag, value, low in (("--instances", args.instances, 1), ("--runs", args.runs, 2),
                             ("--background-size", args.background_size, 1)):
        if value < low:
            parser.error(f"{flag} {value} below {low}")
    if not 1 <= args.explanation_size <= m:
        parser.error(f"--explanation-size {args.explanation_size} outside 1..{m}")
    budgets = args.budgets or default_budgets(m)
    for i, budget in enumerate(budgets):
        if budget in budgets[:i]:  # it would count twice in a mean
            parser.error(f"--budgets repeats {budget}")
        try:
            validate_budget(m, budget)
        except ValueError as exc:
            parser.error(f"--budgets: {exc}")

    knn, background, instances = knn_recipe(m, args.instances,
                                            args.background_size, args.seed)
    cfg = cli.RunConfig(runs=args.runs, explanation_size=args.explanation_size,
                        master_seed=args.seed)
    routes = [(strategy, budget) for budget in budgets for strategy in (ss.ST_SHAP, ss.KERNEL_SHAP)]

    def instance_metrics(i, x):
        # one adapter, exact values first: their 2^M walk fills the memo every run reads
        model = ss.ClassProbabilityModel(knn, knn.predicted_class(x))
        exact = ss.exact_shap(x, model, background).phi_array()
        out = []
        for strategy, budget in routes:
            per_run = []
            for dense, top, cset, values in cli.runs(cfg, background, i, x, model,
                                                     strategy, budget):
                phi = dense.phi_array()
                error = np.linalg.norm(phi - exact) / np.linalg.norm(exact)
                per_run.append((set(top.support), error,
                                cli._score(TAU, i, strategy, budget, exact, phi),
                                cli._score(adherence, i, strategy, budget, cset, values, top,
                                           CLASSIFICATION)))
            supports, *scores = zip(*per_run)
            out.append({metric: float(value) for metric, value in
                        zip(METRICS, (ss.jaccard_n(supports), *map(np.mean, scores)))})
        return out

    try:
        results = [instance_metrics(i, x) for i, x in enumerate(instances)]
    except StableShapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1) from None
    rows = cli.metric_rows(range(len(instances)), routes, results)
    for _, budget, strategy, metric, mean in (row for row in rows if row[0] == "mean"):
        print(f"budget={budget:5d} {strategy:>11}: mean {metric} {float(mean):.3f}")

    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cli.CSV_HEADER)
        writer.writerows(rows)
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
