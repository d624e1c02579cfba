#!/usr/bin/env python3
"""Budget sweep comparing the stability of the two sampling strategies.

Uses the nonlinear built-in k-NN classifier, where surrogate coefficients
genuinely depend on which coalitions get sampled, so the Jaccard curves
separate. Writes a plot-ready CSV: budget, strategy, metric, value.

Expect the stable variant to sit at 1.0 on complete-layer budgets. Between
them neither strategy leads everywhere: at the defaults st-shap leads at
b = 50, 100, 500 and 1000, and kernel-shap leads at b=200, 0.571 against
0.323.
"""

import argparse
import csv

import numpy as np

import stableshap as ss
from stableshap.cli import derive_seed
from stableshap.coalitions import complete_layer_budgets


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
                        default=None,
                        help="comma list; default mixes complete and ragged budgets")
    parser.add_argument("--instances", type=int, default=10)
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--background-size", type=int, default=10)
    parser.add_argument("--explanation-size", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    m = args.features
    budgets = args.budgets or default_budgets(m)

    knn, background, instances = knn_recipe(m, args.instances,
                                            args.background_size, args.seed)
    # one adapter per instance for the whole sweep: its payoff memo answers
    # every coalition an earlier run or budget already evaluated
    models = [ss.ClassProbabilityModel(knn, knn.predicted_class(x)) for x in instances]

    rows = []
    for budget in budgets:
        for strategy in (ss.ST_SHAP, ss.KERNEL_SHAP):
            jaccards = []
            for idx, (x, model) in enumerate(zip(instances, models)):
                supports = [
                    set(ss.explain(x, model, background, strategy, budget,
                                   seed=derive_seed(args.seed, idx, budget, run),
                                   explanation_size=args.explanation_size).support)
                    for run in range(args.runs)
                ]
                jaccards.append(ss.jaccard_n(supports))
            mean = float(np.mean(jaccards))
            rows.append([budget, strategy, "jaccard", repr(mean)])
            print(f"budget={budget:5d} {strategy:>11}: mean jaccard {mean:.3f}")

    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["budget", "strategy", "metric", "value"])
        writer.writerows(rows)
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
