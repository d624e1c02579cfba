#!/usr/bin/env python3
"""Run the command-line matrix and keep everything each run leaves behind.

The matrix is `explain`, `stability`, `adherence` and `compare-exact`, each
with `--strategy all` and `both` at `--workers 1` and `3`, on a ridge and a
k-NN model (M=6, budgets 20,33,50, 3 instances, background 10). The complete
budgets 12,42,62 (layers 1, 1-2 and all three, where st-shap's fit is the
closed form alone and kernel-shap at 62 samples nothing) run `explain`,
`stability` and `compare-exact` on both models with the widest strategy set
each command takes (`all`; `both` for `stability`). `compare-exact` also runs
on both models at M=12 with a 100-row background, so that each instance's
payoffs come from many row blocks. Then `explain` on game files: a complete
table, a table holding only the empty and full masks and layers 1-2 (st-shap
at budgets 12,42 and layer1), an additive and a cardinality rule, and each of
a few files that hold no game. Two M=4 cardinality games leave a metric
undefined, and the run exits 1 naming the instance row and route:
`compare-exact` on one whose exact values are all equal, and `adherence` at
budget 8 on one whose layer-1 payoffs are all equal. Then one `explain` on a dataset with a `nan`
and an `inf` cell, one on a dataset whose header names a column twice, and
`compare-exact` on 21 features (past the exact oracle's cap). `stability`
runs once with `--runs 3`. Last, config values that make no run: a negative
`--split-seed` or `--background-size`, a `task` that is neither regression
nor classification (under `adherence`), an encoded value that is not a
number, `compare-exact --runs 2`, and an `--instances` row or a `--budgets`
value given twice. Runs that a command refuses are kept too.

Each run gets OUT/<case>/ with its output files under `run/` and its
`stdout.txt`, `stderr.txt` and `exit_code.txt`. The datasets are generated
from fixed seeds and every path is relative to OUT, so two checkouts that
behave alike write identical trees:

    PYTHONPATH=src python scripts/cli_matrix.py OUT_A   # in one checkout
    PYTHONPATH=src python scripts/cli_matrix.py OUT_B   # in the other
    diff -r OUT_A OUT_B
"""

import argparse
import contextlib
import io
import os
import traceback
from pathlib import Path

import numpy as np

from stableshap import SyntheticGame
from stableshap.cli import main as cli_main

M = 6
WIDE_M = 12
COMMANDS = ("explain", "stability", "adherence", "compare-exact")
SHARED = ["--budgets", "20,33,50", "--n-instances", "3", "--background-size", "10"]
COMPLETE = {"explain": "all", "stability": "both", "compare-exact": "all"}
# valid JSON that is no game: each must be refused with exit code 2
BAD_GAMES = {
    "no_values": '{"M": 2}',
    "list": "[1, 2]",
    "m_string": '{"M": "two", "values": {}}',
    "value_string": '{"M": 2, "values": {"00": 0, "10": "x", "01": 1, "11": 2}}',
    "additive_length": '{"M": 5, "rule": "additive", "weights": [1, 2, 3]}',
    "one_player": '{"M": 1, "rule": "cardinality", "by_size": [0, 1]}',
    "weight_bool": '{"M": 2, "rule": "additive", "weights": [1, true]}',
    "by_size_bool": '{"M": 2, "rule": "cardinality", "by_size": [0, true, 2]}',
    "weight_list": '{"M": 2, "rule": "additive", "weights": [1, [2]]}',
    "unknown_rule": '{"M": 2, "rule": "sum", "weights": [1, 2]}',
    "players_65": '{"M": 65, "values": {"%s": 0}}' % ("0" * 65),
    "weight_huge": '{"M": 2, "rule": "additive", "weights": [1, %s]}' % ("9" * 401),
    "value_nan": '{"M": 2, "values": {"00": 0, "10": NaN, "01": 1, "11": 2}}',
    "by_size_infinity": '{"M": 2, "rule": "cardinality", "by_size": [0, Infinity, 2]}',
}
# flags beyond `--budgets 2` per bad game: the one-player game is explained by
# layer1, and the two-player games with bad numbers at a size they can carry, so
# that nothing but the number can refuse them
FIT_TWO = ["--explanation-size", "2"]
BAD_GAME_ARGS = {"one_player": ["--strategy", "layer1", "--explanation-size", "1"],
                 "weight_huge": FIT_TWO, "value_nan": FIT_TWO, "by_size_infinity": FIT_TWO}


def write_dataset(path: Path, classification: bool, seed: int, m: int = M,
                  n_rows: int = 120) -> None:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_rows, m))
    score = (X * np.linspace(1.0, 2.5, m)).sum(axis=1) + np.sin(X[:, 0] * X[:, 1])
    with open(path, "w") as fh:
        fh.write(",".join([f"f{i}" for i in range(m)] + ["target"]) + "\n")
        for row, s in zip(X, score):
            target = str(int(s > 0)) if classification else repr(float(s))
            fh.write(",".join(repr(float(v)) for v in row) + f",{target}\n")


def run_case(name: str, argv: list[str]) -> None:
    case = Path(name)
    case.mkdir()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli_main(argv + ["--output", str(case / "run")]))
        except Exception as exc:  # an uncaught error is an outcome to compare too
            code = "uncaught"
            err.write("".join(traceback.format_exception_only(exc)))
    (case / "stdout.txt").write_text(out.getvalue())
    (case / "stderr.txt").write_text(err.getvalue())
    (case / "exit_code.txt").write_text(code + "\n")
    print(f"{name}: {code}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out", help="directory to create; must not exist yet")
    args = parser.parse_args()
    root = Path(args.out)
    root.mkdir(parents=True)
    os.chdir(root)

    Path("data").mkdir()
    write_dataset(Path("data/ridge.csv"), classification=False, seed=0)
    write_dataset(Path("data/knn.csv"), classification=True, seed=1)
    rng = np.random.default_rng(2)
    SyntheticGame.from_table(M, dict(enumerate(rng.normal(size=2**M)))).save("data/game.json")
    # layers 1-2 and the empty and full masks only: no mask of size M/2
    layers12 = [mask for mask in range(2**M) if bin(mask).count("1") != M // 2]
    SyntheticGame.from_table(M, dict(zip(layers12, rng.normal(size=len(layers12))))).save(
        "data/game_layers12.json")
    SyntheticGame.additive(rng.normal(size=M)).save("data/game_additive.json")
    SyntheticGame.cardinality(M, rng.normal(size=M + 1)).save("data/game_cardinality.json")

    for model in ("ridge", "knn"):
        for command in COMMANDS:
            for strategy in ("all", "both"):
                for workers in ("1", "3"):
                    run_case(f"{command}_{model}_{strategy}_w{workers}", [
                        command, "--dataset", f"data/{model}.csv", "--target", "target",
                        "--model", model, "--strategy", strategy, "--workers", workers,
                        *SHARED])
    for model in ("ridge", "knn"):
        for command, strategy in COMPLETE.items():
            run_case(f"{command}_{model}_complete", [
                command, "--dataset", f"data/{model}.csv", "--target", "target",
                "--model", model, "--strategy", strategy, "--budgets", "12,42,62",
                "--n-instances", "3", "--background-size", "10"])
    # M=12 with a 100-row background: an exact table of 2^12 masks is about 52
    # row blocks per instance, where every case above fits in one block
    for model in ("ridge", "knn"):
        write_dataset(Path(f"data/{model}_wide.csv"), classification=model == "knn",
                      seed=3, m=WIDE_M, n_rows=440)
        run_case(f"compare-exact_{model}_wide", [
            "compare-exact", "--dataset", f"data/{model}_wide.csv", "--target", "target",
            "--model", model, "--strategy", "all", "--budgets", "100,500",
            "--n-instances", "2", "--background-size", "100"])
    run_case("explain_game_all", ["explain", "--model", "game", "--game-file",
                                  "data/game.json", "--strategy", "all",
                                  "--budgets", "20,33,50"])
    for name, args in (("st", ["--strategy", "st-shap", "--budgets", "12,42"]),
                       ("layer1", ["--strategy", "layer1"])):
        run_case(f"explain_game_layers12_{name}", [
            "explain", "--model", "game", "--game-file", "data/game_layers12.json", *args])
    for rule in ("additive", "cardinality"):
        run_case(f"explain_game_{rule}", ["explain", "--model", "game", "--game-file",
                                          f"data/game_{rule}.json", "--strategy", "all",
                                          "--budgets", "20,33,50"])
    # each metric undefined: Kendall tau against equal exact values, and r2 of
    # layer 1's equal payoffs
    Path("data/game_equal_values.json").write_text(
        '{"M": 4, "rule": "cardinality", "by_size": [0, 1, 3, 6, 10]}')
    run_case("compare-exact_game_equal_values", ["compare-exact", "--model", "game",
                                                 "--game-file", "data/game_equal_values.json"])
    Path("data/game_flat.json").write_text(
        '{"M": 4, "rule": "cardinality", "by_size": [0, 1, 1, 1, 2]}')
    run_case("adherence_game_flat", ["adherence", "--model", "game", "--game-file",
                                     "data/game_flat.json", "--budgets", "8",
                                     "--explanation-size", "2"])
    for name, content in BAD_GAMES.items():
        Path(f"data/bad_game_{name}.json").write_text(content)
        run_case(f"explain_bad_game_{name}", ["explain", "--model", "game", "--game-file",
                                              f"data/bad_game_{name}.json",
                                              "--budgets", "2", *BAD_GAME_ARGS.get(name, [])])
    # a nan and an inf feature cell: refused with exit code 2, no output files
    lines = Path("data/knn.csv").read_text().splitlines()
    for line_no, column, cell in ((3, 1, "nan"), (7, 4, "inf")):
        fields = lines[line_no - 1].split(",")
        fields[column] = cell
        lines[line_no - 1] = ",".join(fields)
    Path("data/nonfinite.csv").write_text("\n".join(lines) + "\n")
    run_case("explain_knn_nonfinite", ["explain", "--dataset", "data/nonfinite.csv",
                                       "--target", "target", "--model", "knn", *SHARED])
    # a header naming f0 twice: refused with exit code 2, no output files
    knn = Path("data/knn.csv").read_text()
    Path("data/twice.csv").write_text(knn.replace("f1", "f0", 1))
    run_case("explain_knn_repeated_header", ["explain", "--dataset", "data/twice.csv",
                                             "--target", "target", "--model", "knn",
                                             *SHARED])
    # 21 features, one past the exact oracle's cap: refused with exit code 4
    write_dataset(Path("data/ridge_21.csv"), classification=False, seed=4, m=21)
    run_case("compare-exact_ridge_21_features", [
        "compare-exact", "--dataset", "data/ridge_21.csv", "--target", "target",
        "--n-instances", "2", "--background-size", "10"])
    # k-NN, whose supports vary across runs, so the count shows in the Jaccards
    run_case("stability_knn_runs3", ["stability", "--dataset", "data/knn.csv",
                                     "--target", "target", "--model", "knn", *SHARED,
                                     "--runs", "3"])
    ridge = ["--dataset", "data/ridge.csv", "--target", "target", *SHARED]
    # config values that make no run: each is refused with exit code 2
    run_case("explain_ridge_split_seed_negative", ["explain", *ridge, "--split-seed", "-1"])
    run_case("explain_ridge_background_size_negative",
             ["explain", *ridge, "--background-size", "-5"])
    Path("data/task_foo.json").write_text('{"task": "foo"}')
    run_case("adherence_ridge_task_foo", ["adherence", "--config", "data/task_foo.json",
                                          *ridge])
    Path("data/colors.csv").write_text("color,target\nred,1.0\nblue,2.0\nred,3.0\n")
    Path("data/encoding_x.json").write_text(
        '{"encodings": {"color": {"red": 0, "blue": "x"}}}')
    run_case("explain_encoding_not_a_number", [
        "explain", "--config", "data/encoding_x.json", "--dataset", "data/colors.csv",
        "--target", "target", "--budgets", "2"])
    run_case("compare-exact_ridge_runs2", ["compare-exact", *ridge, "--runs", "2"])
    # an instance row or a budget given twice
    run_case("explain_ridge_instances_repeated",
             ["explain", *ridge, "--instances", "100,100", "--budgets", "20,20"])
    run_case("explain_ridge_budgets_repeated", ["explain", *ridge, "--budgets", "20,33,20"])
    run_case("stability_ridge_instances_repeated",
             ["stability", *ridge, "--instances", "100,110,100"])


if __name__ == "__main__":
    main()
