"""What the benchmark and the scripts rely on from the library.

`bench/` and `scripts/` reach stableshap through its top-level names, through
the module bindings that `bench/tracer.py` wraps, and through the positional
arguments of the calls its observers read. A library change that drops one of
these would only show at benchmark time, as a missing span or a crash.
"""

import ast
import csv
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import stableshap
from stableshap import cli

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "CallableModel",
    "ClassProbabilityModel",
    "ConfigError",
    "ExternalProcessModel",
    "GameModel",
    "GameTableError",
    "KERNEL_SHAP",
    "KNNClassifierModel",
    "ModelBridgeError",
    "NonFinitePayoffError",
    "OracleCapError",
    "RankDeficiencyError",
    "RidgeRegressionModel",
    "ST_SHAP",
    "StableShapError",
    "SyntheticGame",
    "complete_layer_budgets",
    "exact_shap",
    "exact_shap_game",
    "explain",
    "jaccard_n",
    "kendall_tau",
    "layer1_attribution",
]

CALLERS = ["bench/workloads.py", "bench/worker.py", "bench/run.py",
           "scripts/stability_sweep.py", "scripts/cli_matrix.py", "scripts/fit_grid.py",
           "scripts/knn_grid.py", "scripts/walk_grid.py"]


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_top_level_is_the_public_api():
    assert sorted(stableshap.__all__) == PUBLIC
    assert all(hasattr(stableshap, name) for name in PUBLIC)


@pytest.mark.parametrize("path", CALLERS)
def test_callers_resolve_every_library_name(path):
    tree = ast.parse((ROOT / path).read_text())
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "stableshap"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("stableshap"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            assert hasattr(stableshap, node.attr), f"stableshap.{node.attr}"


@pytest.mark.parametrize("path", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
def test_scripts_resolve_their_sibling_imports(path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    tree = ast.parse((ROOT / "scripts" / path).read_text())
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and (ROOT / "scripts" / f"{node.module}.py").exists()):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def test_grid_scripts_append_entries_of_one_layout(tmp_path, monkeypatch, capsys):
    """fit_grid, knn_grid and walk_grid share their main body: each run
    appends one entry (commit, provenance, cells) to its JSON file. Tiny
    grids, with the timing stubbed out."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    fit_grid = importlib.import_module("fit_grid")
    knn_grid = importlib.import_module("knn_grid")
    walk_grid = importlib.import_module("walk_grid")

    def stub(call):
        call()
        return 0.5, 5, 1.0

    monkeypatch.setattr(fit_grid, "BUDGETS", {8: (16, 40)})
    monkeypatch.setattr(fit_grid, "median_ms", stub)
    for name, value in (("N_TRAIN", (40,)), ("FEATURES", (8,)), ("KS", (1,)),
                        ("median_ms", stub)):
        monkeypatch.setattr(knn_grid, name, value)
    for name, value in (("FEATURES", (8,)), ("BACKGROUNDS", (3,)), ("median_ms", stub)):
        monkeypatch.setattr(walk_grid, name, value)
    docs = {}
    for module, n_cells in ((fit_grid, 4), (knn_grid, 1), (walk_grid, 2)):
        out = tmp_path / f"{module.__name__}.json"
        for _ in range(2):
            assert module.main([str(out)]) == 0
        doc = json.loads(out.read_text())
        assert list(doc) == ["runs"] and len(doc["runs"]) == 2
        for entry in doc["runs"]:
            assert list(entry) == ["commit", "provenance", "cells"]
            assert len(entry["cells"]) == n_cells
        docs[module.__name__] = doc["runs"][0]["provenance"]
    assert list(docs["fit_grid"]) == list(docs["knn_grid"]) == list(docs["walk_grid"]) == [
        "nproc", "python", "numpy", "cell_s", "threads", "clock"]
    assert len(capsys.readouterr().out.splitlines()) == 2 * (4 + 1 + 2)


def test_every_traced_target_resolves():
    tracer = _tracer()
    undo, missing = tracer.install(tracer.Tracer(), {})
    undo()
    assert missing == []


def test_observed_calls_keep_their_arguments(tmp_path):
    """The ridge-compare-exact workload counts routes from `explain`'s
    positional (x, model, background, strategy, budget) and reads the exact
    values' `eval_count`; layer-1 must not go through `explain`."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 6))
    data = tmp_path / "data.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(6)] + ["target"])
        writer.writerows(np.column_stack([X, X @ rng.normal(size=6)]).tolist())
    seen = {"explain": [], "layer1": 0, "exact": []}
    observers = {
        "explainer.explain": lambda args, e, s: seen["explain"].append(
            (args[3], args[4], len(args[0]), args[2].shape)),
        "layer1.layer1_attribution": lambda args, e, s: seen.__setitem__(
            "layer1", seen["layer1"] + 1),
        "exact.exact_shap": lambda args, v, s: seen["exact"].append(v.eval_count),
    }
    undo, missing = _tracer().install(None, observers)
    try:
        code = cli.main([
            "compare-exact", "--dataset", str(data), "--target", "target",
            "--model", "ridge", "--strategy", "all", "--budgets", "20,33",
            "--n-instances", "1", "--background-size", "10",
            "--output", str(tmp_path / "run")])
    finally:
        undo()
    assert code == 0 and missing == []
    assert seen["explain"] == [(s, b, 6, (10, 6)) for s in ("kernel-shap", "st-shap")
                               for b in (20, 33)]
    assert seen["layer1"] == 1
    assert seen["exact"] == [2**6]
