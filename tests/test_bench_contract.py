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
import re
import sys
import textwrap
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
           "scripts/stability_sweep.py", "scripts/cli_matrix.py", "scripts/grid.py"]


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
    """Every grid of scripts/grid.py goes through one main: each run appends
    one entry (commit, provenance, cells) to BENCH_<grid>.json, and no cell
    carries reference units. Tiny grids, with the timing stubbed out."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    grid = importlib.import_module("grid")

    def stub(call):
        call()
        return 0.5, 5

    for name, value in (("median_ms", stub), ("FIT_BUDGETS", {8: (16, 40)}),
                        ("KNN_N_TRAIN", (40,)), ("KNN_FEATURES", (8,)), ("KNN_KS", (1,)),
                        ("WALK_FEATURES", (8,)), ("WALK_BACKGROUNDS", (3,)),
                        ("EXPLAIN_RAGGED", {8: (40,)}), ("EXPLAIN_RUNS", 2)):
        monkeypatch.setattr(grid, name, value)
    # explain: 3 models x 3 budgets x 2 strategies x 2 explanation sizes
    n_cells = {"fit": 4, "knn": 1, "walk": 2, "explain": 36}
    assert list(grid.GRIDS) == list(n_cells)
    docs = {}
    for name, count in n_cells.items():
        out = tmp_path / f"BENCH_{name}.json"
        for _ in range(2):
            assert grid.main([str(out)]) == 0
        doc = json.loads(out.read_text())
        assert list(doc) == ["runs"] and len(doc["runs"]) == 2
        for entry in doc["runs"]:
            assert list(entry) == ["commit", "provenance", "cells"]
            assert len(entry["cells"]) == count
            assert not [key for cell in entry["cells"] for key in cell
                        if key.startswith("ref_") or key.endswith("_in_ref")]
        docs[name] = doc["runs"][0]["provenance"]
    assert [list(docs[name]) for name in n_cells] == 4 * [[
        "nproc", "python", "numpy", "cell_s", "threads", "clock"]]
    assert len(capsys.readouterr().out.splitlines()) == 2 * sum(n_cells.values())


def test_grid_script_refuses_a_file_that_names_no_grid(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    grid = importlib.import_module("grid")
    for name in ("out.json", "BENCH_sweep.json", "BENCH_fit.csv"):
        with pytest.raises(SystemExit) as exit_:
            grid.main([str(tmp_path / name)])
        assert exit_.value.code == 2
        assert "fit, knn, walk" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs the git checkout")
def test_ab_script_pairs_one_cell_against_head(tmp_path, monkeypatch, capsys):
    """scripts/ab.py against HEAD on the knn grid's first cell, each worker's
    clock advancing 1/1024 s a reading: a header naming both sides and the
    kernel type, then one line per timed stage with the paired figures."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    ab, grid = importlib.import_module("ab"), importlib.import_module("grid")
    monkeypatch.setattr(grid, "CELL_S", 0.01)  # 11 pairs of 2/1024 s reach 2 * 0.01 s
    stub = tmp_path / "stub_clock.py"
    stub.write_text(textwrap.dedent("""
        import itertools, runpy, sys, time
        ticks = itertools.count()
        time.process_time = lambda: next(ticks) / 1024
        sys.argv = sys.argv[1:]
        runpy.run_path(sys.argv[0], run_name="__main__")
    """))
    command = ab.worker_command
    monkeypatch.setattr(ab, "worker_command",
                        lambda *args: [sys.executable, str(stub), *command(*args)[1:]])
    assert ab.main(["HEAD", "knn", "--cells", "1"]) == 0
    header, *cells = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"# A = HEAD \([0-9a-f]+\), B = working tree \(\S+\); "
                        r"OPENBLAS_CORETYPE=Haswell, one BLAS thread; "
                        r"ratio = median of B/A CPU time over pairs", header)
    assert cells == ["n_train=40  m=8  k=1  rows_per_call=1270  stage=-  ratio=1.000  "
                     "faster=0/11  rev_ms=0.9766  new_ms=0.9766"]


@pytest.mark.parametrize("name", ["fit", "knn", "walk", "explain"])
def test_grid_cells_keep_the_fields_of_their_bench_file(name, tmp_path, monkeypatch):
    """A cell of each grid carries, in order, the fields of the last run in
    BENCH_<grid>.json, and those are the fields of the run before it less
    the reference units (ref_*, *_in_ref) that the fit and walk grids timed."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    grid = importlib.import_module("grid")
    for attr, value in (("median_ms", lambda call: (call(), (0.5, 5))[1]),
                        ("FIT_BUDGETS", {8: (16,)}), ("KNN_N_TRAIN", (40,)),
                        ("KNN_FEATURES", (8,)), ("KNN_KS", (1,)),
                        ("WALK_FEATURES", (8,)), ("WALK_BACKGROUNDS", (3,)),
                        ("EXPLAIN_RAGGED", {8: (40,)}), ("EXPLAIN_RUNS", 2)):
        monkeypatch.setattr(grid, attr, value)
    fields = list(next(grid.GRIDS[name]()))
    runs = json.loads((ROOT / f"BENCH_{name}.json").read_text())["runs"]
    assert list(runs[-1]["cells"][0]) == fields
    assert [key for key in runs[-2]["cells"][0]
            if not (key.startswith("ref_") or key.endswith("_in_ref"))] == fields


def test_stability_sweep_writes_one_jaccard_row_per_route(tmp_path, monkeypatch, capsys):
    """The headline sweep, scaled down: M=6, where 12 is layer 1's complete
    budget and 20 is ragged."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    sweep = importlib.import_module("stability_sweep")
    out = tmp_path / "sweep.csv"
    sweep.main([str(out), "--features", "6", "--instances", "2", "--runs", "3",
                "--budgets", "12,20"])
    with open(out, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["budget", "strategy", "metric", "value"]
    assert [row[:3] for row in rows] == [[b, s, "jaccard"] for b in ("12", "20")
                                         for s in (stableshap.ST_SHAP, stableshap.KERNEL_SHAP)]
    assert float(rows[0][3]) == 1.0
    assert all(0.0 <= float(row[3]) <= 1.0 for row in rows)
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {out}"


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
