"""What the benchmark and the scripts rely on from the library.

`bench/` and `scripts/` reach stableshap through its top-level names, through
the module bindings that `bench/tracer.py` wraps, and through the positional
arguments of the calls its observers read. A library change that drops one of
these would only show at benchmark time, as a missing span or a crash.
"""

import ast
import contextlib
import csv
import importlib
import importlib.util
import io
import json
import re
import subprocess
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


class WarmWorker:
    """A stand-in worker whose timed call costs 0.7 s right after its own
    previous timed call and 1.0 s after the other worker's."""

    def __init__(self, log: list):
        self.log = log

    def time_one(self) -> float:
        cost = 0.7 if self.log and self.log[-1] is self else 1.0
        self.log.append(self)
        return cost

    def tell(self, command):
        pass


def test_pairs_give_a_warm_call_to_neither_side(monkeypatch):
    """Identical sides read a ratio of 1 when a call is cheaper right after
    the same worker's call: no timed call follows its own worker's. An order
    A B, B A, A B, ... reads 0.85 here at 12 pairs."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    grid = importlib.import_module("grid")
    monkeypatch.setattr(grid, "CELL_S", 1e9)
    monkeypatch.setattr(grid, "MAX_REPS", 12)
    log = []
    times_a, times_b = grid.pairs(WarmWorker(log), WarmWorker(log))
    assert len(times_a) == len(times_b) == 12
    assert grid.paired_fields("fit", times_a, times_b) == {
        "fit_rev_ms": 1000.0, "fit_ratio": 1.0, "fit_faster": 0}


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


@pytest.fixture(scope="module")
def paired_runs(tmp_path_factory):
    """scripts/grid.py against HEAD on each grid's first cell, each worker's
    clock advancing 1/1024 s a reading, appended to a file that already holds
    one entry: {grid: (the file's runs, the lines printed)}."""
    tmp = tmp_path_factory.mktemp("grid")
    stub = tmp / "stub_clock.py"
    stub.write_text(textwrap.dedent("""
        import itertools, runpy, sys, time
        ticks = itertools.count()
        time.process_time = lambda: next(ticks) / 1024
        sys.argv = sys.argv[1:]
        runpy.run_path(sys.argv[0], run_name="__main__")
    """))
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "scripts"))
        grid = importlib.import_module("grid")
        mp.setattr(grid, "CELL_S", 0.01)  # 11 pairs of 2/1024 s reach 2 * 0.01 s
        command = grid.worker_command
        mp.setattr(grid, "worker_command",
                   lambda *args: [sys.executable, str(stub), *command(*args)[1:]])
        for name in grid.GRIDS:
            out = tmp / f"BENCH_{name}.json"
            out.write_text(json.dumps({"runs": [{"earlier": "entry"}]}))
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                assert grid.main(["HEAD", str(out), "--cells", "1"]) == 0
            runs[name] = json.loads(out.read_text())["runs"], printed.getvalue().splitlines()
    return runs


needs_git = pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs the git checkout")


@needs_git
def test_grid_script_appends_one_paired_entry(paired_runs):
    """Each run appends one entry (both sides, provenance with the kernel
    type, the cells) after the file's earlier entries, and prints each cell.
    With the stubbed clocks every timed call takes 1/1024 s on both sides."""
    assert list(paired_runs) == ["fit", "knn", "walk", "explain"]
    for name, (runs, printed) in paired_runs.items():
        assert runs[0] == {"earlier": "entry"} and len(runs) == 2
        entry = runs[1]
        assert list(entry) == ["commit", "rev", "provenance", "cells"]
        assert entry["rev"] == _git("rev-parse", "--short", "HEAD")
        assert entry["commit"] == _git("describe", "--always", "--dirty")
        assert entry["provenance"]["coretype"] == "Haswell"
        assert list(entry["provenance"]) == ["nproc", "python", "numpy", "cell_s",
                                             "threads", "coretype", "clock"]
        (cell,) = entry["cells"]
        assert printed == ["  ".join(f"{key}={value}" for key, value in cell.items())]
        stages = [key[:-len("reps")] for key in cell if key.endswith("reps")]
        assert stages and all(cell[f"{s}reps"] == 11 for s in stages)
        assert [(cell[f"{s}rev_ms"], cell[f"{s}ratio"], cell[f"{s}faster"])
                for s in stages] == len(stages) * [(0.9766, 1.0, 0)]
        assert all(cell[f"{s}ms"] == 0.9766 for s in stages if f"{s}ms" in cell)


def test_grid_script_refuses_a_file_that_names_no_grid(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    grid = importlib.import_module("grid")
    monkeypatch.setattr(grid, "git", lambda *args: pytest.fail("git was called"))
    for name in ("out.json", "BENCH_sweep.json", "BENCH_fit.csv"):
        with pytest.raises(SystemExit) as exit_:
            grid.main(["HEAD", str(tmp_path / name)])
        assert exit_.value.code == 2
        assert "fit, knn, walk" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@needs_git
@pytest.mark.parametrize("name", ["fit", "knn", "walk", "explain"])
def test_grid_cells_keep_the_fields_of_their_bench_file(name, paired_runs):
    """A paired cell carries, in order, the fields of the last unpaired run in
    BENCH_<grid>.json and then, for each timed stage, REV's median, the ratio
    and the faster pairs; the file's paired runs carry the same fields. The
    last unpaired run has the fields of the run before it less the reference
    units (ref_*, *_in_ref) that the fit and walk grids timed."""
    fields = list(paired_runs[name][0][-1]["cells"][0])
    runs = json.loads((ROOT / f"BENCH_{name}.json").read_text())["runs"]
    unpaired = [run for run in runs if "rev" not in run]
    base = list(unpaired[-1]["cells"][0])
    assert [key for key in unpaired[-2]["cells"][0]
            if not (key.startswith("ref_") or key.endswith("_in_ref"))] == base
    stages = [key[:-len("reps")] for key in base if key.endswith("reps")]
    assert fields == base + [s + field for s in stages for field in ("rev_ms", "ratio", "faster")]
    assert all(list(run["cells"][0]) == fields for run in runs if "rev" in run)


def test_every_budget_the_scripts_and_workloads_run_is_under_the_byte_cap(monkeypatch):
    """The headline sweep's defaults, the grids, the CLI matrix (at M=21, its
    widest dataset) and the benchmark's three workloads at both sizes."""
    from stableshap.sampling import validate_budget

    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    grid = importlib.import_module("grid")
    sweep = importlib.import_module("stability_sweep")
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    runs = [(13, b) for b in sweep.default_budgets(13)]
    runs += [(m, b) for m, budgets in grid.FIT_BUDGETS.items() for b in budgets]
    runs += [(m, b) for m, ragged in grid.EXPLAIN_RAGGED.items()
             for b in (*[b for _, b in stableshap.complete_layer_budgets(m)[:2]], *ragged)]
    matrix = (ROOT / "scripts" / "cli_matrix.py").read_text()
    runs += [(21, int(b)) for budgets in re.findall(r'"--budgets", "([\d,]+)"', matrix)
             for b in budgets.split(",")]
    for c in workloads.KnnStability.SIZES.values():
        runs += [(c["m"], b) for b in (*c["complete"], *c["ragged"])]
    for c in workloads.GameM20.SIZES.values():
        bounds = dict(stableshap.complete_layer_budgets(c["m"]))
        runs += [(c["m"], b) for b in (*[bounds[i] for i in c["complete_layers"]],
                                       *c["ragged"])]
    for c in workloads.RidgeCompareExact.SIZES.values():
        runs += [(c["m"], b) for b in c["budgets"]]
    assert (20, 200000) in runs and len(runs) > 60
    for m, budget in runs:
        validate_budget(m, budget)


def test_stability_sweep_writes_every_metric_per_instance_and_mean(tmp_path, monkeypatch,
                                                                    capsys):
    """The headline sweep, scaled down: M=6, where 12 is layer 1's complete
    budget, 20 is ragged and 62 is the full budget, at which st-shap's fit is
    the exact values."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    sweep = importlib.import_module("stability_sweep")
    out = tmp_path / "sweep.csv"
    sweep.main([str(out), "--features", "6", "--instances", "2", "--runs", "3",
                "--budgets", "12,20,62"])
    with open(out, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == cli.CSV_HEADER
    assert [row[:4] for row in rows] == [
        [i, b, s, metric] for b in ("12", "20", "62")
        for s in (stableshap.ST_SHAP, stableshap.KERNEL_SHAP)
        for metric in ("jaccard", "rel_err_exact", "kendall_tau_exact", "adherence")
        for i in ("0", "1", "mean")]
    got = {tuple(row[:4]): float(row[4]) for row in rows}
    for (i, b, s, metric), value in got.items():
        low, high = {"rel_err_exact": (0.0, np.inf), "kendall_tau_exact": (-1.0, 1.0)}.get(
            metric, (0.0, 1.0))
        assert low <= value <= high, (i, b, s, metric)
        if i == "mean":
            assert value == np.mean([got["0", b, s, metric], got["1", b, s, metric]])
    for i in ("0", "1", "mean"):
        assert got[i, "12", stableshap.ST_SHAP, "jaccard"] == 1.0
        assert got[i, "62", stableshap.ST_SHAP, "rel_err_exact"] < 1e-12
        assert got[i, "62", stableshap.ST_SHAP, "kendall_tau_exact"] == 1.0
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {out}"


@pytest.mark.parametrize("argv", [["--instances", "0"], ["--runs", "1"],
                                  ["--explanation-size", "0"], ["--explanation-size", "7"],
                                  ["--budgets", "12,1"], ["--budgets", "12,20,12"],
                                  ["--background-size", "0"],
                                  ["--features", "1"], ["--features", "21"]])
def test_stability_sweep_refuses_meaningless_arguments(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    sweep = importlib.import_module("stability_sweep")
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        sweep.main([str(out), "--features", "6", *argv])
    assert exc.value.code == 2
    assert argv[0] in capsys.readouterr().err.splitlines()[-1]
    assert not out.exists()


@pytest.mark.parametrize("argv,error", [
    # 4 coalitions cannot determine 6 coefficients summing to f(x) - phi0
    (["--features", "6", "--instances", "2", "--budgets", "4"],
     "the coalitions determine 3 of 5 free coefficients (strategy=st-shap budget=4 n=4 M=6)"),
    # at this seed both features' exact values are 0.3
    (["--features", "2", "--instances", "1", "--background-size", "1", "--budgets", "2",
      "--explanation-size", "1", "--seed", "3"],
     "instance row 0, st-shap at budget 2: rank correlation undefined: "
     "the exact attribution is constant"),
])
def test_stability_sweep_ends_a_toolkit_error_with_exit_1(tmp_path, monkeypatch, capsys,
                                                          argv, error):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    sweep = importlib.import_module("stability_sweep")
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        sweep.main([str(out), "--runs", "2", *argv])
    assert exc.value.code == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


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
