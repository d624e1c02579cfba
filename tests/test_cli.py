"""End-to-end command tests: files, schemas, exit codes, reproducibility."""

import csv
import dataclasses
import json
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from stableshap import cli
from stableshap.cli import RunConfig, main, wire

from conftest import NON_FINITE_GAME_SPECS

M_REG = 6


def _write_regression_csv(path: Path, n=90, m=M_REG, seed=0) -> Path:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    w = np.linspace(1.0, 2.5, m)
    y = X @ w + 0.05 * rng.normal(size=n)
    with open(path, "w") as fh:
        fh.write(",".join([f"f{i}" for i in range(m)] + ["target"]) + "\n")
        for row, t in zip(X, y):
            fh.write(",".join(repr(float(v)) for v in row) + f",{float(t)!r}\n")
    return path


def _write_classification_csv(path: Path, n=80, m=4, seed=1) -> Path:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    labels = (X[:, 0] + X[:, 1] > 0).astype(int)
    with open(path, "w") as fh:
        fh.write(",".join([f"f{i}" for i in range(m)] + ["label"]) + "\n")
        for row, lab in zip(X, labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{lab}\n")
    return path


@pytest.fixture
def reg_csv(tmp_path):
    return _write_regression_csv(tmp_path / "reg.csv")


def _read_metric_rows(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    reader = csv.DictReader(lines[1:])
    return list(reader)


class TestLayersCommand:
    def test_table2_configuration(self, capsys):
        assert main(["layers", "15", "1200", "--json"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out.strip().splitlines()[-1])
        assert report["layer_sizes"] == [30, 210, 910, 2730, 6006, 10010, 12870]
        assert report["st_shap_allocation"] == [30, 210, 910, 50, 0, 0, 0]
        assert report["kernel_shap"]["complete_layers"] == [1, 2]
        assert report["kernel_shap"]["n_sampled"] == 960

    def test_all_layers_complete(self, capsys):
        assert main(["layers", "13", "754", "--json"]) == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["st_shap"]["complete_layers"] == [1, 2, 3]
        assert report["st_shap"]["n_sampled"] == 0

    def test_invalid_budget_is_config_error(self, capsys):
        assert main(["layers", "4", "100"]) == 2


class TestExplainCommand:
    def test_writes_schema_and_satisfies_local_accuracy(self, reg_csv, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "explain", "--dataset", str(reg_csv), "--target", "target",
            "--strategy", "st-shap", "--budgets", "12,40",
            "--n-instances", "2", "--background-size", "10",
            "--output", str(out),
        ])
        assert code == 0
        assert (out / "config.resolved.json").exists()
        files = sorted((out / "explanations").glob("*.json"))
        assert len(files) == 4  # 2 instances x 2 budgets
        for f in files:
            doc = json.loads(f.read_text())
            for key in ("phi0", "phis", "support", "strategy", "budget", "seed", "fx"):
                assert key in doc
            assert "config" in doc
            gap = abs(doc["phi0"] + sum(doc["phis"]) - doc["fx"])
            assert gap < 1e-9
            assert len(doc["support"]) == 4  # default explanation size

    def test_layer1_strategy(self, reg_csv, tmp_path):
        out = tmp_path / "run"
        code = main([
            "explain", "--dataset", str(reg_csv), "--target", "target",
            "--strategy", "layer1", "--n-instances", "1",
            "--background-size", "5", "--output", str(out),
        ])
        assert code == 0
        doc = json.loads(next((out / "explanations").glob("*layer1*")).read_text())
        assert doc["strategy"] == "layer1"
        assert len(doc["phis"]) == M_REG

    def test_budget_out_of_range_rejected_with_range(self, reg_csv, tmp_path, capsys):
        code = main([
            "explain", "--dataset", str(reg_csv), "--target", "target",
            "--budgets", "100", "--n-instances", "1",
            "--background-size", "8", "--output", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "[2, 62]" in capsys.readouterr().err

    def test_rerun_byte_reproduces(self, reg_csv, tmp_path):
        out = tmp_path / "run"
        args = [
            "explain", "--dataset", str(reg_csv), "--target", "target",
            "--strategy", "kernel-shap", "--budgets", "20",
            "--n-instances", "2", "--background-size", "8",
            "--output", str(out),
        ]
        assert main(args) == 0
        first = {p.name: p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
        assert main(args) == 0
        second = {p.name: p.read_bytes()
                  for p in sorted(out.rglob("*")) if p.is_file()}
        assert first and first == second

    def test_deterministic_at_complete_budget(self, reg_csv, tmp_path):
        # two distinct seed indices at a complete-layer budget: identical files
        out = tmp_path / "run"
        code = main([
            "explain", "--dataset", str(reg_csv), "--target", "target",
            "--strategy", "st-shap", "--budgets", "12", "--runs", "2",
            "--n-instances", "1", "--background-size", "8",
            "--output", str(out),
        ])
        assert code == 0
        r0 = json.loads(next((out / "explanations").glob("*_r0.json")).read_text())
        r1 = json.loads(next((out / "explanations").glob("*_r1.json")).read_text())
        assert r0["phis"] == r1["phis"]


class TestStabilityCommand:
    def test_complete_budgets_fully_stable(self, reg_csv, tmp_path):
        out = tmp_path / "run"
        code = main([
            "stability", "--dataset", str(reg_csv), "--target", "target",
            "--budgets", "12,42", "--runs", "5",
            "--n-instances", "3", "--background-size", "8",
            "--explanation-size", "3", "--output", str(out),
        ])
        assert code == 0
        rows = _read_metric_rows(out / "metrics" / "stability.csv")
        st_rows = [r for r in rows if r["strategy"] == "st-shap"]
        ks_rows = [r for r in rows if r["strategy"] == "kernel-shap"]
        assert st_rows and ks_rows  # both columns present for plotting
        assert all(float(r["value"]) == 1.0 for r in st_rows)  # 12 and 42 complete

    def test_single_run_refused(self, reg_csv, tmp_path, capsys):
        out = tmp_path / "x"
        code = main([
            "stability", "--dataset", str(reg_csv), "--target", "target",
            "--budgets", "12", "--runs", "1", "--n-instances", "2",
            "--background-size", "10", "--output", str(out),
        ])
        assert code == 2
        assert "stability needs at least 2 runs per instance" in capsys.readouterr().err
        assert not out.exists()

    def test_dense_fit_refused(self, reg_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"explanation_size": None}))
        out = tmp_path / "x"
        code = main([
            "stability", "--config", str(cfg),
            "--dataset", str(reg_csv), "--target", "target",
            "--budgets", "12", "--runs", "3", "--n-instances", "2",
            "--background-size", "10", "--output", str(out),
        ])
        assert code == 2
        assert "stability needs an explanation size" in capsys.readouterr().err
        assert not out.exists()


class TestRunCommands:
    @pytest.mark.parametrize("command", ["explain", "stability", "adherence",
                                         "compare-exact"])
    def test_worker_pool_preserves_row_order(self, command, reg_csv, tmp_path, capsys):
        base = [
            command, "--dataset", str(reg_csv), "--target", "target",
            "--budgets", "12,30", "--n-instances", "3", "--background-size", "8",
        ] + {
            "explain": ["--strategy", "all", "--runs", "2"],
            "stability": ["--runs", "4", "--explanation-size", "3"],
            "adherence": ["--runs", "2"],
            "compare-exact": ["--strategy", "all"],
        }[command]
        outputs = {}
        for workers in ("1", "3"):
            out = tmp_path / f"w{workers}"
            assert main(base + ["--workers", workers, "--output", str(out)]) == 0
            printed = [Path(line).name for line in capsys.readouterr().out.splitlines()]
            if command == "explain":
                # the resolved config names the worker count; the payloads must not
                outputs[workers] = [
                    (name, {k: v for k, v in json.loads(
                        (out / "explanations" / name).read_text()).items() if k != "config"})
                    for name in printed]
            else:
                outputs[workers] = _read_metric_rows(out / "metrics" / printed[0])
        assert outputs["1"] and outputs["1"] == outputs["3"]

    def test_stability_runs_sets_the_runs_per_route(self, reg_csv, tmp_path, monkeypatch):
        calls, explain = [], cli.explain

        def counted(x, model, background, strategy, budget, seed, **kwargs):
            calls.append(strategy)
            return explain(x, model, background, strategy, budget, seed, **kwargs)

        monkeypatch.setattr(cli, "explain", counted)
        out = tmp_path / "run"
        assert main([
            "stability", "--dataset", str(reg_csv), "--target", "target",
            "--runs", "3", "--budgets", "20", "--n-instances", "1",
            "--background-size", "8", "--output", str(out),
        ]) == 0
        assert sorted(calls) == ["kernel-shap"] * 3 + ["st-shap"] * 3
        assert json.loads((out / "config.resolved.json").read_text())["runs"] == 3

    @pytest.mark.parametrize("command,config,runs", [
        ("explain", {}, 1), ("stability", {}, 20), ("adherence", {}, 1),
        ("compare-exact", {}, 1), ("stability", {"runs": None}, 20),
        ("adherence", {"runs": 2}, 2),
    ])
    def test_runs_default_per_command(self, command, config, runs, reg_csv, tmp_path,
                                      monkeypatch):
        # one seed per run of each sampled route: the header names the count that ran
        seeds = []
        derive_seed = cli.derive_seed
        monkeypatch.setattr(cli, "derive_seed",
                            lambda *key: seeds.append(key[3]) or derive_seed(*key))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "run"
        assert main([
            command, "--config", str(cfg), "--dataset", str(reg_csv), "--target", "target",
            "--strategy", "st-shap", "--budgets", "20", "--n-instances", "1",
            "--background-size", "8", "--output", str(out),
        ]) == 0
        assert seeds == list(range(runs))
        assert json.loads((out / "config.resolved.json").read_text())["runs"] == runs

    @pytest.mark.parametrize("command", ["explain", "stability", "compare-exact"])
    @pytest.mark.parametrize("flag", ["--runs-per-instance", "--oracle-cap"])
    def test_removed_run_flags_rejected(self, command, flag, reg_csv, tmp_path, capsys):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main([command, "--dataset", str(reg_csv), "--target", "target",
                  "--budgets", "20", flag, "5", "--output", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["stability", "adherence"])
    def test_layer1_strategy_refused_where_not_allowed(self, command, reg_csv,
                                                       tmp_path):
        code = main([
            command, "--dataset", str(reg_csv), "--target", "target",
            "--strategy", "all", "--budgets", "12", "--runs", "3",
            "--n-instances", "1", "--background-size", "8",
            "--output", str(tmp_path / "x"),
        ])
        assert code == 2


class TestAdherenceCommand:
    def test_regression_sweep(self, reg_csv, tmp_path):
        out = tmp_path / "run"
        code = main([
            "adherence", "--dataset", str(reg_csv), "--target", "target",
            "--budgets", "12,30", "--n-instances", "2",
            "--background-size", "8", "--output", str(out),
        ])
        assert code == 0
        rows = _read_metric_rows(out / "metrics" / "adherence.csv")
        assert {r["strategy"] for r in rows} == {"st-shap", "kernel-shap"}
        for r in rows:
            assert float(r["value"]) <= 1.0 + 1e-9

    def test_classification_adherence_in_unit_interval(self, tmp_path):
        data = _write_classification_csv(tmp_path / "cls.csv")
        out = tmp_path / "run"
        code = main([
            "adherence", "--dataset", str(data), "--target", "label",
            "--model", "knn", "--knn-k", "3", "--budgets", "8",
            "--n-instances", "2", "--background-size", "6",
            "--explanation-size", "2", "--output", str(out),
        ])
        assert code == 0
        rows = _read_metric_rows(out / "metrics" / "adherence.csv")
        assert all(0.0 <= float(r["value"]) <= 1.0 for r in rows)


class TestCompareExactCommand:
    def test_layer1_on_linear_model_agrees_perfectly(self, reg_csv, tmp_path):
        out = tmp_path / "run"
        code = main([
            "compare-exact", "--dataset", str(reg_csv), "--target", "target",
            "--strategy", "layer1", "--n-instances", "3",
            "--background-size", "8", "--output", str(out),
        ])
        assert code == 0
        rows = _read_metric_rows(out / "metrics" / "compare_exact.csv")
        per_instance = [r for r in rows if r["instance"] not in ("mean", "median")]
        taus = [float(r["value"]) for r in per_instance if r["metric"] == "kendall_tau"]
        r2s = [float(r["value"]) for r in per_instance if r["metric"] == "r2"]
        assert all(t == 1.0 for t in taus)  # ridge is additive: layer1 == exact
        assert all(r > 1 - 1e-6 for r in r2s)
        assert any(r["instance"] == "mean" for r in rows)
        assert any(r["instance"] == "median" for r in rows)

    def test_full_budget_st_shap_matches_exact(self, reg_csv, tmp_path):
        out = tmp_path / "run"
        code = main([
            "compare-exact", "--dataset", str(reg_csv), "--target", "target",
            "--strategy", "st-shap", "--budgets", str(2**M_REG - 2),
            "--n-instances", "2", "--background-size", "6",
            "--output", str(out),
        ])
        assert code == 0
        rows = _read_metric_rows(out / "metrics" / "compare_exact.csv")
        r2s = [float(r["value"]) for r in rows
               if r["metric"] == "r2" and r["instance"] not in ("mean", "median")]
        assert all(r >= 1 - 1e-6 for r in r2s)

    @pytest.fixture
    def ridge_rows(self, monkeypatch):
        """The row count of every ridge prediction, in call order."""
        from stableshap.models import RidgeRegressionModel
        rows = []
        predict = RidgeRegressionModel.predict
        monkeypatch.setattr(RidgeRegressionModel, "predict",
                            lambda self, r: rows.append(len(r)) or predict(self, r))
        return rows

    def test_routes_after_exact_reuse_its_payoffs(self, reg_csv, tmp_path, ridge_rows):
        code = main([
            "compare-exact", "--dataset", str(reg_csv), "--target", "target",
            "--strategy", "all", "--budgets", "12,30", "--n-instances", "2",
            "--background-size", "6", "--output", str(tmp_path / "run"),
        ])
        assert code == 0
        # each instance: the 2^M exact table, then nothing for the other routes
        assert sum(ridge_rows) == 2 * 2**M_REG * 6

    def test_workers_send_the_same_model_rows(self, reg_csv, tmp_path, ridge_rows):
        # each instance has its own adapter, so concurrent instances never
        # evict each other's payoff memo
        sent, outputs = {}, {}
        for workers in ("1", "3"):
            out = tmp_path / f"w{workers}"
            ridge_rows.clear()
            assert main([
                "compare-exact", "--dataset", str(reg_csv), "--target", "target",
                "--strategy", "all", "--budgets", "12,20,33", "--n-instances", "6",
                "--background-size", "8", "--workers", workers, "--output", str(out),
            ]) == 0
            sent[workers] = sum(ridge_rows)
            outputs[workers] = _read_metric_rows(out / "metrics" / "compare_exact.csv")
        assert sent == {"1": 6 * 2**M_REG * 8, "3": 6 * 2**M_REG * 8}
        assert outputs["1"] == outputs["3"]

    def test_explanation_size_is_not_checked(self, tmp_path):
        # the default explanation size 4 exceeds M=3, but agreement is
        # measured on full-length vectors, so the size plays no part
        data = _write_regression_csv(tmp_path / "three.csv", n=50, m=3, seed=2)
        out = tmp_path / "run"
        code = main([
            "compare-exact", "--dataset", str(data), "--target", "target",
            "--strategy", "both", "--budgets", "6", "--n-instances", "2",
            "--background-size", "5", "--output", str(out),
        ])
        assert code == 0
        rows = _read_metric_rows(out / "metrics" / "compare_exact.csv")
        assert {r["strategy"] for r in rows} == {"kernel-shap", "st-shap"}

    def test_two_feature_tau_is_plus_minus_one(self, tmp_path):
        data = _write_regression_csv(tmp_path / "two.csv", n=50, m=2, seed=5)
        out = tmp_path / "run"
        code = main([
            "compare-exact", "--dataset", str(data), "--target", "target",
            "--strategy", "layer1", "--n-instances", "3",
            "--background-size", "5", "--output", str(out),
        ])
        assert code == 0
        rows = _read_metric_rows(out / "metrics" / "compare_exact.csv")
        taus = {float(r["value"]) for r in rows
                if r["metric"] == "kendall_tau" and r["instance"] not in ("mean", "median")}
        assert taus <= {-1.0, 1.0}

    def test_oracle_cap_refusal_exit_code(self, tmp_path, capsys):
        data = _write_regression_csv(tmp_path / "wide.csv", n=40, m=21)
        out = tmp_path / "x"
        code = main([
            "compare-exact", "--dataset", str(data), "--target", "target",
            "--strategy", "layer1", "--n-instances", "2",
            "--background-size", "8", "--output", str(out),
        ])
        assert code == 4
        assert "over 21 features needs 2097152 coalition evaluations; the cap is 20" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_more_than_one_run_refused(self, reg_csv, tmp_path, capsys):
        out = tmp_path / "x"
        code = main([
            "compare-exact", "--dataset", str(reg_csv), "--target", "target",
            "--runs", "2", "--n-instances", "2", "--background-size", "8",
            "--output", str(out),
        ])
        assert code == 2
        assert "compare-exact makes one run per instance, got --runs 2" in (
            capsys.readouterr().err)
        assert not out.exists()


class TestCountsRefused:
    """A count that leaves a run with nothing to compute is a config error
    that names the value, raised before any file is written."""

    @pytest.mark.parametrize("command,flags,message", [
        ("adherence", ["--runs", "0"], "--runs must be at least 1, got 0"),
        ("stability", ["--n-instances", "0"], "--n-instances must be at least 1, got 0"),
        ("explain", ["--runs", "0"], "--runs must be at least 1, got 0"),
        ("explain", ["--runs", "-1"], "--runs must be at least 1, got -1"),
        ("explain", ["--workers", "-3"], "--workers must be at least 1, got -3"),
        ("explain", ["--background-size", "-5"],
         "--background-size must be at least 1, got -5"),
        ("explain", ["--split-seed", "-1"], "split seed must be non-negative, got -1"),
        ("explain", ["--instances", "150,150", "--budgets", "20,20"],
         "--instances repeats 150"),
        ("explain", ["--budgets", "20,33,20"], "--budgets repeats 20"),
        ("stability", ["--instances", "3,7,3,7"], "--instances repeats 3"),
        ("stability", ["--budgets", "33,20,33,33"], "--budgets repeats 33"),
        ("compare-exact", ["--instances", "5,5"], "--instances repeats 5"),
    ])
    def test_ridge_counts(self, command, flags, message, reg_csv, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            command, "--dataset", str(reg_csv), "--target", "target",
            "--budgets", "20", "--n-instances", "2", "--background-size", "10",
            *flags, "--output", str(out),
        ])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k", ["0", "999"])
    def test_knn_k(self, k, tmp_path, capsys):
        data = _write_classification_csv(tmp_path / "cls.csv")
        out = tmp_path / "run"
        code = main([
            "explain", "--dataset", str(data), "--target", "label", "--model", "knn",
            "--knn-k", k, "--budgets", "8", "--n-instances", "1",
            "--background-size", "6", "--explanation-size", "2", "--output", str(out),
        ])
        assert code == 2
        assert f"--knn-k: k={k} invalid for 60 training rows" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_instance_list(self, reg_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instances": []}))
        out = tmp_path / "run"
        code = main([
            "stability", "--config", str(cfg), "--dataset", str(reg_csv),
            "--target", "target", "--budgets", "20", "--background-size", "10",
            "--output", str(out),
        ])
        assert code == 2
        assert "instance rows empty" in capsys.readouterr().err
        assert not out.exists()


class TestRefusedBeforeWriting:
    """A run whose configuration cannot work exits 2 with a config error that
    says why, and its --output holds nothing."""

    DATA = ["--dataset", "{data}", "--target", "target", "--n-instances", "2",
            "--background-size", "10"]

    @pytest.mark.parametrize("argv,doc,message", [
        (["explain", "--model", "game", "--budgets", "2"], None,
         "model 'game' needs --game-file"),
        (["explain", "--target", "target", "--budgets", "2"], None,
         "a dataset path and target column are required"),
        (["explain", "--dataset", "{data}", "--budgets", "2"], None,
         "a dataset path and target column are required"),
        (["explain", *DATA, "--model", "external"], None,
         "model 'external' needs --model-command"),
        (["explain", *DATA, "--n-instances", "30"], None,
         "held-out split leaves 12 rows after the background block; 30 instances requested"),
        (["explain", *DATA], {"background_rows": []}, "background set resolved to zero rows"),
        (["explain", *DATA, "--background-rows", "3,90,-1"], None,
         "background rows out of range: [90, -1]"),
        (["explain", *DATA, "--explanation-size", "7"], None,
         "explanation size 7 outside 1..6"),
        (["adherence", *DATA, "--explanation-size", "0"], None,
         "explanation size 0 outside 1..6"),
        (["explain", *DATA], {"budgets": []}, "at least one budget is required (--budgets)"),
        (["explain", "--budgets", "2"], {"model": "foo"},
         "model must be ridge, knn, external or game, got 'foo'"),
        (["explain", *DATA, "--model", "foo"], None,
         "model must be ridge, knn, external or game, got 'foo'"),
        (["explain", *DATA, "--task", "foo"], None,
         "task must be regression or classification, got 'foo'"),
        (["explain", *DATA, "--budgets", "12,1,90"], None,
         "budget 1 outside the valid range [2, 62] for M=6"),
        (["explain", *DATA, "--strategy", "kernel-shap", "--budgets", "62,63"], None,
         "budget 63 outside the valid range [2, 62] for M=6"),
    ])
    def test_refused(self, argv, doc, message, reg_csv, tmp_path, capsys):
        argv = [str(reg_csv) if a == "{data}" else a for a in argv]
        if doc is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            argv += ["--config", str(cfg)]
        out = tmp_path / "run"
        code = main([*argv, "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,rows,key", [
        ("--instances", [17, 3], "instances"),
        ("--background-rows", [0, 9, 5], "background_rows"),
    ])
    def test_selected_rows_are_the_rows_run(self, flag, rows, key, reg_csv, tmp_path):
        out = tmp_path / "run"
        code = main([
            "explain", "--dataset", str(reg_csv), "--target", "target",
            "--strategy", "layer1", "--n-instances", "2", "--background-size", "10",
            flag, ",".join(map(str, rows)), "--output", str(out),
        ])
        assert code == 0
        resolved = json.loads((out / "config.resolved.json").read_text())
        assert resolved[key] == resolved[f"resolved_{key}"] == rows
        docs = [json.loads(f.read_text()) for f in sorted((out / "explanations").glob("*"))]
        assert len(docs) == 2 and all(doc["config"] == resolved for doc in docs)
        if key == "instances":
            assert sorted(doc["instance_row"] for doc in docs) == sorted(rows)
            assert sorted(f.name for f in (out / "explanations").glob("*")) == sorted(
                f"row{row}_layer1.json" for row in rows)


class TestRunFlags:
    """Every RunConfig field but `encodings` is a flag of the same name, with
    dashes for underscores, that parses to the field's type."""

    SAMPLES = {"str": ("x", "x"), "int": ("3", 3), "float": ("0.5", 0.5),
               "list[int]": ("4,5", [4, 5]), "list[str]": ("a,b", ["a", "b"])}

    @pytest.mark.parametrize("command", ["explain", "stability", "adherence",
                                         "compare-exact"])
    def test_each_field_parses_to_its_type(self, command):
        parser = cli.build_parser()
        names = [f.name for f in dataclasses.fields(RunConfig) if f.name != "encodings"]
        for f in dataclasses.fields(RunConfig):
            if f.name == "encodings":
                continue
            sample, want = self.SAMPLES[f.type.removesuffix(" | None")]
            args = parser.parse_args([command, "--" + f.name.replace("_", "-"), sample])
            got = getattr(args, f.name)
            assert got == want and type(got) is type(want), f.name
            assert all(getattr(args, other) is None for other in names if other != f.name)

    def test_encodings_is_no_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.build_parser().parse_args(["explain", "--encodings", "{}"])
        assert info.value.code == 2
        assert "unrecognized arguments: --encodings" in capsys.readouterr().err


class TestConfigFileTypes:
    """A config value of the wrong JSON type, or outside its field's values, is
    a config error naming the key, raised before any file is written."""

    @pytest.mark.parametrize("doc,message", [
        ({"workers": "3"}, "config key 'workers' must be int, got '3'"),
        ({"budgets": "12,20"}, "config key 'budgets' must be list[int], got '12,20'"),
        ({"instances": [1.5]}, "config key 'instances' must be list[int] | None, got [1.5]"),
        ({"explanation_size": "3"},
         "config key 'explanation_size' must be int | None, got '3'"),
        ({"master_seed": 1.5}, "config key 'master_seed' must be int, got 1.5"),
        ({"features": "a,b"}, "config key 'features' must be list[str] | None, got 'a,b'"),
        ({"encodings": {"color": ["red"]}},
         "config key 'encodings' must be dict[str, dict], got {'color': ['red']}"),
        ({"task": "foo"}, "task must be regression or classification, got 'foo'"),
        ({"features": ["f0"]}, "reg.csv: 1 feature columns; attributions need at least 2"),
        ({"features": []}, "reg.csv: 0 feature columns; attributions need at least 2"),
        ([{"budgets": [20]}], "must hold a JSON object, not a list"),
        ({"explain_runs": 2}, "unknown config keys: ['explain_runs']"),
        ({"runs_per_instance": 5}, "unknown config keys: ['runs_per_instance']"),
        ({"oracle_cap": 5}, "unknown config keys: ['oracle_cap']"),
    ])
    def test_wrong_type_is_config_error(self, doc, message, reg_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budgets": [20]} | doc if isinstance(doc, dict) else doc))
        out = tmp_path / "run"
        code = main([
            "explain", "--config", str(cfg), "--dataset", str(reg_csv),
            "--target", "target", "--n-instances", "2", "--background-size", "10",
            "--output", str(out),
        ])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content,message", [
        (None, "cannot read game file "),
        ("{\"M\": 2,", "is not valid JSON"),
    ])
    def test_unreadable_game_file_is_config_error(self, content, message, tmp_path,
                                                  capsys):
        game_file = tmp_path / "game.json"
        if content is not None:
            game_file.write_text(content)
        out = tmp_path / "run"
        code = main([
            "explain", "--model", "game", "--game-file", str(game_file),
            "--budgets", "2", "--output", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err and str(game_file) in err
        assert not out.exists()


    @pytest.mark.parametrize("content,message", [
        ('{"M": 2}', "game has no field 'values'"),
        ("[1, 2]", "a game is a JSON object, not a list"),
        ('{"M": "two", "values": {}}', "field 'M' must be a JSON integer, got 'two'"),
        ('{"M": 2, "values": {"00": 0, "10": "x", "01": 1, "11": 2}}',
         "field 'values' maps mask '10' to 'x', not a number"),
    ], ids=["no-values", "list", "M-string", "value-string"])
    def test_game_file_holding_no_game_is_config_error(self, content, message,
                                                       tmp_path, capsys):
        game_file = tmp_path / "game.json"
        game_file.write_text(content)
        out = tmp_path / "run"
        code = main([
            "explain", "--model", "game", "--game-file", str(game_file),
            "--budgets", "2", "--output", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err and str(game_file) in err
        assert not out.exists()

    @pytest.mark.parametrize("content,args,message", [
        ('{"M": 5, "rule": "additive", "weights": [1, 2, 3]}', [],
         "field 'weights' has 3 entries, not the 5 that M=5 needs"),
        ('{"M": 1, "rule": "cardinality", "by_size": [0, 1]}',
         ["--strategy", "layer1", "--explanation-size", "1"],
         "field 'M' must be at least 2 players, got 1"),
        ('{"M": 2, "rule": "additive", "weights": [1, true]}', [],
         "field 'weights' entry 1 is True, not a number"),
        ('{"M": 2, "rule": "cardinality", "by_size": [0, true, 2]}', [],
         "field 'by_size' entry 1 is True, not a number"),
        ('{"M": 2, "rule": "additive", "weights": [1, [2]]}', [],
         "field 'weights' entry 1 is [2], not a number"),
        ('{"M": 2, "rule": "sum", "weights": [1, 2]}', [],
         "field 'rule' must be 'table', 'additive' or 'cardinality', got 'sum'"),
        (json.dumps({"M": 65, "values": {"0" * 65: 0}}), [],
         "table games support at most 64 players"),
    ], ids=["additive-length", "one-player", "weight-bool", "by-size-bool",
            "weight-list", "unknown-rule", "65-players"])
    def test_game_spec_that_breaks_the_maths_is_config_error(self, content, args,
                                                             message, tmp_path, capsys):
        _assert_game_file_refused(content, args, message, tmp_path, capsys)

    @pytest.mark.parametrize("content,message", NON_FINITE_GAME_SPECS + [
        pytest.param('{"M": 2, "rule": "additive", "weights": [1, %s]}' % ("9" * 5000),
                     "is not valid JSON: Exceeds the limit", id="weights-past-digit-limit"),
    ])
    def test_game_number_no_float_carries_is_config_error(self, content, message,
                                                          tmp_path, capsys):
        _assert_game_file_refused(content, [], message, tmp_path, capsys)


def _assert_game_file_refused(content, args, message, tmp_path, capsys):
    """`explain` on a game file exits 2 with a config error naming the file and
    `message`, prints no traceback and writes no output directory."""
    game_file = tmp_path / "game.json"
    game_file.write_text(content)
    out = tmp_path / "run"
    code = main([
        "explain", "--model", "game", "--game-file", str(game_file),
        "--budgets", "2", *args, "--output", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and str(game_file) in err
    assert "Traceback" not in err
    assert not out.exists()


class TestRankDeficientBudget:
    @pytest.mark.parametrize("command", ["explain", "stability"])
    def test_exits_1_names_the_rank_and_writes_nothing(self, command, reg_csv,
                                                       tmp_path, capsys):
        # budget 4 at M=6: 4 coalitions cannot determine 5 free coefficients;
        # budget 20 fits, but the run still fails as a whole
        out = tmp_path / "run"
        code = main([
            command, "--dataset", str(reg_csv), "--target", "target",
            "--strategy", "both", "--budgets", "20,4", "--n-instances", "2",
            "--background-size", "8", "--workers", "2", "--output", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the coalitions determine ")
        assert "of 5 free coefficients (strategy=" in err and "budget=4 " in err
        assert not [p for p in out.rglob("*") if p.suffix in (".json", ".csv")
                    and p.name != "config.resolved.json"]


class TestUndefinedMetric:
    # M=4 cardinality games: by_size [0, 1, 3, 6, 10] gives every feature the
    # same exact value, so no rank correlation against it is defined; by_size
    # [0, 1, 1, 1, 2] pays 1 to every coalition of layer 1 (sizes 1 and 3),
    # so budget 8's payoffs have no variance for r2
    @pytest.mark.parametrize("command, by_size, args, message", [
        ("compare-exact", [0, 1, 3, 6, 10], [],
         "instance row 0, layer1: rank correlation undefined for a constant vector"),
        ("adherence", [0, 1, 1, 1, 2], ["--budgets", "8", "--explanation-size", "2"],
         "instance row 0, kernel-shap at budget 8: r2 undefined: "
         "the reference has zero variance"),
    ])
    def test_exits_1_naming_the_row_and_route(self, command, by_size, args, message,
                                              tmp_path, capsys):
        game_file = tmp_path / "game.json"
        game_file.write_text(json.dumps({"M": 4, "rule": "cardinality", "by_size": by_size}))
        code = main([command, "--model", "game", "--game-file", str(game_file), *args,
                     "--output", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"


def _summing_child(tmp_path: Path) -> str:
    """Command line of an external model that answers each row's sum."""
    child = tmp_path / "model.py"
    child.write_text(textwrap.dedent("""
        import sys
        batch = []
        for line in sys.stdin:
            line = line.strip()
            if line == "":
                for row in batch:
                    print(sum(float(v) for v in row.split(",")))
                sys.stdout.flush()
                batch = []
            else:
                batch.append(line)
    """))
    return f"{sys.executable} {child}"


class TestModelWiring:
    def test_external_model(self, reg_csv, tmp_path):
        out = tmp_path / "run"
        code = main([
            "explain", "--dataset", str(reg_csv), "--target", "target",
            "--model", "external", "--model-command", _summing_child(tmp_path),
            "--budgets", "12", "--n-instances", "1",
            "--background-size", "5", "--output", str(out),
        ])
        assert code == 0
        doc = json.loads(next((out / "explanations").glob("*.json")).read_text())
        assert abs(doc["phi0"] + sum(doc["phis"]) - doc["fx"]) < 1e-9

    def test_external_instances_get_distinct_adapters(self, reg_csv, tmp_path):
        cfg = RunConfig(dataset=str(reg_csv), target="target", model="external",
                        model_command=_summing_child(tmp_path), n_instances=4,
                        background_size=5)
        with wire(cfg) as wiring:
            adapters = [wiring.adapter_for(x) for _, x in wiring.instances]
        assert len(wiring.instances) == 4 and len({id(a) for a in adapters}) == 4

    def test_memory_does_not_grow_with_the_instances(self, tmp_path):
        # M=18: one instance's memo table is 2.25 MiB (2^18 payoffs and
        # marks). Each instance's adapter goes once its routes are done, so
        # six instances peak as two do (4.8 MiB measured); an adapter kept
        # per instance until the command returns would add a table each
        data = _write_regression_csv(tmp_path / "wide.csv", m=18)
        peaks = {}
        for n in (2, 6):
            tracemalloc.start()
            try:
                assert main([
                    "compare-exact", "--dataset", str(data), "--target", "target",
                    "--strategy", "layer1", "--background-size", "4",
                    "--n-instances", str(n), "--output", str(tmp_path / f"n{n}"),
                ]) == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[6] < peaks[2] + (1 << 20)

    def test_external_workers_send_the_same_rows(self, reg_csv, tmp_path, monkeypatch):
        # one process serves every instance, but each instance keeps its own
        # payoff memo, so concurrent instances never evict each other's payoffs
        from stableshap.models import ExternalProcessModel
        rows = []
        predict = ExternalProcessModel.predict
        monkeypatch.setattr(ExternalProcessModel, "predict",
                            lambda self, r: rows.append(len(r)) or predict(self, r))
        sent, outputs = {}, {}
        for workers in ("1", "3"):
            out = tmp_path / f"w{workers}"
            rows.clear()
            assert main([
                "explain", "--dataset", str(reg_csv), "--target", "target",
                "--model", "external", "--model-command", _summing_child(tmp_path),
                "--strategy", "all", "--budgets", "12,20,40", "--runs", "3",
                "--n-instances", "6", "--background-size", "8",
                "--workers", workers, "--output", str(out),
            ]) == 0
            sent[workers] = sum(rows)
            outputs[workers] = {p.name: json.loads(p.read_text())["phis"]
                                for p in (out / "explanations").glob("*.json")}
        assert sent["1"] == sent["3"] > 0
        assert outputs["1"] == outputs["3"]

    def test_broken_external_model_exit_3(self, reg_csv, tmp_path, capsys):
        child = tmp_path / "bad.py"
        child.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    if not line.strip():\n"
            "        print('nope', flush=True)\n"
        )
        code = main([
            "explain", "--dataset", str(reg_csv), "--target", "target",
            "--model", "external", "--model-command", f"{sys.executable} {child}",
            "--budgets", "12", "--n-instances", "1",
            "--background-size", "5", "--output", str(tmp_path / "x"),
        ])
        assert code == 3

    @staticmethod
    def _explain_with_nan_model(reg_csv, tmp_path) -> int:
        child = tmp_path / "nan.py"
        child.write_text(
            "import sys\n"
            "n = 0\n"
            "for line in sys.stdin:\n"
            "    if line.strip():\n"
            "        n += 1\n"
            "    else:\n"
            "        print('nan\\n' * n, end='', flush=True)\n"
            "        n = 0\n"
        )
        return main([
            "explain", "--dataset", str(reg_csv), "--target", "target",
            "--model", "external", "--model-command", f"{sys.executable} {child}",
            "--budgets", "12", "--n-instances", "1",
            "--background-size", "5", "--output", str(tmp_path / "x"),
        ])

    def test_nan_external_model_exit_1(self, reg_csv, tmp_path, capsys):
        code = self._explain_with_nan_model(reg_csv, tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert "coalition" in err and "nan" in err
        assert not list((tmp_path / "x" / "explanations").glob("*.json"))

    def test_bridge_closed_after_failed_run(self, reg_csv, tmp_path, monkeypatch):
        from stableshap.models import ExternalProcessModel
        children = []
        close = ExternalProcessModel.close
        monkeypatch.setattr(ExternalProcessModel, "close",
                            lambda self: children.append(self._proc) or close(self))
        assert self._explain_with_nan_model(reg_csv, tmp_path) == 1
        assert len(children) == 1
        assert children[0] is not None and children[0].poll() is not None

    def test_unknown_explained_class_is_config_error(self, tmp_path, capsys):
        data = _write_classification_csv(tmp_path / "cls.csv")
        code = main([
            "explain", "--dataset", str(data), "--target", "label",
            "--model", "knn", "--explained-class", "7", "--budgets", "8",
            "--n-instances", "1", "--background-size", "6",
            "--explanation-size", "2", "--output", str(tmp_path / "x"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "class 7" in err and "[0, 1]" in err

    def test_game_model(self, tmp_path, glove_game):
        game_file = tmp_path / "glove.json"
        glove_game.save(game_file)
        out = tmp_path / "run"
        code = main([
            "explain", "--model", "game", "--game-file", str(game_file),
            "--strategy", "st-shap", "--budgets", "6",
            "--explanation-size", "3", "--output", str(out),
        ])
        assert code == 0
        doc = json.loads(next((out / "explanations").glob("*.json")).read_text())
        assert doc["phis"] == pytest.approx([2 / 3, 1 / 6, 1 / 6])

    def test_categorical_encoding_declared(self, tmp_path):
        data = tmp_path / "cat.csv"
        rng = np.random.default_rng(7)
        with open(data, "w") as fh:
            fh.write("color,f1,target\n")
            for _ in range(40):
                color = rng.choice(["red", "green", "blue"])
                f1 = rng.normal()
                fh.write(f"{color},{float(f1)!r},{float(f1) * 2:.6f}\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "encodings": {"color": {"red": 0, "green": 1, "blue": 2}},
        }))
        code = main([
            "explain", "--config", str(cfg), "--dataset", str(data),
            "--target", "target", "--budgets", "2", "--n-instances", "1",
            "--background-size", "4", "--explanation-size", "2",
            "--output", str(tmp_path / "run"),
        ])
        assert code == 0

    def test_undeclared_categorical_names_line(self, tmp_path, capsys):
        data = tmp_path / "cat.csv"
        data.write_text("color,target\nred,1.0\nblue,2.0\n")
        code = main([
            "explain", "--dataset", str(data), "--target", "target",
            "--budgets", "2", "--output", str(tmp_path / "x"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "cat.csv:2" in err and "color" in err

    @pytest.mark.parametrize("cells, where", [
        ({(3, 1): "nan", (5, 2): "inf"}, "cls.csv:5: value 'nan' in column 'f1' reads as nan"),
        ({(0, 0): "-inf"}, "cls.csv:2: value '-inf' in column 'f0' reads as -inf"),
        ({(7, 4): "NaN"}, "cls.csv:9: value 'NaN' in column 'label' reads as nan"),
    ])
    def test_non_finite_cells_refused(self, tmp_path, capsys, cells, where):
        data = _write_classification_csv(tmp_path / "cls.csv")
        lines = data.read_text().splitlines()
        for (row, col), text in cells.items():
            fields = lines[row + 1].split(",")
            fields[col] = text
            lines[row + 1] = ",".join(fields)
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        code = main([
            "explain", "--dataset", str(data), "--target", "label", "--model", "knn",
            "--budgets", "8", "--n-instances", "3", "--background-size", "6",
            "--output", str(out),
        ])
        assert code == 2
        assert where in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_encoding_refused(self, tmp_path, capsys):
        data = tmp_path / "cat.csv"
        data.write_text("color,target\nred,1.0\nblue,2.0\nred,3.0\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"encodings": {"color": {"red": 0, "blue": NaN}}}')
        out = tmp_path / "run"
        code = main([
            "explain", "--config", str(cfg), "--dataset", str(data),
            "--target", "target", "--budgets", "2", "--output", str(out),
        ])
        assert code == 2
        assert "cat.csv:3: value 'blue' in column 'color' reads as nan" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("code_text,words", [
        ('"x"', "is encoded as 'x', not a number"),
        ("null", "is encoded as None, not a number"),
        ("true", "is encoded as True, not a number"),
        ("-" + "9" * 401, "reads as -inf"),
    ])
    def test_encoding_that_is_no_finite_number_refused(self, tmp_path, capsys, code_text,
                                                       words):
        data = tmp_path / "cat.csv"
        data.write_text("color,target\nred,1.0\nblue,2.0\nred,3.0\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"encodings": {"color": {"red": 0, "blue": %s}}}' % code_text)
        out = tmp_path / "run"
        code = main([
            "explain", "--config", str(cfg), "--dataset", str(data),
            "--target", "target", "--budgets", "2", "--output", str(out),
        ])
        assert code == 2
        assert f"cat.csv:3: value 'blue' in column 'color' {words}" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("header,features,message", [
        ("f0,f0,f2,target", [], "column 'f0' appears twice in the header"),
        ("f0,f1,f2,target", ["--features", "f2,f2"],
         "column 'f2' appears twice in the feature list"),
    ])
    def test_repeated_column_refused(self, header, features, message, tmp_path, capsys):
        rng = np.random.default_rng(7)
        data = tmp_path / "twice.csv"
        data.write_text(header + "\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in rng.normal(size=(40, 4))))
        out = tmp_path / "run"
        code = main(["compare-exact", "--dataset", str(data), "--target", "target",
                     *features, "--n-instances", "2", "--background-size", "8",
                     "--output", str(out)])
        assert code == 2
        assert f"twice.csv: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_target_column(self, reg_csv, tmp_path, capsys):
        code = main([
            "explain", "--dataset", str(reg_csv), "--target", "nope",
            "--budgets", "12", "--output", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "nope" in capsys.readouterr().err
