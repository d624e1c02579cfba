"""End-to-end command tests: files, schemas, exit codes, reproducibility."""

import csv
import json
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from stableshap.cli import main

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
            "--budgets", "12,42", "--runs-per-instance", "5",
            "--n-instances", "3", "--background-size", "8",
            "--explanation-size", "3", "--output", str(out),
        ])
        assert code == 0
        rows = _read_metric_rows(out / "metrics" / "stability.csv")
        st_rows = [r for r in rows if r["strategy"] == "st-shap"]
        ks_rows = [r for r in rows if r["strategy"] == "kernel-shap"]
        assert st_rows and ks_rows  # both columns present for plotting
        assert all(float(r["value"]) == 1.0 for r in st_rows)  # 12 and 42 complete

    def test_single_run_refused(self, reg_csv, tmp_path):
        code = main([
            "stability", "--dataset", str(reg_csv), "--target", "target",
            "--budgets", "12", "--runs-per-instance", "1",
            "--output", str(tmp_path / "x"),
        ])
        assert code == 2

    def test_dense_fit_refused(self, reg_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"explanation_size": None}))
        code = main([
            "stability", "--config", str(cfg),
            "--dataset", str(reg_csv), "--target", "target",
            "--budgets", "12", "--runs-per-instance", "3",
            "--output", str(tmp_path / "x"),
        ])
        assert code == 2


class TestRunCommands:
    @pytest.mark.parametrize("command", ["explain", "stability", "adherence",
                                         "compare-exact"])
    def test_worker_pool_preserves_row_order(self, command, reg_csv, tmp_path, capsys):
        base = [
            command, "--dataset", str(reg_csv), "--target", "target",
            "--budgets", "12,30", "--n-instances", "3", "--background-size", "8",
        ] + {
            "explain": ["--strategy", "all", "--runs", "2"],
            "stability": ["--runs-per-instance", "4", "--explanation-size", "3"],
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

    @pytest.mark.parametrize("command", ["stability", "adherence"])
    def test_layer1_strategy_refused_where_not_allowed(self, command, reg_csv,
                                                       tmp_path):
        code = main([
            command, "--dataset", str(reg_csv), "--target", "target",
            "--strategy", "all", "--budgets", "12", "--runs-per-instance", "3",
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

    def test_oracle_cap_refusal_exit_code(self, reg_csv, tmp_path, capsys):
        code = main([
            "compare-exact", "--dataset", str(reg_csv), "--target", "target",
            "--strategy", "layer1", "--oracle-cap", "5", "--n-instances", "2",
            "--background-size", "8", "--output", str(tmp_path / "x"),
        ])
        assert code == 4
        assert "cap" in capsys.readouterr().err


class TestModelWiring:
    def test_external_model(self, reg_csv, tmp_path):
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
        out = tmp_path / "run"
        code = main([
            "explain", "--dataset", str(reg_csv), "--target", "target",
            "--model", "external", "--model-command", f"{sys.executable} {child}",
            "--budgets", "12", "--n-instances", "1",
            "--background-size", "5", "--output", str(out),
        ])
        assert code == 0
        doc = json.loads(next((out / "explanations").glob("*.json")).read_text())
        assert abs(doc["phi0"] + sum(doc["phis"]) - doc["fx"]) < 1e-9

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

    def test_missing_target_column(self, reg_csv, tmp_path, capsys):
        code = main([
            "explain", "--dataset", str(reg_csv), "--target", "nope",
            "--budgets", "12", "--output", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "nope" in capsys.readouterr().err
