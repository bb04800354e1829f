"""End-to-end CLI behavior and exit codes."""

from __future__ import annotations

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import mrforest.cli as cli
from mrforest.data import load_dataset, partition
from mrforest.forest import predict_batch, train_mrf
from mrforest.harness import TreeDistReport, emit_report, tree_accuracy_distribution
from mrforest.privacy import AuditReport


@pytest.fixture
def data_csv(tmp_path):
    rng = np.random.default_rng(0)
    n = 80
    labels = np.arange(n) % 2
    x0 = labels * 5.0 + rng.normal(scale=0.3, size=n)
    x1 = rng.normal(size=n)
    lines = ["f0,f1,label"]
    lines += [f"{a},{b},{'yes' if c else 'no'}" for a, b, c in zip(x0, x1, labels)]
    path = tmp_path / "train.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def micro_csv(tmp_path):
    rng = np.random.default_rng(1)
    lines = ["a,b,y"]
    for i in range(8):
        lines.append(f"{rng.normal():.4f},{rng.normal():.4f},{i % 2}")
    path = tmp_path / "micro.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestTrainPredict:
    def test_train_then_predict_round_trip(self, data_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        code = cli.main(
            ["train", "--data", str(data_csv), "--trees", "5", "--min-leaf", "3",
             "--seed", "1", "--out", str(model)]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["variant"] == "mrf"
        assert model.exists()

        out = tmp_path / "pred.json"
        code = cli.main(
            ["predict", "--model", str(model), "--data", str(data_csv),
             "--label-col", "label", "--out", str(out)]
        )
        assert code == 0
        result = json.loads(out.read_text())
        assert result["accuracy"] >= 0.95
        assert set(result["predictions"]) <= {"yes", "no"}

    def test_predict_feature_only_csv(self, data_csv, tmp_path):
        model = tmp_path / "model.json"
        cli.main(["train", "--data", str(data_csv), "--trees", "3", "--out", str(model)])
        rows = tmp_path / "rows.csv"
        rows.write_text("f0,f1\n0.1,0.0\n5.2,0.3\n", encoding="utf-8")
        out = tmp_path / "pred.json"
        assert cli.main(["predict", "--model", str(model), "--data", str(rows), "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["predictions"] == ["no", "yes"]

    def test_train_with_epsilon_caps_depth(self, data_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        code = cli.main(
            ["train", "--data", str(data_csv), "--trees", "2", "--min-leaf", "5",
             "--epsilon", "4.0", "--out", str(model)]
        )
        assert code == 0
        doc = json.loads(model.read_text())
        # estimation side of 72 training rows at rate 1 -> 36 rows, d = ceil(36/5) = 8
        assert doc["config"]["max_depth"] == 8
        assert doc["config"]["b3"] == pytest.approx(2.0)
        assert doc["config"]["b1"] == pytest.approx(4.0 / (8 * 2) / 2)

    def test_breiman_variant(self, data_csv, tmp_path):
        model = tmp_path / "model.json"
        code = cli.main(
            ["train", "--data", str(data_csv), "--method", "breiman", "--trees", "3",
             "--out", str(model)]
        )
        assert code == 0
        assert json.loads(model.read_text())["variant"] == "breiman"


class TestReportsAndSweep:
    def test_cv_json(self, data_csv, tmp_path):
        out = tmp_path / "cv.json"
        code = cli.main(
            ["cv", "--data", str(data_csv), "--trees", "3", "--min-leaf", "3",
             "--folds", "4", "--repeats", "1", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "cv_report"
        assert len(doc["accuracies"]) == 4

    def test_sweep_csv(self, data_csv, tmp_path):
        out = tmp_path / "sweep.csv"
        code = cli.main(
            ["sweep", "--data", str(data_csv), "--trees", "2", "--min-leaf", "3",
             "--b1-grid", "0,5", "--b2-grid", "0", "--folds", "3", "--repeats", "1",
             "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "B1,B2,mean_acc,std"
        assert len(lines) == 3

    def test_tree_dist(self, data_csv, tmp_path):
        out = tmp_path / "dist.json"
        code = cli.main(
            ["tree-dist", "--data", str(data_csv), "--trees", "4", "--min-leaf", "3",
             "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["accuracies"]) == 4

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_tree_dist_report_from_one_prediction(self, data_csv, tmp_path, monkeypatch, fmt):
        out = tmp_path / f"dist.{fmt}"
        argv = ["tree-dist", "--data", str(data_csv), "--trees", "4", "--min-leaf", "3",
                "--b3", "2.0", "--eval-seed", "5", "--format", fmt, "--out", str(out)]
        calls = []

        def counting_predict_batch(*args):
            calls.append(args)
            return predict_batch(*args)

        monkeypatch.setattr(cli, "predict_batch", counting_predict_batch)
        assert cli.main(argv) == 0
        assert len(calls) == 1
        # the report as it was built from two predictions with the same seed
        args = cli.build_parser().parse_args(argv)
        dataset = load_dataset(data_csv)
        rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(99,)))
        holdout = partition(dataset, (1.0 - 0.3) / 0.3, rng)
        forest = train_mrf(
            dataset.subset(holdout.structure_idx),
            cli._config_from_args(args, holdout.structure_idx.size),
        )
        test_x = dataset.features[holdout.estimation_idx]
        test_y = dataset.labels[holdout.estimation_idx]
        accs = tree_accuracy_distribution(forest, test_x, test_y, np.random.default_rng(5))
        classes, _ = predict_batch(forest, test_x, np.random.default_rng(5))
        expected = TreeDistReport(
            dataset="train",
            method="mrf",
            accuracies=tuple(float(a) for a in accs),
            forest_accuracy=float(np.mean(classes == test_y)),
        )
        assert out.read_text() == emit_report(expected, fmt)


class TestAuditAndBudget:
    def test_audit_passes_and_reports(self, micro_csv, tmp_path):
        out = tmp_path / "audit.json"
        code = cli.main(
            ["audit", "--data", str(micro_csv), "--b1", "1.0", "--b2", "1.0",
             "--b3", "1.0", "--out", str(out)]
        )
        assert code == 0
        reports = json.loads(out.read_text())
        assert [r["mechanism"] for r in reports] == ["feature", "value", "label"]
        assert all(r["passed"] for r in reports)

    @pytest.mark.parametrize("flag", ["--b1", "--b2", "--b3"])
    def test_audit_budget_without_finite_bound_exits_2(self, micro_csv, capsys, flag):
        code = cli.main(["audit", "--data", str(micro_csv), flag, "1000"])
        assert code == cli.EXIT_CONFIG
        assert "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("feature", ["7", "-1"])
    def test_audit_feature_outside_columns_exits_2(self, micro_csv, capsys, feature):
        code = cli.main(["audit", "--data", str(micro_csv), "--feature", feature])
        assert code == cli.EXIT_CONFIG
        assert "not one of the 2 columns" in capsys.readouterr().err

    def test_audit_violation_exit_code(self, micro_csv, monkeypatch, capsys):
        failing = AuditReport(
            mechanism="feature", budget=1.0, worst_ratio=99.0, bound=math.e,
            passed=False, witness={}, neighbor_count=1,
        )
        monkeypatch.setattr(cli, "audit_feature_mechanism", lambda *a, **k: failing)
        code = cli.main(["audit", "--data", str(micro_csv), "--b1", "1.0"])
        capsys.readouterr()
        assert code == cli.EXIT_AUDIT

    def test_budget_from_estimation_size(self, capsys):
        code = cli.main(
            ["budget", "--epsilon", "1.0", "--trees", "1", "--min-leaf", "5",
             "--estimation-size", "50"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["d"] == 10
        assert doc["b1"] == pytest.approx(0.05)

    def test_budget_from_data(self, data_csv, capsys):
        code = cli.main(["budget", "--epsilon", "2.0", "--trees", "4", "--data", str(data_csv)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["epsilon"] == 2.0


class TestExitCodes:
    def test_missing_file_is_data_error(self, capsys):
        code = cli.main(["cv", "--data", "/nonexistent.csv"])
        capsys.readouterr()
        assert code == cli.EXIT_DATA

    def test_bad_config_is_config_error(self, data_csv, capsys):
        code = cli.main(["cv", "--data", str(data_csv), "--trees", "0"])
        capsys.readouterr()
        assert code == cli.EXIT_CONFIG

    def test_bad_cell_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\noops,a\n1.0,b\n", encoding="utf-8")
        code = cli.main(["cv", "--data", str(bad)])
        capsys.readouterr()
        assert code == cli.EXIT_DATA

    def test_console_entry_point(self, data_csv, tmp_path):
        model = tmp_path / "m.json"
        proc = subprocess.run(
            [sys.executable, "-m", "mrforest.cli", "train", "--data", str(data_csv),
             "--trees", "2", "--out", str(model)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert model.exists()
