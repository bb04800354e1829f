"""End-to-end CLI behavior and exit codes."""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import mrforest.cli as cli
import mrforest.harness as harness
from mrforest.data import load_dataset, partition
from mrforest.forest import load_forest, predict_batch, train_mrf
from mrforest.harness import TreeDistReport, emit_report
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

    @pytest.mark.parametrize(
        ("command", "flags", "refusal"),
        [
            pytest.param(
                "train", ["--method", "breiman", "--epsilon", "0.5"],
                "--epsilon does not apply to --method breiman", id="train",
            ),
            pytest.param(
                "cv", ["--method", "breiman", "--epsilon", "0.5"],
                "--epsilon does not apply to --method breiman", id="cv",
            ),
            pytest.param(
                "train", ["--method", "breiman", "--max-depth", "2"],
                "--max-depth does not apply to --method breiman", id="train-breiman-max-depth",
            ),
            pytest.param(
                "cv", ["--method", "breiman", "--max-depth", "2"],
                "--max-depth does not apply to --method breiman", id="cv-breiman-max-depth",
            ),
            pytest.param(
                "train", ["--method", "mrf", "--mtry", "3"],
                "--mtry does not apply to --method mrf", id="train-mrf-mtry",
            ),
            pytest.param(
                "train", ["--method", "mrf", "--no-bootstrap"],
                "--no-bootstrap does not apply to --method mrf", id="train-mrf-no-bootstrap",
            ),
            pytest.param(
                "train", ["--method", "completely_random", "--mtry", "1"],
                "--mtry does not apply to --method completely_random",
                id="train-completely-random-mtry",
            ),
            pytest.param(
                "train", ["--method", "completely_random", "--b1", "5", "--b2", "7"],
                "--b1 does not apply to --method completely_random",
                id="train-completely-random-b1",
            ),
            pytest.param(
                "train", ["--method", "breiman", "--b3", "2", "--partition-rate", "3"],
                "--b3 does not apply to --method breiman", id="train-breiman-b3",
            ),
            pytest.param(
                "train", ["--epsilon", "1", "--max-depth", "3", "--b1", "4"],
                "--b1 does not apply to --epsilon", id="train-epsilon-b1",
            ),
            pytest.param(
                "train", ["--budget-split", "0.9"],
                "--budget-split does not apply to runs without --epsilon",
                id="train-budget-split-without-epsilon",
            ),
            pytest.param(
                "tree-dist", ["--budget-split", "0.2"],
                "--budget-split does not apply to runs without --epsilon",
                id="tree-dist-budget-split-without-epsilon",
            ),
            pytest.param(
                "cv", ["--method", "breiman", "--b1", "3"],
                "--b1 does not apply to --method breiman", id="cv-breiman-b1",
            ),
            pytest.param(
                "cv", ["--method", "completely_random", "--b2", "3"],
                "--b2 does not apply to --method completely_random",
                id="cv-completely-random-b2",
            ),
            pytest.param(
                "sweep", ["--b1", "5", "--b1-grid", "0,1", "--b2-grid", "1"],
                "--b1 does not apply to sweep", id="sweep-b1",
            ),
            pytest.param(
                "budget", ["--epsilon", "1", "--estimation-size", "30", "--partition-rate", "3"],
                "--partition-rate does not apply to --estimation-size",
                id="budget-estimation-size-partition-rate",
            ),
        ],
    )
    def test_epsilon_with_breiman_exits_2(self, tmp_path, capsys, command, flags, refusal):
        # a flag the run never reads is refused before the data is read:
        # the data file does not exist
        out = tmp_path / "out.json"
        code = cli.main(
            [command, "--data", str(tmp_path / "absent.csv"), "--trees", "2", *flags,
             "--out", str(out)]
        )
        assert code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert refusal in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_every_config_flag_defaults_to_none_and_is_in_the_table(self):
        # a config flag with a default could not be told apart from a given
        # one, and a flag outside the table would be read or dropped unchecked
        command_flags = {
            "-h", "--help", "--method", "--folds", "--repeats", "--jobs", "--b1-grid",
            "--b2-grid", "--holdout", "--eval-seed", "--format", "--out",
        }
        subparsers = next(
            action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        checked = set()
        for command, parser in subparsers.choices.items():
            if command in ("predict", "audit"):
                continue  # they build no config
            for action in parser._actions:
                flag = action.option_strings[-1]
                if flag in command_flags:
                    continue
                assert action.default is None, (command, flag)
                assert cli._FLAGS[flag].field == action.dest, (command, flag)
                checked.add(flag)
        assert checked == set(cli._FLAGS)

    def test_breiman_variant(self, data_csv, tmp_path):
        model = tmp_path / "model.json"
        code = cli.main(
            ["train", "--data", str(data_csv), "--method", "breiman", "--trees", "3",
             "--out", str(model)]
        )
        assert code == 0
        assert json.loads(model.read_text())["variant"] == "breiman"


@pytest.fixture
def model_json(data_csv, tmp_path):
    model = tmp_path / "model.json"
    assert cli.main(["train", "--data", str(data_csv), "--trees", "5", "--out", str(model)]) == 0
    return model


def _predict(model, rows, tmp_path, *flags) -> tuple[int, dict]:
    out = tmp_path / "pred.json"
    out.unlink(missing_ok=True)
    code = cli.main(["predict", "--model", str(model), "--data", str(rows), *flags, "--out", str(out)])
    return code, json.loads(out.read_text()) if code == cli.EXIT_OK else {}


def _library_accuracy(model, scored) -> float:
    """Accuracy of the saved model on ``scored``, with classes matched by label value."""
    forest = load_forest(model)
    dataset = load_dataset(scored, label_col="label")
    classes, _ = predict_batch(forest, dataset.features, np.random.default_rng(0))
    predicted = np.array(forest.label_values)[classes]
    return float(np.mean(predicted == np.array(dataset.label_values)[dataset.labels]))


# every case is malformed in column f0 and otherwise a valid table of two labels
MALFORMED = {
    "ragged": (b"f0,f1\n0.5,0.5\n0.7\n", "row 2: expected 2 cells, got 1"),
    "non-number": (b"f0,f1\n0.5,0.5\noops,1.5\n", "row 2, column 'f0': cannot parse 'oops'"),
    "nan": (b"f0,f1\n0.5,0.5\nnan,1.5\n", "row 2, column 'f0': non-finite value 'nan'"),
    "inf": (b"f0,f1\n0.5,0.5\n-inf,1.5\n", "row 2, column 'f0': non-finite value '-inf'"),
    "header-only": (b"f0,f1\n", "input has no data rows"),
    "empty": (b"", "input has no header row"),
    "not-utf8": (
        b"f0,f1\n0.5,0.5\n\xff,1.5\n",
        "unreadable table: 'utf-8' codec can't decode byte 0xff in position 14: invalid start byte",
    ),
    "oversized-cell": (
        b'f0,f1\n0.5,0.5\n"' + b"1" * 200_000 + b'",1.5\n',
        "unreadable table: field larger than field limit (131072)",
    ),
}


class TestOneTableReader:
    """Training and prediction read every CSV through the same table reader."""

    def test_scored_labels_match_by_value_not_first_appearance(self, data_csv, model_json, tmp_path, capsys):
        header, *rows = data_csv.read_text(encoding="utf-8").splitlines()
        reordered = tmp_path / "reordered.csv"
        reordered.write_text("\n".join([header, *rows[::-1]]) + "\n", encoding="utf-8")
        assert rows[0].endswith(",no") and rows[-1].endswith(",yes")
        code, result = _predict(model_json, reordered, tmp_path, "--label-col", "label")
        assert code == cli.EXIT_OK
        assert result["accuracy"] == _library_accuracy(model_json, reordered)
        assert result["accuracy"] >= 0.95
        _, original = _predict(model_json, data_csv, tmp_path, "--label-col", "label")
        assert result["accuracy"] == original["accuracy"]

    def test_scored_file_with_one_label(self, data_csv, model_json, tmp_path):
        header, *rows = data_csv.read_text(encoding="utf-8").splitlines()
        only_yes = tmp_path / "yes.csv"
        only_yes.write_text("\n".join([header, *(r for r in rows if r.endswith(",yes"))]) + "\n")
        code, result = _predict(model_json, only_yes, tmp_path, "--label-col", "label")
        assert code == cli.EXIT_OK
        assert result["accuracy"] == np.mean(np.array(result["predictions"]) == "yes")

    def test_scored_label_the_model_never_saw_is_a_miss(self, data_csv, model_json, tmp_path):
        header, *rows = data_csv.read_text(encoding="utf-8").splitlines()
        unseen = tmp_path / "unseen.csv"
        unseen.write_text("\n".join([header, rows[0].rsplit(",", 1)[0] + ",maybe", *rows[1:]]) + "\n")
        code, result = _predict(model_json, unseen, tmp_path, "--label-col", "label")
        assert code == cli.EXIT_OK
        _, original = _predict(model_json, data_csv, tmp_path, "--label-col", "label")
        hits = np.array(original["predictions"]) == [r.rsplit(",", 1)[1] for r in rows]
        hits[0] = False
        assert result["accuracy"] == np.mean(hits)

    @pytest.mark.parametrize(
        "where, blank",
        [("leading", ""), ("leading", "   \t"), ("inner", "   \t")],
        ids=["leading-blank-line", "leading-whitespace-line", "inner-whitespace-line"],
    )
    def test_blank_lines_are_skipped_by_every_command(self, data_csv, model_json, tmp_path, blank, where):
        header, *rows = data_csv.read_text(encoding="utf-8").splitlines()
        lines = [blank, header, *rows] if where == "leading" else [header, rows[0], blank, *rows[1:]]
        padded = tmp_path / "padded.csv"
        padded.write_text("\n".join(lines) + "\n", encoding="utf-8")
        features_only = tmp_path / "features.csv"
        features_only.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n")
        _, expected = _predict(model_json, data_csv, tmp_path, "--label-col", "label")

        assert _predict(model_json, padded, tmp_path, "--label-col", "label") == (cli.EXIT_OK, expected)
        code, result = _predict(model_json, features_only, tmp_path)
        assert (code, result["predictions"]) == (cli.EXIT_OK, expected["predictions"])
        retrained = tmp_path / "retrained.json"
        assert cli.main(["train", "--data", str(padded), "--trees", "5", "--out", str(retrained)]) == 0
        assert retrained.read_bytes() == model_json.read_bytes()

    @pytest.mark.parametrize("text, message", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_table_exits_3_through_train_and_predict(
        self, model_json, tmp_path, capsys, text, message
    ):
        table = tmp_path / "bad.csv"
        table.write_bytes(text)
        capsys.readouterr()
        out = tmp_path / "out.json"
        train = ["train", "--data", str(table), "--trees", "2", "--out", str(out)]
        predict = ["predict", "--model", str(model_json), "--data", str(table), "--out", str(out)]
        for argv in (train, predict):
            assert cli.main(argv) == cli.EXIT_DATA
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()

    @pytest.mark.parametrize("delimiter", (";;", ""), ids=("two-characters", "empty"))
    def test_delimiter_of_other_than_one_character_exits_2(
        self, data_csv, model_json, tmp_path, capsys, delimiter
    ):
        capsys.readouterr()
        out = tmp_path / "out.json"
        flag = ["--delimiter", delimiter, "--out", str(out)]
        train = ["train", "--data", str(data_csv), "--trees", "2", *flag]
        predict = ["predict", "--model", str(model_json), "--data", str(data_csv), *flag]
        for argv in (train, predict):
            assert cli.main(argv) == cli.EXIT_CONFIG
            assert "delimiter must be one character" in capsys.readouterr().err
            assert not out.exists()

    def test_predict_takes_no_format_flag(self, data_csv, model_json, capsys):
        argv = ["predict", "--model", str(model_json), "--data", str(data_csv), "--format", "csv"]
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == cli.EXIT_CONFIG
        assert "--format" in capsys.readouterr().err


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
        # the report rebuilt from one prediction with the same seed
        args = cli.build_parser().parse_args(argv)
        dataset = load_dataset(data_csv)
        rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(99,)))
        holdout = partition(dataset, (1.0 - 0.3) / 0.3, rng)
        forest = train_mrf(
            dataset.subset(holdout.structure_idx),
            cli._config_from_args(args),
        )
        test_x = dataset.features[holdout.estimation_idx]
        test_y = dataset.labels[holdout.estimation_idx]
        classes, votes = predict_batch(forest, test_x, np.random.default_rng(5))
        accs = (votes == test_y).mean(axis=1)
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

    def test_audit_takes_no_format_flag(self, micro_csv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["audit", "--data", str(micro_csv), "--format", "csv"])
        assert exit_info.value.code == cli.EXIT_CONFIG
        assert "--format" in capsys.readouterr().err

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

    @pytest.mark.parametrize("rate", ["nan", "inf", "-1"])
    def test_budget_bad_partition_rate_exits_2(self, data_csv, capsys, rate):
        code = cli.main(
            ["budget", "--epsilon", "1.0", "--data", str(data_csv), "--partition-rate", rate]
        )
        assert code == cli.EXIT_CONFIG
        # checked by MrfConfig, as for train
        assert "partition_rate must be positive and finite" in capsys.readouterr().err

    def test_budget_nan_epsilon_exits_2(self, capsys):
        code = cli.main(["budget", "--epsilon", "nan", "--estimation-size", "10"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONFIG
        assert captured.out == ""
        assert "epsilon must be positive" in captured.err

    def test_budget_infinite_epsilon_exits_2(self, capsys):
        # "Infinity" is not JSON: the budget must fail before anything is printed
        code = cli.main(["budget", "--epsilon", "inf", "--estimation-size", "10"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONFIG
        assert captured.out == ""
        assert "epsilon must be positive and finite" in captured.err

    def test_train_infinite_epsilon_exits_2(self, data_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        code = cli.main(["train", "--data", str(data_csv), "--epsilon", "inf", "--out", str(model)])
        assert code == cli.EXIT_CONFIG
        assert not model.exists()
        assert "epsilon must be positive and finite" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_file_is_data_error(self, capsys):
        code = cli.main(["cv", "--data", "/nonexistent.csv"])
        capsys.readouterr()
        assert code == cli.EXIT_DATA

    def test_bad_config_is_config_error(self, data_csv, capsys):
        code = cli.main(["cv", "--data", str(data_csv), "--trees", "0"])
        capsys.readouterr()
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("rate", ["nan", "inf", "-1"])
    def test_train_bad_partition_rate_exits_2(self, data_csv, tmp_path, capsys, rate):
        model = tmp_path / "m.json"
        code = cli.main(
            ["train", "--data", str(data_csv), "--partition-rate", rate, "--out", str(model)]
        )
        assert code == cli.EXIT_CONFIG
        assert "partition_rate must be positive and finite" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("command", ["cv", "sweep"])
    @pytest.mark.parametrize(
        "flag, value",
        [("--folds", "1"), ("--folds", "0"), ("--repeats", "0"), ("--jobs", "0"), ("--jobs", "-1")],
    )
    def test_bad_cv_count_flag_exits_2(self, data_csv, capsys, command, flag, value):
        grids = ["--b1-grid", "1", "--b2-grid", "1"] if command == "sweep" else []
        code = cli.main([command, "--data", str(data_csv), "--trees", "2", *grids, flag, value])
        assert code == cli.EXIT_CONFIG
        assert f"{flag} must be >=" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["cv", "sweep"])
    def test_more_folds_than_rows_exits_3(self, data_csv, capsys, command):
        grids = ["--b1-grid", "1", "--b2-grid", "1"] if command == "sweep" else []
        code = cli.main([command, "--data", str(data_csv), "--trees", "2", *grids, "--folds", "81"])
        assert code == cli.EXIT_DATA
        assert "folds must satisfy" in capsys.readouterr().err

    @pytest.mark.parametrize("folds", [2, 3])
    def test_cv_epsilon_sizes_budgets_for_the_smallest_training_fold(
        self, data_csv, tmp_path, monkeypatch, capsys, folds
    ):
        # each cell gets the budgets and depth cap that train gives n - ceil(n / folds) rows
        configs = []
        train = harness._train_for_method
        monkeypatch.setattr(
            harness,
            "_train_for_method",
            lambda dataset, method, config: configs.append(config) or train(dataset, method, config),
        )
        flags = ["--epsilon", "4", "--trees", "2"]
        argv = ["cv", "--data", str(data_csv), *flags, "--folds", str(folds), "--repeats", "1"]
        assert cli.main(argv) == cli.EXIT_OK
        header, *rows = data_csv.read_text(encoding="utf-8").splitlines()
        smallest = tmp_path / "smallest.csv"
        smallest.write_text("\n".join([header, *rows[: 80 * (folds - 1) // folds]]) + "\n")
        model = tmp_path / "m.json"
        assert cli.main(["train", "--data", str(smallest), *flags, "--out", str(model)]) == 0
        expected = replace(load_forest(model).config, seed=0)
        assert [replace(config, seed=0) for config in configs] == [expected] * folds

    def test_corrupt_model_config_exits_3(self, data_csv, model_json, tmp_path, capsys):
        doc = json.loads(model_json.read_text())
        doc["config"]["k"] = 0
        model_json.write_text(json.dumps(doc))
        capsys.readouterr()
        code = cli.main(["predict", "--model", str(model_json), "--data", str(data_csv)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_DATA
        assert "invalid model config: k must be >= 1, got 0" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, flag, extra",
        [
            ("train", "--seed", ["--out"]),
            ("cv", "--seed", []),
            ("sweep", "--seed", ["--b1-grid", "1", "--b2-grid", "1"]),
            ("tree-dist", "--seed", []),
            ("tree-dist", "--eval-seed", []),
        ],
    )
    def test_negative_seed_exits_2(self, data_csv, tmp_path, capsys, command, flag, extra):
        # an absent data file would exit 3: the seed is checked before any read
        model = tmp_path / "m.json"
        extra = [*extra, str(model)] if extra == ["--out"] else extra
        for data in (data_csv, tmp_path / "absent.csv"):
            code = cli.main([command, "--data", str(data), "--trees", "2", flag, "-1", *extra])
            assert code == cli.EXIT_CONFIG
            captured = capsys.readouterr()
            assert f"{flag} must be >= 0, got -1" in captured.err
            assert captured.out == ""
        assert not model.exists()

    def test_predict_negative_eval_seed_exits_2(self, data_csv, tmp_path, capsys):
        # a finite-b3 model draws its votes from the eval seed's rng
        model = tmp_path / "m.json"
        train = ["train", "--data", str(data_csv), "--trees", "2", "--b3", "1", "--out", str(model)]
        assert cli.main(train) == 0
        capsys.readouterr()
        out = tmp_path / "pred.json"
        code = cli.main(
            ["predict", "--model", str(model), "--data", str(data_csv), "--label-col", "label",
             "--eval-seed", "-1", "--out", str(out)]
        )
        assert code == cli.EXIT_CONFIG
        assert "--eval-seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_exits_3(self, data_csv, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        code = cli.main(
            ["cv", "--data", str(data_csv), "--trees", "2", "--folds", "2", "--repeats", "1",
             "--out", str(out)]
        )
        assert code == cli.EXIT_DATA
        assert f"cannot write {out}" in capsys.readouterr().err
        assert not out.parent.exists()

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
