"""Command-line interface: train, predict, cv, sweep, audit, budget, tree-dist.

Exit codes: 0 success, 2 configuration error, 3 data error (bad rows or a
corrupt model included), 4 a privacy audit bound was violated.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import errors
from .data import Dataset, load_dataset, partition, structure_size
from .forest import (
    BaselineConfig,
    MrfConfig,
    load_forest,
    predict_batch,
    save_forest,
    train_baseline_rf,
    train_mrf,
)
from .harness import emit_report, run_cv, sweep, TreeDistReport
from .impurity import ClassCounts
from .privacy import (
    allocate_budget,
    audit_feature_mechanism,
    audit_label_mechanism,
    audit_value_mechanism,
    enumerate_neighbors,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_AUDIT = 4

_CONFIG_ERRORS = (errors.ConfigError, errors.DomainError, errors.TooFewPairs)
_DATA_ERRORS = (
    errors.ParseError,
    errors.SchemaError,
    errors.EmptyError,
    errors.SizeError,
    errors.IoError,
    OSError,
)


def _budget_value(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    return float(text)


def _label_col(text: str | None) -> str | int | None:
    if text is None:
        return None
    try:
        return int(text)
    except ValueError:
        return text


def _grid(text: str) -> list[float]:
    return [_budget_value(part) for part in text.split(",") if part.strip()]


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="CSV file with a header row")
    parser.add_argument(
        "--label-col",
        default=None,
        help="label column name or index (default: last column)",
    )
    parser.add_argument("--delimiter", default=",", help="cell delimiter (default ,)")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trees", type=int, default=100, help="ensemble size t")
    parser.add_argument("--min-leaf", type=int, default=5, help="minimum estimation rows per leaf k")
    parser.add_argument("--b1", type=_budget_value, default=10.0, help="feature-selection budget (or 'inf')")
    parser.add_argument("--b2", type=_budget_value, default=10.0, help="value-selection budget (or 'inf')")
    parser.add_argument("--b3", type=_budget_value, default=math.inf, help="label-selection budget (or 'inf')")
    parser.add_argument("--partition-rate", type=float, default=1.0, help="|structure| / |estimation| ratio")
    parser.add_argument("--criterion", choices=("gini", "entropy"), default="gini")
    parser.add_argument("--max-depth", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="total privacy budget; overrides b1/b2/b3 and caps depth",
    )
    parser.add_argument(
        "--budget-split",
        type=float,
        default=0.5,
        help="fraction of each layer's budget given to feature selection",
    )


def _add_out_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def _config_from_args(args: argparse.Namespace, n: int | None = None) -> MrfConfig:
    config = MrfConfig(
        b1=args.b1,
        b2=args.b2,
        b3=args.b3,
        k=args.min_leaf,
        t=args.trees,
        partition_rate=args.partition_rate,
        criterion=args.criterion,
        max_depth=args.max_depth,
        seed=args.seed,
    )
    if args.epsilon is not None:
        if n is None:
            raise errors.ConfigError("--epsilon requires a dataset to size the depth cap")
        estimation = n - structure_size(n, args.partition_rate)
        budget = allocate_budget(
            args.epsilon, args.trees, estimation, args.min_leaf, args.budget_split
        )
        config = replace(config, b1=budget.b1, b2=budget.b2, b3=budget.b3, max_depth=budget.d)
    return config


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise errors.IoError(f"cannot write {out}: {exc}") from exc


def _load(args: argparse.Namespace) -> Dataset:
    return load_dataset(
        args.data, label_col=_label_col(args.label_col), delimiter=args.delimiter
    )


def _cmd_train(args: argparse.Namespace) -> int:
    dataset = _load(args)
    if args.method == "breiman":
        config = BaselineConfig(
            t=args.trees,
            k=args.min_leaf,
            mtry=args.mtry,
            bootstrap=not args.no_bootstrap,
            criterion=args.criterion,
            seed=args.seed,
        )
        forest = train_baseline_rf(dataset, config)
    else:
        config = _config_from_args(args, dataset.n)
        if args.method == "completely_random":
            config = replace(config, b1=0.0, b2=0.0)
        forest = train_mrf(dataset, config)
    save_forest(forest, args.out)
    summary = {
        "model": str(args.out),
        "variant": forest.variant,
        "trees": len(forest.trees),
        "classes": forest.class_count,
        "max_tree_depth": max(t.depth for t in forest.trees),
    }
    sys.stdout.write(json.dumps(summary) + "\n")
    return EXIT_OK


def _read_feature_rows(path: str, delimiter: str) -> np.ndarray:
    """Rows of a feature-only CSV after its header; ``predict_batch`` checks them."""
    with open(path, "r", newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle, delimiter=delimiter) if row][1:]
    if not rows:
        raise errors.EmptyError("input has no data rows")
    try:
        return np.array(rows, dtype=np.float64)
    except ValueError:  # a ragged row or a cell that is not a number
        raise errors.ParseError(f"{path}: every row must hold one number per column") from None


def _cmd_predict(args: argparse.Namespace) -> int:
    forest = load_forest(args.model)
    labels = None
    if args.label_col is not None:
        dataset = _load(args)
        features = dataset.features
        labels = dataset.labels if dataset.label_values == forest.label_values else None
    else:
        features = _read_feature_rows(args.data, args.delimiter)
    rng = np.random.default_rng(args.eval_seed)
    classes, _ = predict_batch(forest, features, rng)
    result = {
        "predictions": [forest.label_values[c] for c in classes],
    }
    if labels is not None:
        result["accuracy"] = float(np.mean(classes == labels))
    _write(json.dumps(result, indent=2), args.out)
    return EXIT_OK


def _cmd_cv(args: argparse.Namespace) -> int:
    dataset = _load(args)
    config = _config_from_args(args, dataset.n)
    report = run_cv(
        dataset,
        args.method,
        config,
        folds=args.folds,
        repeats=args.repeats,
        seed=args.seed,
        name=Path(args.data).stem,
        n_jobs=args.jobs,
    )
    _write(emit_report(report, args.format), args.out)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    dataset = _load(args)
    config = _config_from_args(args, dataset.n)
    report = sweep(
        dataset,
        args.b1_grid,
        args.b2_grid,
        config,
        folds=args.folds,
        repeats=args.repeats,
        seed=args.seed,
        name=Path(args.data).stem,
        n_jobs=args.jobs,
    )
    _write(emit_report(report, args.format), args.out)
    return EXIT_OK


def _cmd_audit(args: argparse.Namespace) -> int:
    micro = _load(args)
    neighborhood = enumerate_neighbors(micro)
    reports = [
        audit_feature_mechanism(micro, args.b1, args.criterion, neighborhood),
    ]
    feature = args.feature if args.feature is not None else 0
    reports.append(
        audit_value_mechanism(micro, feature, args.b2, args.criterion, neighborhood)
    )
    counts = ClassCounts.from_labels(micro.labels, micro.class_count)
    reports.append(audit_label_mechanism(counts, args.b3))
    _write(json.dumps([r.to_dict() for r in reports], indent=2), args.out)
    if not all(r.passed for r in reports):
        return EXIT_AUDIT
    return EXIT_OK


def _cmd_budget(args: argparse.Namespace) -> int:
    if args.estimation_size is not None:
        estimation = args.estimation_size
    elif args.data is not None:
        dataset = _load(args)
        estimation = dataset.n - structure_size(dataset.n, args.partition_rate)
    else:
        raise errors.ConfigError("budget needs --estimation-size or --data")
    budget = allocate_budget(
        args.epsilon, args.trees, estimation, args.min_leaf, args.budget_split
    )
    _write(json.dumps(budget.__dict__, indent=2), args.out)
    return EXIT_OK


def _cmd_tree_dist(args: argparse.Namespace) -> int:
    if not 0.0 < args.holdout < 1.0:
        raise errors.ConfigError("--holdout must lie strictly between 0 and 1")
    dataset = _load(args)
    rng = np.random.default_rng(
        np.random.SeedSequence(args.seed, spawn_key=(99,))
    )
    holdout_part = partition(dataset, (1.0 - args.holdout) / args.holdout, rng)
    train_ds = dataset.subset(holdout_part.structure_idx)
    test_idx = holdout_part.estimation_idx
    config = _config_from_args(args, train_ds.n)
    forest = train_mrf(train_ds, config)
    test_labels = dataset.labels[test_idx]
    classes, votes = predict_batch(
        forest, dataset.features[test_idx], np.random.default_rng(args.eval_seed)
    )
    report = TreeDistReport(
        dataset=Path(args.data).stem,
        method="mrf",
        accuracies=tuple(float(a) for a in (votes == test_labels).mean(axis=1)),
        forest_accuracy=float(np.mean(classes == test_labels)),
    )
    _write(emit_report(report, args.format), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrforest",
        description="Multinomial random forests with privacy budget auditing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a forest and save the model")
    _add_data_flags(p_train)
    _add_config_flags(p_train)
    p_train.add_argument(
        "--method", choices=("mrf", "breiman", "completely_random"), default="mrf"
    )
    p_train.add_argument("--mtry", type=int, default=None, help="baseline features per node")
    p_train.add_argument("--no-bootstrap", action="store_true")
    p_train.add_argument("--out", required=True, help="model file to write")
    p_train.set_defaults(func=_cmd_train)

    p_predict = sub.add_parser("predict", help="predict rows with a saved model")
    p_predict.add_argument("--model", required=True)
    _add_data_flags(p_predict)
    p_predict.add_argument("--eval-seed", type=int, default=0)
    _add_out_flags(p_predict)
    p_predict.set_defaults(func=_cmd_predict)
    # predict treats --label-col as optional scoring info, not a requirement
    for action in p_predict._actions:
        if action.dest == "label_col":
            action.help = "label column for accuracy scoring; omit for feature-only CSVs"

    p_cv = sub.add_parser("cv", help="repeated cross-validation benchmark")
    _add_data_flags(p_cv)
    _add_config_flags(p_cv)
    p_cv.add_argument(
        "--method", choices=("mrf", "breiman", "completely_random"), default="mrf"
    )
    p_cv.add_argument("--folds", type=int, default=10)
    p_cv.add_argument("--repeats", type=int, default=10)
    p_cv.add_argument("--jobs", type=int, default=1)
    _add_out_flags(p_cv)
    p_cv.set_defaults(func=_cmd_cv)

    p_sweep = sub.add_parser("sweep", help="grid sweep over b1 and b2")
    _add_data_flags(p_sweep)
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--b1-grid", type=_grid, required=True, help="comma list, e.g. 0,5,10")
    p_sweep.add_argument("--b2-grid", type=_grid, required=True)
    p_sweep.add_argument("--folds", type=int, default=5)
    p_sweep.add_argument("--repeats", type=int, default=1)
    p_sweep.add_argument("--jobs", type=int, default=1)
    _add_out_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_audit = sub.add_parser("audit", help="exhaustive privacy audits on a micro dataset")
    _add_data_flags(p_audit)
    p_audit.add_argument("--b1", type=float, default=1.0)
    p_audit.add_argument("--b2", type=float, default=1.0)
    p_audit.add_argument("--b3", type=float, default=1.0)
    p_audit.add_argument("--feature", type=int, default=None, help="feature for the value audit")
    p_audit.add_argument("--criterion", choices=("gini", "entropy"), default="gini")
    _add_out_flags(p_audit)
    p_audit.set_defaults(func=_cmd_audit)

    p_budget = sub.add_parser("budget", help="allocate a privacy budget")
    p_budget.add_argument("--epsilon", type=float, required=True)
    p_budget.add_argument("--trees", type=int, default=100)
    p_budget.add_argument("--min-leaf", type=int, default=5)
    p_budget.add_argument("--estimation-size", type=int, default=None)
    p_budget.add_argument("--data", default=None)
    p_budget.add_argument("--label-col", default=None)
    p_budget.add_argument("--delimiter", default=",")
    p_budget.add_argument("--partition-rate", type=float, default=1.0)
    p_budget.add_argument("--budget-split", type=float, default=0.5)
    p_budget.add_argument("--out", default=None)
    p_budget.set_defaults(func=_cmd_budget)

    p_dist = sub.add_parser("tree-dist", help="per-tree accuracy distribution")
    _add_data_flags(p_dist)
    _add_config_flags(p_dist)
    p_dist.add_argument("--holdout", type=float, default=0.3)
    p_dist.add_argument("--eval-seed", type=int, default=0)
    _add_out_flags(p_dist)
    p_dist.set_defaults(func=_cmd_tree_dist)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except _DATA_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
