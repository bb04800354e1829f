"""Command-line interface: train, predict, cv, sweep, audit, budget, tree-dist.

Exit codes: 0 success, 2 configuration error, 3 data error (bad rows or a
corrupt model included), 4 a privacy audit bound was violated.

The config flags have no parser defaults: a config is built from the given
flags only, so each default lives once, in :class:`MrfConfig`,
:class:`BaselineConfig` or :func:`allocate_budget`. ``_FLAGS`` says which runs
read each flag, and a given flag that the run does not read exits 2 before
any data is read.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any

import numpy as np

from . import errors
from .data import (
    Dataset,
    label_position,
    load_dataset,
    parse_features,
    partition,
    read_table,
    structure_size,
)
from .forest import (
    BaselineConfig,
    MrfConfig,
    load_forest,
    predict_batch,
    save_forest,
    train_mrf,
)
from .harness import METHODS, _train_for_method, emit_report, run_cv, sweep, TreeDistReport
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

_FORESTS = ("train", "cv", "sweep", "tree-dist")
_SIZED = (*_FORESTS, "budget")  # the commands that build a config; all take --trees
_PRIVATE = ("train", "cv", "tree-dist", "budget")
_MULTINOMIAL = ("mrf", "completely_random")


@dataclass(frozen=True)
class _Reads:
    """The runs that read a flag: its commands and methods, and the flag
    that must be given (``needs``) or absent (``unless``) for it to be read.
    ``field`` is the flag's parser dest: the config field or
    :func:`allocate_budget` argument it sets."""

    field: str
    commands: tuple[str, ...] = _FORESTS
    methods: tuple[str, ...] = METHODS
    needs: str | None = None
    unless: str | None = None


# Who reads what. A run is the command, the method (tree-dist and sweep
# train mrf) and whether --epsilon (for budget, --estimation-size) is given.
# --epsilon sets b1, b2, b3 and the depth cap; sweep's grids set b1 and b2;
# --budget-split only divides b1 from b2. predict and audit build no config.
_FLAGS = {
    "--trees": _Reads("t", _SIZED),
    "--min-leaf": _Reads("k", _SIZED),
    "--seed": _Reads("seed"),
    "--criterion": _Reads("criterion"),
    "--b1": _Reads("b1", ("train", "cv", "tree-dist"), ("mrf",), unless="--epsilon"),
    "--b2": _Reads("b2", ("train", "cv", "tree-dist"), ("mrf",), unless="--epsilon"),
    "--b3": _Reads("b3", methods=_MULTINOMIAL, unless="--epsilon"),
    "--max-depth": _Reads("max_depth", methods=_MULTINOMIAL, unless="--epsilon"),
    "--partition-rate": _Reads("partition_rate", _SIZED, _MULTINOMIAL, unless="--estimation-size"),
    "--epsilon": _Reads("epsilon", _PRIVATE, _MULTINOMIAL),
    "--budget-split": _Reads("split", _PRIVATE, ("mrf",), needs="--epsilon"),
    "--mtry": _Reads("mtry", ("train",), ("breiman",)),
    "--no-bootstrap": _Reads("bootstrap", ("train",), ("breiman",)),
    "--estimation-size": _Reads("estimation_size", ("budget",)),
    "--data": _Reads("data", _SIZED, unless="--estimation-size"),
    "--label-col": _Reads("label_col", _SIZED, unless="--estimation-size"),
    "--delimiter": _Reads("delimiter", _SIZED, unless="--estimation-size"),
}


def _refuse_unread(args: argparse.Namespace) -> None:
    """Refuse, before any data is read, a given flag that the run does not read."""
    if args.command not in _SIZED:
        return
    method = getattr(args, "method", "mrf")
    given = [flag for flag, reads in _FLAGS.items() if getattr(args, reads.field, None) is not None]
    for flag in given:
        reads = _FLAGS[flag]
        if args.command not in reads.commands:
            reason = args.command
        elif method not in reads.methods:
            reason = f"--method {method}"
        elif reads.unless in given:
            reason = reads.unless
        elif reads.needs is not None and reads.needs not in given:
            reason = f"runs without {reads.needs}"
        else:
            continue
        raise errors.ConfigError(f"{flag} does not apply to {reason}")


def _given(args: argparse.Namespace, *names: str) -> dict[str, Any]:
    """The named flags that were given; one left out keeps the library default."""
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def _config_from_args(args: argparse.Namespace) -> MrfConfig | BaselineConfig:
    """The run's config, built from the given flags only."""
    cls = BaselineConfig if getattr(args, "method", "mrf") == "breiman" else MrfConfig
    return cls(**_given(args, *(field.name for field in fields(cls))))


def _allocate(args: argparse.Namespace, config: MrfConfig, n: int | None = None):
    """--epsilon's budget for ``n`` training rows, or for --estimation-size rows per tree."""
    estimation = args.estimation_size if n is None else n - structure_size(n, config.partition_rate)
    return allocate_budget(args.epsilon, config.t, estimation, config.k, **_given(args, "split"))


def _with_epsilon(args: argparse.Namespace, config: MrfConfig | BaselineConfig, n: int):
    """``config`` with the budgets and depth cap that a given --epsilon allocates to ``n`` rows."""
    if args.epsilon is None:
        return config
    budget = _allocate(args, config, n)
    return replace(config, b1=budget.b1, b2=budget.b2, b3=budget.b3, max_depth=budget.d)


def _label_col(text: str) -> str | int:
    try:
        return int(text)
    except ValueError:
        return text


def _grid(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _add_data_flags(
    parser: argparse.ArgumentParser,
    label_help: str = "label column name or index (default: last column)",
    required: bool = True,
) -> None:
    data = "CSV file with a header row; blank lines skipped"
    parser.add_argument("--data", required=required, help=data)
    parser.add_argument("--label-col", type=_label_col, help=label_help)
    parser.add_argument("--delimiter", help="cell delimiter, one character (default ,)")


def _add_size_flags(parser: argparse.ArgumentParser, data_required: bool = True) -> None:
    """The table's flags that budget shares with the forest commands."""
    _add_data_flags(parser, required=data_required)
    parser.add_argument("--trees", dest="t", type=int, help="ensemble size t")
    parser.add_argument("--min-leaf", dest="k", type=int, help="minimum estimation rows per leaf k")
    parser.add_argument("--partition-rate", type=float, help="|structure| / |estimation| ratio")
    split = "fraction of each layer's budget given to feature selection"
    parser.add_argument("--budget-split", dest="split", type=float, help=split)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """Every flag of the table that a forest command takes."""
    _add_size_flags(parser)
    parser.add_argument("--b1", type=float, help="feature-selection budget (or 'inf')")
    parser.add_argument("--b2", type=float, help="value-selection budget (or 'inf')")
    parser.add_argument("--b3", type=float, help="label-selection budget (or 'inf')")
    parser.add_argument("--criterion", choices=("gini", "entropy"))
    parser.add_argument("--max-depth", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument(
        "--epsilon",
        type=float,
        help=(
            "total privacy budget; sets b1, b2, b3 and the depth cap, so --b1, --b2, --b3 "
            "and --max-depth are refused with it (not for breiman or sweep). "
            "The differential-privacy guarantee does not hold for the pipeline as "
            "implemented: (a) estimation rows gate splits; (b) a search's up to 15 draws "
            "are charged as two; (c) thresholds are data midpoints; (d) finite-b3 "
            "prediction spends b3 on every query; (e) models store exact leaf counts; "
            "(f) the feature audit scores a law that training does not draw"
        ),
    )


def _add_out_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_report_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    _add_out_flag(parser)


def _add_cv_flags(parser: argparse.ArgumentParser, folds: int, repeats: int) -> None:
    parser.add_argument("--folds", type=int, default=folds)
    parser.add_argument("--repeats", type=int, default=repeats)
    parser.add_argument("--jobs", type=int, default=1)
    _add_report_flags(parser)


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
    return load_dataset(args.data, **_given(args, "label_col", "delimiter"))


def _cmd_train(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    dataset = _load(args)
    forest = _train_for_method(dataset, args.method, _with_epsilon(args, config, dataset.n))
    save_forest(forest, args.out)
    summary = {
        "model": str(args.out),
        "variant": forest.variant,
        "trees": len(forest.trees),
        "classes": forest.class_count,
        "max_tree_depth": forest.trees.depth,
    }
    sys.stdout.write(json.dumps(summary) + "\n")
    return EXIT_OK


def _cmd_predict(args: argparse.Namespace) -> int:
    forest = load_forest(args.model)
    header, rows = read_table(args.data, **_given(args, "delimiter"))
    label_pos = None if args.label_col is None else label_position(header, args.label_col)
    features = parse_features(header, rows, [i for i in range(len(header)) if i != label_pos])
    classes, _ = predict_batch(forest, features, np.random.default_rng(args.eval_seed))
    predictions = [forest.label_values[c] for c in classes]
    result = {"predictions": predictions}
    if label_pos is not None:
        # matched by value, so a label the model never saw is a miss
        hits = [label == row[label_pos] for label, row in zip(predictions, rows)]
        result["accuracy"] = float(np.mean(hits))
    _write(json.dumps(result, indent=2), args.out)
    return EXIT_OK


def _check_cv_flags(args: argparse.Namespace) -> None:
    """Reject fold, repeat and worker counts that no dataset makes valid."""
    for flag, value, least in (
        ("--folds", args.folds, 2),
        ("--repeats", args.repeats, 1),
        ("--jobs", args.jobs, 1),
    ):
        if value < least:
            raise errors.ConfigError(f"{flag} must be >= {least}, got {value}")


def _cmd_cv(args: argparse.Namespace) -> int:
    """``cv``, and ``sweep``: every config on one fold plan, seeded by ``--seed``."""
    _check_cv_flags(args)
    config = _config_from_args(args)
    dataset = _load(args)
    if args.folds > dataset.n:  # make_folds' refusal, made before any budget is sized
        count = f"got folds={args.folds} n={dataset.n}"
        raise errors.SizeError(f"folds must satisfy 2 <= folds <= n, {count}")
    plan = dict(folds=args.folds, repeats=args.repeats, name=Path(args.data).stem, n_jobs=args.jobs)
    if args.command == "sweep":
        report = sweep(dataset, args.b1_grid, args.b2_grid, config, **plan)
    else:
        # --epsilon's budgets are sized for the smallest training fold, n - ceil(n / folds) rows
        smallest = dataset.n * (args.folds - 1) // args.folds
        report = run_cv(dataset, args.method, _with_epsilon(args, config, smallest), **plan)
    _write(emit_report(report, args.format), args.out)
    return EXIT_OK


def _cmd_audit(args: argparse.Namespace) -> int:
    micro = _load(args)
    neighborhood = enumerate_neighbors(micro)
    counts = ClassCounts.from_labels(micro.labels, micro.class_count)
    reports = [
        audit_feature_mechanism(micro, args.b1, args.criterion, neighborhood),
        audit_value_mechanism(micro, args.feature, args.b2, args.criterion, neighborhood),
        audit_label_mechanism(counts, args.b3),
    ]
    _write(json.dumps([r.to_dict() for r in reports], indent=2), args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_AUDIT


def _cmd_budget(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if args.estimation_size is None and args.data is None:
        raise errors.ConfigError("budget needs --estimation-size or --data")
    n = None if args.estimation_size is not None else _load(args).n
    _write(json.dumps(_allocate(args, config, n).__dict__, indent=2), args.out)
    return EXIT_OK


def _cmd_tree_dist(args: argparse.Namespace) -> int:
    if not 0.0 < args.holdout < 1.0:
        raise errors.ConfigError("--holdout must lie strictly between 0 and 1")
    config = _config_from_args(args)
    dataset = _load(args)
    rng = np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(99,))
    )
    holdout_part = partition(dataset, (1.0 - args.holdout) / args.holdout, rng)
    train_ds = dataset.subset(holdout_part.structure_idx)
    test_idx = holdout_part.estimation_idx
    forest = train_mrf(train_ds, _with_epsilon(args, config, train_ds.n))
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
    _add_config_flags(p_train)
    p_train.add_argument("--method", choices=METHODS, default="mrf")
    p_train.add_argument("--mtry", type=int, help="baseline features per node")
    p_train.add_argument("--no-bootstrap", dest="bootstrap", action="store_const", const=False)
    p_train.add_argument("--out", required=True, help="model file to write")
    p_train.set_defaults(func=_cmd_train)

    p_predict = sub.add_parser("predict", help="predict rows with a saved model")
    p_predict.add_argument("--model", required=True)
    _add_data_flags(
        p_predict,
        "label column to score: accuracy is the share of rows whose label equals the predicted"
        " label value, so a label the model never saw is a miss; omit for feature-only CSVs",
    )
    p_predict.add_argument("--eval-seed", type=int, default=0)
    _add_out_flag(p_predict)
    p_predict.set_defaults(func=_cmd_predict)

    p_cv = sub.add_parser("cv", help="repeated cross-validation benchmark")
    _add_config_flags(p_cv)
    p_cv.add_argument("--method", choices=METHODS, default="mrf")
    _add_cv_flags(p_cv, folds=10, repeats=10)
    p_cv.set_defaults(func=_cmd_cv)

    p_sweep = sub.add_parser("sweep", help="grid sweep over b1 and b2")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--b1-grid", type=_grid, required=True, help="comma list, e.g. 0,5,10")
    p_sweep.add_argument("--b2-grid", type=_grid, required=True)
    _add_cv_flags(p_sweep, folds=5, repeats=1)
    p_sweep.set_defaults(func=_cmd_cv)

    p_audit = sub.add_parser("audit", help="exhaustive privacy audits on a micro dataset")
    _add_data_flags(p_audit)
    p_audit.add_argument("--b1", type=float, default=1.0)
    p_audit.add_argument("--b2", type=float, default=1.0)
    p_audit.add_argument("--b3", type=float, default=1.0)
    p_audit.add_argument("--feature", type=int, default=0, help="feature for the value audit")
    p_audit.add_argument("--criterion", choices=("gini", "entropy"), default=MrfConfig.criterion)
    _add_out_flag(p_audit)
    p_audit.set_defaults(func=_cmd_audit)

    p_budget = sub.add_parser("budget", help="allocate a privacy budget")
    p_budget.add_argument("--epsilon", type=float, required=True)
    p_budget.add_argument("--estimation-size", type=int, help="estimation rows per tree")
    _add_size_flags(p_budget, data_required=False)
    _add_out_flag(p_budget)
    p_budget.set_defaults(func=_cmd_budget)

    p_dist = sub.add_parser("tree-dist", help="per-tree accuracy distribution")
    _add_config_flags(p_dist)
    p_dist.add_argument("--holdout", type=float, default=0.3)
    p_dist.add_argument("--eval-seed", type=int, default=0)
    _add_report_flags(p_dist)
    p_dist.set_defaults(func=_cmd_tree_dist)

    return parser


def _check_seeds(args: argparse.Namespace) -> None:
    """Reject negative seeds before any data is read; numpy seeds must be >= 0."""
    for flag, dest in (("--seed", "seed"), ("--eval-seed", "eval_seed")):
        value = getattr(args, dest, None)
        if value is not None and value < 0:
            raise errors.ConfigError(f"{flag} must be >= 0, got {value}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_seeds(args)
        _refuse_unread(args)
        return args.func(args)
    except (*_CONFIG_ERRORS, *_DATA_ERRORS) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG if isinstance(exc, _CONFIG_ERRORS) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
