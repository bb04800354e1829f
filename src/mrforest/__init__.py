"""Multinomial random forests with privacy budget allocation and auditing."""

from .data import Dataset, Partition, load_dataset, make_folds, partition
from .errors import MrfError
from .forest import (
    BaselineConfig,
    Forest,
    MrfConfig,
    load_forest,
    predict,
    predict_batch,
    save_forest,
    train_baseline_rf,
    train_mrf,
)
from .harness import (
    CvReport,
    SweepReport,
    average_ranks,
    emit_report,
    run_cv,
    sweep,
    wilcoxon_signed_rank,
)
from .impurity import ClassCounts
from .privacy import (
    AuditReport,
    PrivacyBudget,
    allocate_budget,
    audit_feature_mechanism,
    audit_label_mechanism,
    audit_value_mechanism,
    compose_budget,
)
from .splitsel import (
    feature_probability_bounds,
    select_feature,
    select_value,
    softmax_scaled,
    value_region_bound,
)
from .tree import Trees, TreeNode, build_tree

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "Partition",
    "load_dataset",
    "partition",
    "make_folds",
    "ClassCounts",
    "softmax_scaled",
    "select_feature",
    "select_value",
    "feature_probability_bounds",
    "value_region_bound",
    "Trees",
    "TreeNode",
    "build_tree",
    "MrfConfig",
    "BaselineConfig",
    "Forest",
    "train_mrf",
    "train_baseline_rf",
    "predict",
    "predict_batch",
    "save_forest",
    "load_forest",
    "PrivacyBudget",
    "AuditReport",
    "allocate_budget",
    "compose_budget",
    "audit_feature_mechanism",
    "audit_value_mechanism",
    "audit_label_mechanism",
    "CvReport",
    "SweepReport",
    "run_cv",
    "sweep",
    "wilcoxon_signed_rank",
    "average_ranks",
    "emit_report",
    "MrfError",
]
