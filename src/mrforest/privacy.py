"""Privacy budget allocation and exhaustive mechanism audits.

The budget math follows the per-tree accounting: the two split mechanisms
compose sequentially across a tree's layers, structure and estimation phases
compose in parallel (max), and trees compose sequentially again.

The auditors check the exponential-mechanism ratio bound directly: enumerate
every neighbor of a micro-dataset (one record replaced from a grid, or one
record removed), compute both output distributions in closed form, and report
the worst probability ratio against e^B. Output spaces are held fixed across
neighbors; where a neighbor would naturally induce a different candidate
threshold set, the auditor counts the mismatch instead of hiding it.

Neighbors are stored batched: one stacked (N, m, D) feature block and (N, m)
label block per row count, replace-one neighbors keeping all n rows and
remove-one neighbors n - 1. Each neighbor's arrays in
``Neighborhood.neighbors`` are views into those blocks, listed in
enumeration order. An audit scores a whole block in one pass (one
:func:`scan_features` call over every neighbor's sorted feature rows, or one
batched matrix product over the threshold grid), turns the (N, outputs)
score matrix into selection probabilities row by row, and takes the worst
ratio over the matrix; the witness is the first neighbor in enumeration
order that reaches it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from .data import Dataset
from .errors import DomainError, SizeError
from .impurity import ClassCounts, _impurity, cut_points, scan_features
from .splitsel import selection_cdfs, softmax_scaled

__all__ = [
    "PrivacyBudget",
    "AuditReport",
    "Neighborhood",
    "allocate_budget",
    "compose_budget",
    "enumerate_neighbors",
    "audit_feature_mechanism",
    "audit_value_mechanism",
    "audit_label_mechanism",
]

# Exhaustive enumeration stays cheap only for genuinely tiny datasets.
_MAX_AUDIT_ROWS = 32

_PASS_SLACK = 1e-9


@dataclass(frozen=True)
class PrivacyBudget:
    """Total budget epsilon split across t trees and d layers per tree."""

    epsilon: float
    t: int
    d: int
    b1: float
    b2: float
    b3: float


@dataclass(frozen=True)
class AuditReport:
    mechanism: str
    budget: float
    worst_ratio: float
    bound: float
    passed: bool
    witness: dict[str, Any]
    neighbor_count: int
    candidate_mismatches: int = 0

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def allocate_budget(
    epsilon: float, t: int, estimation_size: int, k: int, split: float = 0.5
) -> PrivacyBudget:
    """Derive per-mechanism budgets from a total epsilon.

    The depth cap is d = ceil(estimation_size / k); each of a tree's d layers
    gets epsilon/(d*t) shared between the two split mechanisms according to
    ``split``, and each tree's label mechanism gets epsilon/t.
    """
    if not 0 < epsilon < math.inf:  # NaN fails this too
        raise DomainError(f"epsilon must be positive and finite, got {epsilon}")
    if t < 1 or estimation_size < 1 or k < 1:
        raise DomainError("t, estimation_size and k must be positive")
    if not 0 < split < 1:
        raise DomainError("split must lie strictly between 0 and 1")
    depth_cap = math.ceil(estimation_size / k)
    per_layer = epsilon / (depth_cap * t)
    return PrivacyBudget(
        epsilon=epsilon,
        t=t,
        d=depth_cap,
        b1=split * per_layer,
        b2=(1.0 - split) * per_layer,
        b3=epsilon / t,
    )


def compose_budget(per_layer: float, depth: int, b3: float, t: int) -> float:
    """Total epsilon consumed: sequential across layers and trees, parallel phases.

    Per tree the structure phase spends depth * (b1 + b2) and the disjoint
    estimation phase spends b3; their max is the tree's cost, times t trees.
    """
    if per_layer < 0 or b3 < 0 or depth < 0 or t < 0:
        raise DomainError("budget components must be nonnegative")
    return t * max(depth * per_layer, b3)


@dataclass
class Neighborhood:
    """Base dataset plus every enumerated neighbor, stored as stacked blocks.

    ``blocks`` holds one ``(x, y)`` pair per neighbor row count: x is
    (N_b, m_b, D) and y is (N_b, m_b), replace-one neighbors (m = n) first,
    then remove-one neighbors (m = n - 1). ``neighbors`` lists every neighbor
    in enumeration order as ``(description, x, y)``, where x and y are
    read-only views into those blocks, and ``order[i]`` is neighbor i's
    position in the blocks stacked one after the other. The auditors score
    each block in one pass and put the scores in neighbor order with
    ``order``.

    ``score_cache`` memoizes the budget-independent quality scores, the base
    dataset's row first and then one row per neighbor, so auditing the same
    neighborhood at several budgets enumerates only once.
    """

    features: np.ndarray
    labels: np.ndarray
    neighbors: tuple[tuple[dict[str, Any], np.ndarray, np.ndarray], ...]
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    order: np.ndarray
    score_cache: dict[Any, Any] = field(default_factory=dict, repr=False)

    def per_neighbor(self, score: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
        """``score`` of every block, stacked, as one row per neighbor in order."""
        return np.concatenate([score(x, y) for x, y in self.blocks])[self.order]


def enumerate_neighbors(
    micro: Dataset,
    replacement_records: Sequence[tuple[np.ndarray, int]] | None = None,
) -> Neighborhood:
    """All datasets differing from ``micro`` in one record.

    Replace-one neighbors swap one row for each record in
    ``replacement_records`` (default: every observed row paired with every
    observed label), skipping a record equal to the row it would replace;
    remove-one neighbors drop one row. Both variants are enumerated so the
    stricter of bounded/unbounded adjacency is audited. The order is row by
    row: that row's replacements in record order, then its removal.
    """
    if micro.n > _MAX_AUDIT_ROWS:
        raise SizeError(f"audit supports at most {_MAX_AUDIT_ROWS} rows, got {micro.n}")
    x, y = micro.features, micro.labels
    n, d = x.shape
    if replacement_records is None:
        observed_labels = np.unique(y)
        rec_x = np.repeat(x, observed_labels.size, axis=0)
        rec_y = np.tile(observed_labels, n)
    else:
        records = list(replacement_records)
        if any(np.shape(features) != (d,) for features, _ in records):
            raise DomainError(f"every replacement record needs {d} features")
        rec_x = np.array([f for f, _ in records], dtype=np.float64).reshape(len(records), d)
        rec_y = np.array([label for _, label in records], dtype=np.int64)
        if not np.isfinite(rec_x).all():
            raise DomainError("replacement records contain NaN or infinite values")
    # (row, record) pairs in row-major order, skipping no-op replacements
    same = (rec_y[None, :] == y[:, None]) & (rec_x[None, :, :] == x[:, None, :]).all(axis=2)
    rows, recs = np.nonzero(~same)
    replaced_x = np.repeat(x[None], rows.size, axis=0)
    replaced_y = np.repeat(y[None], rows.size, axis=0)
    replaced_x[np.arange(rows.size), rows] = rec_x[recs]
    replaced_y[np.arange(rows.size), rows] = rec_y[recs]
    blocks = [(replaced_x, replaced_y)]
    descs = [{"kind": "replace", "row": int(r), "record": int(c)} for r, c in zip(rows, recs)]
    neighbor_rows = [rows]
    if n > 1:
        # row r of the removal block keeps every row but r, in order
        kept = np.arange(n - 1) + (np.arange(n - 1)[None, :] >= np.arange(n)[:, None])
        blocks.append((x[kept], y[kept]))
        descs += [{"kind": "remove", "row": r} for r in range(n)]
        neighbor_rows.append(np.arange(n))
    for block_x, block_y in blocks:
        block_x.flags.writeable = block_y.flags.writeable = False
    views = [view for block_x, block_y in blocks for view in zip(block_x, block_y)]
    # enumeration order: row by row, a row's replacements before its removal
    order = np.argsort(np.concatenate(neighbor_rows), kind="stable")
    return Neighborhood(
        features=x,
        labels=y,
        neighbors=tuple((descs[i], *views[i]) for i in order),
        blocks=tuple(blocks),
        order=order,
    )


def _root_feature_scores(
    x: np.ndarray, y: np.ndarray, class_count: int, criterion: str
) -> np.ndarray:
    """Per-feature best impurity decrease at the root; 0 for constant features.

    ``x`` is one dataset (m, D) or a stack of them (N, m, D) with labels
    (m,) or (N, m); every feature of every dataset goes to one
    :func:`scan_features` call, one sorted row each.
    """
    *stack, m, d = x.shape
    if m < 2:
        return np.zeros((*stack, d))
    sorted_pos = np.argsort(x, axis=-2, kind="stable")
    values = np.take_along_axis(x, sorted_pos, axis=-2)
    labels = np.take_along_axis(np.broadcast_to(y[..., None], x.shape), sorted_pos, axis=-2)
    valid, _ = cut_points(np.swapaxes(values, -1, -2).reshape(-1, m))
    decreases = scan_features(np.swapaxes(labels, -1, -2).reshape(-1, m), class_count, criterion)
    best = np.where(valid, decreases, -np.inf).max(axis=1).reshape(*stack, d)
    return np.where(np.isfinite(best), best, 0.0)


def _grid_value_scores(
    x: np.ndarray,
    y: np.ndarray,
    feature: int,
    grid: np.ndarray,
    class_count: int,
    criterion: str,
) -> np.ndarray:
    """Impurity decrease of each grid threshold; 0 where a side is empty.

    ``x`` is one dataset (m, D) or a stack of them (N, m, D); the result is
    (G,) or (N, G).
    """
    n = x.shape[-2]
    if n == 0:
        return np.zeros((*x.shape[:-2], grid.size))
    left_mask = x[..., None, :, feature] <= grid[:, None]
    onehot = (y[..., :, None] == np.arange(class_count)).astype(np.float64)
    # class first: (K, ..., G) counts left of each threshold, (K, ...) in all
    left_counts = np.moveaxis(left_mask @ onehot, -1, 0)
    total = np.moveaxis(onehot.sum(axis=-2), -1, 0)
    right_counts = total[..., None] - left_counts
    left_n = left_mask.sum(axis=-1)
    right_n = n - left_n
    parent_imp = _impurity(total, n, criterion)
    child = left_n / n * _impurity(left_counts, left_n, criterion) + (
        right_n / n
    ) * _impurity(right_counts, right_n, criterion)
    decreases = np.where(
        (left_n > 0) & (right_n > 0), parent_imp[..., None] - child, 0.0
    )
    return np.maximum(decreases, 0.0)


def _candidate_mismatches(x: np.ndarray, feature: int, grid: np.ndarray) -> int:
    """How many of the stacked datasets (N, m, D) have candidates other than ``grid``."""
    valid, thresholds = cut_points(np.sort(x[..., feature], axis=-1))
    same_size = valid.sum(axis=1) == grid.size
    own = thresholds[same_size][valid[same_size]].reshape(-1, grid.size)
    return x.shape[0] - int(np.isclose(own, grid).all(axis=1).sum())


def _audit_bound(name: str, budget: float) -> float:
    """e^budget, the ratio bound; a budget with no finite bound is rejected."""
    if not math.isfinite(budget) or budget < 0:
        raise DomainError(f"{name} must be finite and nonnegative")
    try:
        return math.exp(budget)
    except OverflowError:
        raise DomainError(f"{name}={budget!r} is too large: e^{name} overflows a float") from None


def _ratio_report(
    mechanism: str,
    budget: float,
    bound: float,
    base_probs: np.ndarray,
    neighbor_probs: np.ndarray,
    describe: Callable[[int], dict[str, Any]],
    candidate_mismatches: int = 0,
) -> AuditReport:
    """Worst ratio over the (N, outputs) neighbor probabilities, both ways.

    The witness, described by ``describe(i)`` for neighbor i, is the first
    neighbor whose largest ratio is the worst one, if that exceeds 1; a
    neighbor whose largest ratio is NaN (0/0 at large budgets) is skipped.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.maximum(base_probs / neighbor_probs, neighbor_probs / base_probs)
    outputs = np.argmax(ratio, axis=1)
    largest = ratio[np.arange(ratio.shape[0]), outputs]
    candidates = np.flatnonzero(largest > 1.0)
    worst = 1.0
    witness: dict[str, Any] = {}
    if candidates.size:
        first = candidates[np.argmax(largest[candidates])]
        worst = float(largest[first])
        witness = {"neighbor": describe(first), "output": int(outputs[first]), "ratio": worst}
    return AuditReport(
        mechanism=mechanism,
        budget=budget,
        worst_ratio=worst,
        bound=bound,
        passed=worst <= bound * (1.0 + _PASS_SLACK),
        witness=witness,
        neighbor_count=ratio.shape[0],
        candidate_mismatches=candidate_mismatches,
    )


def _selection_probs(scores: np.ndarray, budget: float) -> np.ndarray:
    """Per row of ``scores`` (rows, outputs), the probability of each output of
    the law training draws from.

    The law is :func:`selection_cdfs` of the row; a draw takes the first index
    whose cumulative probability exceeds its uniform, and the last index when
    none does, so the last output's probability runs up to 1.
    """
    rows, outputs = scores.shape
    cdf = selection_cdfs(scores.ravel(), outputs, budget).cdf.reshape(rows, outputs)
    cdf[:, -1] = 1.0
    probs = cdf.copy()
    probs[:, 1:] -= cdf[:, :-1]
    return probs


def audit_feature_mechanism(
    micro: Dataset,
    b1: float,
    criterion: str = "gini",
    neighborhood: Neighborhood | None = None,
) -> AuditReport:
    """Worst-case selection-probability ratio of the split-feature mechanism.

    The output space is the fixed feature set; each dataset's quality scores
    are its own per-feature best impurity decreases at the root.
    """
    bound = _audit_bound("b1", b1)
    neigh = neighborhood or enumerate_neighbors(micro)
    class_count = micro.class_count
    key = ("feature", criterion)
    if key not in neigh.score_cache:
        score = partial(_root_feature_scores, class_count=class_count, criterion=criterion)
        neigh.score_cache[key] = np.vstack(
            (score(neigh.features, neigh.labels), neigh.per_neighbor(score))
        )
    probs = _selection_probs(neigh.score_cache[key], b1)
    return _ratio_report(
        "feature", b1, bound, probs[0], probs[1:], lambda i: neigh.neighbors[i][0]
    )


def audit_value_mechanism(
    micro: Dataset,
    feature: int,
    b2: float,
    criterion: str = "gini",
    neighborhood: Neighborhood | None = None,
    grid: np.ndarray | None = None,
) -> AuditReport:
    """Worst-case ratio of the split-value mechanism over a fixed threshold grid.

    The grid defaults to the base dataset's candidate thresholds for
    ``feature``: the valid cuts of :func:`cut_points`, the ones a tree can
    draw. Neighbors whose own candidate set, taken the same way, differs
    from the grid are counted in ``candidate_mismatches``: the ratio bound
    is only meaningful on the shared output space, and the count sizes that
    gap. A ``feature`` outside the dataset's columns raises
    :class:`DomainError`.
    """
    bound = _audit_bound("b2", b2)
    if not 0 <= feature < micro.feature_count:
        raise DomainError(f"feature {feature} is not one of the {micro.feature_count} columns")
    neigh = neighborhood or enumerate_neighbors(micro)
    if grid is None:
        valid, thresholds = cut_points(np.sort(neigh.features[:, feature])[None])
        grid = thresholds[valid]
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise DomainError("feature has no candidate thresholds to audit")
    class_count = micro.class_count
    key = ("value", feature, criterion, grid.tobytes())
    if key not in neigh.score_cache:
        score = partial(
            _grid_value_scores, feature=feature, grid=grid, class_count=class_count, criterion=criterion
        )
        neigh.score_cache[key] = (
            np.vstack((score(neigh.features, neigh.labels), neigh.per_neighbor(score))),
            sum(_candidate_mismatches(x, feature, grid) for x, _ in neigh.blocks),
        )
    scores, mismatches = neigh.score_cache[key]
    probs = _selection_probs(scores, b2)
    return _ratio_report(
        "value",
        b2,
        bound,
        probs[0],
        probs[1:],
        lambda i: neigh.neighbors[i][0],
        candidate_mismatches=mismatches,
    )


def audit_label_mechanism(leaf_counts: ClassCounts, b3: float) -> AuditReport:
    """Worst-case ratio of the leaf-label mechanism over count-vector neighbors.

    Neighbors change one record's label or remove one record; removals that
    would empty the leaf are skipped since the mechanism is undefined there.
    Each observed label i gives its relabelings to every other label j in
    order, then its removal.
    """
    bound = _audit_bound("b3", b3)
    counts = leaf_counts.counts
    total = leaf_counts.total
    if total < 1:
        raise DomainError("cannot audit an empty leaf")
    eye = np.eye(counts.size, dtype=np.int64)
    descs: list[dict[str, Any]] = []
    moves: list[np.ndarray] = []
    for i in np.flatnonzero(counts):
        for j in range(counts.size):
            if j != i:
                descs.append({"kind": "relabel", "from": int(i), "to": j})
                moves.append(eye[j] - eye[i])
        if total > 1:
            descs.append({"kind": "remove", "label": int(i)})
            moves.append(-eye[i])
    changed = counts + np.array(moves).reshape(-1, counts.size)
    base = softmax_scaled(counts / total, b3)
    probs = softmax_scaled(changed / changed.sum(axis=1, keepdims=True), b3)
    return _ratio_report("label", b3, bound, base, probs, descs.__getitem__)
