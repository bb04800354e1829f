"""Per-layer timings taken from outside the library.

The traced run replaces selected module attributes of ``mrforest`` with
wrappers that time each call. A wrapper is bound to the name the caller looks
up: ``tree._sample_split`` finds ``scan_features`` in ``mrforest.tree``'s
globals, so that is where its wrapper goes, and ``mrforest.privacy`` gets its
own. The library source is not changed, and the untimed run installs nothing.

Each call is a span with a name and the span that caused it (the innermost
traced call still running). Spans are aggregated as they close: per name the
call count, total time and self time, and per (parent, name) the call count
and total time. ``after`` hooks add counts read from a call's arguments or
result, such as node counts of a built tree. A span's self time is its total
minus the whole cost of the spans it caused, their wrappers and ``after``
hooks included, so the tracer's own work is never charged to a parent's self
time. A span's total does include the wrapper cost of its children.

A hook whose target no longer exists is skipped; the layer metrics that need
it are reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable


def tree_shape(tree: Any) -> tuple[list[Any], int] | None:
    """Leaf ``eta`` vectors and internal-node count of a tree, or None.

    Walks the node graph (``tree.root`` with ``left``/``right`` children and
    ``feature is None`` at leaves). Returns None for any other representation.
    """
    root = getattr(tree, "root", None)
    if root is None or not hasattr(root, "is_leaf"):
        return None
    etas: list[Any] = []
    internal = 0
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            etas.append(node.eta)
        else:
            internal += 1
            stack.append(node.left)
            stack.append(node.right)
    return etas, internal


def _count_cells(stats: "Stats", parent: str | None, args: tuple, result: Any) -> None:
    # baseline trees scan too, but they count towards tree.build_baseline_tree
    if parent != "tree.build_baseline_tree":
        depth, m = args[0].shape
        stats.counts["impurity.scan_cells"] += depth * m


def _count_tree(prefix: str) -> Callable[["Stats", str | None, tuple, Any], None]:
    def after(stats: "Stats", parent: str | None, args: tuple, result: Any) -> None:
        shape = tree_shape(result)
        if shape is None:
            stats.unreadable.add(prefix)
            return
        etas, internal = shape
        stats.counts[f"{prefix}.nodes"] += len(etas) + internal
        stats.counts[f"{prefix}.internal_nodes"] += internal
        stats.peaks[f"{prefix}.max_depth"] = max(
            stats.peaks.get(f"{prefix}.max_depth", 0), int(result.depth)
        )

    return after


def _count_json(stats: "Stats", parent: str | None, args: tuple, result: Any) -> None:
    stats.counts["forest.json_bytes"] += len(result.encode("utf-8"))


def _count_neighbors(stats: "Stats", parent: str | None, args: tuple, result: Any) -> None:
    stats.counts["privacy.neighbors"] += len(result.neighbors)


def _count_mismatches(stats: "Stats", parent: str | None, args: tuple, result: Any) -> None:
    stats.counts["privacy.candidate_mismatches"] += result.candidate_mismatches


# (module, owner attribute path, span name, after hook)
HOOKS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("mrforest.forest", "partition", "data.partition", None),
    ("mrforest.tree", "scan_features", "impurity.scan_features", _count_cells),
    ("mrforest.privacy", "scan_features", "impurity.scan_features", _count_cells),
    ("mrforest.tree", "select_feature", "splitsel.select_feature", None),
    ("mrforest.tree", "select_value", "splitsel.select_value", None),
    ("mrforest.forest", "build_tree", "tree.build_tree", _count_tree("tree")),
    (
        "mrforest.forest",
        "build_baseline_tree",
        "tree.build_baseline_tree",
        _count_tree("tree.baseline"),
    ),
    ("mrforest.forest", "tree_votes", "tree.tree_votes", None),
    ("mrforest.tree", "route_eta", "tree.route_eta", None),
    ("mrforest.forest", "predict_batch", "forest.predict_batch", None),
    ("mrforest.forest", "train_mrf", "forest.train_mrf", None),
    ("mrforest.forest", "Forest.to_json", "forest.to_json", _count_json),
    ("mrforest.forest", "Forest.from_json", "forest.from_json", None),
    ("mrforest.privacy", "enumerate_neighbors", "privacy.enumerate_neighbors", _count_neighbors),
    ("mrforest.privacy", "audit_feature_mechanism", "privacy.audit_feature", _count_mismatches),
    ("mrforest.privacy", "audit_value_mechanism", "privacy.audit_value", _count_mismatches),
    ("mrforest.privacy", "audit_label_mechanism", "privacy.audit_label", _count_mismatches),
)


@dataclass
class Stats:
    """Spans and counts aggregated since the last ``clear``."""

    calls: Counter = field(default_factory=Counter)
    total: Counter = field(default_factory=Counter)
    self_time: Counter = field(default_factory=Counter)
    under: Counter = field(default_factory=Counter)
    under_total: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    peaks: dict[str, int] = field(default_factory=dict)
    unreadable: set[str] = field(default_factory=set)

    def clear(self) -> None:
        for counter in (
            self.calls, self.total, self.self_time, self.under, self.under_total, self.counts
        ):
            counter.clear()
        self.peaks.clear()
        self.unreadable.clear()


class Tracer:
    """Installs timing wrappers on ``mrforest`` names and aggregates spans."""

    def __init__(self) -> None:
        self.stats = Stats()
        self.installed_spans: set[str] = set()
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._names: list[str] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, after: Callable | None) -> Callable:
        stats = self.stats
        stack = self._stack
        names = self._names

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            entered = perf_counter()
            parent = names[-1] if names else None
            child_time = [0.0]
            stack.append(child_time)
            names.append(name)
            try:
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    names.pop()
                    stats.calls[name] += 1
                    stats.total[name] += elapsed
                    stats.self_time[name] += elapsed - child_time[0]
                    stats.under[(parent, name)] += 1
                    stats.under_total[(parent, name)] += elapsed
                if after is not None:
                    after(stats, parent, args, result)
                return result
            finally:
                # the parent's self time leaves out this span and all its bookkeeping
                if stack:
                    stack[-1][0] += perf_counter() - entered

        return traced

    def install(self) -> None:
        self.missing = []
        for module_name, path, name, after in HOOKS:
            owner: Any = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self._wrap(name, raw.__func__, after))
            else:
                wrapped = self._wrap(name, raw, after)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, raw))
            self.installed_spans.add(name)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


_DRAWS = ("splitsel.select_feature", "splitsel.select_value")
_SCAN = "impurity.scan_features"
_SEARCH = ("tree.build_tree", _SCAN)
# scans of baseline trees are left out of the impurity metrics
_BASELINE_SCAN = ("tree.build_baseline_tree", _SCAN)

# name -> (unit, what it needs, value from one cycle's Stats). A need is a span
# name, or "shape:<prefix>" for node counts read from the built trees.
LAYER_METRICS: dict[str, tuple[str, tuple[str, ...], Callable[[Stats], float | None]]] = {
    "data.partition_s": ("s", ("data.partition",), lambda s: s.total["data.partition"]),
    "data.partition_calls": ("count", ("data.partition",), lambda s: s.calls["data.partition"]),
    "impurity.scan_features_s": (
        "s", (_SCAN,), lambda s: s.total[_SCAN] - s.under_total[_BASELINE_SCAN]),
    "impurity.scan_features_calls": (
        "count", (_SCAN,), lambda s: s.calls[_SCAN] - s.under[_BASELINE_SCAN]),
    "impurity.scan_cells": ("count", (_SCAN,), lambda s: s.counts["impurity.scan_cells"]),
    "splitsel.select_feature_calls": (
        "count", ("splitsel.select_feature",), lambda s: s.calls["splitsel.select_feature"]),
    "splitsel.select_value_calls": (
        "count", ("splitsel.select_value",), lambda s: s.calls["splitsel.select_value"]),
    "splitsel.draw_s": ("s", _DRAWS, lambda s: s.total[_DRAWS[0]] + s.total[_DRAWS[1]]),
    "splitsel.draws_per_search": (
        "ratio",
        _DRAWS + _SEARCH,
        lambda s: _ratio(s.calls[_DRAWS[0]] + s.calls[_DRAWS[1]], s.under[_SEARCH]),
    ),
    "tree.build_tree_s": ("s", ("tree.build_tree",), lambda s: s.total["tree.build_tree"]),
    "tree.self_s": ("s", ("tree.build_tree",), lambda s: s.self_time["tree.build_tree"]),
    "tree.nodes": ("count", ("tree.build_tree", "shape:tree"), lambda s: s.counts["tree.nodes"]),
    "tree.internal_nodes": (
        "count", ("tree.build_tree", "shape:tree"), lambda s: s.counts["tree.internal_nodes"]),
    "tree.split_searches": ("count", _SEARCH, lambda s: s.under[_SEARCH]),
    "tree.split_yield": (
        "ratio",
        _SEARCH + ("shape:tree",),
        lambda s: _ratio(s.counts["tree.internal_nodes"], s.under[_SEARCH]),
    ),
    "tree.us_per_node": (
        "us",
        ("tree.build_tree", "shape:tree"),
        lambda s: _ratio(1e6 * s.total["tree.build_tree"], s.counts["tree.nodes"]),
    ),
    "tree.max_depth": (
        "count", ("tree.build_tree", "shape:tree"), lambda s: s.peaks.get("tree.max_depth")),
    "tree.build_baseline_tree_s": (
        "s", ("tree.build_baseline_tree",), lambda s: s.total["tree.build_baseline_tree"]),
    "tree.baseline_nodes": (
        "count",
        ("tree.build_baseline_tree", "shape:tree.baseline"),
        lambda s: s.counts["tree.baseline.nodes"],
    ),
    "tree.route_eta_s": ("s", ("tree.route_eta",), lambda s: s.total["tree.route_eta"]),
    "tree.route_eta_calls": ("count", ("tree.route_eta",), lambda s: s.calls["tree.route_eta"]),
    "tree.tree_votes_self_s": (
        "s", ("tree.tree_votes",), lambda s: s.self_time["tree.tree_votes"]),
    "forest.predict_batch_self_s": (
        "s", ("forest.predict_batch",), lambda s: s.self_time["forest.predict_batch"]),
    "forest.to_json_s": ("s", ("forest.to_json",), lambda s: s.total["forest.to_json"]),
    "forest.from_json_s": ("s", ("forest.from_json",), lambda s: s.total["forest.from_json"]),
    "forest.json_bytes": ("bytes", ("forest.to_json",), lambda s: s.counts["forest.json_bytes"]),
    "forest.train_mrf_self_s": (
        "s", ("forest.train_mrf",), lambda s: s.self_time["forest.train_mrf"]),
    "privacy.enumerate_neighbors_s": (
        "s", ("privacy.enumerate_neighbors",), lambda s: s.total["privacy.enumerate_neighbors"]),
    "privacy.neighbors": (
        "count", ("privacy.enumerate_neighbors",), lambda s: s.counts["privacy.neighbors"]),
    "privacy.audit_feature_s": (
        "s", ("privacy.audit_feature",), lambda s: s.total["privacy.audit_feature"]),
    "privacy.audit_value_s": (
        "s", ("privacy.audit_value",), lambda s: s.total["privacy.audit_value"]),
    "privacy.audit_label_s": (
        "s", ("privacy.audit_label",), lambda s: s.total["privacy.audit_label"]),
    "privacy.audits": (
        "count",
        ("privacy.audit_feature", "privacy.audit_value", "privacy.audit_label"),
        lambda s: s.calls["privacy.audit_feature"]
        + s.calls["privacy.audit_value"]
        + s.calls["privacy.audit_label"],
    ),
    "privacy.candidate_mismatches": (
        "count",
        ("privacy.audit_feature", "privacy.audit_value", "privacy.audit_label"),
        lambda s: s.counts["privacy.candidate_mismatches"],
    ),
}

# Times vary from cycle to cycle; everything else is a count of the cycle's
# work and must repeat exactly.
TIMED_UNITS = ("s", "us")


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Layer metrics of the spans since the last clear; absent ones left out."""
    stats = tracer.stats
    out: dict[str, float] = {}
    for name, (_, needs, value_of) in LAYER_METRICS.items():
        if any(
            need.removeprefix("shape:") in stats.unreadable
            if need.startswith("shape:")
            else need not in tracer.installed_spans
            for need in needs
        ):
            continue
        value = value_of(stats)
        if value is not None:
            out[name] = float(value)
    return out
