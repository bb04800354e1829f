"""The benchmark's workloads: one pipeline, three mixes of work.

Every round runs the pipeline a user of the library runs: train forests on the
UCI shapes and the large shape and score their holdouts, save and reload the
served model and answer queries with it, and audit the privacy mechanisms on
micro-datasets. Each workload sizes the phases so that its own phase does
nearly all of the work, while the other phases run as small fixed probes, so
that every end-to-end metric is measured in every workload:

- ``fit``: one-tree forests on the UCI shapes and the 20k x 10 scale point.
  Time goes to mechanism draws and per-node Python work on the UCI shapes,
  and to the impurity scan and child filtering on the large shape.
- ``serve``: set-up trains a t=15 forest on the banknote shape; the round
  saves and reloads it and answers held-out rows one at a time (closed loop,
  one client) and as whole batches, at b3=inf and at a finite b3. (At t=100 a
  single-row query takes 30-50 ms, too slow to revisit each latency row often
  enough for its typical visit to settle within a run.)
- ``audit``: every (n, D, K) micro-dataset case of the acceptance fuzz range
  gets neighbor enumeration and the feature, value and label audits at four
  budgets, plus a budget allocation round trip.

All of it runs in this process; no worker pool is started.
"""

from __future__ import annotations

import dataclasses
import math
import resource
import statistics
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

from mrforest import forest as mf_forest
from mrforest import privacy as mf_privacy
from mrforest.impurity import ClassCounts

import inputs
import tracing

AUDIT_BUDGETS = (0.0, 0.1, 1.0, 5.0)
# finite leaf-label budget for the randomized predictions of the serve phase
SERVE_B3 = 1.0
# held-out rows the single-row closed loop answers each round: one latency sample each
SERVE_ROWS = 200
# save, load and batch predictions per round, each followed by a third of the
# single-row loop: they take milliseconds, so repeats spread over the round
# give them three times the visits of a latency row
SERVE_REPEATS = 3
# set-ups per run; setup_s is their median
SETUP_REPS = 5
# trees per forest on each UCI shape (MRF and baseline) and on the large shape:
# one tree keeps a round short, so each unit gets many visits in a run
UCI_T = 1
LARGE_T = 1
RATIO_SLACK = 1e-9
ETA_TOLERANCE = 1e-9

ALL_AUDIT_CASES = tuple(
    (n, d, k) for n in range(2, 13) for d in range(1, 4) for k in (2, 3)
)
PROBE_AUDIT_CASES = ((4, 1, 2), (8, 2, 3), (12, 3, 2))


@dataclass(frozen=True)
class Plan:
    """Sizes of the pipeline phases in one workload."""

    large_n: int  # rows of the large shape
    serve_t: int  # trees of the served model, trained in set-up
    audit_cases: tuple[tuple[int, int, int], ...]
    cases_per_round: int

    @property
    def cycle(self) -> int:
        """Rounds that together do the same work: each audit case once."""
        cycle, rest = divmod(len(self.audit_cases), self.cases_per_round)
        if rest:
            raise ValueError("cases_per_round must divide the number of audit cases")
        return cycle


_PROBE = Plan(
    large_n=2000,
    serve_t=5,
    audit_cases=PROBE_AUDIT_CASES,
    cases_per_round=len(PROBE_AUDIT_CASES),
)

# The audit workload takes a slice of its cases per round, so rounds stay
# short and the probes are revisited often enough for their typical visit to
# be steady.
PLANS = {
    "fit": dataclasses.replace(_PROBE, large_n=20000),
    "serve": dataclasses.replace(_PROBE, serve_t=15),
    "audit": dataclasses.replace(_PROBE, audit_cases=ALL_AUDIT_CASES, cases_per_round=22),
}


def smoke_plan(workload: str) -> Plan:
    """``PLANS[workload]`` at tiny size, for the smoke test; timings mean nothing.

    The phases and the cycle stay those of the workload: the audit keeps every
    11th of its 66 cases, two per round, so it still takes ``plan.cycle``
    rounds to audit each case once, and the probes keep their three cases.
    """
    plan = PLANS[workload]
    cases = plan.audit_cases[:: len(plan.audit_cases) // (2 * plan.cycle)]
    return dataclasses.replace(
        plan,
        large_n=min(plan.large_n, 2000),
        serve_t=min(plan.serve_t, 3),
        audit_cases=cases,
        cases_per_round=len(cases) // plan.cycle,
    )


class RoundAbort(Exception):
    """An operation raised; the rest of the round depends on its result."""


class Ledger:
    """Operations attempted and failed, and how often each output check ran."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: Counter = Counter()
        self.errors: list[str] = []

    def op(
        self,
        label: str,
        fn: Callable[[], Any],
        verify: Callable[[Any], str | None] | None = None,
    ) -> tuple[Any, float]:
        """Run and time one operation, then check its output.

        An operation that raises counts as failed and aborts the round; one
        whose check fails counts as failed and the round goes on.
        """
        self.attempted += 1
        start = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # any library error is a failed operation
            self._fail(label, f"raised {exc!r}")
            raise RoundAbort(label) from exc
        elapsed = perf_counter() - start
        if verify is not None:
            self.check(label, verify(out))
        return out, elapsed

    def check(self, label: str, problem: str | None) -> None:
        """Record that check ``label`` ran; a problem counts as a failure."""
        self.checks[label] += 1
        if problem:
            self._fail(label, problem)

    def _fail(self, label: str, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {message}")


def forest_problem(t: int) -> Callable[[Any], str | None]:
    """Check a trained forest: t trees, every leaf distribution sums to 1."""

    def verify(forest: Any) -> str | None:
        if len(forest.trees) != t:
            return f"{len(forest.trees)} trees, expected {t}"
        for tree in forest.trees:
            shape = tracing.tree_shape(tree)
            if shape is None:
                return "tree representation unreadable, leaf distributions unchecked"
            for eta in shape[0]:
                if abs(float(np.sum(eta)) - 1.0) > ETA_TOLERANCE:
                    return f"leaf eta sums to {float(np.sum(eta))!r}"
        return None

    return verify


def vote_problem(votes: np.ndarray, t: int, n: int, class_count: int) -> str | None:
    """Votes must form a (t, n) matrix of class indices, so tallies sum to t."""
    if votes.shape != (t, n):
        return f"votes shape {votes.shape}, expected {(t, n)}"
    if votes.min() < 0 or votes.max() >= class_count:
        return "vote outside the class range"
    tallies = np.zeros((class_count, n), dtype=np.int64)
    for row in votes:
        tallies[row, np.arange(n)] += 1
    if not (tallies.sum(axis=0) == t).all():
        return "row tallies do not sum to t"
    return None


@dataclass
class State:
    """What set-up leaves for the rounds."""

    uci: list[inputs.Split]
    large: inputs.Split
    served: Any  # the served Forest, trained on the banknote shape
    served_votes: np.ndarray  # its b3=inf votes on the serve holdout
    micro: list[tuple[Any, ClassCounts]]
    workdir: Path

    @property
    def serve(self) -> inputs.Split:
        return self.uci[0]


def setup(plan: Plan, seed: int, ledger: Ledger, workdir: Path) -> State:
    """Generate every input from ``seed`` and train the served model."""
    uci = [inputs.make_split(shape, seed, i) for i, shape in enumerate(inputs.UCI_SHAPES)]
    large = inputs.make_split(inputs.large_shape(plan.large_n), seed, len(uci))
    serve = uci[0]
    config = mf_forest.MrfConfig(t=plan.serve_t, seed=seed)
    served, _ = ledger.op(
        "setup.train_served",
        lambda: mf_forest.train_mrf(serve.train, config),
        forest_problem(plan.serve_t),
    )
    (_, served_votes), _ = ledger.op(
        "setup.served_votes", lambda: mf_forest.predict_batch(served, serve.holdout_x)
    )
    micro = []
    for case, (n, d, k) in enumerate(plan.audit_cases):
        data = inputs.micro_dataset(seed, case, n, d, k)
        micro.append((data, ClassCounts.from_labels(data.labels, k)))
    return State(uci, large, served, served_votes, micro, workdir)


def upper_quartile(values: list[float]) -> float:
    """The value three quarters of ``values`` are at most, interpolated."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


class Samples:
    """Samples of one run, per metric and per unit of work.

    A unit is one piece of work that every round repeats identically, such as
    training on one shape, auditing one micro-dataset case or answering one
    held-out row; its key names it. Rounds revisit each unit at different
    times of the run. A unit's typical cost is its upper-quartile visit
    (``upper_quartile``). The machine this was built on flips between a slow
    state and spells of a state about 1.5x faster, which other load on the
    host causes; the fast spells cover a share of a run that changes from run
    to run but stays well under a quarter most of the time. The median and
    the lower quantiles follow that share; the upper quartile is the cost in
    the slow state, and a stall of a few visits in a unit does not move it.
    A fast spell that outlasts a run makes the whole run fast; no estimator
    inside the run can tell.
    """

    def __init__(self) -> None:
        self.units: dict[str, dict[Any, list[float]]] = {}

    def add(self, metric: str, value: float, key: Any = None) -> None:
        self.units.setdefault(metric, {}).setdefault(key, []).append(value)

    def typical(self, metric: str) -> list[float]:
        """Each unit's upper-quartile value over the run.

        Raises KeyError when no round sampled ``metric``.
        """
        return [upper_quartile(values) for values in self.units[metric].values()]


def _accuracy_check(split: inputs.Split, accuracies: list[float]) -> Callable:
    def verify(out: tuple[np.ndarray, np.ndarray]) -> str | None:
        accuracy = float(np.mean(out[0] == split.holdout_y))
        accuracies.append(accuracy)
        if accuracy <= split.majority_rate:
            return (
                f"{split.shape.name} holdout accuracy {accuracy:.4f} does not beat "
                f"the majority rate {split.majority_rate:.4f}"
            )
        return None

    return verify


def _train_phase(plan: Plan, seed: int, state: State, ledger: Ledger, samples: Samples) -> None:
    mrf_config = mf_forest.MrfConfig(t=UCI_T, seed=seed)
    base_config = mf_forest.BaselineConfig(t=UCI_T, seed=seed)
    accs: list[float] = []
    base_accs: list[float] = []
    for split in state.uci:
        name = split.shape.name
        forest, elapsed = ledger.op(
            f"train_mrf.{name}",
            lambda: mf_forest.train_mrf(split.train, mrf_config),
            forest_problem(UCI_T),
        )
        samples.add("train_s", elapsed, name)
        ledger.op(
            f"holdout.{name}",
            lambda: mf_forest.predict_batch(forest, split.holdout_x),
            _accuracy_check(split, accs),
        )
        baseline, elapsed = ledger.op(
            f"train_baseline_rf.{name}",
            lambda: mf_forest.train_baseline_rf(split.train, base_config),
            forest_problem(UCI_T),
        )
        samples.add("baseline_train_s", elapsed, name)
        ledger.op(
            f"baseline_holdout.{name}",
            lambda: mf_forest.predict_batch(baseline, split.holdout_x),
            _accuracy_check(split, base_accs),
        )
    large_config = mf_forest.MrfConfig(t=LARGE_T, seed=seed)
    large, elapsed = ledger.op(
        "train_mrf.large",
        lambda: mf_forest.train_mrf(state.large.train, large_config),
        forest_problem(LARGE_T),
    )
    samples.add("train_large_s", elapsed)
    ledger.op(
        "holdout.large",
        lambda: mf_forest.predict_batch(large, state.large.holdout_x),
        _accuracy_check(state.large, []),
    )
    samples.add("holdout_acc", statistics.fmean(accs))
    samples.add("baseline_holdout_acc", statistics.fmean(base_accs))


def _serve_phase(
    plan: Plan, seed: int, round_index: int, state: State, ledger: Ledger, samples: Samples
) -> None:
    served = state.served
    t = plan.serve_t
    x = state.serve.holdout_x
    n = x.shape[0]
    class_count = served.class_count
    path = state.workdir / "served.json"

    def same_votes(out: tuple[np.ndarray, np.ndarray]) -> str | None:
        if not np.array_equal(out[1], state.served_votes):
            return "reloaded model votes differ from the pre-save votes"
        return vote_problem(out[1], t, n, class_count)

    for repeat in range(SERVE_REPEATS):
        _, elapsed = ledger.op(
            "save_forest",
            lambda: mf_forest.save_forest(served, path),
            lambda _: None if path.stat().st_size > 0 else "empty model file",
        )
        samples.add("save_s", elapsed)
        samples.add("model_mb", path.stat().st_size / 1e6)
        loaded, elapsed = ledger.op(
            "load_forest",
            lambda: mf_forest.load_forest(path),
            lambda f: None if len(f.trees) == t else f"reloaded {len(f.trees)} trees",
        )
        samples.add("load_s", elapsed)
        (classes, _), elapsed = ledger.op(
            "predict_batch", lambda: mf_forest.predict_batch(loaded, x), same_votes
        )
        samples.add("predict_batch_s", elapsed)
        randomized = dataclasses.replace(
            loaded, config=dataclasses.replace(loaded.config, b3=SERVE_B3)
        )
        rng = np.random.default_rng([seed, round_index, repeat])
        _, elapsed = ledger.op(
            "predict_batch_rand",
            lambda: mf_forest.predict_batch(randomized, x, rng),
            lambda out: vote_problem(out[1], t, n, class_count),
        )
        samples.add("predict_batch_rand_s", elapsed)

        # one client in a closed loop over this repeat's share of the first
        # SERVE_ROWS held-out rows
        rows = min(SERVE_ROWS, n)
        for i in range(repeat * rows // SERVE_REPEATS, (repeat + 1) * rows // SERVE_REPEATS):
            row = x[i]
            _, elapsed = ledger.op(
                "predict_row",
                lambda: mf_forest.predict(loaded, row),
                lambda c: None if c == classes[i] else "single-row class differs from batch class",
            )
            samples.add("predict_row_ms", 1e3 * elapsed, i)


def _ratio_check(report: Any) -> str | None:
    bound = math.exp(report.budget) * (1.0 + RATIO_SLACK)
    if not report.passed or report.worst_ratio > bound:
        return f"{report.mechanism} audit ratio {report.worst_ratio!r} exceeds e^{report.budget}"
    return None


def _audit_phase(
    plan: Plan, seed: int, round_index: int, state: State, ledger: Ledger, samples: Samples
) -> None:
    for j in range(plan.cases_per_round):
        case = (round_index * plan.cases_per_round + j) % len(state.micro)
        micro, counts = state.micro[case]
        neighborhood, case_s = ledger.op(
            "enumerate_neighbors",
            lambda: mf_privacy.enumerate_neighbors(micro),
            lambda nb: None if nb.neighbors else "no neighbors enumerated",
        )
        auditable_value = np.unique(micro.features[:, 0]).size > 1
        for budget in AUDIT_BUDGETS:
            _, elapsed = ledger.op(
                "audit_feature",
                lambda: mf_privacy.audit_feature_mechanism(
                    micro, budget, neighborhood=neighborhood
                ),
                _ratio_check,
            )
            case_s += elapsed
            if auditable_value:
                _, elapsed = ledger.op(
                    "audit_value",
                    lambda: mf_privacy.audit_value_mechanism(
                        micro, 0, budget, neighborhood=neighborhood
                    ),
                    _ratio_check,
                )
                case_s += elapsed
            _, elapsed = ledger.op(
                "audit_label",
                lambda: mf_privacy.audit_label_mechanism(counts, budget),
                _ratio_check,
            )
            case_s += elapsed
        epsilon, t, estimation, k, share = inputs.audit_budget_inputs(seed, case)

        def round_trip(budget: Any) -> str | None:
            back = mf_privacy.compose_budget(budget.b1 + budget.b2, budget.d, budget.b3, budget.t)
            return None if abs(back - epsilon) <= 1e-9 else f"budget composes to {back!r}"

        _, elapsed = ledger.op(
            "allocate_budget",
            lambda: mf_privacy.allocate_budget(epsilon, t, estimation, k, share),
            round_trip,
        )
        samples.add("audit_s", case_s + elapsed, case)


def run_round(
    plan: Plan, seed: int, round_index: int, state: State, ledger: Ledger, samples: Samples
) -> None:
    """One pass of every phase; an operation that raises ends the round early."""
    try:
        _train_phase(plan, seed, state, ledger, samples)
        _serve_phase(plan, seed, round_index, state, ledger, samples)
        _audit_phase(plan, seed, round_index, state, ledger, samples)
    except RoundAbort:
        pass


def timed_run(
    plan: Plan, seed: int, seconds: float, state: State, ledger: Ledger, samples: Samples
) -> int:
    """Untraced rounds until ``seconds`` passed and every audit case ran."""
    started = perf_counter()
    rounds = 0
    while rounds < plan.cycle or perf_counter() - started < seconds:
        run_round(plan, seed, rounds, state, ledger, samples)
        rounds += 1
    return rounds


END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_s": "s",
    "train_large_s": "s",
    "baseline_train_s": "s",
    "holdout_acc": "fraction",
    "baseline_holdout_acc": "fraction",
    "predict_row_p50_ms": "ms",
    "predict_row_p95_ms": "ms",
    "predict_rows_per_s": "rows/s",
    "predict_rand_rows_per_s": "rows/s",
    "save_s": "s",
    "load_s": "s",
    "model_mb": "MB",
    "audit_s": "s",
}


def end_to_end(
    samples: Samples, setup_times: list[float], holdout_rows: int
) -> dict[str, tuple[float, str]]:
    """Reduce a timed run's samples to (value, unit) per end-to-end metric.

    Times are each unit's upper-quartile visit, summed over the units a
    metric covers; a rate is the ``holdout_rows`` of a batch over its
    upper-quartile time. Accuracy and model size are the same in every round. Set-up time is
    the median over its repeats.
    """
    typical = samples.typical
    rows = typical("predict_row_ms")
    values = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "train_s": sum(typical("train_s")),
        "train_large_s": sum(typical("train_large_s")),
        "baseline_train_s": sum(typical("baseline_train_s")),
        "holdout_acc": statistics.median(typical("holdout_acc")),
        "baseline_holdout_acc": statistics.median(typical("baseline_holdout_acc")),
        "predict_row_p50_ms": statistics.median(rows),
        "predict_row_p95_ms": statistics.quantiles(rows, n=20, method="inclusive")[18],
        "predict_rows_per_s": holdout_rows / typical("predict_batch_s")[0],
        "predict_rand_rows_per_s": holdout_rows / typical("predict_batch_rand_s")[0],
        "save_s": sum(typical("save_s")),
        "load_s": sum(typical("load_s")),
        "model_mb": statistics.median(typical("model_mb")),
        "audit_s": sum(typical("audit_s")),
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}


PER_LAYER_UNITS = {name: spec[0] for name, spec in tracing.LAYER_METRICS.items()} | {
    "trace.cycle_s": "s",
    "trace.untraced_cycle_s": "s",
    "trace.overhead_pct": "%",
}


def traced_run(
    plan: Plan, seed: int, seconds: float, state: State, ledger: Ledger, samples: Samples
) -> tuple[dict[str, tuple[float, str]], int]:
    """Alternate untraced and traced cycles of the same work.

    A cycle is ``plan.cycle`` rounds, which together audit every case once, so
    every cycle does the same work. Per-layer values are per cycle: times are
    medians over the traced cycles; counts come from the first traced cycle,
    and every later one must repeat them exactly. The tracing overhead is the
    traced cycle time against the untraced one.
    """
    tracer = tracing.Tracer()
    started = perf_counter()
    rounds = 0

    def cycle() -> float:
        nonlocal rounds
        start = perf_counter()
        for _ in range(plan.cycle):
            run_round(plan, seed, rounds, state, ledger, samples)
            rounds += 1
        return perf_counter() - start

    plain_s: list[float] = []
    traced_s: list[float] = []
    per_cycle: list[dict[str, float]] = []
    while len(traced_s) < 2 or perf_counter() - started < seconds:
        plain_s.append(cycle())
        tracer.install()
        tracer.stats.clear()
        try:
            traced_s.append(cycle())
        finally:
            tracer.uninstall()
        per_cycle.append(tracing.layer_values(tracer))

    if tracer.missing:
        print(f"perfbench: hooks not found: {tracer.missing}", flush=True)
    first = per_cycle[0]
    counts = {
        name: value
        for name, value in first.items()
        if PER_LAYER_UNITS[name] not in tracing.TIMED_UNITS
    }
    for later in per_cycle[1:]:
        ledger.check(
            "trace.counts_repeat",
            None
            if all(later.get(name) == value for name, value in counts.items())
            else "per-cycle counts differ between traced cycles",
        )
    metrics = {
        name: (counts[name] if name in counts else statistics.median(c[name] for c in per_cycle),
               PER_LAYER_UNITS[name])
        for name in first
    }
    plain = statistics.median(plain_s)
    traced = statistics.median(traced_s)
    metrics["trace.cycle_s"] = (traced, "s")
    metrics["trace.untraced_cycle_s"] = (plain, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced - plain) / plain, "%")
    return metrics, rounds
