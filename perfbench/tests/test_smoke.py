"""Smoke test of the benchmark: every workload at tiny size, no timing checks.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "1",
            "--trace", str(trace),
            "--smoke",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_with_its_unit(workload: str, trace: int) -> None:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1

    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = result["metrics"]
    assert set(emitted) == {m["name"] for m in expected}
    for metric in expected:
        assert emitted[metric["name"]]["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted[metric["name"]]["value"], (int, float))

    details = next(json.loads(line)["details"] for line in lines if line.startswith('{"details"'))
    checks = details["checks"]
    for label in ("train_mrf.banknote", "holdout.car", "train_mrf.large", "load_forest",
                  "predict_batch", "predict_row", "predict_batch_rand", "audit_feature",
                  "audit_value", "audit_label", "allocate_budget"):
        assert checks.get(label, 0) >= 1, label
    if trace:
        assert checks.get("trace.counts_repeat", 0) >= 1
        # the workload's own plan ran: traced cycles audit all of its cases,
        # six of the 66 for audit (two per round), the three probes otherwise
        audited = details["samples"]["audit_s"]["units"]
        assert audited == (6 if workload == "audit" else 3)

    provenance = json.loads(lines[0])["provenance"]
    assert provenance["seed"] == 3
    for key in ("nproc", "python", "numpy", "git_sha", "src_sha256", "thread_caps"):
        assert key in provenance
    assert all(int(v) <= provenance["nproc"] for v in provenance["thread_caps"].values())


def test_without_library_source_exits_nonzero_without_result(tmp_path: Path) -> None:
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
