"""Smoke test of the benchmark: a few ops per workload, each run twice.

Run from the repository root (it is not part of the tier-1 suite):

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = ROOT / ".bench_results"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def quick(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", "5", "--trace", str(trace), "--quick"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def quick_result(workload: str, trace: int) -> tuple[dict, dict]:
    proc = quick(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((RESULTS_DIR / f"{workload}-seed{SEED}-trace{trace}-quick.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result, record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_no_failures(workload):
    result, record = quick_result(workload, 0)
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert metrics["ok_ratio"]["value"] == 1.0
    assert all(m["value"] > 0 for m in metrics.values())
    assert record["header"]["jobs"] == 1 and record["header"]["seed"] == SEED


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_traced_runs_agree_on_answers_and_work(workload):
    runs = [quick_result(workload, 1) for _ in range(2)]
    for result, _ in runs:
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["per_layer"]
        }

    def answers(record):
        return [(op["key"], op["digest"]) for op in record["ops"]]

    def counts(result):
        return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}

    (first, first_record), (second, second_record) = runs
    assert answers(first_record) == answers(second_record)
    assert all(digest for _, digest in answers(first_record))
    assert counts(first) == counts(second)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = quick("sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
