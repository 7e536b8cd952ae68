"""Smoke tests of the benchmark itself: a handful of items per workload.

    python3 -m pytest perfbench -q

Each test runs the benchmark in a scratch copy of `perfbench/` (with
`src/` linked in), so trace files and corrupted answers never touch the
repository.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture
def checkout(tmp_path: Path) -> Path:
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return tmp_path


def bench(cwd: Path, workload: str, *extra: str, seed: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_reports_every_end_to_end_metric(checkout, workload):
    proc = bench(checkout, workload, "--seconds", "60", "--trace", "0", "--max-items", "3")
    assert proc.returncode == 0, proc.stderr
    out = result(proc)
    assert out["correct"] is True
    assert out["attempted"] == 3 and out["failed"] == 0
    assert set(out["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(checkout, workload):
    runs = []
    for _ in range(2):
        proc = bench(checkout, workload, "--seconds", "1", "--trace", "1", "--max-items", "3", seed=5)
        assert proc.returncode == 0, proc.stderr
        out = result(proc)
        assert set(out["metrics"]) == PER_LAYER
        runs.append(out["metrics"])
    counts = [{k: m["value"] for k, m in r.items() if m["unit"] == "count"} for r in runs]
    assert counts[0] == counts[1]
    assert runs[0]["trace.coverage"]["value"] >= 0.95
    assert (checkout / "perfbench" / "out" / f"trace-{workload}-seed5.json.gz").is_file()


def _corrupt(checkout: Path, edit) -> None:
    path = checkout / "perfbench" / "data" / "golden.json"
    golden = json.loads(path.read_text())
    edit(golden)
    path.write_text(json.dumps(golden))


def _bump_line_answer(golden):
    for line in golden["crossing"]["lines"]:
        line[2] += 1


@pytest.mark.parametrize(
    "workload, edit",
    [
        ("census", lambda g: g["census_seed0_report_sha256"].__setitem__(0, "0" * 64)),
        ("crossing", _bump_line_answer),
        ("crossing", lambda g: g["crossing"].__setitem__("partition_sha256", "0" * 64)),
    ],
)
def test_corrupted_golden_value_fails_the_run(checkout, workload, edit):
    _corrupt(checkout, edit)
    proc = bench(checkout, workload, "--seconds", "1", "--trace", "0", "--max-items", "2")
    assert proc.returncode == 1
    assert "WRONG ANSWER" in proc.stderr
    assert result(proc)["correct"] is False


def test_missing_sources_fail_without_a_result(checkout):
    (checkout / "src").unlink()
    proc = bench(checkout, "partition", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
