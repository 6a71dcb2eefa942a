"""Toy-size smoke runs of the benchmark harness, untraced and traced.

They keep the harness from rotting: every workload must still run end to
end, pass its output checks and print the metrics BENCHMARK.json names.
They assert nothing about timings.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(run_py: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_prints_every_metric_and_passes_its_checks(workload, trace):
    proc = _run(HERE / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    if trace:
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        assert layers["pipeline.resume_skip_ratio"] == 1.0
        assert layers["pipeline.stages_run"] == layers["pipeline.stages_skipped"] > 0


def _workloads():
    sys.path.insert(0, str(HERE))
    try:
        import workloads
    finally:
        sys.path.remove(str(HERE))
    return workloads


def test_workload_reasons_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == _workloads().WHY


def test_vesta_csv_bytes_depend_on_the_seed_alone(tmp_path):
    write = _workloads().write_vesta_csv
    contents = []
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        write(tmp_path / f"{name}.csv", tmp_path / f"{name}.json", 300, seed)
        contents.append((tmp_path / f"{name}.csv").read_bytes())
    assert contents[0] == contents[1] != contents[2]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path / HERE.name / "run.py", "paper-train", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
