"""Self-test of the benchmark; a few seconds.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import jobs  # noqa: E402
import run as bench  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(jobs.WORKLOADS)


def test_traced_run_emits_every_per_layer_metric():
    result = _result(_bench("--workload", "selftest", "--seed", "1", "--seconds", "1",
                            "--trace", "1"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    metrics = result["metrics"]
    assert [(name, m["unit"]) for name, m in metrics.items()] == bench.PER_LAYER
    assert metrics["fail_ratio"]["value"] == 0
    # (3,3,3) builds one full group and the alt(3) check one small one
    assert metrics["autgroup.generate_group.calls"]["value"] == 2
    assert metrics["search.codes_examined"]["value"] == 2
    assert metrics["kernels.first_mover.hits"]["value"] == 1


def test_untraced_run_emits_every_end_to_end_metric():
    result = _result(_bench("--workload", "selftest", "--seed", "2", "--seconds", "1",
                            "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert [(name, m["unit"]) for name, m in metrics.items()] == bench.END_TO_END
    assert all(m["value"] > 0 for m in metrics.values())


def test_seeds_relabel_inputs_but_not_golden_fields():
    name = "verify-alt3"
    job = jobs.JOBS[name]
    golden = jobs.load_goldens([name])[name]
    inputs = [jobs.build_inputs([name], seed)[name] for seed in (1, 2)]
    assert inputs[0] == jobs.build_inputs([name], 1)[name]
    assert inputs[0][0] != inputs[1][0]
    for C, gens in inputs:
        assert job.output(job.run((C, gens))) == golden
    assert jobs.job_order("certify", 1) != jobs.job_order("certify", 2)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
