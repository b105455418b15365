"""Benchmark of elusivecodes: certify, deep-walk and verify workloads.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Every pass of a workload runs in a fresh process (worker.py),
so no pass reuses another pass's groups, tables or caches.  Passes run
one after another, single-threaded, until the next one would end after
``--seconds``; at least one runs.  Before them, SETUP_PROBES processes
only set up, so ``setup_s`` is a median over several set-ups.

Every job's output is compared with its golden in ``goldens/``.  The
last line of standard output is one JSON object: with ``--trace 0`` the
end-to-end metrics (medians over the passes), with ``--trace 1`` the
per-layer metrics of one extra traced pass.  The full record, with the
environment stamp and every pass, goes to ``perfbench/out/``, and the
traced pass's spans beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 9
DEADLINE_S = 170.0

# (name, unit); fail_ratio is per-layer because it reads 0 on a healthy run
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_s.p50", "s"),
    ("job_s.max", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("autgroup.generate_group.calls", "count"),
    ("autgroup.generate_group.s", "s"),
    ("autgroup.generate_group.elements", "count"),
    ("autgroup.generate_group.capped", "count"),
    ("autgroup.vertex_action_table.calls", "count"),
    ("autgroup.vertex_action_table.s", "s"),
    ("autgroup.vertex_action_table.bytes", "bytes"),
    ("autgroup.orbit.calls", "count"),
    ("autgroup.orbit.s", "s"),
    ("autgroup.self_s", "s"),
    ("kernels.is_canonical.calls", "count"),
    ("kernels.is_canonical.s", "s"),
    ("kernels.is_canonical.accepted", "count"),
    ("kernels.is_canonical.accept_ratio", "ratio"),
    ("kernels.is_canonical.cells", "computed_count"),
    ("kernels.first_mover.calls", "count"),
    ("kernels.first_mover.s", "s"),
    ("kernels.first_mover.hits", "count"),
    ("kernels.first_mover.hit_ratio", "ratio"),
    ("kernels.first_mover.cells", "computed_count"),
    ("kernels.stabiliser_rows.calls", "count"),
    ("kernels.stabiliser_rows.s", "s"),
    ("kernels.self_s", "s"),
    ("search.search_elusive.calls", "count"),
    ("search.search_elusive.s", "s"),
    ("search.search_elusive.self_s", "s"),
    ("search.enumerate_codes.calls", "count"),
    ("search.enumerate_codes.s", "s"),
    ("search.enumerate_codes.codes", "count"),
    ("search.codes_examined", "count"),
    ("search.codes_per_s", "1/s"),
    ("search.self_s", "s"),
    ("codes.setwise_stabiliser.calls", "count"),
    ("codes.setwise_stabiliser.s", "s"),
    ("codes.are_equivalent.calls", "count"),
    ("codes.are_equivalent.s", "s"),
    ("codes.neighbour_set.calls", "count"),
    ("codes.neighbour_set.s", "s"),
    ("codes.self_s", "s"),
    ("elusive.verify_elusive.calls", "count"),
    ("elusive.verify_elusive.s", "s"),
    ("elusive.verify_elusive.self_s", "s"),
    ("elusive.code_stabiliser_analysis.calls", "count"),
    ("elusive.code_stabiliser_analysis.s", "s"),
    ("elusive.self_s", "s"),
    ("constructions.s", "s"),
    ("trace.overhead_s", "s"),
    ("fail_ratio", "ratio"),
]


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(root: Path, deadline: float, workload: str, seed: int, mode: str,
           spans: Path | None = None) -> dict:
    """Run one worker process to completion and return its record."""
    started = _clock()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--started-at", repr(started)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=_worker_env(root), stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["process_s"] = _clock() - started
    return record


def _pass_metrics(record: dict) -> dict[str, float]:
    times = [job["s"] for job in record["jobs"]]
    return {
        "wall_s": sum(times),
        "job_s.p50": statistics.median(times),
        "job_s.max": max(times),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def _per_layer(traced: dict, untraced_wall: float, fail_ratio: float) -> dict[str, float]:
    raw = dict(traced["per_layer"])
    calls = raw.get("kernels.is_canonical.calls", 0)
    raw["kernels.is_canonical.accept_ratio"] = (
        raw.get("kernels.is_canonical.accepted", 0) / calls if calls else 0.0)
    calls = raw.get("kernels.first_mover.calls", 0)
    raw["kernels.first_mover.hit_ratio"] = (
        raw.get("kernels.first_mover.hits", 0) / calls if calls else 0.0)
    examined = raw.get("search.search_elusive.codes_examined", 0)
    search_s = raw.get("search.search_elusive.s", 0.0)
    raw["search.codes_examined"] = examined
    raw["search.codes_per_s"] = examined / search_s if search_s else 0.0
    raw["trace.overhead_s"] = _pass_metrics(traced)["wall_s"] - untraced_wall
    raw["fail_ratio"] = fail_ratio
    return {name: raw.get(name, 0) for name, _ in PER_LAYER}


def _environment(root: Path, worker: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "elusivecodes").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "none (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or commit
    return {
        "kernel_backend": worker["backend"],
        "python": worker["python"],
        "numpy": worker["numpy"],
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def run(workload: str, seed: int, seconds: int, trace: bool, root: Path) -> tuple[dict, dict]:
    """All processes of one benchmark run; returns (result line, full record)."""
    deadline = _clock() + DEADLINE_S
    probes = [_spawn(root, deadline, workload, seed, "setup") for _ in range(SETUP_PROBES)]
    passes = []
    start = _clock()
    while True:
        passes.append(_spawn(root, deadline, workload, seed, "pass"))
        if _clock() - start + passes[-1]["process_s"] > seconds:
            break
    traced = None
    spans = OUT_DIR / f"{workload}-seed{seed}-spans.json"
    if trace:
        traced = _spawn(root, deadline, workload, seed, "trace", spans)

    timed = passes + ([traced] if traced else [])
    attempted = sum(len(p["jobs"]) for p in timed)
    failed = sum(not job["ok"] for p in timed for job in p["jobs"])
    per_pass = [_pass_metrics(p) for p in passes]
    untraced = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    untraced["setup_s"] = statistics.median(r["setup_s"] for r in probes + passes)

    units = dict(END_TO_END)
    if trace:
        values = _per_layer(traced, untraced["wall_s"], failed / attempted)
        units = dict(PER_LAYER)
    else:
        values = untraced
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "environment": _environment(root, probes[0]),
        "job_order": [job["name"] for job in passes[0]["jobs"]],
        "setup_probes_s": [r["setup_s"] for r in probes],
        "passes": passes,
        "traced_pass": traced,
        "spans_file": spans.name if trace else None,
        "end_to_end": untraced,
        "result": result,
    }
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "elusivecodes" / "__init__.py").is_file():
        print(f"no elusivecodes sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    env = record["environment"]
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"passes={len(record['passes'])} job_order={','.join(record['job_order'])}")
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
